#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "io/atomic_file.h"
#include "io/csv.h"
#include "io/json.h"
#include "io/json_parse.h"
#include "io/lease.h"
#include "io/table.h"

namespace tsg::io {
namespace {

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

TEST(CsvTest, WriteReadRoundTrip) {
  const std::string path = TempPath("tsg_csv_roundtrip.csv");
  const linalg::Matrix data = {{1.5, -2.0}, {3.25, 4.0}};
  ASSERT_TRUE(WriteCsv(path, {"a", "b"}, data).ok());
  auto read = ReadCsv(path, /*skip_header=*/true);
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE(linalg::AllClose(read.value(), data, 1e-9));
  std::filesystem::remove(path);
}

TEST(CsvTest, NoHeaderRoundTrip) {
  const std::string path = TempPath("tsg_csv_nh.csv");
  const linalg::Matrix data = {{7.0}};
  ASSERT_TRUE(WriteCsv(path, {}, data).ok());
  auto read = ReadCsv(path, /*skip_header=*/false);
  ASSERT_TRUE(read.ok());
  EXPECT_DOUBLE_EQ(read.value()(0, 0), 7.0);
  std::filesystem::remove(path);
}

TEST(CsvTest, ReadMissingFileFails) {
  EXPECT_FALSE(ReadCsv("/nonexistent/path/x.csv", false).ok());
}

TEST(CsvTest, WriteToBadPathFails) {
  EXPECT_FALSE(WriteCsv("/nonexistent/dir/x.csv", {}, linalg::Matrix(1, 1)).ok());
}

TEST(CsvTest, NonNumericCellFails) {
  const std::string path = TempPath("tsg_csv_bad.csv");
  {
    std::ofstream out(path);
    out << "1,hello\n";
  }
  auto read = ReadCsv(path, false);
  EXPECT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kInvalidArgument);
  std::filesystem::remove(path);
}

TEST(CsvTest, RaggedRowsFail) {
  const std::string path = TempPath("tsg_csv_ragged.csv");
  {
    std::ofstream out(path);
    out << "1,2\n3\n";
  }
  EXPECT_FALSE(ReadCsv(path, false).ok());
  std::filesystem::remove(path);
}

TEST(CsvTest, RowsWriter) {
  const std::string path = TempPath("tsg_csv_rows.csv");
  ASSERT_TRUE(WriteCsvRows(path, {{"name", "score"}, {"TimeVAE", "0.1"}}).ok());
  std::ifstream in(path);
  std::string line1, line2;
  std::getline(in, line1);
  std::getline(in, line2);
  EXPECT_EQ(line1, "name,score");
  EXPECT_EQ(line2, "TimeVAE,0.1");
  std::filesystem::remove(path);
}

TEST(CsvTest, TrailingGarbageInNumericCellFails) {
  // "1.5abc" used to silently parse as 1.5 via std::stod.
  const std::string path = TempPath("tsg_csv_garbage.csv");
  {
    std::ofstream out(path);
    out << "1.5abc,2.0\n";
  }
  auto read = ReadCsv(path, false);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kInvalidArgument);
  std::filesystem::remove(path);
}

TEST(CsvTest, DoubleCellRoundTripsEveryPrintedDoubleAndRejectsTheRest) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const double v : {0.0, -0.0, 0.1, -2.5e-3, 1.7976931348623157e308,
                         std::numeric_limits<double>::denorm_min(), 1e-310,
                         std::numeric_limits<double>::infinity(), -nan}) {
    char text[40];
    std::snprintf(text, sizeof(text), "%.17g", v);
    double parsed = 1.0;
    ASSERT_TRUE(ParseDoubleCell(text, &parsed)) << text;
    EXPECT_EQ(std::memcmp(&parsed, &v, sizeof(double)), 0) << text;
  }
  double untouched = 4.0;
  for (const char* bad : {"", " ", "0.5x", "x", "1e999", "-1e999", "1,5"}) {
    EXPECT_FALSE(ParseDoubleCell(bad, &untouched)) << "'" << bad << "'";
  }
  EXPECT_EQ(untouched, 4.0);
}

TEST(CsvTest, CrlfLineEndings) {
  const std::string path = TempPath("tsg_csv_crlf.csv");
  {
    std::ofstream out(path, std::ios::binary);
    out << "a,b\r\n1,2\r\n3,4\r\n";
  }
  auto read = ReadCsv(path, /*skip_header=*/true);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  ASSERT_EQ(read.value().rows(), 2);
  EXPECT_DOUBLE_EQ(read.value()(1, 1), 4.0);
  std::filesystem::remove(path);
}

TEST(CsvTest, TrailingEmptyFieldIsKept) {
  // "1,2,\n" has three fields; the last is empty, which for a numeric read is an
  // error — it must not be silently dropped into a valid 2-column row.
  const std::string path = TempPath("tsg_csv_trailing.csv");
  {
    std::ofstream out(path);
    out << "1,2,\n";
  }
  auto rows = ReadCsvRows(path);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows.value().size(), 1u);
  ASSERT_EQ(rows.value()[0].size(), 3u);
  EXPECT_EQ(rows.value()[0][2], "");
  EXPECT_FALSE(ReadCsv(path, false).ok());  // Empty cell is not a number.
  std::filesystem::remove(path);
}

TEST(CsvTest, EmptyAndHeaderOnlyFilesFail) {
  const std::string path = TempPath("tsg_csv_empty.csv");
  {
    std::ofstream out(path);
  }
  auto empty = ReadCsv(path, /*skip_header=*/false);
  ASSERT_FALSE(empty.ok());
  EXPECT_EQ(empty.status().code(), StatusCode::kInvalidArgument);
  {
    std::ofstream out(path);
    out << "a,b\n";
  }
  auto header_only = ReadCsv(path, /*skip_header=*/true);
  ASSERT_FALSE(header_only.ok());
  EXPECT_EQ(header_only.status().code(), StatusCode::kInvalidArgument);
  std::filesystem::remove(path);
}

TEST(CsvTest, QuotedFieldRoundTrip) {
  // RFC-4180: commas, quotes, and newlines inside a field survive a
  // WriteCsvRows -> ReadCsvRows round trip.
  const std::string path = TempPath("tsg_csv_quoted.csv");
  const std::vector<std::vector<std::string>> rows = {
      {"method", "error"},
      {"TimeGAN", "fit failed: loss=nan, epoch 3"},
      {"RGAN", "line one\nline \"two\""},
      {"LS4", ""},
  };
  ASSERT_TRUE(WriteCsvRows(path, rows).ok());
  auto read = ReadCsvRows(path);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read.value(), rows);
  std::filesystem::remove(path);
}

TEST(CsvTest, EscapeCsvFieldQuotesOnlyWhenNeeded) {
  EXPECT_EQ(EscapeCsvField("plain"), "plain");
  EXPECT_EQ(EscapeCsvField("a,b"), "\"a,b\"");
  EXPECT_EQ(EscapeCsvField("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(EscapeCsvField("two\nlines"), "\"two\nlines\"");
}

TEST(CsvTest, UnterminatedQuoteFails) {
  const std::string path = TempPath("tsg_csv_unterminated.csv");
  {
    std::ofstream out(path);
    out << "\"never closed,1\n";
  }
  EXPECT_FALSE(ReadCsvRows(path).ok());
  std::filesystem::remove(path);
}

TEST(AtomicFileTest, WritesContentAndLeavesNoTempFile) {
  const std::string path = TempPath("tsg_atomic.txt");
  ASSERT_TRUE(WriteFileAtomic(path, "hello\n").ok());
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  EXPECT_EQ(os.str(), "hello\n");
  const std::string name = std::filesystem::path(path).filename().string();
  for (const auto& entry :
       std::filesystem::directory_iterator(std::filesystem::temp_directory_path())) {
    EXPECT_NE(entry.path().filename().string().rfind(name + ".tmp", 0), 0u)
        << "temp file left behind: " << entry.path();
  }
  // Overwrite is atomic too: the new content fully replaces the old.
  ASSERT_TRUE(WriteFileAtomic(path, "v2").ok());
  std::ifstream in2(path);
  std::ostringstream os2;
  os2 << in2.rdbuf();
  EXPECT_EQ(os2.str(), "v2");
  std::filesystem::remove(path);
}

// Writers racing on one path (two grid workers finishing at once, two daemon
// fits of one model) must each publish a whole file: a reader sees the path
// absent or holding exactly one writer's content, never a torn or empty one.
TEST(AtomicFileTest, ConcurrentWritersOfOnePathPublishWholeFiles) {
  const std::filesystem::path dir = TempPath("tsg_atomic_race");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "summary.json").string();
  constexpr int kWriters = 4;
  constexpr int kRounds = 300;
  std::vector<std::string> contents;
  for (int w = 0; w < kWriters; ++w) {
    contents.push_back(std::string(static_cast<size_t>(65536 + 4096 * w),
                                   static_cast<char>('a' + w)));
  }
  std::atomic<bool> writing{true};
  std::atomic<int> failed_writes{0};
  std::atomic<int> bad_reads{0};
  std::thread reader([&] {
    while (writing.load()) {
      const StatusOr<std::string> read = ReadFileToString(path);
      if (read.ok() && std::find(contents.begin(), contents.end(), read.value()) ==
                           contents.end()) {
        bad_reads.fetch_add(1);
      }
    }
  });
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (int r = 0; r < kRounds; ++r) {
        if (!WriteFileAtomic(path, contents[static_cast<size_t>(w)]).ok()) {
          failed_writes.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : writers) t.join();
  writing.store(false);
  reader.join();
  EXPECT_EQ(failed_writes.load(), 0);
  EXPECT_EQ(bad_reads.load(), 0);
  // Only the target is left: every temp file was renamed into place.
  std::vector<std::string> left;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    left.push_back(entry.path().filename().string());
  }
  EXPECT_EQ(left, std::vector<std::string>{"summary.json"});
  std::filesystem::remove_all(dir);
}

TEST(AtomicFileTest, BadDirectoryFails) {
  EXPECT_FALSE(WriteFileAtomic("/nonexistent/dir/x.txt", "x").ok());
}

TEST(LeaseTest, AcquireIsExclusive) {
  const std::string path = TempPath("tsg_lease_excl.lease");
  std::filesystem::remove(path);
  const auto first = AcquireLease(path, LeaseOwnerToken());
  ASSERT_TRUE(first.ok());
  EXPECT_TRUE(first.value());
  const auto second = AcquireLease(path, "other:1:1");
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(second.value());  // Already held, not an error.
  ASSERT_TRUE(ReleaseLease(path, LeaseOwnerToken()).ok());
  EXPECT_FALSE(std::filesystem::exists(path));
}

TEST(LeaseTest, ReleaseRefusesForeignToken) {
  const std::string path = TempPath("tsg_lease_foreign.lease");
  std::filesystem::remove(path);
  ASSERT_TRUE(AcquireLease(path, "thief:12:34").value());
  const Status release = ReleaseLease(path, LeaseOwnerToken());
  EXPECT_EQ(release.code(), StatusCode::kFailedPrecondition);
  EXPECT_TRUE(std::filesystem::exists(path));  // The holder's file survives.
  std::filesystem::remove(path);
}

TEST(LeaseTest, ProbeClassifiesOwnLeaseAsLive) {
  const std::string path = TempPath("tsg_lease_live.lease");
  std::filesystem::remove(path);
  ASSERT_TRUE(AcquireLease(path, LeaseOwnerToken()).value());
  // Our own pid is alive, so even a zero TTL cannot mark the lease stale.
  EXPECT_EQ(ProbeLease(path, 0.0), LeaseState::kLive);
  std::filesystem::remove(path);
  EXPECT_EQ(ProbeLease(path, 0.0), LeaseState::kFree);
}

TEST(LeaseTest, ProbeDetectsDeadSameHostOwner) {
  // A forked child that has already exited and been reaped gives a pid that is
  // guaranteed dead — the exact state a killed worker leaves behind.
  const pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) _exit(0);
  int wstatus = 0;
  ASSERT_EQ(waitpid(child, &wstatus, 0), child);

  char host[256] = {};
  ASSERT_EQ(gethostname(host, sizeof(host) - 1), 0);
  const std::string path = TempPath("tsg_lease_dead.lease");
  std::filesystem::remove(path);
  const std::string dead_token =
      std::string(host) + ":" + std::to_string(child) + ":feed";
  ASSERT_TRUE(AcquireLease(path, dead_token).value());
  // Dead owners are reclaimable immediately, with any TTL.
  EXPECT_EQ(ProbeLease(path, 1e9), LeaseState::kDead);
  std::filesystem::remove(path);
}

TEST(LeaseTest, ProbeAppliesTtlToForeignHosts) {
  const std::string path = TempPath("tsg_lease_ttl.lease");
  std::filesystem::remove(path);
  // A foreign host cannot be pid-probed, so only the age TTL applies.
  ASSERT_TRUE(AcquireLease(path, "some-other-host:1:1").value());
  EXPECT_EQ(ProbeLease(path, 1e9), LeaseState::kLive);
  EXPECT_EQ(ProbeLease(path, 0.0), LeaseState::kDead);
  std::filesystem::remove(path);
}

TEST(LeaseTest, ForeignHostLeaseStealsOnlyAfterTtlExpiry) {
  const std::string path = TempPath("tsg_lease_foreign_steal.lease");
  std::filesystem::remove(path);
  ASSERT_TRUE(AcquireLease(path, "other-host:4242:beef").value());

  // A fresh foreign lease is live under any reasonable TTL, so a cooperating
  // worker must refuse to steal — the owner cannot be pid-probed.
  EXPECT_EQ(ProbeLease(path, 3600.0), LeaseState::kLive);

  // Back-date the lease file past the TTL: now the mtime rule declares the
  // foreign owner dead and the full steal protocol applies.
  std::filesystem::last_write_time(
      path, std::filesystem::file_time_type::clock::now() -
                std::chrono::hours(2));
  std::string owner;
  EXPECT_EQ(ProbeLease(path, 3600.0, &owner), LeaseState::kDead);
  EXPECT_EQ(owner, "other-host:4242:beef");

  const auto broke = BreakLease(path, owner, LeaseOwnerToken());
  ASSERT_TRUE(broke.ok());
  EXPECT_TRUE(broke.value());
  ASSERT_TRUE(AcquireLease(path, LeaseOwnerToken()).value());
  EXPECT_EQ(ProbeLease(path, 3600.0), LeaseState::kLive);  // Ours, alive.
  ASSERT_TRUE(ReleaseLease(path, LeaseOwnerToken()).ok());
  EXPECT_FALSE(std::filesystem::exists(path));
}

TEST(LeaseTest, UnparseableTokenIsTreatedAsForeign) {
  const std::string path = TempPath("tsg_lease_garbled.lease");
  std::filesystem::remove(path);
  // A token with no host:pid:nonce shape cannot be probed; only TTL applies.
  ASSERT_TRUE(AcquireLease(path, "not a lease token").value());
  EXPECT_EQ(ProbeLease(path, 1e9), LeaseState::kLive);
  EXPECT_EQ(ProbeLease(path, 0.0), LeaseState::kDead);
  std::filesystem::remove(path);
}

TEST(LeaseTest, BreakLeaseHandsExactlyOneStealerTheWin) {
  const std::string path = TempPath("tsg_lease_steal.lease");
  std::filesystem::remove(path);
  ASSERT_TRUE(AcquireLease(path, "casualty:999999:0").value());

  constexpr int kStealers = 8;
  std::atomic<int> wins{0};
  std::vector<std::thread> threads;
  threads.reserve(kStealers);
  for (int i = 0; i < kStealers; ++i) {
    threads.emplace_back([&, i] {
      const auto broke =
          BreakLease(path, "casualty:999999:0", "stealer:1:" + std::to_string(i));
      if (broke.ok() && broke.value()) wins.fetch_add(1);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(wins.load(), 1);
  EXPECT_FALSE(std::filesystem::exists(path));
  // No stale sidecars survive a successful break.
  for (const auto& entry : std::filesystem::directory_iterator(
           std::filesystem::temp_directory_path())) {
    EXPECT_EQ(entry.path().filename().string().find("tsg_lease_steal"),
              std::string::npos)
        << entry.path();
  }
}

// Survivor A probes a dead owner; before A breaks, survivor B breaks that
// lease and claims the cell. A's break must leave B's live lease in place.
TEST(LeaseTest, BreakLeavesALeaseTakenAfterTheProbe) {
  const std::string path = TempPath("tsg_lease_probe_race.lease");
  std::filesystem::remove(path);
  const std::string dead = "other-host:4242:dead";
  ASSERT_TRUE(AcquireLease(path, dead).value());
  std::string probed_by_a;
  std::string probed_by_b;
  ASSERT_EQ(ProbeLease(path, 0.0, &probed_by_a), LeaseState::kDead);
  ASSERT_EQ(ProbeLease(path, 0.0, &probed_by_b), LeaseState::kDead);
  EXPECT_EQ(probed_by_a, dead);

  ASSERT_TRUE(BreakLease(path, probed_by_b, "b:2:2").value());
  ASSERT_TRUE(AcquireLease(path, LeaseOwnerToken()).value());
  const auto broke = BreakLease(path, probed_by_a, "a:1:1");
  ASSERT_TRUE(broke.ok()) << broke.status().ToString();
  EXPECT_FALSE(broke.value());
  const auto held = ReadFileToString(path);
  ASSERT_TRUE(held.ok());
  EXPECT_EQ(held.value(), LeaseOwnerToken() + "\n");
  EXPECT_FALSE(std::filesystem::exists(path + ".stale-a_1_1"));
  EXPECT_TRUE(ReleaseLease(path, LeaseOwnerToken()).ok());
}

TEST(LeaseTest, ConcurrentAcquireHandsExactlyOneClaimantTheWin) {
  const std::string path = TempPath("tsg_lease_race.lease");
  std::filesystem::remove(path);
  constexpr int kClaimants = 8;
  std::atomic<int> wins{0};
  std::vector<std::thread> threads;
  threads.reserve(kClaimants);
  for (int i = 0; i < kClaimants; ++i) {
    threads.emplace_back([&, i] {
      const auto got = AcquireLease(path, "claimant:1:" + std::to_string(i));
      if (got.ok() && got.value()) wins.fetch_add(1);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(wins.load(), 1);
  EXPECT_TRUE(std::filesystem::exists(path));
  std::filesystem::remove(path);
}

TEST(JsonWriterTest, ObjectsArraysAndEscaping) {
  JsonWriter json;
  json.BeginObject();
  json.Key("name").String("he said \"hi\"\n");
  json.Key("values").BeginArray().Int(1).Number(0.5).Null().EndArray();
  json.Key("ok").Bool(true);
  json.EndObject();
  EXPECT_EQ(json.str(),
            "{\"name\":\"he said \\\"hi\\\"\\n\","
            "\"values\":[1,0.5,null],\"ok\":true}");
}

TEST(JsonWriterTest, NonFiniteNumbersBecomeNull) {
  JsonWriter json;
  json.BeginArray().Number(std::nan("")).Number(1.0).EndArray();
  EXPECT_EQ(json.str(), "[null,1]");
}

TEST(JsonParseTest, ParsesEveryValueKind) {
  const auto doc = JsonValue::Parse(
      " {\"n\":null,\"t\":true,\"f\":false,\"i\":-42,\"d\":2.5e3,"
      "\"s\":\"hi\",\"a\":[1,[2]],\"o\":{\"k\":\"v\"}} ");
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const JsonValue& v = doc.value();
  ASSERT_TRUE(v.is_object());
  EXPECT_TRUE(v.Find("n")->is_null());
  EXPECT_TRUE(v.GetBool("t", false));
  EXPECT_FALSE(v.GetBool("f", true));
  EXPECT_EQ(v.GetInt("i", 0), -42);
  EXPECT_EQ(v.GetNumber("d", 0.0), 2500.0);
  EXPECT_EQ(v.GetString("s", ""), "hi");
  ASSERT_TRUE(v.Find("a")->is_array());
  ASSERT_EQ(v.Find("a")->array_items().size(), 2u);
  EXPECT_EQ(v.Find("a")->array_items()[1].array_items()[0].number_value(), 2.0);
  EXPECT_EQ(v.Find("o")->GetString("k", ""), "v");
}

TEST(JsonParseTest, RoundTripsJsonWriterOutput) {
  JsonWriter json;
  json.BeginObject();
  json.Key("name").String("line\nbreak \"quoted\" \\ slash");
  json.Key("values").BeginArray().Int(7).Number(0.125).Null().EndArray();
  json.EndObject();
  const auto doc = JsonValue::Parse(json.str());
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc.value().GetString("name", ""),
            "line\nbreak \"quoted\" \\ slash");
  EXPECT_EQ(doc.value().Find("values")->array_items()[1].number_value(), 0.125);
}

TEST(JsonParseTest, DecodesEscapesAndSurrogatePairs) {
  const auto doc = JsonValue::Parse(
      "\"\\u0041\\u00e9\\u20ac\\ud83d\\ude00\\t\\/\"");
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  // A, e-acute, euro sign, and an emoji through a UTF-16 surrogate pair.
  EXPECT_EQ(doc.value().string_value(), "A\xc3\xa9\xe2\x82\xac\xf0\x9f\x98\x80\t/");
  // A lone high surrogate is malformed.
  EXPECT_FALSE(JsonValue::Parse("\"\\ud83d\"").ok());
  EXPECT_FALSE(JsonValue::Parse("\"\\ud83dx\"").ok());
}

TEST(JsonParseTest, RejectsNonStrictGrammar) {
  EXPECT_FALSE(JsonValue::Parse("").ok());
  EXPECT_FALSE(JsonValue::Parse("{\"a\":1,}").ok());   // Trailing comma.
  EXPECT_FALSE(JsonValue::Parse("[1,2] junk").ok());   // Trailing bytes.
  EXPECT_FALSE(JsonValue::Parse("{'a':1}").ok());      // Single quotes.
  EXPECT_FALSE(JsonValue::Parse("NaN").ok());          // No non-finite literals.
  EXPECT_FALSE(JsonValue::Parse("// c\n1").ok());      // No comments.
  EXPECT_FALSE(JsonValue::Parse("{\"a\" 1}").ok());    // Missing colon.
  EXPECT_FALSE(JsonValue::Parse("[01]").ok());         // Leading zero.
  EXPECT_FALSE(JsonValue::Parse("\"unterminated").ok());
  EXPECT_FALSE(JsonValue::Parse("truth").ok());
}

TEST(JsonParseTest, ReportsByteOffsetOnError) {
  const auto doc = JsonValue::Parse("{\"ok\":tru}");
  ASSERT_FALSE(doc.ok());
  EXPECT_NE(doc.status().message().find("at byte"), std::string::npos)
      << doc.status().ToString();
}

TEST(JsonParseTest, EnforcesNestingDepthCap) {
  // 64 levels parse; past the cap is a syntax error, not a stack overflow.
  const std::string ok(64, '[');
  ASSERT_TRUE(JsonValue::Parse(ok + std::string(64, ']')).ok());
  const std::string deep(80, '[');
  EXPECT_FALSE(JsonValue::Parse(deep + std::string(80, ']')).ok());
}

TEST(JsonParseTest, TypedLookupsFallBackOnAbsenceAndKindMismatch) {
  const auto doc =
      JsonValue::Parse("{\"s\":\"x\",\"i\":3,\"half\":2.5,\"big\":1e300}");
  ASSERT_TRUE(doc.ok());
  const JsonValue& v = doc.value();
  EXPECT_EQ(v.GetString("missing", "dflt"), "dflt");
  EXPECT_EQ(v.GetString("i", "dflt"), "dflt");  // Kind mismatch.
  EXPECT_EQ(v.GetInt("s", -1), -1);
  EXPECT_EQ(v.GetInt("half", -1), -1);  // Non-integral number.
  EXPECT_EQ(v.GetInt("big", -1), -1);   // Not representable in int64.
  EXPECT_EQ(v.GetInt("i", -1), 3);
  EXPECT_EQ(v.Find("missing"), nullptr);
  // Find on a non-object is a graceful nullptr.
  const auto arr = JsonValue::Parse("[1]");
  ASSERT_TRUE(arr.ok());
  EXPECT_EQ(arr.value().Find("k"), nullptr);
}

TEST(JsonParseTest, DuplicateKeysKeepFirstInFind) {
  const auto doc = JsonValue::Parse("{\"k\":1,\"k\":2}");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc.value().Find("k")->number_value(), 1.0);
  EXPECT_EQ(doc.value().object_items().size(), 2u);  // Both kept in order.
}

TEST(TableTest, AlignedRendering) {
  Table table({"method", "score"});
  table.AddRow({"RGAN", "0.45"});
  table.AddRow({"TimeVQVAE", "0.1"});
  const std::string out = table.ToString();
  EXPECT_NE(out.find("method"), std::string::npos);
  EXPECT_NE(out.find("TimeVQVAE"), std::string::npos);
  // Header separator line exists.
  EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(TableTest, NumFormatting) {
  EXPECT_EQ(Table::Num(1.23456, 2), "1.23");
  EXPECT_EQ(Table::Num(-0.5, 3), "-0.500");
  EXPECT_EQ(Table::MeanStd(0.1, 0.02, 2), "0.10+-0.02");
}

TEST(TableDeathTest, WrongWidthAborts) {
  Table table({"a", "b"});
  EXPECT_DEATH(table.AddRow({"only-one"}), "TSG_CHECK");
}

}  // namespace
}  // namespace tsg::io
