#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/dataset.h"
#include "core/harness.h"
#include "core/method.h"
#include "data/simulators.h"
#include "methods/factory.h"
#include "nn/dense.h"
#include "nn/serialize.h"
#include "obs/metrics.h"
#include "store/artifact_store.h"
#include "store/serving_cache.h"

namespace tsg::store {
namespace {

using core::Dataset;
using core::FitOptions;
using core::GenRequest;
using core::MethodSnapshot;
using core::ModelKey;
using linalg::Matrix;

Dataset TinyDataset(int64_t count = 48, int64_t l = 16, int64_t n = 3) {
  return Dataset("tiny", data::SineBenchmark(count, l, n, /*seed=*/7));
}

FitOptions QuickFit() {
  FitOptions options;
  options.epoch_scale = 0.08;  // A handful of epochs: smoke-test budget.
  options.batch_size = 16;
  options.seed = 11;
  return options;
}

/// A fresh per-test store directory under the gtest temp root.
std::string TempStoreDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "tsg_store_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

bool SamplesBitEqual(const std::vector<Matrix>& a, const std::vector<Matrix>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].rows() != b[i].rows() || a[i].cols() != b[i].cols()) return false;
    if (std::memcmp(a[i].data(), b[i].data(),
                    sizeof(double) * static_cast<size_t>(a[i].size())) != 0) {
      return false;
    }
  }
  return true;
}

int64_t CounterValue(const char* name) {
  return obs::MetricRegistry::Global().GetCounter(name).value();
}

MethodSnapshot SmallSnapshot() {
  MethodSnapshot snap;
  snap.config = {{"seq_len", "16"}, {"num_features", "3"}};
  Matrix a(2, 3);
  for (int64_t i = 0; i < a.size(); ++i) a[i] = 0.125 * static_cast<double>(i);
  Matrix b(1, 4);
  b[0] = -1.5;
  b[1] = 3.25e-9;
  b[2] = 0.0;
  b[3] = 7.75e11;
  snap.params = {std::move(a), std::move(b)};
  return snap;
}

ModelKey SmallKey() {
  ModelKey key;
  key.method = "TimeVAE";
  key.hyper_digest = 0x1234;
  key.dataset_fingerprint = 0xabcd;
  key.seed = 11;
  key.epoch_scale = 0.08;
  key.batch_size = 16;
  return key;
}

// ---- Every method: fit -> publish -> load -> restore -> identical bytes. ----

class StoreMethodTest : public ::testing::TestWithParam<std::string> {};

TEST_P(StoreMethodTest, SaveLoadRestoreGeneratesIdentically) {
  auto fitted = methods::CreateMethod(GetParam());
  ASSERT_TRUE(fitted.ok());
  const Dataset train = TinyDataset();
  const FitOptions fit = QuickFit();
  ASSERT_TRUE(fitted.value()->Fit(train, fit).ok());

  ArtifactStore store(TempStoreDir("roundtrip_" + GetParam()));
  const ModelKey key = ModelKey::For(*fitted.value(), train, fit);
  auto snapshot = fitted.value()->Snapshot();
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  ASSERT_TRUE(store.Save(key, snapshot.value()).ok());

  auto loaded = store.Load(key);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  auto restored = methods::CreateMethod(GetParam());
  ASSERT_TRUE(restored.ok());
  const Status restore_status = restored.value()->Restore(loaded.value());
  ASSERT_TRUE(restore_status.ok()) << restore_status.ToString();

  Rng rng_a(123), rng_b(123);
  EXPECT_TRUE(SamplesBitEqual(fitted.value()->Generate(6, rng_a),
                              restored.value()->Generate(6, rng_b)));
}

TEST_P(StoreMethodTest, BatchedGenerateMatchesSequential) {
  auto method = methods::CreateMethod(GetParam());
  ASSERT_TRUE(method.ok());
  ASSERT_TRUE(method.value()->Fit(TinyDataset(), QuickFit()).ok());

  // Odd split: repeated seeds, an empty request, unordered counts.
  const std::vector<GenRequest> requests = {
      {2, 5}, {3, 99}, {0, 7}, {1, 5}, {4, 42}};
  const auto batched = method.value()->GenerateBatch(requests);
  ASSERT_EQ(batched.size(), requests.size());
  for (size_t j = 0; j < requests.size(); ++j) {
    Rng rng(requests[j].seed);
    EXPECT_TRUE(SamplesBitEqual(
        batched[j], method.value()->Generate(requests[j].count, rng)))
        << GetParam() << " request " << j;
  }
}

INSTANTIATE_TEST_SUITE_P(AllMethods, StoreMethodTest,
                         ::testing::ValuesIn(methods::AllMethodNames()),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (!std::isalnum(static_cast<unsigned char>(c))) {
                               c = '_';
                             }
                           }
                           return name;
                         });

// ---- Artifact container integrity. ----

TEST(ArtifactStoreTest, LoadMissingIsNotFound) {
  ArtifactStore store(TempStoreDir("missing"));
  auto loaded = store.Load(SmallKey());
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

TEST(ArtifactStoreTest, SaveThenLoadRoundTripsSnapshot) {
  ArtifactStore store(TempStoreDir("roundtrip_unit"));
  const ModelKey key = SmallKey();
  const MethodSnapshot snap = SmallSnapshot();
  ASSERT_TRUE(store.Save(key, snap).ok());
  auto loaded = store.Load(key);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().config, snap.config);
  EXPECT_TRUE(SamplesBitEqual(loaded.value().params, snap.params));
}

TEST(ArtifactStoreTest, TruncatedArtifactFailsToLoad) {
  ArtifactStore store(TempStoreDir("truncated"));
  const ModelKey key = SmallKey();
  ASSERT_TRUE(store.Save(key, SmallSnapshot()).ok());
  const std::string path = store.PathFor(key);
  const auto size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, size - 10);
  auto loaded = store.Load(key);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().code(), StatusCode::kNotFound);
}

TEST(ArtifactStoreTest, BitFlipFailsChecksum) {
  ArtifactStore store(TempStoreDir("bitflip"));
  const ModelKey key = SmallKey();
  ASSERT_TRUE(store.Save(key, SmallSnapshot()).ok());
  const std::string path = store.PathFor(key);
  std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
  // Flip one bit near the end of the payload (inside a tensor value).
  file.seekg(0, std::ios::end);
  const auto size = file.tellg();
  file.seekg(static_cast<std::streamoff>(size) - 4);
  char c = 0;
  file.get(c);
  file.seekp(static_cast<std::streamoff>(size) - 4);
  file.put(static_cast<char>(c ^ 0x01));
  file.close();
  auto loaded = store.Load(key);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().ToString().find("checksum"), std::string::npos)
      << loaded.status().ToString();
}

TEST(ArtifactStoreTest, TrailingGarbageFailsToLoad) {
  ArtifactStore store(TempStoreDir("trailing"));
  const ModelKey key = SmallKey();
  ASSERT_TRUE(store.Save(key, SmallSnapshot()).ok());
  {
    std::ofstream file(store.PathFor(key), std::ios::app | std::ios::binary);
    file << "extra bytes";
  }
  EXPECT_FALSE(store.Load(key).ok());
}

TEST(ArtifactStoreTest, KeyMismatchFailsEvenWithValidContainer) {
  ArtifactStore store(TempStoreDir("keymismatch"));
  const ModelKey key = SmallKey();
  ASSERT_TRUE(store.Save(key, SmallSnapshot()).ok());
  // Plant the valid artifact at a different key's address (stale or colliding
  // file); the header check must refuse it.
  ModelKey other = key;
  other.seed = 12;
  std::filesystem::copy_file(store.PathFor(key), store.PathFor(other));
  auto loaded = store.Load(other);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().ToString().find("key mismatch"), std::string::npos);
}

TEST(ArtifactStoreTest, NonTokenConfigRefusesToSerialize) {
  MethodSnapshot snap = SmallSnapshot();
  snap.config.emplace_back("bad key", "value with spaces");
  ASSERT_FALSE(ArtifactStore::SerializeArtifact(SmallKey(), snap).ok());
}

TEST(ArtifactStoreTest, CorruptCounterTracksBadArtifacts) {
  ArtifactStore store(TempStoreDir("corrupt_counter"));
  const ModelKey key = SmallKey();
  ASSERT_TRUE(store.Save(key, SmallSnapshot()).ok());
  std::filesystem::resize_file(store.PathFor(key), 7);
  const int64_t before = CounterValue("store.corrupt");
  EXPECT_FALSE(store.Load(key).ok());
  EXPECT_EQ(CounterValue("store.corrupt"), before + 1);
}

// ---- Restore validation. ----

TEST(RestoreValidationTest, ConfigShapeMismatchFailsCleanly) {
  auto method = methods::CreateMethod("TimeVAE");
  ASSERT_TRUE(method.ok());
  ASSERT_TRUE(method.value()->Fit(TinyDataset(), QuickFit()).ok());
  auto snapshot = method.value()->Snapshot();
  ASSERT_TRUE(snapshot.ok());
  // Claim a different window length: the stored tensors no longer match the
  // rebuilt architecture, which must fail instead of loading garbage.
  for (auto& [k, v] : snapshot.value().config) {
    if (k == "seq_len") v = "12";
  }
  auto fresh = methods::CreateMethod("TimeVAE");
  ASSERT_TRUE(fresh.ok());
  EXPECT_FALSE(fresh.value()->Restore(snapshot.value()).ok());
}

TEST(RestoreValidationTest, TamperedParamShapeFailsCleanly) {
  auto method = methods::CreateMethod("LS4");
  ASSERT_TRUE(method.ok());
  ASSERT_TRUE(method.value()->Fit(TinyDataset(), QuickFit()).ok());
  auto snapshot = method.value()->Snapshot();
  ASSERT_TRUE(snapshot.ok());
  snapshot.value().params[0] = Matrix(1, 1);
  auto fresh = methods::CreateMethod("LS4");
  ASSERT_TRUE(fresh.ok());
  EXPECT_FALSE(fresh.value()->Restore(snapshot.value()).ok());
}

TEST(RestoreValidationTest, ParamCountMismatchFailsCleanly) {
  auto method = methods::CreateMethod("TimeVAE");
  ASSERT_TRUE(method.ok());
  ASSERT_TRUE(method.value()->Fit(TinyDataset(), QuickFit()).ok());
  auto snapshot = method.value()->Snapshot();
  ASSERT_TRUE(snapshot.ok());
  // Every tensor keeps its shape, but one is missing: a snapshot of another
  // architecture must not load by position.
  snapshot.value().params.pop_back();
  auto fresh = methods::CreateMethod("TimeVAE");
  ASSERT_TRUE(fresh.ok());
  const Status restored = fresh.value()->Restore(snapshot.value());
  ASSERT_FALSE(restored.ok());
  EXPECT_NE(restored.ToString().find("tensors"), std::string::npos)
      << restored.ToString();
}

TEST(RestoreValidationTest, MissingConfigKeyFailsCleanly) {
  auto method = methods::CreateMethod("RGAN");
  ASSERT_TRUE(method.ok());
  ASSERT_TRUE(method.value()->Fit(TinyDataset(), QuickFit()).ok());
  auto snapshot = method.value()->Snapshot();
  ASSERT_TRUE(snapshot.ok());
  snapshot.value().config.clear();
  auto fresh = methods::CreateMethod("RGAN");
  ASSERT_TRUE(fresh.ok());
  EXPECT_FALSE(fresh.value()->Restore(snapshot.value()).ok());
}

// ---- Harness integration: warm cell skips Fit and scores identically. ----

TEST(HarnessStoreTest, SecondRunRestoresInsteadOfFitting) {
  const Dataset train = TinyDataset(48, 16, 2);
  const Dataset test("tiny_test", data::SineBenchmark(12, 16, 2, /*seed=*/8));

  core::HarnessOptions options;
  options.fit = QuickFit();
  options.stochastic_repeats = 2;
  options.max_eval_samples = 32;
  options.embedder.epochs = 2;
  ArtifactStore store(TempStoreDir("harness"));
  options.store = &store;
  core::Harness harness(options);

  const int64_t fits_before = CounterValue("harness.fit_calls");
  const int64_t restored_before = CounterValue("harness.store.restored");

  auto cold_method = methods::CreateMethod("TimeVAE");
  ASSERT_TRUE(cold_method.ok());
  auto cold = harness.RunMethod(*cold_method.value(), train, test);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_EQ(CounterValue("harness.fit_calls"), fits_before + 1);
  EXPECT_EQ(CounterValue("harness.store.restored"), restored_before);

  auto warm_method = methods::CreateMethod("TimeVAE");
  ASSERT_TRUE(warm_method.ok());
  auto warm = harness.RunMethod(*warm_method.value(), train, test);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_EQ(CounterValue("harness.fit_calls"), fits_before + 1);
  EXPECT_EQ(CounterValue("harness.store.restored"), restored_before + 1);
  EXPECT_EQ(warm.value().fit_seconds, 0.0);

  // The warm cell must score byte-identically to the cold one.
  ASSERT_EQ(warm.value().scores.size(), cold.value().scores.size());
  for (size_t i = 0; i < cold.value().scores.size(); ++i) {
    EXPECT_EQ(warm.value().scores[i].first, cold.value().scores[i].first);
    EXPECT_EQ(warm.value().scores[i].second.mean,
              cold.value().scores[i].second.mean);
    EXPECT_EQ(warm.value().scores[i].second.std,
              cold.value().scores[i].second.std);
  }
}

// ---- Serving cache. ----

TEST(ServingCacheTest, ServesBitIdenticalBatchesFromOneRestore) {
  auto method = methods::CreateMethod("LS4");
  ASSERT_TRUE(method.ok());
  const Dataset train = TinyDataset();
  const FitOptions fit = QuickFit();
  ASSERT_TRUE(method.value()->Fit(train, fit).ok());
  const ModelKey key = ModelKey::For(*method.value(), train, fit);

  ArtifactStore store(TempStoreDir("serving"));
  auto snapshot = method.value()->Snapshot();
  ASSERT_TRUE(snapshot.ok());
  ASSERT_TRUE(store.Save(key, snapshot.value()).ok());

  ServingCache cache(&store);
  const std::vector<GenRequest> requests = {{3, 17}, {2, 4}};
  auto first = cache.Generate(key, requests);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  auto second = cache.Generate(key, requests);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(cache.size(), 1u);  // One restore served both calls.

  ASSERT_EQ(first.value().size(), requests.size());
  for (size_t j = 0; j < requests.size(); ++j) {
    Rng rng(requests[j].seed);
    EXPECT_TRUE(SamplesBitEqual(
        first.value()[j], method.value()->Generate(requests[j].count, rng)));
    EXPECT_TRUE(SamplesBitEqual(first.value()[j], second.value()[j]));
  }
}

TEST(ServingCacheTest, MissingArtifactFailsWithNotFound) {
  ArtifactStore store(TempStoreDir("serving_missing"));
  ServingCache cache(&store);
  auto result = cache.Generate(SmallKey(), {{1, 1}});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

/// One fitted model published under several distinct keys (the store records
/// the key per artifact, so the same snapshot serves as N cache entries of
/// equal size — ideal for deterministic LRU arithmetic).
class ServingCacheEvictionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto method = methods::CreateMethod("LS4");
    ASSERT_TRUE(method.ok());
    ASSERT_TRUE(method.value()->Fit(train_, fit_).ok());
    method_ = std::move(method.value());
    // One directory per test: ctest runs this fixture's tests in parallel, and
    // a shared directory lets one SetUp wipe another test's artifacts.
    store_ = std::make_unique<ArtifactStore>(TempStoreDir(
        std::string("serving_lru_") +
        ::testing::UnitTest::GetInstance()->current_test_info()->name()));
    auto snapshot = method_->Snapshot();
    ASSERT_TRUE(snapshot.ok());
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(store_->Save(NthKey(i), snapshot.value()).ok());
    }
  }

  ModelKey NthKey(int i) const {
    ModelKey key = ModelKey::For(*method_, train_, fit_);
    key.seed = fit_.seed + i;  // Distinct addresses, identical payloads.
    return key;
  }

  /// Estimated resident bytes of one model, measured on an unbounded cache.
  int64_t OneModelBytes() {
    ServingCache probe(store_.get(), /*max_bytes=*/0);
    EXPECT_TRUE(probe.GetMethod(NthKey(0)).ok());
    return probe.resident_bytes();
  }

  Dataset train_ = TinyDataset();
  FitOptions fit_ = QuickFit();
  std::unique_ptr<core::TsgMethod> method_;
  std::unique_ptr<ArtifactStore> store_;
};

TEST_F(ServingCacheEvictionTest, ByteCapEvictsLeastRecentlyUsed) {
  const int64_t one = OneModelBytes();
  ASSERT_GT(one, 0);
  // Room for two resident models, not three.
  ServingCache cache(store_.get(), /*max_bytes=*/2 * one);
  const int64_t evictions_before = CounterValue("serving.evictions");
  const int64_t misses_before = CounterValue("serving.misses");

  ASSERT_TRUE(cache.GetMethod(NthKey(0)).ok());
  ASSERT_TRUE(cache.GetMethod(NthKey(1)).ok());
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(CounterValue("serving.evictions"), evictions_before);

  // Touch 0 so 1 becomes the least recently used, then load 2: 1 must go.
  ASSERT_TRUE(cache.GetMethod(NthKey(0)).ok());
  ASSERT_TRUE(cache.GetMethod(NthKey(2)).ok());
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_LE(cache.resident_bytes(), cache.max_bytes());
  EXPECT_EQ(CounterValue("serving.evictions"), evictions_before + 1);

  // 0 and 2 are still warm (no new miss); 1 re-restores from the store.
  const int64_t misses_now = CounterValue("serving.misses");
  ASSERT_TRUE(cache.GetMethod(NthKey(0)).ok());
  ASSERT_TRUE(cache.GetMethod(NthKey(2)).ok());
  EXPECT_EQ(CounterValue("serving.misses"), misses_now);
  ASSERT_TRUE(cache.GetMethod(NthKey(1)).ok());
  EXPECT_EQ(CounterValue("serving.misses"), misses_now + 1);
  EXPECT_GT(CounterValue("serving.misses"), misses_before);
}

TEST_F(ServingCacheEvictionTest, EvictedModelServesBitIdenticallyAfterReload) {
  const int64_t one = OneModelBytes();
  ServingCache cache(store_.get(), /*max_bytes=*/one);
  const std::vector<GenRequest> requests = {{2, 31}};
  auto before = cache.Generate(NthKey(0), requests);
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  // Loading key 1 evicts key 0 (cap fits one model).
  ASSERT_TRUE(cache.GetMethod(NthKey(1)).ok());
  EXPECT_EQ(cache.size(), 1u);
  auto after = cache.Generate(NthKey(0), requests);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_TRUE(SamplesBitEqual(before.value()[0], after.value()[0]));
}

TEST_F(ServingCacheEvictionTest, SingleModelLargerThanCapStillServes) {
  // The just-touched entry is exempt from eviction, so a cap smaller than any
  // model degrades to "at most one resident" rather than thrash-and-fail.
  ServingCache cache(store_.get(), /*max_bytes=*/1);
  auto method = cache.GetMethod(NthKey(0));
  ASSERT_TRUE(method.ok()) << method.status().ToString();
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_GT(cache.resident_bytes(), cache.max_bytes());
  auto result = cache.Generate(NthKey(0), {{1, 9}});
  EXPECT_TRUE(result.ok());

  // An in-flight shared_ptr keeps an evicted model alive: load another key
  // (evicting 0) and the old handle still generates.
  ASSERT_TRUE(cache.GetMethod(NthKey(1)).ok());
  EXPECT_EQ(cache.size(), 1u);
  Rng rng(9);
  EXPECT_EQ(method.value()->Generate(1, rng).size(), 1u);
}

TEST(ServingCacheTest, UnboundedByDefaultWhenEnvUnset) {
  // DefaultMaxBytes reads TSGBENCH_SERVING_CACHE_BYTES; the test environment
  // leaves it unset, which must mean "no cap", never "zero residency".
  if (std::getenv("TSGBENCH_SERVING_CACHE_BYTES") == nullptr) {
    EXPECT_EQ(ServingCache::DefaultMaxBytes(), 0);
  }
  ArtifactStore store(TempStoreDir("serving_unbounded"));
  ServingCache cache(&store, /*max_bytes=*/0);
  EXPECT_EQ(cache.max_bytes(), 0);
}

TEST(ServingCacheTest, ByteCapEnvMustBeAWholePositiveInteger) {
  // Parsing a prefix would read "64M" as a 64-byte cap, which evicts every
  // model but the one just touched.
  setenv("TSGBENCH_SERVING_CACHE_BYTES", "64M", 1);
  EXPECT_EQ(ServingCache::DefaultMaxBytes(), 0);
  setenv("TSGBENCH_SERVING_CACHE_BYTES", "1048576", 1);
  EXPECT_EQ(ServingCache::DefaultMaxBytes(), 1048576);
  unsetenv("TSGBENCH_SERVING_CACHE_BYTES");
}

// ---- TSGPARAMS strictness (the serialize-layer bugfixes). ----

TEST(SerializeStrictTest, TrailingGarbageRejected) {
  Rng rng(4);
  nn::Dense layer(3, 3, rng);
  auto params = layer.Parameters();
  const std::string blob = nn::SerializeTensors(
      {params[0].value(), params[1].value()});
  ASSERT_TRUE(nn::ParseTensors(blob, "test").ok());
  EXPECT_FALSE(nn::ParseTensors(blob + "0", "test").ok());
  EXPECT_FALSE(nn::ParseTensors(blob + "\nTSGPARAMS v1\n", "test").ok());
  // Trailing whitespace is not corruption.
  EXPECT_TRUE(nn::ParseTensors(blob + "\n  \n", "test").ok());
}

}  // namespace
}  // namespace tsg::store
