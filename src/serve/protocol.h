#ifndef TSG_SERVE_PROTOCOL_H_
#define TSG_SERVE_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "base/status.h"
#include "io/json.h"

namespace tsg::serve {

/// The tsgd line protocol (DESIGN.md §11): one JSON object per newline-
/// terminated line in each direction. Requests carry a "cmd" member naming the
/// operation; every response is an object whose "ok" member is the outcome
/// (`{"ok":true,...}` / `{"ok":false,"code":"...","error":"..."}`). The wire
/// format is produced by io::JsonWriter and parsed by io::JsonValue on both
/// ends, so a codec round trip is exact.
///
/// Commands:
///   {"cmd":"submit","job":{"kind":"fit|generate|evaluate|grid|stream_eval",...}}
///   {"cmd":"status"}              — queue summary
///   {"cmd":"status","job":N}      — one job
///   {"cmd":"result","job":N}      — immediate: error while still queued/running
///   {"cmd":"result","job":N,"wait":true}  — response deferred until terminal
///   {"cmd":"cancel","job":N}
///   {"cmd":"metrics"}             — full obs::MetricRegistry snapshot
///   {"cmd":"ping"}
///   {"cmd":"shutdown"}            — ack, then drain and exit

/// What a submitted job runs. fit trains (or store-hits) one model; generate
/// serves synthetic series from the warm cache; evaluate scores one
/// (method, dataset) cell through the grid harness; grid runs one whole
/// checkpointed grid sweep (RunGridShard); stream_eval streams batched generation
/// through a streameval::StreamEvaluator, publishing live per-tenant
/// "stream.<tenant>.*" quality/drift metrics (DESIGN.md §12).
enum class JobKind { kFit, kGenerate, kEvaluate, kGrid, kStreamEval };

const char* JobKindName(JobKind kind);
StatusOr<JobKind> ParseJobKind(const std::string& name);

/// Payload of a submit command. Which members matter depends on `kind`; the
/// parser enforces per-kind requirements so a malformed submit fails at the
/// protocol boundary, not inside a worker.
struct JobSpec {
  JobKind kind = JobKind::kGenerate;
  /// Fairness bucket: the scheduler caps in-flight jobs per tenant and feeds
  /// starved tenants first (see JobQueue).
  std::string tenant = "default";
  /// Higher runs first within the fairness constraints.
  int64_t priority = 0;
  std::string method;   ///< fit / generate / evaluate / stream_eval.
  std::string dataset;  ///< fit / generate / evaluate / stream_eval.
  int64_t count = 0;    ///< generate / stream_eval: series to sample (> 0).
  uint64_t gen_seed = 0;  ///< generate / stream_eval: RNG stream seed.
  int64_t window = 64;  ///< stream_eval: series per evaluation window (> 0).
  int64_t chunk = 16;   ///< stream_eval: series per generation batch (> 0).
  std::vector<std::string> methods;   ///< grid (empty = all paper methods).
  std::vector<std::string> datasets;  ///< grid (empty = all paper datasets).
};

/// One parsed client request line.
struct Request {
  enum class Cmd { kSubmit, kStatus, kResult, kCancel, kMetrics, kPing,
                   kShutdown };
  Cmd cmd = Cmd::kPing;
  JobSpec spec;       ///< submit only.
  int64_t job = -1;   ///< status (optional) / result / cancel.
  bool wait = false;  ///< result: defer the response until the job is terminal.
};

const char* CmdName(Request::Cmd cmd);

/// Parses one request line (the JSON object, without the trailing newline).
/// InvalidArgument on syntax errors, unknown commands, missing or ill-typed
/// members, and per-kind spec violations.
StatusOr<Request> ParseRequest(const std::string& line);

/// Renders `request` as one protocol line (no trailing newline). Inverse of
/// ParseRequest: Encode(Parse(x)) == Encode(Decode(Encode(x))) — the client CLI
/// builds its traffic through this, and the codec test round-trips it.
std::string EncodeRequest(const Request& request);

/// `{"ok":false,"code":<status code name>,"error":<message>}`.
std::string ErrorResponse(const Status& status);

/// `{"ok":true}` with optional extra members supplied by the caller as a
/// comma-led raw JSON fragment (e.g. `,"job":3`). The fragment must be valid
/// JSON members — callers build it with RawMembers or literals.
std::string OkResponse(const std::string& raw_members = "");

/// The members of an io::JsonWriter-rendered object as a comma-led raw
/// fragment, the form OkResponse and JobRunner::Run take: `{...}` -> `,...`,
/// `{}` -> empty.
std::string RawMembers(const io::JsonWriter& object);

/// Lower-case wire token for a status code ("invalid_argument", ...).
const char* StatusCodeToken(StatusCode code);

/// One client-facing verb: either a submit job kind (fit, generate, evaluate,
/// grid, stream_eval — `verb` equals the JobKindName) or a plain command
/// (status, result, cancel, metrics, ping, shutdown — `verb` equals the wire
/// CmdName). tsg_client's dispatch, its --help text, and the README protocol
/// table are all generated from this one table, so they cannot drift from the
/// parser: a protocol test cross-checks every JobKind and Cmd against it.
struct VerbInfo {
  const char* verb;     ///< Client command word == wire token.
  const char* args;     ///< Flag synopsis ("--method=M --dataset=D [--wait]").
  const char* summary;  ///< One-line description.
  bool is_submit;       ///< True when the verb is a JobKind submitted as a job.
};

/// Every client verb, submit kinds first, in the order help should list them.
const std::vector<VerbInfo>& ClientVerbs();

/// Multi-line usage text generated from ClientVerbs() — what tsg_client prints
/// for --help and usage errors.
std::string ClientUsage();

}  // namespace tsg::serve

#endif  // TSG_SERVE_PROTOCOL_H_
