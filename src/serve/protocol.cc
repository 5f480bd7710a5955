#include "serve/protocol.h"

#include <optional>
#include <utility>

#include "io/json.h"
#include "io/json_parse.h"

namespace tsg::serve {

namespace {

/// A required string member: present, a string, and non-empty.
StatusOr<std::string> RequireString(const io::JsonValue& obj,
                                    const std::string& key) {
  const io::JsonValue* v = obj.Find(key);
  if (v == nullptr || !v->is_string() || v->string_value().empty()) {
    return Status::InvalidArgument("missing or non-string \"" + key + "\"");
  }
  return v->string_value();
}

/// Optional members: absent gives `fallback`, but a member that is present must
/// have the right JSON type (and an integer must be integral and fit int64) —
/// a wrong type is invalid_argument, never a silent default.
StatusOr<int64_t> OptionalInt(const io::JsonValue& obj, const std::string& key,
                              int64_t fallback) {
  const io::JsonValue* v = obj.Find(key);
  if (v == nullptr) return fallback;
  const std::optional<int64_t> value = v->int_value();
  if (!value.has_value()) {
    return Status::InvalidArgument("\"" + key + "\" must be an integer");
  }
  return *value;
}

StatusOr<bool> OptionalBool(const io::JsonValue& obj, const std::string& key,
                            bool fallback) {
  const io::JsonValue* v = obj.Find(key);
  if (v == nullptr) return fallback;
  if (!v->is_bool()) {
    return Status::InvalidArgument("\"" + key + "\" must be a boolean");
  }
  return v->bool_value();
}

StatusOr<std::string> OptionalString(const io::JsonValue& obj,
                                     const std::string& key,
                                     const std::string& fallback) {
  const io::JsonValue* v = obj.Find(key);
  if (v == nullptr) return fallback;
  if (!v->is_string()) {
    return Status::InvalidArgument("\"" + key + "\" must be a string");
  }
  return v->string_value();
}

StatusOr<std::vector<std::string>> OptionalStringList(const io::JsonValue& obj,
                                                      const std::string& key) {
  std::vector<std::string> out;
  const io::JsonValue* v = obj.Find(key);
  if (v == nullptr) return out;
  if (!v->is_array()) {
    return Status::InvalidArgument("\"" + key + "\" must be an array");
  }
  for (const io::JsonValue& item : v->array_items()) {
    if (!item.is_string() || item.string_value().empty()) {
      return Status::InvalidArgument("\"" + key +
                                     "\" must hold non-empty strings");
    }
    out.push_back(item.string_value());
  }
  return out;
}

StatusOr<JobSpec> ParseJobSpec(const io::JsonValue& obj) {
  JobSpec spec;
  TSG_ASSIGN_OR_RETURN(const std::string kind, RequireString(obj, "kind"));
  TSG_ASSIGN_OR_RETURN(spec.kind, ParseJobKind(kind));
  TSG_ASSIGN_OR_RETURN(spec.tenant, OptionalString(obj, "tenant", "default"));
  if (spec.tenant.empty()) {
    return Status::InvalidArgument("\"tenant\" must be non-empty");
  }
  TSG_ASSIGN_OR_RETURN(spec.priority, OptionalInt(obj, "priority", 0));
  switch (spec.kind) {
    case JobKind::kFit:
    case JobKind::kEvaluate: {
      TSG_ASSIGN_OR_RETURN(spec.method, RequireString(obj, "method"));
      TSG_ASSIGN_OR_RETURN(spec.dataset, RequireString(obj, "dataset"));
      break;
    }
    case JobKind::kGenerate: {
      TSG_ASSIGN_OR_RETURN(spec.method, RequireString(obj, "method"));
      TSG_ASSIGN_OR_RETURN(spec.dataset, RequireString(obj, "dataset"));
      TSG_ASSIGN_OR_RETURN(spec.count, OptionalInt(obj, "count", 0));
      if (spec.count <= 0) {
        return Status::InvalidArgument(
            "generate requires a positive integer \"count\"");
      }
      TSG_ASSIGN_OR_RETURN(const int64_t seed, OptionalInt(obj, "gen_seed", 0));
      if (seed < 0) {
        return Status::InvalidArgument("\"gen_seed\" must be >= 0");
      }
      spec.gen_seed = static_cast<uint64_t>(seed);
      break;
    }
    case JobKind::kGrid: {
      TSG_ASSIGN_OR_RETURN(spec.methods, OptionalStringList(obj, "methods"));
      TSG_ASSIGN_OR_RETURN(spec.datasets, OptionalStringList(obj, "datasets"));
      break;
    }
    case JobKind::kStreamEval: {
      TSG_ASSIGN_OR_RETURN(spec.method, RequireString(obj, "method"));
      TSG_ASSIGN_OR_RETURN(spec.dataset, RequireString(obj, "dataset"));
      TSG_ASSIGN_OR_RETURN(spec.count, OptionalInt(obj, "count", 0));
      if (spec.count <= 0) {
        return Status::InvalidArgument(
            "stream_eval requires a positive integer \"count\"");
      }
      TSG_ASSIGN_OR_RETURN(const int64_t seed, OptionalInt(obj, "gen_seed", 0));
      if (seed < 0) {
        return Status::InvalidArgument("\"gen_seed\" must be >= 0");
      }
      spec.gen_seed = static_cast<uint64_t>(seed);
      TSG_ASSIGN_OR_RETURN(spec.window,
                           OptionalInt(obj, "window", JobSpec().window));
      if (spec.window <= 0) {
        return Status::InvalidArgument("\"window\" must be a positive integer");
      }
      TSG_ASSIGN_OR_RETURN(spec.chunk, OptionalInt(obj, "chunk", JobSpec().chunk));
      if (spec.chunk <= 0) {
        return Status::InvalidArgument("\"chunk\" must be a positive integer");
      }
      break;
    }
  }
  return spec;
}

void EncodeJobSpec(const JobSpec& spec, io::JsonWriter& json) {
  json.Key("kind").String(JobKindName(spec.kind));
  json.Key("tenant").String(spec.tenant);
  json.Key("priority").Int(spec.priority);
  switch (spec.kind) {
    case JobKind::kFit:
    case JobKind::kEvaluate:
      json.Key("method").String(spec.method);
      json.Key("dataset").String(spec.dataset);
      break;
    case JobKind::kGenerate:
      json.Key("method").String(spec.method);
      json.Key("dataset").String(spec.dataset);
      json.Key("count").Int(spec.count);
      json.Key("gen_seed").Int(static_cast<int64_t>(spec.gen_seed));
      break;
    case JobKind::kGrid:
      json.Key("methods").BeginArray();
      for (const std::string& m : spec.methods) json.String(m);
      json.EndArray();
      json.Key("datasets").BeginArray();
      for (const std::string& d : spec.datasets) json.String(d);
      json.EndArray();
      break;
    case JobKind::kStreamEval:
      json.Key("method").String(spec.method);
      json.Key("dataset").String(spec.dataset);
      json.Key("count").Int(spec.count);
      json.Key("gen_seed").Int(static_cast<int64_t>(spec.gen_seed));
      json.Key("window").Int(spec.window);
      json.Key("chunk").Int(spec.chunk);
      break;
  }
}

}  // namespace

const char* JobKindName(JobKind kind) {
  switch (kind) {
    case JobKind::kFit: return "fit";
    case JobKind::kGenerate: return "generate";
    case JobKind::kEvaluate: return "evaluate";
    case JobKind::kGrid: return "grid";
    case JobKind::kStreamEval: return "stream_eval";
  }
  return "unknown";
}

StatusOr<JobKind> ParseJobKind(const std::string& name) {
  if (name == "fit") return JobKind::kFit;
  if (name == "generate") return JobKind::kGenerate;
  if (name == "evaluate") return JobKind::kEvaluate;
  if (name == "grid") return JobKind::kGrid;
  if (name == "stream_eval") return JobKind::kStreamEval;
  return Status::InvalidArgument("unknown job kind: " + name);
}

const char* CmdName(Request::Cmd cmd) {
  switch (cmd) {
    case Request::Cmd::kSubmit: return "submit";
    case Request::Cmd::kStatus: return "status";
    case Request::Cmd::kResult: return "result";
    case Request::Cmd::kCancel: return "cancel";
    case Request::Cmd::kMetrics: return "metrics";
    case Request::Cmd::kPing: return "ping";
    case Request::Cmd::kShutdown: return "shutdown";
  }
  return "unknown";
}

StatusOr<Request> ParseRequest(const std::string& line) {
  TSG_ASSIGN_OR_RETURN(const io::JsonValue doc, io::JsonValue::Parse(line));
  if (!doc.is_object()) {
    return Status::InvalidArgument("request must be a JSON object");
  }
  TSG_ASSIGN_OR_RETURN(const std::string cmd, RequireString(doc, "cmd"));
  Request request;
  if (cmd == "submit") {
    request.cmd = Request::Cmd::kSubmit;
    const io::JsonValue* job = doc.Find("job");
    if (job == nullptr || !job->is_object()) {
      return Status::InvalidArgument("submit requires a \"job\" object");
    }
    TSG_ASSIGN_OR_RETURN(request.spec, ParseJobSpec(*job));
    return request;
  }
  if (cmd == "status") {
    request.cmd = Request::Cmd::kStatus;
    TSG_ASSIGN_OR_RETURN(request.job, OptionalInt(doc, "job", -1));
    if (doc.Find("job") != nullptr && request.job < 0) {
      return Status::InvalidArgument("\"job\" must be >= 0");
    }
    return request;
  }
  if (cmd == "result" || cmd == "cancel") {
    request.cmd =
        cmd == "result" ? Request::Cmd::kResult : Request::Cmd::kCancel;
    TSG_ASSIGN_OR_RETURN(request.job, OptionalInt(doc, "job", -1));
    if (request.job < 0) {
      return Status::InvalidArgument(cmd + " requires a \"job\" id");
    }
    TSG_ASSIGN_OR_RETURN(request.wait, OptionalBool(doc, "wait", false));
    return request;
  }
  if (cmd == "metrics") {
    request.cmd = Request::Cmd::kMetrics;
    return request;
  }
  if (cmd == "ping") {
    request.cmd = Request::Cmd::kPing;
    return request;
  }
  if (cmd == "shutdown") {
    request.cmd = Request::Cmd::kShutdown;
    return request;
  }
  return Status::InvalidArgument("unknown command: " + cmd);
}

std::string EncodeRequest(const Request& request) {
  io::JsonWriter json;
  json.BeginObject();
  json.Key("cmd").String(CmdName(request.cmd));
  switch (request.cmd) {
    case Request::Cmd::kSubmit:
      json.Key("job").BeginObject();
      EncodeJobSpec(request.spec, json);
      json.EndObject();
      break;
    case Request::Cmd::kStatus:
      if (request.job >= 0) json.Key("job").Int(request.job);
      break;
    case Request::Cmd::kResult:
      json.Key("job").Int(request.job);
      if (request.wait) json.Key("wait").Bool(true);
      break;
    case Request::Cmd::kCancel:
      json.Key("job").Int(request.job);
      break;
    case Request::Cmd::kMetrics:
    case Request::Cmd::kPing:
    case Request::Cmd::kShutdown:
      break;
  }
  json.EndObject();
  return json.str();
}

const std::vector<VerbInfo>& ClientVerbs() {
  // Submit kinds first (is_submit = true, verb == JobKindName), then the plain
  // commands (verb == CmdName). serve_test cross-checks this table against the
  // JobKind and Request::Cmd enums so a new verb cannot ship without a row.
  static const std::vector<VerbInfo>* const kVerbs = new std::vector<VerbInfo>{
      {"fit", "--method=M --dataset=D [--wait]",
       "train one model (store hit skips training)", true},
      {"generate", "--method=M --dataset=D --count=N [--gen_seed=S] [--wait]",
       "sample N series from the warm cache", true},
      {"evaluate", "--method=M --dataset=D [--wait]",
       "score one grid cell through the harness", true},
      {"grid", "[--methods=A,B] [--datasets=X,Y] [--wait]",
       "run the checkpointed grid as one worker", true},
      {"stream_eval",
       "--method=M --dataset=D --count=N [--gen_seed=S] [--window=W] "
       "[--chunk=C] [--wait]",
       "stream generation through windowed quality/drift evaluation", true},
      {"status", "[--job=N]", "queue summary, or one job's state", false},
      {"result", "--job=N [--wait]", "fetch a terminal job's result", false},
      {"cancel", "--job=N", "cancel a queued or running job", false},
      {"metrics", "", "full metric registry snapshot", false},
      {"ping", "", "liveness check", false},
      {"shutdown", "", "ack, then drain and exit", false},
  };
  return *kVerbs;
}

std::string ClientUsage() {
  std::string out =
      "usage: tsg_client (--socket=PATH | --port=P) <command> [flags]\n"
      "\n"
      "Submit commands (enqueue a job; --tenant=T and --priority=N apply to "
      "all;\n"
      "--wait blocks until the job is terminal and prints its result):\n";
  const std::vector<VerbInfo>& verbs = ClientVerbs();
  bool in_submit = true;
  for (const VerbInfo& v : verbs) {
    if (in_submit && !v.is_submit) {
      out += "\nQueue and daemon commands:\n";
      in_submit = false;
    }
    out += "  ";
    out += v.verb;
    if (v.args[0] != '\0') {
      out += ' ';
      out += v.args;
    }
    out += "\n      ";
    out += v.summary;
    out += "\n";
  }
  out +=
      "\nCommon flags:\n"
      "  --socket=PATH   connect over the daemon's Unix-domain socket\n"
      "  --port=P        connect to 127.0.0.1:P instead (exactly one of the "
      "two)\n"
      "  --tenant=T      fairness bucket for submits (default \"default\")\n"
      "  --priority=N    higher runs first within fairness (default 0)\n"
      "  --help          print this text and exit\n";
  return out;
}

const char* StatusCodeToken(StatusCode code) {
  switch (code) {
    case StatusCode::kOk: return "ok";
    case StatusCode::kInvalidArgument: return "invalid_argument";
    case StatusCode::kNotFound: return "not_found";
    case StatusCode::kIoError: return "io_error";
    case StatusCode::kFailedPrecondition: return "failed_precondition";
    case StatusCode::kInternal: return "internal";
    case StatusCode::kNumericalError: return "numerical_error";
  }
  return "unknown";
}

std::string ErrorResponse(const Status& status) {
  io::JsonWriter json;
  json.BeginObject();
  json.Key("ok").Bool(false);
  json.Key("code").String(StatusCodeToken(status.code()));
  json.Key("error").String(status.message());
  json.EndObject();
  return json.str();
}

std::string OkResponse(const std::string& raw_members) {
  return "{\"ok\":true" + raw_members + "}";
}

std::string RawMembers(const io::JsonWriter& object) {
  const std::string& doc = object.str();
  if (doc.size() <= 2) return "";  // "{}"
  // Drop the closing brace and turn the opening one into the leading comma.
  std::string members(doc, 0, doc.size() - 1);
  members[0] = ',';
  return members;
}

}  // namespace tsg::serve
