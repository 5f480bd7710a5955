#include "report.h"

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>

#include "base/check.h"
#include "io/json.h"
#include "io/json_parse.h"
#include "kernels/kernels.h"
#include "stats.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace {

std::vector<MetricSpec> BuildPerLayer() {
  std::vector<MetricSpec> out;
  const std::string grid = "grid_cold";
  const std::string serve = "serve_mixed";
  const std::string stream = "stream_live";
  static const char* kMethods[] = {"RGAN",    "TimeGAN",   "RTSGAN",      "COSCI-GAN",
                                   "AEC-GAN", "TimeVAE",   "TimeVQVAE",   "FourierFlow",
                                   "GT-GAN",  "LS4"};
  for (const char* m : kMethods) {
    out.push_back({std::string("methods.fit_s.") + m, "s", grid, "grid_s"});
  }
  for (const char* m : kMethods) {
    out.push_back({std::string("ag.nodes_per_step.") + m, "count", grid, "grid_s"});
  }
  out.push_back({"methods.generate_s", "s", grid, "grid_s"});
  for (const char* m : {"DS", "PS", "C-FID", "MDD", "ACD", "SD", "KD", "ED", "DTW"}) {
    out.push_back({std::string("core.measure_s.") + m, "s", grid, "grid_s"});
  }
  out.push_back({"core.embedder_fit_s", "s", grid, "grid_s"});
  out.push_back({"data.prepare_s", "s", grid, "grid_s"});
  out.push_back({"store.save_ms", "ms", grid, "grid_s"});
  out.push_back({"trace.overhead_pct.grid_s", "%", grid, "grid_s"});

  // End-to-end figures whose run-to-run spread on a shared host is wider
  // than any regression bound: reported here, not gated.
  out.push_back({"serve.gen_tail_ms", "ms", serve, "(end to end, ungated)"});
  out.push_back({"serve.fit_hit_p50_ms", "ms", serve, "(end to end, ungated)"});
  out.push_back({"serve.eval_hit_p50_ms", "ms", serve, "(end to end, ungated)"});
  out.push_back({"serve.runner_ms.generate", "ms", serve, "gen_p50_ms"});
  out.push_back({"serve.runner_ms.fit", "ms", serve, "serve.fit_hit_p50_ms"});
  out.push_back({"serve.runner_ms.evaluate", "ms", serve, "serve.eval_hit_p50_ms"});
  out.push_back({"serve.overhead_ms", "ms", serve, "gen_p50_ms"});
  out.push_back({"serve.queue_wait_p99_ms", "ms", serve, "serve.gen_tail_ms"});
  out.push_back({"serve.jobs_retained", "count", serve, "peak_rss_mb"});
  out.push_back({"loadgen.lateness_p99_ms", "ms", serve, "serve.gen_tail_ms"});
  out.push_back({"loadgen.backlog_at_end", "count", serve, "serve.gen_tail_ms"});
  out.push_back({"core.fingerprint_us", "us", serve, "gen_p50_ms"});
  out.push_back({"store.serving_generate_us", "us", serve, "gen_p50_ms"});
  for (const char* m : {"TimeVAE", "RGAN", "LS4", "TimeGAN"}) {
    out.push_back({std::string("methods.generate_batch_us.") + m, "us", serve,
                   "gen_p50_ms"});
  }
  out.push_back({"store.serving_hit_ratio", "ratio", serve, "gen_p50_ms"});
  out.push_back({"store.load_ms", "ms", serve, "serve.fit_hit_p50_ms"});
  out.push_back({"methods.restore_ms", "ms", serve, "serve.eval_hit_p50_ms"});
  out.push_back({"core.evaluate_ms", "ms", serve, "serve.eval_hit_p50_ms"});
  out.push_back({"trace.overhead_pct.gen_p50_ms", "%", serve, "gen_p50_ms"});

  out.push_back({"streameval.update_ms_per_window", "ms", stream, "stream_series_per_s"});
  for (const char* s : {"ED", "DTW", "MDD", "ACD", "SD", "KD", "MMD", "FGD"}) {
    out.push_back({std::string("streameval.state_us.") + s, "us", stream,
                   "stream_series_per_s"});
  }
  out.push_back({"streameval.verify_ms", "ms", stream, "stream_series_per_s"});
  out.push_back({"store.serving_generate_ms_per_chunk", "ms", stream,
                 "stream_series_per_s"});
  out.push_back({"obs.snapshot_ms", "ms", stream, "metrics_p50_ms"});
  out.push_back({"obs.snapshot_bytes", "bytes", stream, "metrics_p50_ms"});
  out.push_back({"trace.overhead_pct.stream_series_per_s", "%", stream,
                 "stream_series_per_s"});
  return out;
}

/// %.17g: every digit as measured.
std::string FormatNumber(double v) {
  if (!std::isfinite(v)) v = v > 0 ? 1e300 : -1e300;
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string ReadFirstMatch(const std::string& path, const std::string& key) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) == 0) {
      const size_t colon = line.find(':');
      if (colon == std::string::npos) return "";
      std::string v = line.substr(colon + 1);
      const size_t first = v.find_first_not_of(" \t");
      return first == std::string::npos ? "" : v.substr(first);
    }
  }
  return "";
}

}  // namespace

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const auto* kMetrics = new std::vector<MetricSpec>{
      {"grid_s", "s", "grid_cold", ""},
      {"gen_p50_ms", "ms", "serve_mixed", ""},
      {"stream_series_per_s", "series/s", "stream_live", ""},
      {"metrics_p50_ms", "ms", "stream_live", ""},
      {"setup_s", "s", "all", ""},
      {"peak_rss_mb", "MB", "all", ""},
  };
  return *kMetrics;
}

const std::vector<MetricSpec>& PerLayerMetrics() {
  static const auto* kMetrics = new std::vector<MetricSpec>(BuildPerLayer());
  return *kMetrics;
}

void Report::Set(const std::string& name, double value, int64_t samples,
                 const std::string& note) {
  TSG_CHECK(ValidMetricName(name)) << "invalid metric name " << name;
  values_[name] = Value{value, samples, note};
}

void Report::Check(bool ok, const std::string& what) {
  ++checks_;
  if (!ok) {
    ++failed_checks_;
    std::printf("CHECK FAILED: %s\n", what.c_str());
    std::fflush(stdout);
  }
}

void Report::Ops(int64_t attempted, int64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

bool Report::Print(const std::vector<MetricSpec>& catalog) {
  bool complete = true;
  std::printf("%-12s %-40s %18s %-9s %8s  %s\n", "section", "metric", "value",
              "unit", "samples", "maps to / note");
  for (const MetricSpec& spec : catalog) {
    const auto it = values_.find(spec.name);
    if (it == values_.end()) {
      std::printf("%-12s %-40s %18s\n", spec.section.c_str(), spec.name.c_str(),
                  "MISSING");
      complete = false;
      continue;
    }
    std::string tail = spec.maps_to.empty() ? "" : "-> " + spec.maps_to;
    if (!it->second.note.empty()) tail += (tail.empty() ? "" : "  ") + it->second.note;
    std::printf("%-12s %-40s %18.6g %-9s %8lld  %s\n", spec.section.c_str(),
                spec.name.c_str(), it->second.value, spec.unit.c_str(),
                static_cast<long long>(it->second.samples), tail.c_str());
  }
  Check(complete, "every catalog metric was measured");
  std::printf("checks: %lld run, %lld failed; operations: %lld attempted, %lld failed\n",
              static_cast<long long>(checks_), static_cast<long long>(failed_checks_),
              static_cast<long long>(attempted_), static_cast<long long>(failed_));

  std::string json = "{\"correct\": ";
  json += correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(std::max<int64_t>(attempted_, 1));
  json += ", \"failed\": " + std::to_string(failed_);
  json += ", \"metrics\": {";
  bool first = true;
  for (const MetricSpec& spec : catalog) {
    const auto it = values_.find(spec.name);
    if (it == values_.end()) continue;
    if (!first) json += ", ";
    first = false;
    json += "\"" + spec.name + "\": {\"value\": " + FormatNumber(it->second.value) +
            ", \"unit\": \"" + spec.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct();
}

std::string HardwareJson(int tsg_threads) {
  const std::string flags = " " + ReadFirstMatch("/proc/cpuinfo", "flags") + " ";
  auto has = [&](const char* f) {
    return flags.find(std::string(" ") + f + " ") != std::string::npos;
  };
  tsg::io::JsonWriter json;
  json.BeginObject();
  json.Key("nproc").Int(static_cast<int64_t>(sysconf(_SC_NPROCESSORS_ONLN)));
  json.Key("cpu_model").String(ReadFirstMatch("/proc/cpuinfo", "model name"));
  json.Key("avx2").Bool(has("avx2"));
  json.Key("avx512f").Bool(has("avx512f"));
  json.Key("fma").Bool(has("fma"));
  json.Key("resolved_dispatch")
      .String(tsg::kernels::ResolvedDispatch() == tsg::kernels::DispatchMode::kSimd
                  ? "simd"
                  : "scalar");
  json.Key("backend").String(tsg::kernels::BackendName());
  json.Key("gemm_uses_fma").Bool(tsg::kernels::GemmUsesFma());
  json.Key("compiler").String(__VERSION__);
  json.Key("build_type").String(PERFBENCH_BUILD_TYPE);
  json.Key("tsg_threads").Int(tsg_threads);
  json.EndObject();
  return json.str();
}

double PeakRssMb() {
  const std::string hwm = ReadFirstMatch("/proc/self/status", "VmHWM");
  return std::atof(hwm.c_str()) / 1024.0;  // "<n> kB"
}

void ResetPeakRss() { std::ofstream("/proc/self/clear_refs") << "5"; }

std::string CompareWithBenchmarkJson(const std::string& path) {
  std::ifstream in(path);
  if (!in) return "";
  std::stringstream text;
  text << in.rdbuf();
  const auto doc = tsg::io::JsonValue::Parse(text.str());
  if (!doc.ok()) return path + " does not parse: " + doc.status().ToString();
  std::string diff;
  auto compare = [&](const char* key, const std::vector<MetricSpec>& catalog) {
    std::set<std::string> listed;
    const tsg::io::JsonValue* list = doc.value().Find(key);
    if (list != nullptr) {
      for (const tsg::io::JsonValue& m : list->array_items()) {
        const std::string name = m.GetString("name", "");
        listed.insert(name);
        bool known = false;
        for (const MetricSpec& spec : catalog) {
          if (spec.name == name) {
            known = true;
            if (spec.unit != m.GetString("unit", "")) {
              diff += " unit of " + name + " differs;";
            }
          }
        }
        if (!known) diff += std::string(" ") + key + " lists unknown " + name + ";";
      }
    }
    for (const MetricSpec& spec : catalog) {
      if (listed.count(spec.name) == 0) {
        diff += std::string(" ") + key + " lacks " + spec.name + ";";
      }
    }
  };
  compare("end_to_end", EndToEndMetrics());
  compare("per_layer", PerLayerMetrics());
  return diff;
}

}  // namespace perfbench
