#include "report.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "util/json.h"

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  if (std::isinf(values[hi])) return frac > 0.0 ? values[hi] : values[lo];
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0.0;
      fields >> kb;
      return kb * 1024.0 / 1e6;
    }
  }
  return 0.0;
}

namespace {
constexpr const char* kLayers[] = {"sequence", "ml",       "core",
                                   "compressors", "stream", "exchange",
                                   "cloud",    "util",     "loadgen"};
}  // namespace

void add_self_time_metrics(RunResult& out, const std::vector<Span>& spans,
                           double ops) {
  const auto self = Tracer::self_seconds_by_layer(spans);
  for (const char* layer : kLayers) {
    const auto it = self.find(layer);
    const double s = it == self.end() ? 0.0 : it->second;
    out.add(std::string(layer) + ".self_ms_per_op",
            ops > 0.0 ? 1000.0 * s / ops : 0.0, "ms");
  }
}

namespace {

// Every per-layer metric a traced run reports, with its unit.
std::vector<std::pair<std::string, std::string>> layer_catalog() {
  std::vector<std::pair<std::string, std::string>> c;
  for (const char* codec : {"ctw", "dnax", "gencompress", "gzip"}) {
    const std::string base = std::string("compressors.") + codec;
    c.push_back({base + ".compress_mbps", "MB/s"});
    c.push_back({base + ".decompress_mbps", "MB/s"});
    c.push_back({base + ".peak_mb", "MB"});
  }
  c.push_back({"stream.compress_upload_ms.p50", "ms"});
  c.push_back({"stream.compress_upload_ms.p99", "ms"});
  c.push_back({"stream.blocked_decompress_mbps", "MB/s"});
  for (const char* stage : {"queue", "select", "compress", "upload",
                            "download", "decompress", "verify"}) {
    c.push_back({std::string("exchange.") + stage + "_ms.p50", "ms"});
    c.push_back({std::string("exchange.") + stage + "_ms.p99", "ms"});
  }
  for (const char* ratio : {"exchange.cache_hit_ratio", "exchange.retry_ratio"}) {
    c.push_back({ratio, "ratio"});
  }
  c.push_back({"exchange.rejected", "count"});
  c.push_back({"cloud.stored_mb", "MB"});
  c.push_back({"core.measure_s", "s"});
  c.push_back({"core.project_s", "s"});
  c.push_back({"core.label_s", "s"});
  c.push_back({"core.measure_busy_share", "ratio"});
  c.push_back({"ml.cart.fit_s", "s"});
  c.push_back({"ml.chaid.fit_s", "s"});
  c.push_back({"ml.cart.accuracy", "ratio"});
  c.push_back({"ml.chaid.accuracy", "ratio"});
  c.push_back({"sequence.generate_s", "s"});
  c.push_back({"loadgen.late_ms.p99", "ms"});
  c.push_back({"loadgen.backlog_max", "count"});
  for (const char* layer : kLayers) {
    c.push_back({std::string(layer) + ".self_ms_per_op", "ms"});
  }
  c.push_back({"trace.overhead_share", "ratio"});
  return c;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        auto v = line.substr(colon + 1);
        v.erase(0, v.find_first_not_of(' '));
        return v;
      }
    }
  }
  return "unknown";
}

}  // namespace

void complete_layer_metrics(RunResult& result) {
  std::map<std::string, Metric> given;
  for (Metric& m : result.metrics) {
    const std::string name = m.name;
    if (!given.emplace(name, std::move(m)).second) {
      throw std::logic_error("metric reported twice: " + name);
    }
  }
  std::vector<Metric> ordered;
  for (const auto& [name, unit] : layer_catalog()) {
    const auto it = given.find(name);
    if (it == given.end()) {
      ordered.push_back({name, 0.0, unit});
      continue;
    }
    if (it->second.unit != unit) {
      throw std::logic_error("metric " + name + " has unit " + it->second.unit);
    }
    ordered.push_back(std::move(it->second));
    given.erase(it);
  }
  if (!given.empty()) {
    throw std::logic_error("metric not in the catalogue: " + given.begin()->first);
  }
  result.metrics = std::move(ordered);
}

void write_spans(const std::string& path, const std::vector<Span>& spans) {
  using dnacomp::util::JsonValue;
  std::ofstream os(path);
  for (const Span& s : spans) {
    os << JsonValue::object()
              .set("layer", s.layer)
              .set("name", s.name)
              .set("request", std::to_string(s.request))
              .set("parent", static_cast<double>(s.parent))
              .set("start_s", s.start_s)
              .set("end_s", s.end_s)
              .dump()
       << '\n';
  }
  if (!os) throw std::runtime_error("cannot write spans to " + path);
}

std::string to_json(const RunConfig& cfg, const RunResult& result) {
  using dnacomp::util::JsonValue;
  JsonValue prov = JsonValue::object();
  prov.set("nproc",
           static_cast<std::size_t>(std::thread::hardware_concurrency()))
      .set("cpu_model", cpu_model())
      .set("compiler", std::string("gcc ") + __VERSION__)
      .set("build_type", PERFBENCH_BUILD_TYPE);

  JsonValue metrics = JsonValue::object();
  for (const Metric& m : result.metrics) {
    // JSON has no infinity; a latency made infinite by a failed request
    // is printed as a very large finite number.
    const double v = std::isfinite(m.value) ? m.value : 1e300;
    metrics.set(m.name, JsonValue::object().set("value", v).set("unit", m.unit));
  }
  JsonValue notes = JsonValue::object();
  for (const auto& [k, v] : result.notes) notes.set(k, v);

  JsonValue doc = JsonValue::object();
  doc.set("workload", cfg.workload)
      .set("seed", std::to_string(cfg.seed))
      .set("seconds", cfg.seconds)
      .set("trace", cfg.trace)
      .set("provenance", std::move(prov))
      .set("valid", result.valid)
      .set("invalid_reason", result.invalid_reason)
      .set("correct", result.correct)
      .set("attempted", static_cast<std::size_t>(result.attempted))
      .set("failed", static_cast<std::size_t>(result.failed))
      .set("metrics", std::move(metrics))
      .set("notes", std::move(notes));
  return doc.dump();
}

}  // namespace perfbench
