// Result record of one benchmark run: metrics, outcome counts and
// provenance, printed as one JSON line.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "trace.h"

namespace perfbench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  // traced runs write their spans here ("" = no)
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  bool correct = true;      // every output matched what was sent
  bool valid = true;        // false: load generator fell behind
  std::string invalid_reason;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  // failed, rejected or mismatched operations
  std::vector<Metric> metrics;
  // Free-form facts worth keeping with the record (e.g. size digests).
  std::vector<std::pair<std::string, std::string>> notes;
  std::vector<Span> spans;  // traced runs: every span recorded

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void note(std::string key, std::string value) {
    notes.emplace_back(std::move(key), std::move(value));
  }
  void fail(std::uint64_t n = 1) { failed += n; }
};

// Linear-interpolated quantile (q in [0,1]) of unsorted values; 0 if empty.
double quantile(std::vector<double> values, double q);
double median(std::vector<double> values);

// VmHWM of this process, in MB (10^6 bytes).
double peak_rss_mb();

// Collects per-layer numbers from the tracer: self time per layer, divided
// by `ops`, for every layer the benchmark names.
void add_self_time_metrics(RunResult& out, const std::vector<Span>& spans,
                           double ops);

// Puts the per-layer metrics in catalogue order and adds a 0 for each one
// the workload does not exercise. Throws std::logic_error on a name or unit
// that is not in the catalogue, so a typo cannot pass as "not exercised".
void complete_layer_metrics(RunResult& result);

// Writes one JSON object per span, one per line.
void write_spans(const std::string& path, const std::vector<Span>& spans);

// One JSON object on one line: workload, seed, provenance, outcome counts,
// metrics with units, notes.
std::string to_json(const RunConfig& cfg, const RunResult& result);

}  // namespace perfbench
