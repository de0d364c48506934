// In-memory span recorder for the benchmark's traced runs.
//
// Spans are recorded only from the benchmark's own code, around the calls it
// makes into the library's layers (or, for exchange requests, laid out from
// the stage timings the service reports). Each span carries its layer, its
// parent and the request (or job) id it belongs to. Nothing is written while
// the workload runs; metrics are derived from the span list at the end.
//
// A disabled tracer records nothing and every call is a branch.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

// Seconds since a fixed process-wide origin, and back.
double now_s();
Clock::time_point time_at(double s);

inline constexpr std::int64_t kNoParent = -1;

struct Span {
  std::string layer;  // library module: sequence, ml, core, compressors, ...
  std::string name;
  std::uint64_t request = 0;  // request or job id shared by related spans
  std::int64_t parent = kNoParent;
  double start_s = 0.0;
  double end_s = 0.0;
};

class Tracer {
 public:
  bool enabled() const noexcept { return enabled_; }
  void set_enabled(bool on) noexcept { enabled_ = on; }

  // Records a finished span; returns its id (kNoParent when disabled).
  std::int64_t add(Span span);
  // Opens a span that ends with end(); returns its id.
  std::int64_t begin(std::string layer, std::string name,
                     std::uint64_t request, std::int64_t parent);
  void end(std::int64_t id);

  std::vector<Span> spans() const;
  // Moves this tracer's spans to the end of `dst`, keeping parent links.
  void drain_into(std::vector<Span>& dst);

  // Self time per layer, summed over every span: a span's duration minus
  // the part of its interval that its children cover.
  static std::map<std::string, double> self_seconds_by_layer(
      const std::vector<Span>& spans);

 private:
  bool enabled_ = false;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

// RAII span around one call into a layer.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, std::string layer, std::string name,
             std::uint64_t request = 0, std::int64_t parent = kNoParent)
      : tracer_(tracer),
        id_(tracer.begin(std::move(layer), std::move(name), request, parent)) {}
  ~ScopedSpan() { tracer_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::int64_t id() const noexcept { return id_; }

 private:
  Tracer& tracer_;
  std::int64_t id_;
};

}  // namespace perfbench
