#include "trace.h"

#include <algorithm>
#include <utility>

namespace perfbench {

namespace {
const Clock::time_point kOrigin = Clock::now();
}  // namespace

double now_s() {
  return std::chrono::duration<double>(Clock::now() - kOrigin).count();
}

Clock::time_point time_at(double s) {
  return kOrigin + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(s));
}

std::int64_t Tracer::add(Span span) {
  if (!enabled_) return kNoParent;
  std::lock_guard lk(mu_);
  spans_.push_back(std::move(span));
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

std::int64_t Tracer::begin(std::string layer, std::string name,
                           std::uint64_t request, std::int64_t parent) {
  if (!enabled_) return kNoParent;
  Span s;
  s.layer = std::move(layer);
  s.name = std::move(name);
  s.request = request;
  s.parent = parent;
  s.start_s = now_s();
  s.end_s = s.start_s;
  return add(std::move(s));
}

void Tracer::end(std::int64_t id) {
  if (id == kNoParent) return;
  const double t = now_s();
  std::lock_guard lk(mu_);
  spans_[static_cast<std::size_t>(id)].end_s = t;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard lk(mu_);
  return spans_;
}

void Tracer::drain_into(std::vector<Span>& dst) {
  std::lock_guard lk(mu_);
  const auto base = static_cast<std::int64_t>(dst.size());
  for (Span& s : spans_) {
    if (s.parent != kNoParent) s.parent += base;
    dst.push_back(std::move(s));
  }
  spans_.clear();
}

std::map<std::string, double> Tracer::self_seconds_by_layer(
    const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent == kNoParent) continue;
    const Span& p = spans[static_cast<std::size_t>(s.parent)];
    const double lo = std::max(s.start_s, p.start_s);
    const double hi = std::min(s.end_s, p.end_s);
    if (hi > lo) children[static_cast<std::size_t>(s.parent)].push_back({lo, hi});
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    // Union of the children's intervals, clipped to the parent above.
    double covered = 0.0, run_lo = 0.0, run_hi = -1.0;
    for (const auto& [lo, hi] : iv) {
      if (lo > run_hi) {
        if (run_hi > run_lo) covered += run_hi - run_lo;
        run_lo = lo;
        run_hi = hi;
      } else {
        run_hi = std::max(run_hi, hi);
      }
    }
    if (run_hi > run_lo) covered += run_hi - run_lo;
    const double dur = spans[i].end_s - spans[i].start_s;
    self[spans[i].layer] += std::max(0.0, dur - covered);
  }
  return self;
}

}  // namespace perfbench
