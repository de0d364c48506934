// paper_grid: a cold batch run of the paper pipeline on a seeded reduced
// corpus. Each job builds a fresh core::RealCostOracle (no measurement
// cache, round-trip verify on) that measures CTW, DNAX, GenCompress and
// GzipX on every file, then runs the 32-context grid, total-time labels and
// CART and CHAID fits. Jobs repeat until the measured time is used up.
//
// Correctness: the oracle's own round-trip verify throws on a mismatch, and
// a digest of the per-(file, codec) compressed sizes must be identical in
// every job of the run, since the codecs are deterministic for a seed.
#include <algorithm>
#include <cstdio>
#include <map>
#include <string>

#include "core/measurement.h"
#include "pipeline.h"
#include "sequence/corpus.h"
#include "sequence/generator.h"
#include "util/random.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace core = dnacomp::core;
namespace sequence = dnacomp::sequence;

constexpr int kSetupRepeats = 9;
constexpr int kMinJobs = 2;
constexpr std::uint64_t kProfileSeed = 2015;  // CorpusOptions' default

// The DNACOMP_SMALL=1 corpus of bench/. Its file sizes and statistics are
// those of one fixed master seed, so every seed measures the same mix of
// work; the seed varies only the bases of each file.
std::vector<sequence::CorpusFile> build_corpus(std::uint64_t seed) {
  sequence::CorpusOptions opts;
  opts.master_seed = kProfileSeed;
  opts.synthetic_count = 25;
  opts.max_size = 131072;
  auto corpus = sequence::build_corpus(opts);
  dnacomp::util::Xoshiro256 rng(seed);
  for (auto& f : corpus) {
    f.params.seed = rng.next();
    f.data = sequence::generate_dna(f.params);
  }
  return corpus;
}

// FNV-1a over the sorted (file, codec, compressed bytes) triples.
std::string size_digest(const std::vector<MeasureSample>& samples) {
  std::map<std::pair<std::string, std::string>, std::size_t> sizes;
  for (const auto& s : samples) sizes[{s.file, s.algo}] = s.costs.compressed_bytes;
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto feed = [&h](const std::string& text) {
    for (const char c : text) {
      h ^= static_cast<unsigned char>(c);
      h *= 0x100000001b3ULL;
    }
  };
  for (const auto& [key, bytes] : sizes) {
    feed(key.first + "|" + key.second + "|" + std::to_string(bytes) + "\n");
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

struct Job {
  PipelineOutcome outcome;
  double wall_s = 0.0;
  bool traced = false;
};

}  // namespace

RunResult run_paper_grid(const RunConfig& cfg) {
  RunResult out;
  Tracer tracer;

  std::vector<double> setup_s;
  std::vector<sequence::CorpusFile> corpus;
  for (int k = 0; k < kSetupRepeats; ++k) {
    corpus.clear();
    const double t0 = now_s();
    corpus = build_corpus(cfg.seed);
    setup_s.push_back(now_s() - t0);
  }

  // Whole jobs until the measured time is used up; when tracing, jobs
  // alternate untraced/traced so the tracing overhead is measured under the
  // same conditions.
  std::vector<Job> jobs;
  const double end = now_s() + cfg.seconds;
  for (int k = 0; k < kMinJobs || now_s() < end; ++k) {
    Job job;
    job.traced = cfg.trace && k % 2 == 1;
    tracer.set_enabled(job.traced);
    const auto id = static_cast<std::uint64_t>(k);
    core::RealCostOracle oracle;  // cold: no cache path, verify on
    const double t0 = now_s();
    try {
      ScopedSpan span(tracer, "loadgen", "job", id);
      job.outcome = run_paper_pipeline(corpus, oracle, "compressors",
                                       /*fit_chaid=*/true, tracer, id, span.id());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "paper_grid: job %d failed: %s\n", k, e.what());
      out.attempted += corpus.size() * 4;
      out.fail();
      out.correct = false;
      break;
    }
    job.wall_s = now_s() - t0;
    for (const auto& m : job.outcome.measures) {
      ++out.attempted;
      if (!m.ok) out.fail();
    }
    jobs.push_back(std::move(job));
  }

  const std::string digest =
      jobs.empty() ? "" : size_digest(jobs.front().outcome.measures);
  for (const Job& job : jobs) {
    if (size_digest(job.outcome.measures) != digest) {
      std::fprintf(stderr, "paper_grid: compressed sizes differ between jobs\n");
      out.fail();
      out.correct = false;
    }
  }
  out.note("size_digest", digest);
  out.note("jobs", std::to_string(jobs.size()));
  out.note("corpus_files", std::to_string(corpus.size()));
  if (jobs.empty()) return out;

  std::vector<double> job_s[2];  // [traced]
  for (const Job& job : jobs) job_s[job.traced].push_back(job.wall_s);

  if (!cfg.trace) {
    // Latency quantiles of each job's measurements, median over jobs, so
    // that they do not depend on how many jobs fit in the run.
    std::vector<double> p50, p99;
    for (const Job& job : jobs) {
      std::vector<double> latency;
      for (const auto& m : job.outcome.measures) {
        latency.push_back(1000.0 * (m.end_s - m.start_s));
      }
      p50.push_back(quantile(latency, 0.50));
      p99.push_back(quantile(latency, 0.99));
    }
    // Every job measures the same bytes, so throughput is one job's bytes
    // over the median job time.
    double raw = 0.0, stored = 0.0;
    for (const auto& m : jobs.front().outcome.measures) {
      raw += static_cast<double>(m.costs.original_bytes);
      stored += static_cast<double>(m.costs.compressed_bytes);
    }
    out.add("setup_s", median(setup_s), "s");
    out.add("latency_p50_ms", median(p50), "ms");
    out.add("latency_p99_ms", median(p99), "ms");
    out.add("throughput_mbps", raw / 1e6 / median(job_s[0]), "MB/s");
    out.add("job_s", median(job_s[0]), "s");
    out.add("stored_bits_per_base", 8.0 * stored / raw, "bits/base");
    out.add("peak_rss_mb", peak_rss_mb(), "MB");
    return out;
  }

  // Per-layer numbers from the traced jobs.
  std::map<std::string, double> c_bytes, c_ms, d_ms, peak;
  std::vector<double> measure_s, project_s, label_s, busy, cart_s, chaid_s,
      cart_acc, chaid_acc;
  for (const Job& job : jobs) {
    if (!job.traced) continue;
    const PipelineOutcome& o = job.outcome;
    double busy_s = 0.0;
    for (const auto& m : o.measures) {
      c_bytes[m.algo] += static_cast<double>(m.costs.original_bytes);
      c_ms[m.algo] += m.costs.compress_ms;
      d_ms[m.algo] += m.costs.decompress_ms;
      peak[m.algo] = std::max(peak[m.algo],
                              static_cast<double>(m.costs.peak_ram_bytes) / 1e6);
      busy_s += m.end_s - m.start_s;
    }
    measure_s.push_back(o.measure_s);
    project_s.push_back(o.project_s);
    label_s.push_back(o.label_s);
    busy.push_back(busy_s / (o.measure_s * static_cast<double>(o.pool_threads)));
    cart_s.push_back(o.cart_fit_s);
    chaid_s.push_back(o.chaid_fit_s);
    cart_acc.push_back(o.cart_accuracy);
    chaid_acc.push_back(o.chaid_accuracy);
  }
  for (const auto& [algo, bytes] : c_bytes) {
    const std::string base = "compressors." + algo;
    out.add(base + ".compress_mbps", bytes / 1e6 / (c_ms[algo] / 1000.0), "MB/s");
    out.add(base + ".decompress_mbps", bytes / 1e6 / (d_ms[algo] / 1000.0), "MB/s");
    out.add(base + ".peak_mb", peak[algo], "MB");
  }
  out.add("core.measure_s", median(measure_s), "s");
  out.add("core.project_s", median(project_s), "s");
  out.add("core.label_s", median(label_s), "s");
  out.add("core.measure_busy_share", median(busy), "ratio");
  out.add("ml.cart.fit_s", median(cart_s), "s");
  out.add("ml.chaid.fit_s", median(chaid_s), "s");
  out.add("ml.cart.accuracy", median(cart_acc), "ratio");
  out.add("ml.chaid.accuracy", median(chaid_acc), "ratio");
  out.add("sequence.generate_s", median(setup_s), "s");
  tracer.drain_into(out.spans);
  add_self_time_metrics(out, out.spans, static_cast<double>(job_s[1].size()));
  out.add("trace.overhead_share", median(job_s[1]) / median(job_s[0]) - 1.0, "ratio");
  out.note("trace_spans", std::to_string(out.spans.size()));
  return out;
}

}  // namespace perfbench
