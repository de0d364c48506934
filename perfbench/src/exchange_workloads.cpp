// exchange_miss and exchange_hit: the exchange request path
// (select -> compress -> upload -> download -> decompress -> verify) driven
// through exchange::ExchangeService::submit only.
//
// After an untimed warm-up batch, each run alternates two measured phases,
// both driven from this one thread, over a few rounds:
//  * open loop: requests are due at a fixed nominal rate whatever the
//    service does; each is timed from when it was due, so a stall delays
//    the latency of every request queued behind it;
//  * closed loop: fixed batches of requests with at most nproc outstanding;
//    a batch's makespan is its job time, and raw bytes over batch time is
//    the throughput.
// After each segment and batch every stored blob is decoded with
// compressors::decompress_auto and compared with the bytes the benchmark
// sent, independently of the service's own `verified` flag.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <future>
#include <map>
#include <memory>
#include <numeric>
#include <thread>
#include <tuple>

#include "cloud/blob_store.h"
#include "cloud/vm.h"
#include "compressors/compressor.h"
#include "exchange/service.h"
#include "pipeline.h"
#include "sequence/generator.h"
#include "util/random.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace cloud = dnacomp::cloud;
namespace compressors = dnacomp::compressors;
namespace ex = dnacomp::exchange;
namespace sequence = dnacomp::sequence;

constexpr int kSetupRepeats = 5;
constexpr double kOpenShare = 0.6;  // of the measured seconds
constexpr std::size_t kRounds = 4;  // open-loop segments per run
constexpr std::size_t kMinOpenRequests = 1000;
constexpr double kSpinS = 0.001;    // open-loop generator spins this long

// Counter-based mixing (splitmix64 finaliser): payload choices depend only
// on (seed, index), never on the order in which they are drawn.
std::uint64_t mix(std::uint64_t seed, std::uint64_t a, std::uint64_t b = 0) {
  std::uint64_t z = seed ^ (a * 0x9E3779B97F4A7C15ULL) ^
                    (b * 0xC2B2AE3D27D4EB4FULL) ^ 0x94D049BB133111EBULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

// What a request looks like is part of the workload and fixed for every
// seed: the statistics of each pool sequence, the order in which a cycle's
// requests are sent and which transfer attempts the fault policy drops. The
// seed varies only the bases drawn, so which requests are slow, arrive close
// together or are retried, and with them the latency quantiles, do not
// depend on the seed.
constexpr std::uint64_t kScheduleSeed = 0x5EED;

// Seeded shuffle of 0..n-1.
std::vector<std::size_t> permutation(std::size_t n, std::uint64_t seed) {
  std::vector<std::size_t> p(n);
  std::iota(p.begin(), p.end(), 0);
  dnacomp::util::Xoshiro256 rng(seed);
  for (std::size_t i = n; i > 1; --i) std::swap(p[i - 1], p[rng.next_below(i)]);
  return p;
}

// n sizes log-spaced over [lo, hi].
std::vector<std::size_t> log_ladder(std::size_t n, double lo, double hi) {
  std::vector<std::size_t> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i) / static_cast<double>(n - 1);
    out[i] = static_cast<std::size_t>(std::exp(std::log(lo) + t * std::log(hi / lo)));
  }
  return out;
}

// A request's content, reproducible from this descriptor: `size` bases of
// pool sequence `pool`, read cyclically from `offset`.
struct Payload {
  std::size_t pool = 0;
  std::size_t offset = 0;
  std::size_t size = 0;
  std::size_t context = 0;  // index into cloud::context_grid()
};

std::vector<std::uint8_t> bytes_of(const Payload& p,
                                   const std::vector<std::string>& pool) {
  const std::string& src = pool[p.pool];
  std::vector<std::uint8_t> out(p.size);
  std::size_t at = p.offset % src.size();
  for (std::size_t k = 0; k < p.size; ++k) {
    out[k] = static_cast<std::uint8_t>(src[at]);
    if (++at == src.size()) at = 0;
  }
  return out;
}

// A sequence whose statistics come from `profile` and whose bases come
// from `content`.
std::string generate_sequence(std::size_t length, std::uint64_t profile,
                              std::uint64_t content) {
  dnacomp::util::Xoshiro256 rng(profile);
  sequence::GeneratorParams g;
  g.length = length;
  g.gc_bias = rng.next_double(0.35, 0.65);
  g.repeat_density = rng.next_double(0.38, 0.50);
  g.reverse_complement_fraction = rng.next_double(0.10, 0.40);
  g.markov_strength = rng.next_double(0.90, 1.20);
  g.seed = content;
  return sequence::generate_dna(g);
}

// What distinguishes the two exchange workloads.
class Traffic {
 public:
  virtual ~Traffic() = default;
  virtual const char* name() const = 0;
  virtual double rate_per_s() const = 0;
  virtual double drop_probability() const = 0;
  virtual std::size_t max_attempts() const = 0;
  virtual std::size_t batch_size() const = 0;
  virtual std::vector<std::string> make_pool(std::uint64_t seed) const = 0;
  // Sent once during set-up, before anything is measured.
  virtual std::vector<Payload> warm_up() const { return {}; }
  // Requests come in cycles of fixed composition (sizes, contexts, payload
  // counts) and fixed order, so every seed sends the same mix and the open
  // loop runs whole cycles.
  virtual std::size_t cycle_size() const = 0;
  // The i-th request of the run (open loop first, closed loop after).
  virtual Payload request(std::uint64_t seed, std::size_t i) const = 0;
};

// Unique content on every request: a seeded pool of sequences, each read
// from a per-request offset. A cycle sends every size of a log-spaced
// ladder that straddles the DCB threshold from every client context.
class MissTraffic final : public Traffic {
 public:
  const char* name() const override { return "exchange_miss"; }
  double rate_per_s() const override { return 40.0; }
  double drop_probability() const override { return 0.0; }
  std::size_t max_attempts() const override { return ex::RetryParams{}.max_attempts; }
  std::size_t batch_size() const override { return cycle_size(); }
  std::size_t cycle_size() const override {
    return sizes_.size() * cloud::context_grid().size();
  }
  std::vector<std::string> make_pool(std::uint64_t seed) const override {
    std::vector<std::string> pool;
    for (std::size_t i = 0; i < kPoolSequences; ++i) {
      pool.push_back(generate_sequence(kPoolBases, mix(kScheduleSeed, 1, i),
                                       mix(seed, 1, i)));
    }
    return pool;
  }
  Payload request(std::uint64_t seed, std::size_t i) const override {
    const std::size_t slot = order_[i % order_.size()];
    Payload p;
    p.pool = i % kPoolSequences;
    // Successive reads of one pool sequence step by an odd stride near the
    // golden section of its length: offsets never repeat within 2^20 reads
    // of a sequence, so no two requests carry the same content.
    p.offset = (mix(seed, 3, p.pool) + (i / kPoolSequences) * kOffsetStride) % kPoolBases;
    p.size = sizes_[slot % sizes_.size()];
    p.context = slot / sizes_.size();
    return p;
  }

 private:
  static constexpr std::size_t kPoolSequences = 8;
  static constexpr std::size_t kPoolBases = 1 << 20;
  static constexpr std::size_t kOffsetStride = 648'055;
  const std::vector<std::size_t> sizes_ = log_ladder(8, 12 << 10, 640 << 10);
  const std::vector<std::size_t> order_ =
      permutation(sizes_.size() * cloud::context_grid().size(), kScheduleSeed);
};

// Skewed repeats over a small payload set warmed in set-up. Payload j always
// comes from the same client context, so its cache key (content, codec) is
// fixed and every measured request can hit. Popularity follows a Zipf law
// over j; each cycle holds the exact expected counts. Every payload is
// below the DCB threshold, so each request decompresses on one thread: a
// blocked request waits for its slowest block, and on a shared host that
// straggler, not the code, set the latency tail (exchange_miss covers the
// blocked path).
class HitTraffic final : public Traffic {
 public:
  HitTraffic() {
    const auto sizes = log_ladder(kPayloads, 8 << 10, 240 << 10);
    double h = 0.0;
    for (std::size_t j = 0; j < kPayloads; ++j) h += 1.0 / static_cast<double>(j + 1);
    for (std::size_t j = 0; j < kPayloads; ++j) {
      // Popularity rank j gets a fixed, size-mixing slot of the ladder.
      sizes_.push_back(sizes[(j * 13) % kPayloads]);
      const double share = 1.0 / (static_cast<double>(j + 1) * h);
      const auto count = std::max<std::size_t>(
          1, static_cast<std::size_t>(std::lround(share * kCycle)));
      cycle_.insert(cycle_.end(), count, j);
    }
    order_ = permutation(cycle_.size(), kScheduleSeed);
  }
  const char* name() const override { return "exchange_hit"; }
  double rate_per_s() const override { return 150.0; }
  double drop_probability() const override { return 0.05; }
  // With the default 5 attempts, all of them drop with probability
  // 0.05^5 = 3e-7, which at ~35k transfers a run fails about one run in
  // a hundred; 8 attempts keep every request deliverable.
  std::size_t max_attempts() const override { return 8; }
  std::size_t batch_size() const override { return 8 * cycle_.size(); }
  std::size_t cycle_size() const override { return cycle_.size(); }
  std::vector<std::string> make_pool(std::uint64_t seed) const override {
    std::vector<std::string> pool;
    for (std::size_t j = 0; j < kPayloads; ++j) {
      pool.push_back(generate_sequence(sizes_[j], mix(kScheduleSeed, 4, j),
                                       mix(seed, 4, j)));
    }
    return pool;
  }
  std::vector<Payload> warm_up() const override {
    std::vector<Payload> out;
    for (std::size_t j = 0; j < kPayloads; ++j) out.push_back(payload(j));
    return out;
  }
  Payload request(std::uint64_t /*seed*/, std::size_t i) const override {
    return payload(cycle_[order_[i % order_.size()]]);
  }

 private:
  static constexpr std::size_t kPayloads = 32;
  static constexpr double kCycle = 128.0;
  Payload payload(std::size_t j) const {
    Payload p;
    p.pool = j;
    p.size = sizes_[j];
    p.context = j % cloud::context_grid().size();
    return p;
  }
  std::vector<std::size_t> sizes_;
  std::vector<std::size_t> cycle_;  // payload index per request of a cycle
  std::vector<std::size_t> order_;  // send order of one cycle
};

struct Sent {
  Payload payload;
  ex::ExchangeReport report;
  double due_s = 0.0;   // open loop only
  double sent_s = 0.0;
  bool traced = false;
};

// The service and everything set-up builds for it.
struct Bench {
  std::vector<std::string> pool;
  PipelineOutcome selector;
  std::unique_ptr<cloud::BlobStore> store;
  std::unique_ptr<ex::ExchangeService> service;
  double generate_s = 0.0;
};

ex::ExchangeRequest make_request(const Payload& p,
                                 const std::vector<std::string>& pool) {
  ex::ExchangeRequest req;
  req.sequence = bytes_of(p, pool);
  req.context = cloud::context_grid()[p.context];
  return req;
}

bool ok(const ex::ExchangeReport& r) {
  return r.status == ex::ExchangeStatus::kOk;
}

// Set-up: payload generation, selector training, service start and, where
// the workload has one, cache warm-up.
std::unique_ptr<Bench> set_up(const Traffic& traffic, const RunConfig& cfg,
                              Tracer& tracer, RunResult& out) {
  auto b = std::make_unique<Bench>();
  {
    ScopedSpan span(tracer, "sequence", "generate_pool");
    const double t0 = now_s();
    b->pool = traffic.make_pool(cfg.seed);
    b->generate_s = now_s() - t0;
  }
  b->selector = train_selector(tracer);

  // The options serve-sim runs with by default.
  ex::ExchangeServiceOptions opts;
  opts.max_pending = 64;
  opts.dcb_threshold_bytes = 262144;
  opts.pipelined_upload = true;
  opts.pipeline_depth = 4;
  opts.faults.drop_probability = traffic.drop_probability();
  opts.retry.max_attempts = traffic.max_attempts();
  opts.faults.seed = kScheduleSeed;
  b->store = std::make_unique<cloud::BlobStore>();
  b->service = std::make_unique<ex::ExchangeService>(
      *b->store, b->selector.cart, b->selector.algorithms, opts);

  std::vector<std::future<ex::ExchangeReport>> warm;
  for (const Payload& p : traffic.warm_up()) {
    warm.push_back(b->service->submit(make_request(p, b->pool)));
  }
  for (auto& f : warm) {
    ++out.attempted;
    if (!ok(f.get())) out.fail();
  }
  return b;
}

// Lays one collected request out as spans from the stage times the service
// reported, each attributed to the layer that does that stage's work.
void trace_request(Tracer& tracer, const Sent& s) {
  const ex::ExchangeReport& r = s.report;
  const double end = s.sent_s + (r.stages.queue_ms + r.total_ms) / 1000.0;
  const std::int64_t root =
      tracer.add({"exchange", "request", r.request_id, kNoParent, s.sent_s, end});
  double t = s.sent_s;
  const auto stage = [&](const char* layer, const char* name, double ms) {
    tracer.add({layer, name, r.request_id, root, t, t + ms / 1000.0});
    t += ms / 1000.0;
  };
  stage("util", "queue", r.stages.queue_ms);
  stage("ml", "select", r.stages.select_ms);
  if (r.pipelined) {
    stage("stream", "compress_upload", r.stages.upload_ms);
  } else {
    stage("compressors", "compress", r.stages.compress_ms);
    stage("cloud", "upload", r.stages.upload_ms);
  }
  stage("cloud", "download", r.stages.download_ms);
  stage("compressors", "decompress", r.stages.decompress_ms);
}

struct LoadStats {
  std::vector<double> late_ms;
  std::size_t backlog_max = 0;
};

// Requests first .. first + n - 1 of the run, due at the workload's rate.
std::vector<Sent> open_loop(const Traffic& traffic, const RunConfig& cfg,
                            Bench& b, std::size_t first, std::size_t n,
                            LoadStats& load) {
  const double rate = traffic.rate_per_s();
  std::vector<Sent> sent(n);
  std::vector<std::future<ex::ExchangeReport>> futures(n);
  const double t0 = now_s() + 0.05;
  for (std::size_t i = 0; i < n; ++i) {
    Sent& s = sent[i];
    s.payload = traffic.request(cfg.seed, first + i);
    s.due_s = t0 + static_cast<double>(i) / rate;
    auto req = make_request(s.payload, b.pool);
    // Sleep to just short of the due time and spin the rest, so that the
    // generator's own wake-up delay stays out of the measured latency.
    std::this_thread::sleep_until(time_at(s.due_s - kSpinS));
    while (now_s() < s.due_s) {
    }
    s.sent_s = now_s();
    futures[i] = b.service->submit(std::move(req));
    load.late_ms.push_back(1000.0 * (s.sent_s - s.due_s));
    const auto overdue = static_cast<std::size_t>(
        std::max(0.0, std::floor((s.sent_s - t0) * rate)));
    load.backlog_max = std::max(load.backlog_max, overdue > i ? overdue - i : 0);
  }
  for (std::size_t i = 0; i < n; ++i) sent[i].report = futures[i].get();
  return sent;
}

// One closed-loop batch: `count` requests starting at run index `first`,
// at most `cap` outstanding. Returns the batch makespan in seconds.
double closed_batch(const Traffic& traffic, const RunConfig& cfg, Bench& b,
                    std::size_t first, std::size_t count, std::size_t cap,
                    bool traced, Tracer& tracer, std::vector<Sent>& done) {
  struct Pending {
    Sent sent;
    std::future<ex::ExchangeReport> future;
  };
  std::vector<Pending> outstanding;
  const auto reap = [&] {
    bool any = false;
    for (auto it = outstanding.begin(); it != outstanding.end();) {
      if (it->future.wait_for(std::chrono::seconds(0)) ==
          std::future_status::ready) {
        it->sent.report = it->future.get();
        if (traced) trace_request(tracer, it->sent);
        done.push_back(std::move(it->sent));
        it = outstanding.erase(it);
        any = true;
      } else {
        ++it;
      }
    }
    return any;
  };
  const double t0 = now_s();
  std::size_t next = 0;
  while (next < count || !outstanding.empty()) {
    while (next < count && outstanding.size() < cap) {
      Pending p;
      p.sent.payload = traffic.request(cfg.seed, first + next);
      p.sent.traced = traced;
      auto req = make_request(p.sent.payload, b.pool);
      p.sent.sent_s = now_s();
      p.future = b.service->submit(std::move(req));
      outstanding.push_back(std::move(p));
      ++next;
    }
    if (!reap()) outstanding.front().future.wait_for(std::chrono::microseconds(200));
  }
  return now_s() - t0;
}

// Decodes every stored blob with decompress_auto and compares it with the
// bytes sent. Returns the number of requests whose blob did not match.
std::size_t verify_blobs(const std::vector<const Sent*>& sent, const Bench& b,
                         Tracer& tracer) {
  // Content-addressed blob names repeat on exchange_hit; check each
  // distinct (blob, payload) pair once and charge a mismatch to every
  // request that maps to it.
  using Key = std::tuple<std::string, std::size_t, std::size_t, std::size_t>;
  std::map<Key, std::vector<std::size_t>> groups;
  for (std::size_t i = 0; i < sent.size(); ++i) {
    const Payload& p = sent[i]->payload;
    groups[{sent[i]->report.blob_name, p.pool, p.offset, p.size}].push_back(i);
  }
  std::vector<const std::vector<std::size_t>*> work;
  for (const auto& [key, members] : groups) work.push_back(&members);

  std::atomic<std::size_t> next{0}, bad{0};
  const auto container = b.service->options().container;
  const auto worker = [&] {
    for (std::size_t w; (w = next.fetch_add(1)) < work.size();) {
      const Sent& s = *sent[work[w]->front()];
      const std::uint64_t id = s.report.request_id;
      ScopedSpan check(tracer, "loadgen", "verify", id);
      std::optional<std::vector<std::uint8_t>> blob;
      {
        ScopedSpan span(tracer, "cloud", "get_blob", id, check.id());
        blob = b.store->get_blob(container, s.report.blob_name);
      }
      bool match = false;
      if (blob.has_value()) {
        ScopedSpan span(tracer, "compressors", "decompress_auto", id, check.id());
        auto decoded = compressors::decompress_auto(*blob);
        match = decoded.has_value() && decoded.value() == bytes_of(s.payload, b.pool);
      }
      if (!match) bad.fetch_add(work[w]->size());
    }
  };
  const std::size_t n_threads =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < n_threads; ++t) threads.emplace_back(worker);
  for (auto& t : threads) t.join();
  return bad.load();
}

// Counts the outcomes of one finished phase or batch, checks every stored
// output, then deletes the checked blobs so that the store (and the peak
// RSS) does not grow with the number of requests a faster service gets
// through. Failed or rejected requests count as failed; a failure other than
// a rejection, or an output that does not decode to the bytes sent, makes
// the run incorrect.
void check_and_release(const std::vector<Sent>& sent, const Traffic& traffic,
                       Bench& b, Tracer& tracer, RunResult& out) {
  std::vector<const Sent*> delivered;
  for (const Sent& s : sent) {
    ++out.attempted;
    if (ok(s.report)) {
      delivered.push_back(&s);
      continue;
    }
    out.fail();
    if (s.report.status != ex::ExchangeStatus::kRejected) out.correct = false;
    std::fprintf(stderr, "%s: request %llu: %s %s\n", traffic.name(),
                 static_cast<unsigned long long>(s.report.request_id),
                 std::string(ex::status_name(s.report.status)).c_str(),
                 s.report.error.c_str());
  }
  const std::size_t mismatched = verify_blobs(delivered, b, tracer);
  if (mismatched > 0) {
    out.fail(mismatched);
    out.correct = false;
    std::fprintf(stderr, "%s: %zu requests stored blobs that do not decode to the bytes sent\n",
                 traffic.name(), mismatched);
  }
  const std::string& container = b.service->options().container;
  for (const Sent* s : delivered) b.store->delete_blob(container, s->report.blob_name);
}

void add_stage_quantiles(RunResult& out, const std::string& name,
                         const std::vector<double>& ms) {
  out.add(name + ".p50", quantile(ms, 0.50), "ms");
  out.add(name + ".p99", quantile(ms, 0.99), "ms");
}

double mbps(double bytes, double ms) { return ms > 0.0 ? bytes / 1e6 / (ms / 1000.0) : 0.0; }

void add_layer_metrics(RunResult& out, const std::vector<Sent>& open,
                       const std::vector<const Sent*>& all, const Bench& b,
                       const LoadStats& load, double setup_generate_s,
                       double stored_mb) {
  // compressors: mono requests, by the codec the selector chose.
  for (const char* codec : {"ctw", "dnax", "gencompress", "gzip"}) {
    double c_bytes = 0, c_ms = 0, d_bytes = 0, d_ms = 0;
    for (const Sent& s : open) {
      const auto& r = s.report;
      if (!ok(r) || r.blocked || r.codec != codec) continue;
      if (!r.cache_hit) {
        c_bytes += static_cast<double>(r.raw_bytes);
        c_ms += r.stages.compress_ms;
      }
      d_bytes += static_cast<double>(r.raw_bytes);
      d_ms += r.stages.decompress_ms;
    }
    const std::string base = std::string("compressors.") + codec;
    out.add(base + ".compress_mbps", mbps(c_bytes, c_ms), "MB/s");
    out.add(base + ".decompress_mbps", mbps(d_bytes, d_ms), "MB/s");
  }

  std::vector<double> fused, stage[7];
  double blocked_bytes = 0, blocked_ms = 0;
  std::size_t mono = 0, blocked = 0, pipelined = 0;
  for (const Sent& s : open) {
    const auto& r = s.report;
    if (!ok(r)) continue;
    const auto& st = r.stages;
    const double v[7] = {st.queue_ms,  st.select_ms,     st.compress_ms,
                         st.upload_ms, st.download_ms,   st.decompress_ms,
                         st.verify_ms};
    for (int k = 0; k < 7; ++k) stage[k].push_back(v[k]);
    if (r.pipelined) fused.push_back(st.upload_ms);
    if (r.blocked) {
      ++blocked;
      blocked_bytes += static_cast<double>(r.raw_bytes);
      blocked_ms += st.decompress_ms;
    } else {
      ++mono;
    }
    if (r.pipelined) ++pipelined;
  }
  add_stage_quantiles(out, "stream.compress_upload_ms", fused);
  out.add("stream.blocked_decompress_mbps", mbps(blocked_bytes, blocked_ms), "MB/s");

  const char* names[7] = {"queue", "select", "compress", "upload",
                          "download", "decompress", "verify"};
  for (int k = 0; k < 7; ++k) {
    add_stage_quantiles(out, std::string("exchange.") + names[k] + "_ms", stage[k]);
  }
  std::size_t hits = 0, lookups = 0, faulted = 0, attempts = 0, rejected = 0;
  for (const Sent* s : all) {
    const auto& r = s->report;
    if (r.status == ex::ExchangeStatus::kRejected) {
      ++rejected;
      continue;
    }
    ++lookups;
    hits += r.cache_hit ? 1 : 0;
    faulted += r.fault_trace.size();
    attempts += r.upload_attempts + r.download_attempts;
  }
  out.add("exchange.cache_hit_ratio",
          lookups ? static_cast<double>(hits) / static_cast<double>(lookups) : 0.0, "ratio");
  out.add("exchange.retry_ratio",
          attempts ? static_cast<double>(faulted) / static_cast<double>(attempts) : 0.0,
          "ratio");
  out.add("exchange.rejected", static_cast<double>(rejected), "count");
  out.note("mono_requests", std::to_string(mono));
  out.note("blocked_requests", std::to_string(blocked));
  out.note("pipelined_requests", std::to_string(pipelined));

  out.add("cloud.stored_mb", stored_mb, "MB");

  // core and ml: the selector training done during set-up.
  const PipelineOutcome& sel = b.selector;
  double busy = 0.0;
  for (const auto& m : sel.measures) busy += m.end_s - m.start_s;
  out.add("core.measure_s", sel.measure_s, "s");
  out.add("core.project_s", sel.project_s, "s");
  out.add("core.label_s", sel.label_s, "s");
  out.add("core.measure_busy_share",
          sel.measure_s > 0 ? busy / (sel.measure_s * static_cast<double>(sel.pool_threads)) : 0.0,
          "ratio");
  out.add("ml.cart.fit_s", sel.cart_fit_s, "s");
  out.add("ml.chaid.fit_s", sel.chaid_fit_s, "s");
  out.add("ml.cart.accuracy", sel.cart_accuracy, "ratio");
  out.add("ml.chaid.accuracy", sel.chaid_accuracy, "ratio");
  out.add("sequence.generate_s", setup_generate_s, "s");
  out.add("loadgen.late_ms.p99", quantile(load.late_ms, 0.99), "ms");
  out.add("loadgen.backlog_max", static_cast<double>(load.backlog_max), "count");
}

RunResult run_exchange(const Traffic& traffic, const RunConfig& cfg) {
  RunResult out;
  Tracer setup_tracer, tracer;

  // Set-up, repeated; the last one is kept and, when tracing, traced.
  std::vector<double> setup_s, generate_s;
  std::unique_ptr<Bench> bench;
  for (int k = 0; k < kSetupRepeats; ++k) {
    bench.reset();
    setup_tracer.set_enabled(cfg.trace && k + 1 == kSetupRepeats);
    const double t0 = now_s();
    bench = set_up(traffic, cfg, setup_tracer, out);
    setup_s.push_back(now_s() - t0);
    generate_s.push_back(bench->generate_s);
  }
  Bench& b = *bench;
  const std::size_t cap = std::max<std::size_t>(1, std::thread::hardware_concurrency());

  // Warm-up: one closed-loop batch, checked but not timed, so that the open
  // loop does not start on cold pools, caches and allocator arenas.
  std::size_t next = 0;
  {
    std::vector<Sent> warm;
    closed_batch(traffic, cfg, b, next, traffic.batch_size(), cap, false, tracer, warm);
    next += traffic.batch_size();
    check_and_release(warm, traffic, b, tracer, out);
  }

  // The measured time runs in rounds, each an open-loop segment of whole
  // cycles at the workload's nominal rate followed by closed-loop batches
  // (whole cycles, so every batch is the same work). Both phases so sample
  // the whole run, and a passing slowdown of the host lands on a part of
  // each instead of on all of one. When tracing, batches alternate
  // untraced/traced so the tracing overhead is measured under the same
  // conditions.
  tracer.set_enabled(cfg.trace);
  const double cycles = kOpenShare * cfg.seconds * traffic.rate_per_s() /
                        static_cast<double>(traffic.cycle_size());
  // At least kMinOpenRequests, so that ten or more lie beyond p99.
  const std::size_t n_cycles = std::max<std::size_t>(
      std::lround(cycles),
      (kMinOpenRequests + traffic.cycle_size() - 1) / traffic.cycle_size());
  const std::size_t rounds = std::min(kRounds, n_cycles);
  LoadStats load;
  std::vector<Sent> open, closed;
  std::vector<double> batch_s[2];  // [traced]
  double used_s = 0.0, stored_mb = 0.0;
  int k = 0;
  for (std::size_t r = 0; r < rounds; ++r) {
    const std::size_t n_open = traffic.cycle_size() *
                               ((r + 1) * n_cycles / rounds - r * n_cycles / rounds);
    const double t0 = now_s();
    std::vector<Sent> segment = open_loop(traffic, cfg, b, next, n_open, load);
    used_s += now_s() - t0;
    next += n_open;
    for (Sent& s : segment) {
      s.traced = cfg.trace;
      if (cfg.trace) trace_request(tracer, s);
    }
    // What the segment left in the store: one blob per distinct output.
    stored_mb += static_cast<double>(b.store->total_bytes()) / 1e6;
    check_and_release(segment, traffic, b, tracer, out);
    open.insert(open.end(), std::make_move_iterator(segment.begin()),
                std::make_move_iterator(segment.end()));

    const double round_end_s =
        cfg.seconds * static_cast<double>(r + 1) / static_cast<double>(rounds);
    const bool last = r + 1 == rounds;
    for (int j = 0; j == 0 || used_s < round_end_s || (last && k < 2); ++j, ++k) {
      const bool traced = cfg.trace && (k % 2 == 1);
      std::vector<Sent> batch;
      const double t = closed_batch(traffic, cfg, b, next, traffic.batch_size(), cap,
                                    traced, tracer, batch);
      batch_s[traced].push_back(t);
      used_s += t;
      next += traffic.batch_size();
      check_and_release(batch, traffic, b, tracer, out);
      closed.insert(closed.end(), std::make_move_iterator(batch.begin()),
                    std::make_move_iterator(batch.end()));
    }
  }

  std::vector<const Sent*> all;
  for (const Sent& s : open) all.push_back(&s);
  for (const Sent& s : closed) all.push_back(&s);

  // The generator has fallen behind its schedule when, at p99, it sends a
  // request later than the next one is due; the run is then invalid
  // instead of reported.
  const double late_p99 = quantile(load.late_ms, 0.99);
  const double gap_ms = 1000.0 / traffic.rate_per_s();
  if (late_p99 > gap_ms) {
    out.valid = false;
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "load generator fell behind: late p99 %.2f ms > %.2f ms gap, backlog max %zu",
                  late_p99, gap_ms, load.backlog_max);
    out.invalid_reason = buf;
  }

  if (!cfg.trace) {
    std::vector<double> latency;
    double raw = 0.0, stored = 0.0;
    for (const Sent& s : open) {
      const auto& r = s.report;
      if (ok(r)) {
        latency.push_back(1000.0 * (s.sent_s - s.due_s) + r.stages.queue_ms + r.total_ms);
        raw += static_cast<double>(r.raw_bytes);
        stored += static_cast<double>(r.payload_bytes);
      } else {
        latency.push_back(INFINITY);
      }
    }
    double closed_bytes = 0.0;
    for (const Sent& s : closed) {
      if (ok(s.report)) closed_bytes += static_cast<double>(s.report.raw_bytes);
    }
    // Every batch is the same work: one batch's bytes over the median time.
    const double batch_bytes =
        closed_bytes / static_cast<double>(batch_s[0].size() + batch_s[1].size());
    out.add("setup_s", median(setup_s), "s");
    out.add("latency_p50_ms", quantile(latency, 0.50), "ms");
    out.add("latency_p99_ms", quantile(latency, 0.99), "ms");
    out.add("throughput_mbps", batch_bytes / 1e6 / median(batch_s[0]), "MB/s");
    out.add("job_s", median(batch_s[0]), "s");
    out.add("stored_bits_per_base", raw > 0 ? 8.0 * stored / raw : 0.0, "bits/base");
    out.add("peak_rss_mb", peak_rss_mb(), "MB");
  } else {
    add_layer_metrics(out, open, all, b, load, median(generate_s), stored_mb);
    std::size_t traced_ops = open.size();
    for (const Sent& s : closed) traced_ops += s.traced ? 1 : 0;
    add_self_time_metrics(out, tracer.spans(), static_cast<double>(traced_ops));
    out.add("trace.overhead_share", median(batch_s[1]) / median(batch_s[0]) - 1.0, "ratio");
    setup_tracer.drain_into(out.spans);
    tracer.drain_into(out.spans);
    out.note("trace_spans", std::to_string(out.spans.size()));
  }
  std::map<std::string, std::size_t> codecs;
  for (const Sent* s : all) ++codecs[s->report.codec];
  std::string mix;
  for (const auto& [codec, n] : codecs) {
    mix += (mix.empty() ? "" : ",") + codec + "=" + std::to_string(n);
  }
  out.note("codecs", mix);
  out.note("open_loop_requests", std::to_string(open.size()));
  out.note("closed_loop_requests", std::to_string(closed.size()));
  out.note("closed_loop_batches", std::to_string(batch_s[0].size() + batch_s[1].size()));
  return out;
}

}  // namespace

RunResult run_exchange_miss(const RunConfig& cfg) {
  return run_exchange(MissTraffic(), cfg);
}

RunResult run_exchange_hit(const RunConfig& cfg) {
  return run_exchange(HitTraffic(), cfg);
}

}  // namespace perfbench
