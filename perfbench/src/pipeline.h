// The paper pipeline as the benchmark drives it: corpus -> oracle
// measurements -> experiment grid -> total-time labels -> CART (and CHAID)
// fits, through the public core:: entry points only.
//
// Used twice: paper_grid runs it cold on a real-codec oracle, and the
// exchange workloads run it on the analytic oracle to train the selector
// the service deploys (the same recipe the serve-sim command uses).
#pragma once

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/measurement.h"
#include "ml/tree.h"
#include "sequence/corpus.h"
#include "trace.h"

namespace perfbench {

// One oracle call as the decorator saw it.
struct MeasureSample {
  std::string algo;
  std::string file;
  double start_s = 0.0;
  double end_s = 0.0;
  bool ok = false;
  dnacomp::core::MeasuredCosts costs;
};

// CostOracle decorator owned by the benchmark: forwards to the wrapped
// oracle, times every call on the benchmark's clock and records a span per
// call when tracing, in the layer that does the oracle's work.
class TimedOracle final : public dnacomp::core::CostOracle {
 public:
  TimedOracle(dnacomp::core::CostOracle& inner, const char* layer,
              Tracer& tracer, std::uint64_t job, std::int64_t parent)
      : inner_(inner), layer_(layer), tracer_(tracer), job_(job),
        parent_(parent) {}

  dnacomp::core::MeasuredCosts measure(
      const dnacomp::sequence::CorpusFile& file,
      const std::string& algo) override;

  std::vector<MeasureSample> samples() const;

 private:
  dnacomp::core::CostOracle& inner_;
  const char* layer_;
  Tracer& tracer_;
  std::uint64_t job_;
  std::int64_t parent_;
  mutable std::mutex mu_;
  std::vector<MeasureSample> samples_;
};

struct PipelineOutcome {
  std::shared_ptr<dnacomp::ml::Classifier> cart;
  std::vector<std::string> algorithms;
  std::vector<MeasureSample> measures;
  std::size_t pool_threads = 0;
  // Wall-clock phases, seconds.
  double measure_s = 0.0;      // run_experiments start -> last oracle call
  double project_s = 0.0;      // last oracle call -> run_experiments returned
  double label_s = 0.0;        // label_cells + make_tables
  double cart_fit_s = 0.0;
  double chaid_fit_s = 0.0;    // 0 when CHAID is not fitted
  double cart_accuracy = 0.0;
  double chaid_accuracy = 0.0;
};

// `oracle_layer` names the layer whose work the oracle does: "compressors"
// for a real-codec oracle, "core" for the analytic one.
PipelineOutcome run_paper_pipeline(
    const std::vector<dnacomp::sequence::CorpusFile>& corpus,
    dnacomp::core::CostOracle& oracle, const char* oracle_layer,
    bool fit_chaid, Tracer& tracer, std::uint64_t job, std::int64_t parent);

// Trains the exchange selector exactly as serve-sim does: CART on
// total-time labels from the analytic oracle over a fixed 47-file corpus.
PipelineOutcome train_selector(Tracer& tracer);

}  // namespace perfbench
