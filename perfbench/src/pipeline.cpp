#include "pipeline.h"

#include <algorithm>
#include <thread>

#include "cloud/vm.h"
#include "core/experiment.h"
#include "core/labeling.h"
#include "core/training.h"

namespace perfbench {

namespace core = dnacomp::core;
namespace sequence = dnacomp::sequence;

core::MeasuredCosts TimedOracle::measure(const sequence::CorpusFile& file,
                                         const std::string& algo) {
  MeasureSample s;
  s.algo = algo;
  s.file = file.name;
  s.start_s = now_s();
  try {
    s.costs = inner_.measure(file, algo);
    s.ok = true;
  } catch (...) {
    s.end_s = now_s();
    std::lock_guard lk(mu_);
    samples_.push_back(s);
    throw;
  }
  s.end_s = now_s();
  tracer_.add({layer_, "measure." + algo, job_, parent_, s.start_s, s.end_s});
  std::lock_guard lk(mu_);
  samples_.push_back(std::move(s));
  return samples_.back().costs;
}

std::vector<MeasureSample> TimedOracle::samples() const {
  std::lock_guard lk(mu_);
  return samples_;
}

PipelineOutcome run_paper_pipeline(
    const std::vector<sequence::CorpusFile>& corpus, core::CostOracle& oracle,
    const char* oracle_layer, bool fit_chaid, Tracer& tracer,
    std::uint64_t job, std::int64_t parent) {
  PipelineOutcome out;
  core::ExperimentConfig config;
  out.algorithms = config.algorithms;
  // run_experiments sizes its pool this way when config.threads is 0.
  out.pool_threads =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());

  std::vector<core::ExperimentRow> rows;
  {
    ScopedSpan span(tracer, "core", "run_experiments", job, parent);
    TimedOracle timed(oracle, oracle_layer, tracer, job, span.id());
    const double t0 = now_s();
    rows = core::run_experiments(corpus, dnacomp::cloud::context_grid(), timed,
                                 config);
    const double t1 = now_s();
    out.measures = timed.samples();
    double last_measure = t0;
    for (const auto& m : out.measures) last_measure = std::max(last_measure, m.end_s);
    out.measure_s = last_measure - t0;
    out.project_s = t1 - last_measure;
  }

  const auto split = sequence::split_corpus(corpus.size());
  const core::TrainTestTables tables = [&] {
    ScopedSpan span(tracer, "core", "label", job, parent);
    const double t0 = now_s();
    const auto cells = core::label_cells(rows, out.algorithms,
                                         core::WeightSpec::total_time());
    auto t = core::make_tables(cells, out.algorithms, split.test);
    out.label_s = now_s() - t0;
    return t;
  }();
  {
    ScopedSpan span(tracer, "ml", "fit.cart", job, parent);
    const double t0 = now_s();
    auto fit = core::fit_and_evaluate(core::Method::kCart, tables);
    out.cart_fit_s = now_s() - t0;
    out.cart_accuracy = fit.eval.accuracy();
    out.cart = std::shared_ptr<dnacomp::ml::Classifier>(std::move(fit.model));
  }
  if (fit_chaid) {
    ScopedSpan span(tracer, "ml", "fit.chaid", job, parent);
    const double t0 = now_s();
    const auto fit = core::fit_and_evaluate(core::Method::kChaid, tables);
    out.chaid_fit_s = now_s() - t0;
    out.chaid_accuracy = fit.eval.accuracy();
  }
  return out;
}

PipelineOutcome train_selector(Tracer& tracer) {
  sequence::CorpusOptions opts;
  opts.synthetic_count = 40;
  opts.max_size = 262144;
  std::vector<sequence::CorpusFile> corpus;
  {
    ScopedSpan span(tracer, "sequence", "build_corpus");
    corpus = sequence::build_corpus(opts);
  }
  core::AnalyticCostOracle oracle;
  return run_paper_pipeline(corpus, oracle, "core", /*fit_chaid=*/false,
                            tracer, 0, kNoParent);
}

}  // namespace perfbench
