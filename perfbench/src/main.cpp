// perfbench — runs one named benchmark workload and prints its record as one
// JSON line on stdout.
//
//   perfbench --workload <exchange_miss|exchange_hit|paper_grid>
//             --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the same
// workload with span recording on and reports the per-layer metrics; its
// spans are kept in memory and, with --trace-out, written there at the end.
// Exit status: 0 on success, 1 if any operation failed or any output did
// not match its input, 2 on bad usage, 3 if the load generator fell behind
// (the record is then printed but must not be used).
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workloads.h"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <exchange_miss|exchange_hit|"
               "paper_grid> --seed <n> --seconds <s> --trace <0|1> "
               "[--trace-out <file>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig cfg;
  try {
    for (int i = 1; i + 1 < argc; i += 2) {
      const std::string key = argv[i];
      const std::string value = argv[i + 1];
      if (key == "--workload") {
        cfg.workload = value;
      } else if (key == "--seed") {
        cfg.seed = std::stoull(value);
      } else if (key == "--seconds") {
        cfg.seconds = std::stod(value);
      } else if (key == "--trace") {
        cfg.trace = value == "1";
      } else if (key == "--trace-out") {
        cfg.trace_out = value;
      } else {
        return usage();
      }
    }
  } catch (const std::exception&) {
    return usage();
  }
  if (argc % 2 != 1 || cfg.seconds <= 0.0) return usage();

  perfbench::RunResult result;
  try {
    if (cfg.workload == "exchange_miss") {
      result = perfbench::run_exchange_miss(cfg);
    } else if (cfg.workload == "exchange_hit") {
      result = perfbench::run_exchange_hit(cfg);
    } else if (cfg.workload == "paper_grid") {
      result = perfbench::run_paper_grid(cfg);
    } else {
      return usage();
    }
    if (cfg.trace) perfbench::complete_layer_metrics(result);
    if (cfg.trace && !cfg.trace_out.empty()) {
      perfbench::write_spans(cfg.trace_out, result.spans);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  std::printf("%s\n", perfbench::to_json(cfg, result).c_str());
  if (!result.valid) {
    std::fprintf(stderr, "perfbench: invalid run: %s\n",
                 result.invalid_reason.c_str());
    return 3;
  }
  return result.correct && result.failed == 0 ? 0 : 1;
}
