// The benchmark's workloads. Each builds its inputs from cfg.seed, measures
// for about cfg.seconds, checks every output independently of the program's
// own verification, and returns the end-to-end metrics (cfg.trace == false)
// or the per-layer metrics of a traced run (cfg.trace == true).
#pragma once

#include "report.h"

namespace perfbench {

RunResult run_exchange_miss(const RunConfig& cfg);
RunResult run_exchange_hit(const RunConfig& cfg);
RunResult run_paper_grid(const RunConfig& cfg);

}  // namespace perfbench
