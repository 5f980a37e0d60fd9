// Scenario result exports: the `scenario-v1` JSON schema and a per-job
// CSV. Formatting is fixed (%.6f for every floating-point field, map-free
// trace-order iteration) so a seeded scenario exports byte-identical
// files across runs and host thread counts — the repo-wide determinism
// contract extended to the dynamic-cluster engine.
#pragma once

#include <string>

#include "scenario/engine.hpp"

namespace tls::scenario {

/// Full result as `scenario-v1` JSON: run metadata, outcome counts,
/// JCT / queue-wait summaries, break-regime indicators (peak band
/// occupancy, rotations, tc churn), and one record per trace job.
std::string scenario_json(const Result& result);

/// Per-job outcomes as CSV, one row per trace entry:
///   job_id,model,workers,iters_target,iters_done,arrival_s,admit_s,
///   finish_s,queue_wait_s,jct_s,band,status
std::string scenario_csv(const Result& result);

}  // namespace tls::scenario
