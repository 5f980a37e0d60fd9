// Result export: CSV and JSON renderings of an ExperimentResult so runs
// can be archived and plotted outside the binary (the figures in the paper
// are exactly these series).
#pragma once

#include <string>

#include "exp/experiment.hpp"

namespace tls::exp {

/// One row per job: job_id, jct_s, iterations, finished.
std::string jobs_csv(const ExperimentResult& result);

/// One row per (job, barrier): job_id, barrier, mean_wait_s, var_wait_s2.
/// These are the samples behind Figures 3 and 6.
std::string barriers_csv(const ExperimentResult& result);

/// Compact JSON document with the headline metrics (policy, JCT stats,
/// barrier-wait summaries, utilization, tc activity).
std::string to_json(const ExperimentResult& result);

}  // namespace tls::exp
