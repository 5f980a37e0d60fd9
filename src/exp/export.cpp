#include "exp/export.hpp"

#include <cstdio>
#include <sstream>

#include "obs/export.hpp"

namespace tls::exp {

namespace {
std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}
}  // namespace

std::string jobs_csv(const ExperimentResult& result) {
  std::ostringstream os;
  os << "job_id,jct_s,iterations,finished\n";
  for (const JobResult& j : result.jobs) {
    os << j.job_id << ',' << num(j.jct_s) << ',' << j.iterations << ','
       << (j.finished ? 1 : 0) << '\n';
  }
  return os.str();
}

std::string barriers_csv(const ExperimentResult& result) {
  std::ostringstream os;
  os << "job_id,barrier,mean_wait_s,var_wait_s2\n";
  for (const JobResult& j : result.jobs) {
    for (std::size_t b = 0; b < j.barrier_mean_waits_s.size(); ++b) {
      os << j.job_id << ',' << b << ',' << num(j.barrier_mean_waits_s[b])
         << ',' << num(j.barrier_variances_s2[b]) << '\n';
    }
  }
  return os.str();
}

std::string to_json(const ExperimentResult& result) {
  std::ostringstream os;
  os << "{\n";
  os << "  \"policy\": \"" << obs::json_escape(result.policy_name)
     << "\",\n";
  os << "  \"jobs\": " << result.jobs.size() << ",\n";
  os << "  \"all_finished\": " << (result.all_finished ? "true" : "false")
     << ",\n";
  os << "  \"avg_jct_s\": " << num(result.avg_jct_s) << ",\n";
  os << "  \"min_jct_s\": " << num(result.min_jct_s) << ",\n";
  os << "  \"max_jct_s\": " << num(result.max_jct_s) << ",\n";
  os << "  \"barrier_wait_mean_s\": " << num(result.barrier_mean_summary.mean)
     << ",\n";
  os << "  \"barrier_wait_variance_mean_s2\": "
     << num(result.barrier_variance_summary.mean) << ",\n";
  os << "  \"barrier_wait_variance_median_s2\": "
     << num(result.barrier_variance_summary.median) << ",\n";
  os << "  \"cpu_util_ps_hosts\": " << num(result.cpu_util_ps_hosts) << ",\n";
  os << "  \"cpu_util_worker_hosts\": " << num(result.cpu_util_worker_hosts)
     << ",\n";
  os << "  \"nic_in_util\": " << num(result.nic_in_util) << ",\n";
  os << "  \"nic_out_util\": " << num(result.nic_out_util) << ",\n";
  os << "  \"tc_commands\": " << result.tc_commands << ",\n";
  os << "  \"rotations\": " << result.rotations << ",\n";
  os << "  \"sim_events\": " << result.sim_events << ",\n";
  os << "  \"sim_horizon_s\": " << num(result.sim_horizon_s) << "\n";
  os << "}\n";
  return os.str();
}

}  // namespace tls::exp
