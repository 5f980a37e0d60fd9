#include "scenario/export.hpp"

#include <cstdio>

namespace tls::scenario {

namespace {

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6f", v);
  return buf;
}

void append_summary(std::string* out, const char* name,
                    const metrics::Summary& s) {
  *out += "    \"";
  *out += name;
  *out += "\": {\"count\": " + std::to_string(s.count);
  *out += ", \"mean\": " + fmt(s.mean);
  *out += ", \"p50\": " + fmt(s.median);
  *out += ", \"p90\": " + fmt(s.p90);
  *out += ", \"p99\": " + fmt(s.p99);
  *out += ", \"min\": " + fmt(s.min);
  *out += ", \"max\": " + fmt(s.max) + "}";
}

}  // namespace

std::string scenario_json(const Result& result) {
  std::string out = "{\n";
  out += "  \"schema\": \"scenario-v1\",\n";
  out += "  \"policy\": \"" + result.policy_name + "\",\n";
  out += "  \"admission\": \"" + result.admission_name + "\",\n";
  out += "  \"seed\": " + std::to_string(result.seed) + ",\n";
  out += "  \"trace_seed\": " + std::to_string(result.trace_seed) + ",\n";
  out += "  \"num_hosts\": " + std::to_string(result.num_hosts) + ",\n";
  out += "  \"horizon_s\": " + fmt(result.horizon_s) + ",\n";
  out += "  \"trace_drained\": ";
  out += result.trace_drained ? "true" : "false";
  out += ",\n";
  out += "  \"counts\": {\"jobs\": " + std::to_string(result.jobs.size());
  out += ", \"completed\": " + std::to_string(result.completed);
  out += ", \"evicted\": " + std::to_string(result.evicted);
  out += ", \"rejected\": " + std::to_string(result.rejected);
  out += ", \"unfinished\": " + std::to_string(result.unfinished) + "},\n";
  out += "  \"summaries\": {\n";
  append_summary(&out, "jct_s", result.jct);
  out += ",\n";
  append_summary(&out, "queue_wait_s", result.queue_wait);
  out += "\n  },\n";
  out += "  \"peak_active_jobs\": " + std::to_string(result.peak_active_jobs) +
         ",\n";
  out += "  \"peak_ps_colocation\": " +
         std::to_string(result.peak_ps_colocation) + ",\n";
  out += "  \"cluster_cpu_util\": " + fmt(result.cluster_cpu_util) + ",\n";
  out += "  \"rotations\": " + std::to_string(result.rotations) + ",\n";
  out += "  \"tc_commands\": " + std::to_string(result.tc_commands) + ",\n";
  out += "  \"sim_events\": " + std::to_string(result.sim_events) + ",\n";
  out += "  \"jobs_detail\": [\n";
  for (std::size_t i = 0; i < result.jobs.size(); ++i) {
    const JobOutcome& o = result.jobs[i];
    out += "    {\"job_id\": " + std::to_string(o.job_id);
    out += ", \"model\": \"" + o.model + "\"";
    out += ", \"workers\": " + std::to_string(o.num_workers);
    out += ", \"iters_target\": " + std::to_string(o.iterations_target);
    out += ", \"iters_done\": " + std::to_string(o.iterations_done);
    out += ", \"arrival_s\": " + fmt(o.arrival_s);
    out += ", \"admit_s\": " + fmt(o.admit_s);
    out += ", \"finish_s\": " + fmt(o.finish_s);
    out += ", \"queue_wait_s\": " + fmt(o.queue_wait_s);
    out += ", \"jct_s\": " + fmt(o.jct_s);
    out += ", \"band\": " + std::to_string(o.band_at_admit);
    out += ", \"status\": \"";
    out += to_string(o.status);
    out += "\"}";
    out += i + 1 < result.jobs.size() ? ",\n" : "\n";
  }
  out += "  ]\n";
  out += "}\n";
  return out;
}

std::string scenario_csv(const Result& result) {
  std::string out =
      "job_id,model,workers,iters_target,iters_done,arrival_s,admit_s,"
      "finish_s,queue_wait_s,jct_s,band,status\n";
  for (const JobOutcome& o : result.jobs) {
    out += std::to_string(o.job_id);
    out += ',' + o.model;
    out += ',' + std::to_string(o.num_workers);
    out += ',' + std::to_string(o.iterations_target);
    out += ',' + std::to_string(o.iterations_done);
    out += ',' + fmt(o.arrival_s);
    out += ',' + fmt(o.admit_s);
    out += ',' + fmt(o.finish_s);
    out += ',' + fmt(o.queue_wait_s);
    out += ',' + fmt(o.jct_s);
    out += ',' + std::to_string(o.band_at_admit);
    out += ',';
    out += to_string(o.status);
    out += '\n';
  }
  return out;
}

}  // namespace tls::scenario
