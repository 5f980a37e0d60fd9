#include "obs/analysis.hpp"

#include <map>
#include <sstream>
#include <utility>

#include "obs/export.hpp"

namespace tls::obs {

const char* to_string(SegmentKind kind) {
  switch (kind) {
    case SegmentKind::kCompute: return "compute";
    case SegmentKind::kEgressQueue: return "egress_queue";
    case SegmentKind::kSerialization: return "serialization";
    case SegmentKind::kFanIn: return "fan_in";
    case SegmentKind::kOther: return "other";
  }
  return "?";
}

const char* to_string(BlameSide side) {
  return side == BlameSide::kEgress ? "egress" : "ingress";
}

// ---------------------------------------------------------------------------
// Renderers. Integer formatting only: every value is an int64 rendered with
// operator<<, so byte-identical output is free.

namespace {

/// Integer percentage of part in whole (0 when whole is 0).
std::int64_t pct(sim::Time part, sim::Time whole) {
  return whole > sim::Time{0} ? part * 100 / whole : 0;
}

/// Renders `name=count` pairs for every nonzero per-category counter.
void append_cat_counts(std::ostringstream& os,
                       const std::uint64_t (&by_cat)[kNumCats]) {
  bool first = true;
  for (int i = 0; i < kNumCats; ++i) {
    if (by_cat[i] == 0) continue;
    if (!first) os << ", ";
    first = false;
    os << to_string(static_cast<Cat>(1u << i)) << '=' << by_cat[i];
  }
}

void append_iteration_row(std::ostringstream& os, const IterationReport& r) {
  os << "  iter " << r.iteration << " worker " << r.critical_worker
     << ": wait " << r.barrier_wait << " ns = compute " << r.compute_ns
     << " + egress_queue " << r.egress_queue_ns << " + serialization "
     << r.serialization_ns << " + fan_in " << r.fan_in_ns << " (wait "
     << r.fan_in_wait_ns << " + recv " << r.fan_in_ser_ns << ") + other "
     << r.other_ns << "\n";
  for (const BlameEntry& b : r.blame) {
    if (b.side == BlameSide::kEgress) {
      os << "    blame host " << b.host << ": job " << b.culprit_job
         << " band " << b.culprit_band << " drained " << b.bytes
         << " bytes ahead\n";
    } else {
      os << "    ingress blame host " << b.host << ": job " << b.culprit_job
         << " band " << b.culprit_band << " delivered " << b.bytes
         << " bytes ahead\n";
    }
  }
}

}  // namespace

std::string report_text(const RunReport& report) {
  std::ostringstream os;
  os << "tlsreport: per-iteration critical-path attribution\n";
  os << "jobs " << report.jobs.size() << ", iterations "
     << report.iterations.size() << "\n";
  if (report.health.dropped_total > 0) {
    os << "WARNING: trace is incomplete - the tracer dropped "
       << report.health.dropped_total
       << " events at the max-events cap (";
    append_cat_counts(os, report.health.dropped_by_cat);
    os << "); attribution below may be missing time and blame\n";
  }
  if (report.health.sampled_out_total > 0) {
    os << "note: capture sampling excluded "
       << report.health.sampled_out_total << " events (";
    append_cat_counts(os, report.health.sampled_out_by_cat);
    os << "); critical-chain categories are never sampled\n";
  }
  for (const JobSummary& js : report.jobs) {
    os << "\njob " << js.job << " (" << js.iterations << " iterations)\n";
    for (const IterationReport& r : report.iterations) {
      if (r.job == js.job) append_iteration_row(os, r);
    }
    os << "  total wait " << js.total_wait_ns << " ns: compute "
       << js.compute_ns << " (" << pct(js.compute_ns, js.total_wait_ns)
       << "%), egress_queue " << js.egress_queue_ns << " ("
       << pct(js.egress_queue_ns, js.total_wait_ns) << "%), serialization "
       << js.serialization_ns << " ("
       << pct(js.serialization_ns, js.total_wait_ns) << "%), fan_in "
       << js.fan_in_ns << " (" << pct(js.fan_in_ns, js.total_wait_ns)
       << "%), other " << js.other_ns << " ("
       << pct(js.other_ns, js.total_wait_ns) << "%)\n";
    os << "  fan_in split: ingress wait " << js.fan_in_wait_ns
       << " ns, receive " << js.fan_in_ser_ns << " ns\n";
    os << "  blame: cross-job " << js.cross_job_blame_bytes
       << " bytes, self " << js.self_blame_bytes << " bytes\n";
    os << "  ingress blame: cross-job " << js.cross_job_ingress_blame_bytes
       << " bytes, self " << js.self_ingress_blame_bytes << " bytes\n";
  }
  return os.str();
}

std::string report_csv(const RunReport& report) {
  std::ostringstream os;
  os << "job,iteration,critical_worker,record,host,culprit_job,culprit_band,"
        "metric,value\n";
  auto seg_row = [&os](const IterationReport& r, const char* metric,
                       sim::Time v) {
    os << r.job << ',' << r.iteration << ',' << r.critical_worker
       << ",segment,-1,-1,-1," << metric << ',' << v << '\n';
  };
  for (const IterationReport& r : report.iterations) {
    seg_row(r, "barrier_wait_ns", r.barrier_wait);
    seg_row(r, "compute_ns", r.compute_ns);
    seg_row(r, "egress_queue_ns", r.egress_queue_ns);
    seg_row(r, "serialization_ns", r.serialization_ns);
    seg_row(r, "fan_in_ns", r.fan_in_ns);
    seg_row(r, "fan_in_wait_ns", r.fan_in_wait_ns);
    seg_row(r, "fan_in_ser_ns", r.fan_in_ser_ns);
    seg_row(r, "other_ns", r.other_ns);
    for (const BlameEntry& b : r.blame) {
      const bool egress = b.side == BlameSide::kEgress;
      os << r.job << ',' << r.iteration << ',' << r.critical_worker << ','
         << (egress ? "blame" : "ingress_blame") << ',' << b.host << ','
         << b.culprit_job << ',' << b.culprit_band << ','
         << (egress ? "blame_bytes" : "ingress_blame_bytes") << ','
         << b.bytes << '\n';
    }
  }
  return os.str();
}

namespace {

/// JSON object of nonzero per-category counters ({"chunk":12,...}).
void append_cat_counts_json(std::ostringstream& os,
                            const std::uint64_t (&by_cat)[kNumCats]) {
  os << '{';
  bool first = true;
  for (int i = 0; i < kNumCats; ++i) {
    if (by_cat[i] == 0) continue;
    if (!first) os << ',';
    first = false;
    os << '"' << to_string(static_cast<Cat>(1u << i)) << "\":" << by_cat[i];
  }
  os << '}';
}

}  // namespace

std::string report_json(const RunReport& report) {
  std::ostringstream os;
  os << "{\"schema\":\"tlsreport-v2\",";
  // Only an incomplete capture carries a health object, so reports from
  // complete traces keep their historical bytes (golden-report contract).
  if (report.health.dropped_total > 0 ||
      report.health.sampled_out_total > 0) {
    os << "\"trace_health\":{\"dropped_total\":"
       << report.health.dropped_total
       << ",\"sampled_out_total\":" << report.health.sampled_out_total
       << ",\"dropped_by_cat\":";
    append_cat_counts_json(os, report.health.dropped_by_cat);
    os << ",\"sampled_out_by_cat\":";
    append_cat_counts_json(os, report.health.sampled_out_by_cat);
    os << "},";
  }
  os << "\"jobs\":[";
  bool first_job = true;
  for (const JobSummary& js : report.jobs) {
    if (!first_job) os << ',';
    first_job = false;
    os << "{\"job\":" << js.job << ",\"iterations\":" << js.iterations
       << ",\"total_wait_ns\":" << js.total_wait_ns
       << ",\"compute_ns\":" << js.compute_ns
       << ",\"egress_queue_ns\":" << js.egress_queue_ns
       << ",\"serialization_ns\":" << js.serialization_ns
       << ",\"fan_in_ns\":" << js.fan_in_ns
       << ",\"other_ns\":" << js.other_ns
       << ",\"fan_in_wait_ns\":" << js.fan_in_wait_ns
       << ",\"fan_in_ser_ns\":" << js.fan_in_ser_ns
       << ",\"cross_job_blame_bytes\":" << js.cross_job_blame_bytes
       << ",\"self_blame_bytes\":" << js.self_blame_bytes
       << ",\"cross_job_ingress_blame_bytes\":"
       << js.cross_job_ingress_blame_bytes
       << ",\"self_ingress_blame_bytes\":" << js.self_ingress_blame_bytes
       << ",\"per_iteration\":[";
    bool first_iter = true;
    for (const IterationReport& r : report.iterations) {
      if (r.job != js.job) continue;
      if (!first_iter) os << ',';
      first_iter = false;
      os << "{\"iteration\":" << r.iteration
         << ",\"critical_worker\":" << r.critical_worker
         << ",\"enter_ns\":" << r.enter_at
         << ",\"release_ns\":" << r.release_at
         << ",\"wait_ns\":" << r.barrier_wait
         << ",\"compute_ns\":" << r.compute_ns
         << ",\"egress_queue_ns\":" << r.egress_queue_ns
         << ",\"serialization_ns\":" << r.serialization_ns
         << ",\"fan_in_ns\":" << r.fan_in_ns
         << ",\"other_ns\":" << r.other_ns
         << ",\"fan_in_wait_ns\":" << r.fan_in_wait_ns
         << ",\"fan_in_ser_ns\":" << r.fan_in_ser_ns << ",\"blame\":[";
      bool first_blame = true;
      for (const BlameEntry& b : r.blame) {
        if (!first_blame) os << ',';
        first_blame = false;
        os << "{\"side\":\"" << to_string(b.side)
           << "\",\"host\":" << b.host
           << ",\"culprit_job\":" << b.culprit_job
           << ",\"culprit_band\":" << b.culprit_band
           << ",\"bytes\":" << b.bytes << '}';
      }
      os << "]}";
    }
    os << "]}";
  }
  os << "]}\n";
  return os.str();
}

DiffReport diff_reports(const RunReport& a, const RunReport& b,
                        const std::string& label_a,
                        const std::string& label_b) {
  DiffReport d;
  d.label_a = label_a;
  d.label_b = label_b;

  std::map<std::pair<std::int32_t, std::int64_t>, DiffRow> rows;
  auto fold = [&rows](const RunReport& r, bool is_a) {
    for (const IterationReport& it : r.iterations) {
      DiffRow& row = rows[{it.job, it.iteration}];
      row.job = it.job;
      row.iteration = it.iteration;
      std::int64_t cross = 0;
      std::int64_t cross_ingress = 0;
      for (const BlameEntry& bl : it.blame) {
        if (bl.culprit_job == it.job) continue;
        (bl.side == BlameSide::kEgress ? cross : cross_ingress) += bl.bytes;
      }
      if (is_a) {
        row.wait_a = it.barrier_wait;
        row.cross_blame_a = cross;
        row.cross_ingress_blame_a = cross_ingress;
      } else {
        row.wait_b = it.barrier_wait;
        row.cross_blame_b = cross;
        row.cross_ingress_blame_b = cross_ingress;
      }
    }
  };
  fold(a, true);
  fold(b, false);
  for (const auto& [key, row] : rows) {
    (void)key;
    d.rows.push_back(row);
  }

  std::map<std::int32_t, JobDiff> jobs;
  for (const JobSummary& js : a.jobs) {
    JobDiff& jd = jobs[js.job];
    jd.job = js.job;
    jd.total_wait_a = js.total_wait_ns;
    jd.cross_blame_a = js.cross_job_blame_bytes;
    jd.cross_ingress_blame_a = js.cross_job_ingress_blame_bytes;
  }
  for (const JobSummary& js : b.jobs) {
    JobDiff& jd = jobs[js.job];
    jd.job = js.job;
    jd.total_wait_b = js.total_wait_ns;
    jd.cross_blame_b = js.cross_job_blame_bytes;
    jd.cross_ingress_blame_b = js.cross_job_ingress_blame_bytes;
  }
  for (const auto& [job, jd] : jobs) {
    (void)job;
    d.jobs.push_back(jd);
  }
  return d;
}

std::string diff_text(const DiffReport& diff) {
  std::ostringstream os;
  os << "tlsreport diff: A=" << diff.label_a << " B=" << diff.label_b << "\n";
  for (const JobDiff& jd : diff.jobs) {
    os << "\njob " << jd.job << "\n";
    for (const DiffRow& r : diff.rows) {
      if (r.job != jd.job) continue;
      os << "  iter " << r.iteration << ": wait " << r.wait_a << " -> "
         << r.wait_b << " ns (delta " << (r.wait_b - r.wait_a)
         << "), cross-job blame " << r.cross_blame_a << " -> "
         << r.cross_blame_b << " bytes, ingress "
         << r.cross_ingress_blame_a << " -> " << r.cross_ingress_blame_b
         << " bytes\n";
    }
    os << "  totals: wait " << jd.total_wait_a << " -> " << jd.total_wait_b
       << " ns (delta " << (jd.total_wait_b - jd.total_wait_a)
       << "), cross-job blame " << jd.cross_blame_a << " -> "
       << jd.cross_blame_b << " bytes, ingress "
       << jd.cross_ingress_blame_a << " -> " << jd.cross_ingress_blame_b
       << " bytes";
    if (jd.cross_blame_a > 0 && jd.cross_blame_b == 0) {
      os << " [queueing-behind-other-jobs eliminated]";
    }
    if (jd.cross_ingress_blame_a > 0 && jd.cross_ingress_blame_b == 0) {
      os << " [fan-in contention eliminated]";
    }
    os << "\n";
  }
  return os.str();
}

std::string diff_csv(const DiffReport& diff) {
  std::ostringstream os;
  os << "job,iteration,metric,a,b\n";
  for (const DiffRow& r : diff.rows) {
    os << r.job << ',' << r.iteration << ",wait_ns," << r.wait_a << ','
       << r.wait_b << '\n';
    os << r.job << ',' << r.iteration << ",cross_job_blame_bytes,"
       << r.cross_blame_a << ',' << r.cross_blame_b << '\n';
    os << r.job << ',' << r.iteration << ",cross_job_ingress_blame_bytes,"
       << r.cross_ingress_blame_a << ',' << r.cross_ingress_blame_b << '\n';
  }
  for (const JobDiff& jd : diff.jobs) {
    os << jd.job << ",-1,total_wait_ns," << jd.total_wait_a << ','
       << jd.total_wait_b << '\n';
    os << jd.job << ",-1,cross_job_blame_bytes," << jd.cross_blame_a << ','
       << jd.cross_blame_b << '\n';
    os << jd.job << ",-1,cross_job_ingress_blame_bytes,"
       << jd.cross_ingress_blame_a << ',' << jd.cross_ingress_blame_b
       << '\n';
  }
  return os.str();
}

std::string diff_json(const DiffReport& diff) {
  std::ostringstream os;
  os << "{\"schema\":\"tlsreport-diff-v2\",\"a\":\""
     << json_escape(diff.label_a) << "\",\"b\":\""
     << json_escape(diff.label_b) << "\",\"jobs\":[";
  bool first_job = true;
  for (const JobDiff& jd : diff.jobs) {
    if (!first_job) os << ',';
    first_job = false;
    os << "{\"job\":" << jd.job << ",\"total_wait_ns_a\":" << jd.total_wait_a
       << ",\"total_wait_ns_b\":" << jd.total_wait_b
       << ",\"cross_job_blame_bytes_a\":" << jd.cross_blame_a
       << ",\"cross_job_blame_bytes_b\":" << jd.cross_blame_b
       << ",\"cross_job_ingress_blame_bytes_a\":" << jd.cross_ingress_blame_a
       << ",\"cross_job_ingress_blame_bytes_b\":" << jd.cross_ingress_blame_b
       << ",\"per_iteration\":[";
    bool first_row = true;
    for (const DiffRow& r : diff.rows) {
      if (r.job != jd.job) continue;
      if (!first_row) os << ',';
      first_row = false;
      os << "{\"iteration\":" << r.iteration << ",\"wait_ns_a\":" << r.wait_a
         << ",\"wait_ns_b\":" << r.wait_b
         << ",\"cross_job_blame_bytes_a\":" << r.cross_blame_a
         << ",\"cross_job_blame_bytes_b\":" << r.cross_blame_b
         << ",\"cross_job_ingress_blame_bytes_a\":" << r.cross_ingress_blame_a
         << ",\"cross_job_ingress_blame_bytes_b\":" << r.cross_ingress_blame_b
         << '}';
    }
    os << "]}";
  }
  os << "]}\n";
  return os.str();
}

}  // namespace tls::obs
