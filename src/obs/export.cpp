#include "obs/export.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <vector>

namespace tls::obs {

namespace {

// Synthetic process ids grouping Perfetto tracks. Host NIC tracks live
// under kNetPid (tid = host id), per-job tracks under kJobsPid (tid = job
// id), controller activity under kCtrlPid.
constexpr int kNetPid = 1;
constexpr int kJobsPid = 2;
constexpr int kCtrlPid = 3;

/// Nanoseconds rendered as microseconds with exactly three decimals —
/// integer math only, so the same event always produces the same bytes.
std::string ts_us(sim::Time t) {
  std::int64_t ns = sim::to_nanos(t);
  if (ns < 0) ns = 0;
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%lld.%03lld",
                static_cast<long long>(ns / 1000),
                static_cast<long long>(ns % 1000));
  return buf;
}

struct Track {
  int pid = kNetPid;
  int tid = 0;
};

/// Which Perfetto track an event renders on.
Track track_for(const TraceEvent& e) {
  switch (e.kind) {
    case EventKind::kChunkEnqueue:
    case EventKind::kChunkDequeue:
    case EventKind::kBandService:
    case EventKind::kHtbGreen:
    case EventKind::kHtbYellow:
    case EventKind::kOverlimit:
    case EventKind::kIngressArrive:
    case EventKind::kIngressDeliver:
      return Track{kNetPid, e.host < 0 ? 0 : e.host};
    case EventKind::kBarrierEnter:
    case EventKind::kBarrierRelease:
    case EventKind::kStragglerLag:
    case EventKind::kWorkerCompute:
    case EventKind::kPsAggregate:
      return Track{kJobsPid, e.job < 0 ? 0 : e.job};
    case EventKind::kFlowStart:
    case EventKind::kFlowEnd:
      if (e.job >= 0) return Track{kJobsPid, e.job};
      return Track{kNetPid, e.host < 0 ? 0 : e.host};
    case EventKind::kRotation:
    case EventKind::kBandAssign:
      return Track{kCtrlPid, 0};
    case EventKind::kGaugeSample:
      if (e.job >= 0) return Track{kJobsPid, e.job};
      return Track{kNetPid, e.host < 0 ? 0 : e.host};
  }
  return Track{kCtrlPid, 0};
}

void append_common(std::ostringstream& os, const TraceEvent& e,
                   const Track& t, const char* ph) {
  os << "{\"name\":\"" << to_string(e.kind) << "\",\"cat\":\""
     << to_string(e.cat) << "\",\"ph\":\"" << ph << "\",\"ts\":" << ts_us(e.at)
     << ",\"pid\":" << t.pid << ",\"tid\":" << t.tid;
}

void append_args(std::ostringstream& os, const TraceEvent& e) {
  os << ",\"args\":{";
  bool first = true;
  auto arg = [&](const char* key, std::int64_t v) {
    if (!first) os << ',';
    first = false;
    os << '"' << key << "\":" << v;
  };
  // Flow events reuse the band field for the FlowKind ordinal; render it
  // under its real meaning instead of a misleading "band".
  bool flow_event =
      e.kind == EventKind::kFlowStart || e.kind == EventKind::kFlowEnd;
  if (e.band >= 0 && !flow_event) arg("band", e.band);
  if (e.flow != 0) arg("flow", e.flow);
  if (e.bytes != 0) arg("bytes", e.bytes);
  switch (e.kind) {
    case EventKind::kChunkDequeue:
      arg("index", e.b);
      arg("queue_wait_ns", e.a);
      break;
    case EventKind::kChunkEnqueue:
    case EventKind::kIngressArrive:
      arg("index", e.b);
      break;
    case EventKind::kIngressDeliver:
      arg("index", e.b);
      arg("fan_in_wait_ns", e.a);
      break;
    case EventKind::kFlowStart:
    case EventKind::kFlowEnd:
      arg("kind", e.band);
      arg("src", e.host);
      arg("dst", e.a);
      arg("iteration", e.b);
      break;
    case EventKind::kWorkerCompute:
      arg("worker", e.a);
      arg("iteration", e.b);
      break;
    case EventKind::kPsAggregate:
      arg("shard", e.a);
      arg("iteration", e.b);
      break;
    case EventKind::kOverlimit:
      arg("retry_at_ns", e.a);
      break;
    case EventKind::kRotation:
      arg("offset", e.a);
      break;
    case EventKind::kBandAssign:
      arg("job", e.job);
      break;
    case EventKind::kBarrierEnter:
    case EventKind::kBarrierRelease:
      arg("worker", e.a);
      arg("iteration", e.b);
      break;
    case EventKind::kStragglerLag:
      arg("iteration", e.a);
      arg("lag_ns", e.b);
      break;
    case EventKind::kGaugeSample:
      arg("value", e.a);
      break;
    default:
      break;
  }
  os << '}';
}

void append_metadata(std::ostringstream& os, int pid, int tid,
                     const char* which, const std::string& name, bool* first) {
  if (!*first) os << ",\n";
  *first = false;
  os << "{\"name\":\"" << which << "\",\"ph\":\"M\",\"pid\":" << pid;
  if (tid >= 0) os << ",\"tid\":" << tid;
  os << ",\"args\":{\"name\":\"" << name << "\"}}";
}

}  // namespace

const char* to_string(EventKind kind) {
  switch (kind) {
    case EventKind::kChunkEnqueue: return "chunk_enqueue";
    case EventKind::kChunkDequeue: return "chunk_dequeue";
    case EventKind::kBandService: return "band_service";
    case EventKind::kHtbGreen: return "htb_green";
    case EventKind::kHtbYellow: return "htb_yellow";
    case EventKind::kOverlimit: return "overlimit";
    case EventKind::kRotation: return "rotation";
    case EventKind::kBandAssign: return "band_assign";
    case EventKind::kBarrierEnter: return "barrier_enter";
    case EventKind::kBarrierRelease: return "barrier_release";
    case EventKind::kStragglerLag: return "straggler_lag";
    case EventKind::kGaugeSample: return "gauge_sample";
    case EventKind::kFlowStart: return "flow_start";
    case EventKind::kFlowEnd: return "flow_end";
    case EventKind::kIngressArrive: return "ingress_arrive";
    case EventKind::kIngressDeliver: return "ingress_deliver";
    case EventKind::kWorkerCompute: return "worker_compute";
    case EventKind::kPsAggregate: return "ps_aggregate";
  }
  return "?";
}

std::string chrome_trace_json(const Tracer& tracer) {
  const std::vector<TraceEvent>& events = tracer.events();

  // Collect the tracks actually used so metadata stays minimal and ordered.
  std::vector<int> hosts;
  std::vector<int> jobs;
  bool ctrl = false;
  for (const TraceEvent& e : events) {
    Track t = track_for(e);
    if (t.pid == kNetPid) {
      hosts.push_back(t.tid);
    } else if (t.pid == kJobsPid) {
      jobs.push_back(t.tid);
    } else {
      ctrl = true;
    }
  }
  auto uniq = [](std::vector<int>& v) {
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end()), v.end());
  };
  uniq(hosts);
  uniq(jobs);

  std::ostringstream os;
  os << "{\"traceEvents\":[\n";
  bool first = true;
  if (!hosts.empty()) {
    append_metadata(os, kNetPid, -1, "process_name", "net", &first);
    for (int h : hosts) {
      append_metadata(os, kNetPid, h, "thread_name",
                      "host " + std::to_string(h) + " nic", &first);
    }
  }
  if (!jobs.empty()) {
    append_metadata(os, kJobsPid, -1, "process_name", "jobs", &first);
    for (int j : jobs) {
      append_metadata(os, kJobsPid, j, "thread_name",
                      "job " + std::to_string(j), &first);
    }
  }
  if (ctrl) {
    append_metadata(os, kCtrlPid, -1, "process_name", "tensorlights", &first);
    append_metadata(os, kCtrlPid, 0, "thread_name", "controller", &first);
  }

  for (const TraceEvent& e : events) {
    if (!first) os << ",\n";
    first = false;
    Track t = track_for(e);
    if (e.kind == EventKind::kBarrierRelease && e.dur > sim::Time{0}) {
      // Render the barrier wait as a duration span ending at release time.
      TraceEvent span = e;
      span.at = e.at - e.dur;
      append_common(os, span, t, "X");
      os << ",\"dur\":" << ts_us(e.dur);
      append_args(os, e);
      os << '}';
      continue;
    }
    if ((e.kind == EventKind::kWorkerCompute ||
         e.kind == EventKind::kPsAggregate) &&
        e.dur > sim::Time{0}) {
      // Compute spans are stamped at their start with the duration known.
      append_common(os, e, t, "X");
      os << ",\"dur\":" << ts_us(e.dur);
      append_args(os, e);
      os << '}';
      continue;
    }
    append_common(os, e, t, "i");
    os << ",\"s\":\"t\"";
    append_args(os, e);
    os << '}';
  }
  os << "\n],\"displayTimeUnit\":\"ms\"}\n";
  return os.str();
}

namespace {

constexpr char kTraceCsvHeader[] =
    "at_ns,kind,cat,host,job,band,flow,bytes,a,b,dur_ns\n";

// Longest row: eleven fields of at most 20 chars each (an int64 with its
// sign; names are shorter), ten commas and the newline.
constexpr std::size_t kMaxCsvRow = 11 * 20 + 11;

char* put_field(char* p, std::int64_t v) {
  p = std::to_chars(p, p + 20, v).ptr;
  *p = ',';
  return p + 1;
}

char* put_field(char* p, const char* name) {
  std::size_t n = std::strlen(name);
  std::memcpy(p, name, n);
  p[n] = ',';
  return p + n + 1;
}

}  // namespace

TraceCsvWriter::TraceCsvWriter(std::ostream& out) : out_(out) {
  out_.write(kTraceCsvHeader, sizeof(kTraceCsvHeader) - 1);
}

void TraceCsvWriter::on_event(const TraceEvent& e) {
  char row[kMaxCsvRow];
  char* p = put_field(row, sim::to_nanos(e.at));
  p = put_field(p, to_string(e.kind));
  p = put_field(p, to_string(e.cat));
  p = put_field(p, e.host);
  p = put_field(p, e.job);
  p = put_field(p, e.band);
  p = put_field(p, e.flow);
  p = put_field(p, e.bytes);
  p = put_field(p, e.a);
  p = put_field(p, e.b);
  p = put_field(p, sim::to_nanos(e.dur));
  p[-1] = '\n';
  out_.write(row, p - row);
}

void TraceCsvWriter::finish(const TraceHealth& h) {
  // Capture-health trailer: omitted entirely for complete traces, so the
  // file format (and every golden) is unchanged unless events went missing.
  if (h.complete()) return;
  auto emit = [this](const char* which, std::uint64_t total,
                     const std::uint64_t (&by_cat)[kNumCats]) {
    if (total == 0) return;
    out_ << "#health," << which << ",total," << total << '\n';
    for (std::uint32_t bit = 1; bit <= kAllCats; bit <<= 1) {
      Cat cat = static_cast<Cat>(bit);
      std::uint64_t n = by_cat[cat_index(cat)];
      if (n != 0) out_ << "#health," << which << ',' << to_string(cat) << ','
                       << n << '\n';
    }
  };
  emit("dropped", h.dropped_total, h.dropped_by_cat);
  emit("sampled", h.sampled_out_total, h.sampled_out_by_cat);
}

std::string trace_csv(const Tracer& tracer) {
  std::ostringstream os;
  TraceCsvWriter writer(os);
  for (const TraceEvent& e : tracer.events()) writer.on_event(e);
  writer.finish(tracer.health());
  return os.str();
}

bool write_file(const std::string& path, const std::string& content,
                std::string* error) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    if (error != nullptr) *error = "cannot open '" + path + "' for writing";
    return false;
  }
  out << content;
  out.flush();
  if (!out) {
    if (error != nullptr) *error = "write to '" + path + "' failed";
    return false;
  }
  return true;
}

}  // namespace tls::obs
