#include "oracle.hpp"

#include <charconv>
#include <functional>
#include <map>
#include <system_error>
#include <utility>

#include "obs/analysis_detail.hpp"
#include "obs/export.hpp"
#include "obs/reader.hpp"

namespace tls::obs::oracle {

namespace {

using detail::ChunkTrace;
using detail::Delivery;
using detail::FlowTrace;
using detail::Index;
using detail::QueueVisit;
using detail::Release;
using detail::Span;

/// One flow as the oracle indexes it: its chunks and its deliver chain in
/// std::maps, independent of the engine's sorted-vector insert path.
struct MapFlow {
  FlowTrace trace;  ///< every field but chunks and index_by_deliver
  std::map<std::int64_t, ChunkTrace> chunks;
  std::map<sim::Time, std::int64_t> index_by_deliver;
};

Index build_index(const std::vector<TraceEvent>& events) {
  Index ix;
  std::map<std::int64_t, MapFlow> flows;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& e = events[i];
    switch (e.kind) {
      case EventKind::kFlowStart: {
        FlowTrace& f = flows[e.flow].trace;
        f.src = e.host;
        f.dst = static_cast<std::int32_t>(e.a);
        f.job = e.job;
        f.kind = e.band;
        f.iteration = e.b;
        f.start_at = e.at;
        break;
      }
      case EventKind::kFlowEnd: {
        FlowTrace& f = flows[e.flow].trace;
        if (f.start_at < sim::Time{0}) {  // end without start (filtered/truncated)
          f.src = e.host;
          f.dst = static_cast<std::int32_t>(e.a);
          f.job = e.job;
          f.kind = e.band;
          f.iteration = e.b;
          f.start_at = e.at - e.dur;
        }
        f.end_at = e.at;
        ix.flow_by_end[{e.job, e.band, static_cast<std::int32_t>(e.a),
                        e.at}] = e.flow;
        break;
      }
      case EventKind::kChunkEnqueue: {
        ChunkTrace& c = flows[e.flow].chunks[e.b];
        c.enq_at = e.at;
        c.enq_idx = i;
        c.egress_host = e.host;
        c.band = e.band;
        c.bytes = e.bytes;
        break;
      }
      case EventKind::kChunkDequeue: {
        ChunkTrace& c = flows[e.flow].chunks[e.b];
        c.deq_at = e.at;
        c.deq_idx = i;
        c.egress_host = e.host;
        c.band = e.band;
        c.bytes = e.bytes;
        break;
      }
      case EventKind::kIngressArrive: {
        ChunkTrace& c = flows[e.flow].chunks[e.b];
        c.arr_at = e.at;
        c.arr_idx = i;
        break;
      }
      case EventKind::kIngressDeliver: {
        MapFlow& f = flows[e.flow];
        ChunkTrace& c = f.chunks[e.b];
        c.del_at = e.at;
        c.del_idx = i;
        c.del_wait = sim::from_nanos(e.a);
        c.ingress_host = e.host;
        f.index_by_deliver[e.at] = e.b;
        break;
      }
      case EventKind::kWorkerCompute: {
        ix.worker_host[{e.job, static_cast<std::int32_t>(e.a)}] = e.host;
        ix.compute_by_end[{e.job, e.host, e.at + e.dur}] =
            Span{e.at, e.at + e.dur, static_cast<std::int32_t>(e.a)};
        break;
      }
      case EventKind::kPsAggregate: {
        ix.agg_by_end[{e.job, e.host, e.at + e.dur}] =
            Span{e.at, e.at + e.dur, static_cast<std::int32_t>(e.a)};
        break;
      }
      case EventKind::kBarrierRelease: {
        ix.releases[{e.job, e.b}].push_back(
            Release{e.at, e.dur, static_cast<std::int32_t>(e.a)});
        break;
      }
      default:
        break;
    }
  }
  // The whole log is indexed: lay each flow out as the shared walk reads
  // it, in map (key) order.
  for (auto& [id, mf] : flows) {
    FlowTrace& f = ix.flows[id] = std::move(mf.trace);
    for (auto& [index, c] : mf.chunks) {
      c.index = index;
      f.chunks.push_back(c);
    }
    for (const auto& [at, index] : mf.index_by_deliver) {
      f.index_by_deliver.push_back(Delivery{at, index});
    }
  }
  return ix;
}

// ---- Reference trace-CSV reader -----------------------------------------

constexpr const char* kHeader = "at_ns,kind,cat,host,job,band,flow,bytes,a,b,dur_ns";

using EventSink = std::function<void(const TraceEvent&)>;

bool kind_from_string(const std::string& name, EventKind* out) {
  for (int k = 0; k <= static_cast<int>(EventKind::kPsAggregate); ++k) {
    EventKind kind = static_cast<EventKind>(k);
    if (name == to_string(kind)) {
      *out = kind;
      return true;
    }
  }
  return false;
}

bool cat_from_string(const std::string& name, Cat* out) {
  for (std::uint32_t bit = 1; bit <= kAllCats; bit <<= 1) {
    Cat cat = static_cast<Cat>(bit);
    if (name == to_string(cat)) {
      *out = cat;
      return true;
    }
  }
  return false;
}

template <typename T>
bool parse_int(const std::string& tok, T* out) {
  const char* end = tok.data() + tok.size();
  auto [ptr, ec] = std::from_chars(tok.data(), end, *out);
  return ec == std::errc() && ptr == end;
}

void split_columns(const std::string& line, std::vector<std::string>* cols) {
  cols->clear();
  std::size_t start = 0;
  for (;;) {
    std::size_t comma = line.find(',', start);
    if (comma == std::string::npos) {
      cols->push_back(line.substr(start));
      break;
    }
    cols->push_back(line.substr(start, comma - start));
    start = comma + 1;
  }
}

void handle_comment(const std::string& line, TraceHealth* health) {
  std::vector<std::string> cols;
  split_columns(line, &cols);
  if (cols.size() != 4 || cols[0] != "#health") return;
  std::int64_t count = 0;
  if (!parse_int(cols[3], &count) || count < 0) return;
  bool dropped = cols[1] == "dropped";
  if (!dropped && cols[1] != "sampled") return;
  if (cols[2] == "total") {
    (dropped ? health->dropped_total : health->sampled_out_total) =
        static_cast<std::uint64_t>(count);
    return;
  }
  Cat cat{};
  if (!cat_from_string(cols[2], &cat)) return;
  (dropped ? health->dropped_by_cat
           : health->sampled_out_by_cat)[cat_index(cat)] =
      static_cast<std::uint64_t>(count);
}

bool handle_line(const std::string& line, int lineno, bool* header_seen,
                 const EventSink& sink, TraceHealth* health,
                 std::string* error) {
  if (!*header_seen) {
    if (line != kHeader) {
      *error = "not a trace CSV (expected header '" + std::string(kHeader) +
               "', got '" + line + "')";
      return false;
    }
    *header_seen = true;
    return true;
  }
  if (line.empty()) return true;
  if (line[0] == '#') {
    handle_comment(line, health);
    return true;
  }
  std::vector<std::string> cols;
  split_columns(line, &cols);
  if (cols.size() != 11) {
    *error = "line " + std::to_string(lineno) + ": expected 11 columns, got " +
             std::to_string(cols.size());
    return false;
  }
  TraceEvent e;
  std::int64_t v = 0;
  bool ok = parse_int(cols[0], &v);
  e.at = sim::from_nanos(v);
  ok = ok && kind_from_string(cols[1], &e.kind);
  ok = ok && cat_from_string(cols[2], &e.cat);
  ok = ok && parse_int(cols[3], &e.host);
  ok = ok && parse_int(cols[4], &e.job);
  ok = ok && parse_int(cols[5], &e.band);
  ok = ok && parse_int(cols[6], &e.flow);
  ok = ok && parse_int(cols[7], &e.bytes);
  ok = ok && parse_int(cols[8], &e.a);
  ok = ok && parse_int(cols[9], &e.b);
  ok = ok && parse_int(cols[10], &v);
  e.dur = sim::from_nanos(v);
  if (!ok) {
    *error = "line " + std::to_string(lineno) + ": malformed row '" + line + "'";
    return false;
  }
  sink(e);
  return true;
}

}  // namespace

RunReport analyze(const std::vector<TraceEvent>& events) {
  Index ix = build_index(events);
  RunReport report;
  std::map<std::int32_t, JobSummary> jobs;

  for (const auto& [key, rels] : ix.releases) {
    auto [job, iteration] = key;
    if (iteration < 0) continue;
    std::vector<QueueVisit> visits;
    IterationReport r = detail::build_iteration(ix, job, iteration, rels,
                                                visits);

    // Blame pass: log-order window scan per queueing visit. Egress visits
    // look for foreign dequeues at the sender, ingress visits for foreign
    // deliveries at the receiver — the same exclusive-window rule.
    std::map<detail::BlameKey, std::int64_t> blame;
    for (const QueueVisit& v : visits) {
      EventKind want = v.side == BlameSide::kEgress
                           ? EventKind::kChunkDequeue
                           : EventKind::kIngressDeliver;
      for (std::size_t i = v.begin_idx + 1; i < v.end_idx; ++i) {
        const TraceEvent& e = events[i];
        if (e.kind != want) continue;
        if (e.host != v.host) continue;
        if (e.flow == v.victim_flow) continue;  // own pipeline, not blame
        blame[{static_cast<std::uint8_t>(v.side), e.host, e.job, e.band}] +=
            e.bytes;
      }
    }
    detail::emit_blame(blame, r);

    detail::fold_into_summary(jobs[job], r);
    report.iterations.push_back(std::move(r));
  }

  for (const auto& [job, js] : jobs) {
    (void)job;
    report.jobs.push_back(js);
  }
  return report;
}

bool read_trace_csv(std::istream& in, std::vector<TraceEvent>* out,
                    TraceHealth* health, std::string* error) {
  return for_each_trace_csv_event(
      in, [out](const TraceEvent& e) { out->push_back(e); }, health, error);
}

bool read_trace_csv_file(const std::string& path,
                         std::vector<TraceEvent>* out, TraceHealth* health,
                         std::string* error) {
  return for_each_trace_csv_event(
      path, [out](const TraceEvent& e) { out->push_back(e); }, health, error);
}

CsvReading reference_read_trace_csv(const std::string& text, bool at_end) {
  CsvReading r;
  EventSink sink = [&r](const TraceEvent& e) { r.events.push_back(e); };
  int lineno = 0;
  bool header_seen = false;
  std::size_t start = 0;
  for (std::size_t nl = text.find('\n'); nl != std::string::npos;
       nl = text.find('\n', start)) {
    if (!handle_line(text.substr(start, nl - start), ++lineno, &header_seen,
                     sink, &r.health, &r.error)) {
      r.ok = false;
      return r;
    }
    start = nl + 1;
  }
  std::string last = text.substr(start);
  if (at_end && (!header_seen || !last.empty())) {
    r.ok = handle_line(last, ++lineno, &header_seen, sink, &r.health,
                       &r.error);
  }
  return r;
}

}  // namespace tls::obs::oracle
