#include "oracle.hpp"

#include <map>
#include <utility>

#include "obs/analysis_detail.hpp"
#include "obs/reader.hpp"

namespace tls::obs::oracle {

namespace {

using detail::ChunkTrace;
using detail::FlowTrace;
using detail::Index;
using detail::QueueVisit;
using detail::Release;
using detail::Span;

Index build_index(const std::vector<TraceEvent>& events) {
  Index ix;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& e = events[i];
    switch (e.kind) {
      case EventKind::kFlowStart: {
        FlowTrace& f = ix.flows[e.flow];
        f.src = e.host;
        f.dst = static_cast<std::int32_t>(e.a);
        f.job = e.job;
        f.kind = e.band;
        f.iteration = e.b;
        f.start_at = e.at;
        break;
      }
      case EventKind::kFlowEnd: {
        FlowTrace& f = ix.flows[e.flow];
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
        ChunkTrace& c = ix.flows[e.flow].chunks[e.b];
        c.enq_at = e.at;
        c.enq_idx = i;
        c.egress_host = e.host;
        c.band = e.band;
        c.bytes = e.bytes;
        break;
      }
      case EventKind::kChunkDequeue: {
        ChunkTrace& c = ix.flows[e.flow].chunks[e.b];
        c.deq_at = e.at;
        c.deq_idx = i;
        c.egress_host = e.host;
        c.band = e.band;
        c.bytes = e.bytes;
        break;
      }
      case EventKind::kIngressArrive: {
        ChunkTrace& c = ix.flows[e.flow].chunks[e.b];
        c.arr_at = e.at;
        c.arr_idx = i;
        break;
      }
      case EventKind::kIngressDeliver: {
        FlowTrace& f = ix.flows[e.flow];
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
  return ix;
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

}  // namespace tls::obs::oracle
