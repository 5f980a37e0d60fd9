// tls::obs::StreamingAnalyzer — the straggler attribution engine.
//
// A batch analysis would buffer a complete trace and walk it post-mortem;
// at Fig. 5a scale that means holding millions of events for a report that
// only ever inspects a sliding window of them. This engine is a consumer
// instead: events are ingested one at a time (as a live Tracer's sink, from
// a trace CSV, or from a tailed growing CSV), each (job, iteration) is
// finalized the moment its barrier fully releases and the stream moves past
// the release instant, and everything behind the finalization watermark is
// retired — so peak retention is proportional to the in-flight window
// (roughly two iterations per job), independent of trace length. The
// in-process report (tlsim --report*) and every tlsreport mode run on it.
//
// Equivalence contract: on any trace the simulator emits (events appended
// in nondecreasing time order), finish() returns a RunReport whose three
// renderings are byte-identical to a batch analysis of the same events.
// The batch oracle in tests/obs (whole-log index, raw log-window blame
// scan) and the golden-report tests witness this, and CI compares offline
// tlsreport output with the in-process report. The walk itself is shared
// code (obs/analysis_detail.hpp); what this class adds is the
// finalization trigger and the retirement rules:
//
//  * Finalization trigger: count kBarrierEnter per (job, iteration); when
//    the release count matches and an event with a strictly later
//    timestamp arrives, every index entry the walk could reference is
//    final (time is nondecreasing), so the iteration is built and emitted.
//    Iterations whose enters were never seen (filtered trace) finalize at
//    finish(), so the report covers every released barrier.
//
//  * Retirement: after finalizing (job j, iteration N) the per-job
//    watermark W_j = min release time of N. Any future walk for j starts
//    at lo = enter(N+1) >= W_j, and every index lookup happens at
//    cursor > lo, so entries keyed strictly below W_j are unreachable —
//    flows (once ended), flow_by_end / compute_by_end / agg_by_end
//    entries are erased below it. (The kAggregate upper_bound probe can
//    land on an erased-older entry, but batch and streaming then emit the
//    identical clamped `other` segment — see walk_critical_path.)
//    Dequeue records for the egress blame pass are kept per host and
//    pruned by log index: the minimum enqueue index over still-live flows
//    bounds every future blame window. The ingress delivery lane is the
//    mirror image — per-receiving-host kIngressDeliver records pruned by
//    the minimum ingress-arrival index over still-live flows — so it too
//    stays live exactly until the last blame window that could reference
//    it closes. Events with job < 0 (background traffic) retire under the
//    minimum watermark across jobs.
//
//  * Blame without the log: the blame rule scans the raw event window
//    (enq_idx, deq_idx) for foreign kChunkDequeue at the same host, and
//    (arr_idx, del_idx) for foreign kIngressDeliver at the receiver; the
//    engine keeps exactly those records — per-host, in log order — and
//    binary-searches the same windows, yielding the bytes a full-log scan
//    would on both blame sides.
//
//  * Flat, reused storage: per-chunk and per-record state lives in
//    contiguous vectors, not in map or deque nodes. A flow's chunks and
//    deliver chain are sorted vectors (detail::slot_of, find_sorted), and
//    each host's port records are a vector lane consumed through a head
//    cursor, its retired prefix compacted once it passes half the lane. A
//    retired flow's emptied vectors go to the next new flow, so
//    steady-state ingest allocates nothing per chunk.
//
// The analysis needs the kAnalysisCats categories (chunk, barrier, flow,
// ingress, compute); with fewer it degrades gracefully — unattributable
// time lands in the `other` bucket instead of failing. Input that breaks
// the time-order contract (a corrupted or hand-edited CSV) is flagged by
// out_of_order() and still analyzed without crashing, with no
// equivalence promise.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "obs/analysis.hpp"
#include "obs/analysis_detail.hpp"
#include "obs/trace.hpp"

namespace tls::obs {

class StreamingAnalyzer final : public TraceSink {
 public:
  StreamingAnalyzer() = default;

  StreamingAnalyzer(const StreamingAnalyzer&) = delete;
  StreamingAnalyzer& operator=(const StreamingAnalyzer&) = delete;

  /// Consumes the next trace event. Events must arrive in nondecreasing
  /// time order (the simulator's emission order; out_of_order() reports
  /// violations, under which equivalence to batch is no longer promised).
  void ingest(const TraceEvent& e);
  /// TraceSink: ingests each event a live Tracer accepts.
  void on_event(const TraceEvent& e) override { ingest(e); }

  /// Attaches the capture-health record carried into the final report
  /// (tracer drops / sampling exclusions).
  void set_health(const TraceHealth& health) { health_ = health; }

  /// Finalizes every pending iteration and returns the complete report,
  /// handing the finalized iterations over rather than copying them. Call
  /// once, after the last ingest; nothing may be ingested or snapshot
  /// after it.
  RunReport finish();

  /// Report of everything finalized so far, a copy that leaves pending
  /// state alone — the live dashboard renders these mid-stream.
  RunReport snapshot() const;

  /// High-water mark, over the whole stream, of the records retained
  /// across all index structures (flows, chunks, span keys, dequeue
  /// records, pending releases).
  std::size_t peak_retained_records() const { return peak_retained_; }
  /// Events ingested so far.
  std::uint64_t ingested_events() const { return next_idx_; }
  /// True when an event arrived with a timestamp before its predecessor.
  bool out_of_order() const { return out_of_order_; }

 private:
  /// One kChunkDequeue (egress lane) or kIngressDeliver (ingress lane)
  /// record, the blame pass's working set.
  struct PortRec {
    std::size_t idx = 0;  ///< global log position
    std::int64_t flow = 0;
    std::int32_t job = -1;
    std::int32_t band = -1;
    std::int64_t bytes = 0;
  };

  /// One host's records in log order: [head, recs.size()) are live, the
  /// prefix before head is retired and compacted away once it passes half
  /// the lane.
  struct Lane {
    std::int32_t host = -1;
    std::size_t head = 0;
    std::vector<PortRec> recs;
  };

  /// The flow `e` belongs to, created (on a retired flow's storage when
  /// there is one) the first time one of its events arrives.
  detail::FlowTrace& flow_of(const TraceEvent& e);
  /// Appends `e`'s port record, at log position `idx`, to its host's lane.
  void add_port_record(std::vector<Lane>& lanes, const TraceEvent& e,
                       std::size_t idx);
  void finalize_ripe(sim::Time now);
  void finalize(std::int32_t job, std::int64_t iteration);
  void prune_job(std::int32_t job, sim::Time watermark);
  void prune_port_records();
  void note_retention(std::ptrdiff_t delta);
  /// The report over `iterations` (sorted here), the per-job rollups and
  /// the capture health.
  RunReport report_of(std::vector<IterationReport> iterations) const;

  detail::Index ix_;
  TraceHealth health_;

  /// Per-host kChunkDequeue lanes, sorted by host (egress blame windows).
  std::vector<Lane> deq_lanes_;
  /// Per-receiving-host kIngressDeliver lanes, sorted by host (ingress
  /// blame windows).
  std::vector<Lane> del_lanes_;
  /// Emptied chunk and deliver-chain vectors of retired flows, handed to
  /// the next new flow so steady-state ingest allocates none.
  std::vector<detail::FlowTrace> spare_;
  /// Flow ids per job, so per-job pruning never scans foreign flows.
  std::map<std::int32_t, std::vector<std::int64_t>> flows_by_job_;
  /// kBarrierEnter count per (job, iteration).
  std::map<std::pair<std::int32_t, std::int64_t>, std::int64_t> enters_;
  /// Iterations whose releases all arrived, keyed to the last release
  /// instant; finalized when the stream passes that time.
  std::map<std::pair<std::int32_t, std::int64_t>, sim::Time> ripe_;
  /// Per-job retirement watermark (min release time of the last finalized
  /// iteration); kMinWatermark until the job first finalizes.
  std::map<std::int32_t, sim::Time> watermark_;

  std::vector<IterationReport> finalized_;
  std::map<std::int32_t, JobSummary> jobs_;

  std::size_t next_idx_ = 0;
  sim::Time last_at_{sim::kTimeMin};
  /// Min deadline over ripe_ (kTimeMax when none): one compare per event.
  sim::Time next_deadline_{sim::kTimeMax};
  std::size_t retained_ = 0;
  std::size_t peak_retained_ = 0;
  bool out_of_order_ = false;
  bool finished_ = false;
};

}  // namespace tls::obs
