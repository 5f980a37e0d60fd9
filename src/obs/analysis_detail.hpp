// Internal machinery of the attribution engine (obs/streaming.cpp): the
// causal index, the critical-path walk and the flow decomposition. The
// batch oracle in tests/obs builds the same index from a whole log and runs
// this same walk over it — the engine's byte-identical-to-batch contract
// (golden-report tests) rests on that sharing. Not part of the public obs
// API; include obs/analysis.hpp instead.
//
// Index::flows is a hash map: every event touches it by key, and nothing
// may let its order reach an output. The walk only looks it up; the
// engine's one loop over it takes minima
// (StreamingAnalyzer::prune_port_records) and its per-job pruning walks its
// own ordered id lists. A flow's chunks and its deliver chain are flat
// vectors sorted by key (chunk index, deliver time), written through
// slot_of and read through find_sorted with exactly the semantics of the
// maps they replace: a missing key is inserted in sorted place, a known
// one is found and overwritten. Every map whose order a report sees — the
// end-time probes, releases, blame — stays ordered.
#pragma once

#include <algorithm>
#include <map>
#include <tuple>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/analysis.hpp"
#include "obs/trace.hpp"

namespace tls::obs::detail {

// net::FlowKind ordinals as stamped into flow events' `band` field; the
// analysis must not depend on net/ (it also runs on offline CSVs), so the
// two ordinals it interprets are pinned here and guarded by a test.
inline constexpr std::int32_t kModelUpdateKind = 0;
inline constexpr std::int32_t kGradientUpdateKind = 1;

/// Per-chunk trace times gathered from the four chunk/ingress events.
/// Missing stages stay -1 (category filtered out or chunk still in flight
/// at end of trace).
struct ChunkTrace {
  std::int64_t index = 0;  ///< chunk index within the flow (sort key)
  sim::Time enq_at{-1};
  sim::Time deq_at{-1};
  sim::Time arr_at{-1};
  sim::Time del_at{-1};
  /// Ingress-queue wait at the receiver (deliver event's `a` field); the
  /// fan-in wait/serialization split point is arr_at + del_wait.
  sim::Time del_wait{0};
  std::size_t enq_idx = 0;  ///< log position of the enqueue event
  std::size_t deq_idx = 0;  ///< log position of the dequeue event
  std::size_t arr_idx = 0;  ///< log position of the ingress arrival
  std::size_t del_idx = 0;  ///< log position of the ingress delivery
  std::int32_t egress_host = -1;
  std::int32_t ingress_host = -1;
  std::int32_t band = -1;
  std::int64_t bytes = 0;
};

/// One deliver-chain entry: `chunk` is the last chunk delivered at `at`.
struct Delivery {
  sim::Time at{};
  std::int64_t chunk = 0;
};

struct FlowTrace {
  std::int32_t src = -1;
  std::int32_t dst = -1;
  std::int32_t job = -1;
  std::int32_t kind = -1;  ///< FlowKind ordinal
  std::int64_t iteration = -1;
  sim::Time start_at{-1};
  sim::Time end_at{-1};
  /// Sorted by ChunkTrace::index, one record per index.
  std::vector<ChunkTrace> chunks;
  /// Sorted by deliver time, one entry per instant; the walk takes the
  /// last entry.
  std::vector<Delivery> index_by_deliver;
  /// Log position of the flow's earliest enqueue event (the dequeue-record
  /// retention watermark).
  std::size_t min_enq_idx = static_cast<std::size_t>(-1);
  /// Same for the earliest ingress arrival (deliver-record retention).
  std::size_t min_arr_idx = static_cast<std::size_t>(-1);
};

/// Position of `key` in `v`, sorted by the unique member `key_of`, or
/// where it belongs when absent. Dense integer keys first seen in order —
/// a simulator flow's chunks 0..n-1, host ids — sit at their own position
/// or at the end; both are tried before the binary search.
template <typename T, typename K>
std::size_t sorted_slot(const std::vector<T>& v, K T::*key_of, K key) {
  if constexpr (std::is_integral_v<K>) {
    if (key >= 0 && static_cast<std::make_unsigned_t<K>>(key) < v.size() &&
        v[static_cast<std::size_t>(key)].*key_of == key) {
      return static_cast<std::size_t>(key);
    }
  }
  if (v.empty() || v.back().*key_of < key) return v.size();
  return static_cast<std::size_t>(
      std::partition_point(v.begin(), v.end(),
                           [&](const T& x) { return x.*key_of < key; }) -
      v.begin());
}

/// The element keyed `key` in `v` (sorted as above), or null.
template <typename T, typename K>
const T* find_sorted(const std::vector<T>& v, K T::*key_of, K key) {
  std::size_t at = sorted_slot(v, key_of, key);
  return at < v.size() && v[at].*key_of == key ? &v[at] : nullptr;
}

/// The element keyed `key` in `v`, inserted in sorted place and otherwise
/// default-initialized when missing, and whether it was — map::try_emplace
/// on a sorted vector.
template <typename T, typename K>
std::pair<T*, bool> slot_of(std::vector<T>& v, K T::*key_of, K key) {
  std::size_t at = sorted_slot(v, key_of, key);
  bool missing = at == v.size() || v[at].*key_of != key;
  if (missing) {
    T x{};
    x.*key_of = key;
    v.insert(v.begin() + static_cast<std::ptrdiff_t>(at), std::move(x));
  }
  return {&v[at], missing};
}

struct Span {
  sim::Time begin{};
  sim::Time end{};
  std::int32_t actor = -1;  ///< worker or shard id
};

struct Release {
  sim::Time at{};
  sim::Time wait{};
  std::int32_t worker = -1;
};

/// Everything the critical-path walk needs. The streaming engine grows it
/// per event and prunes entries behind the finalization watermark.
struct Index {
  /// By flow id. Hashed: no loop over it may let its order reach an output.
  std::unordered_map<std::int64_t, FlowTrace> flows;
  /// (job, kind, dst host, end time) -> flow id, last in log order wins.
  std::map<std::tuple<std::int32_t, std::int32_t, std::int32_t, sim::Time>,
           std::int64_t>
      flow_by_end;
  /// (job, worker) -> host, from worker_compute emission sites.
  std::map<std::pair<std::int32_t, std::int32_t>, std::int32_t> worker_host;
  /// (job, host) -> compute/aggregation spans ending at key time.
  std::map<std::tuple<std::int32_t, std::int32_t, sim::Time>, Span>
      compute_by_end;
  std::map<std::tuple<std::int32_t, std::int32_t, sim::Time>, Span>
      agg_by_end;
  /// (job, iteration) -> barrier releases in log order.
  std::map<std::pair<std::int32_t, std::int64_t>, std::vector<Release>>
      releases;
};

/// A queueing interval on the critical path — an egress-qdisc visit
/// (kEgress: window (enq_idx, deq_idx) scanned for foreign chunk_dequeue)
/// or an ingress-port visit (kIngress: window (arr_idx, del_idx) scanned
/// for foreign ingress_deliver) — remembered so the blame pass can scan
/// the exclusive log window (begin_idx, end_idx). Out-of-order input can
/// put the closing event first (begin_idx >= end_idx): the window is then
/// empty and holds no blame.
struct QueueVisit {
  BlameSide side = BlameSide::kEgress;
  std::int32_t host = -1;
  std::int64_t victim_flow = 0;
  std::size_t begin_idx = 0;
  std::size_t end_idx = 0;
};

/// Blame accumulator key: (side, host, culprit job, culprit band). Map
/// iteration order is exactly the report's sorted blame order — egress
/// cells first, then ingress.
using BlameKey =
    std::tuple<std::uint8_t, std::int32_t, std::int32_t, std::int32_t>;

/// Converts the accumulated blame map into the report's sorted entries.
inline void emit_blame(const std::map<BlameKey, std::int64_t>& blame,
                       IterationReport& r) {
  for (const auto& [bk, bytes] : blame) {
    r.blame.push_back(BlameEntry{static_cast<BlameSide>(std::get<0>(bk)),
                                 std::get<1>(bk), std::get<2>(bk),
                                 std::get<3>(bk), bytes});
  }
}

/// Collects backward-ordered segments; clamps every interval to >= lo and
/// coalesces nothing (renderers aggregate by kind).
class SegmentSink {
 public:
  explicit SegmentSink(sim::Time lo) : lo_(lo) {}

  void add(SegmentKind kind, sim::Time begin, sim::Time end,
           std::int32_t host, std::int64_t flow,
           sim::Time fan_in_wait_end = sim::Time{-1}) {
    begin = std::max(begin, lo_);
    end = std::max(end, lo_);
    if (end <= begin) return;
    if (fan_in_wait_end >= sim::Time{0}) {
      fan_in_wait_end = std::min(std::max(fan_in_wait_end, begin), end);
    }
    segs_.push_back(
        PathSegment{kind, begin, end, host, flow, fan_in_wait_end});
  }

  /// Segments in forward time order.
  std::vector<PathSegment> take() {
    std::reverse(segs_.begin(), segs_.end());
    return std::move(segs_);
  }

 private:
  sim::Time lo_;
  std::vector<PathSegment> segs_;
};

/// Decomposes the critical flow's span [start, end] into the backward
/// chunk chain: the last-delivered chunk's fan-in / wire / egress-queue
/// intervals, then (recursively) the chunk whose delivery admitted it,
/// until the chain reaches the flow start. The transport admits follow-up
/// chunks at the exact delivery instant of earlier ones, so the chain
/// tiles the span with no gaps; anything unattributable (no chunk events,
/// zero-byte flow) lands in `other`.
inline void decompose_flow(const FlowTrace& f, sim::Time lo, SegmentSink& sink,
                           std::vector<QueueVisit>& visits,
                           std::int64_t flow_id) {
  sim::Time cursor = f.end_at;
  // Last chunk: the one delivered at flow end.
  const ChunkTrace* c =
      f.index_by_deliver.empty()
          ? nullptr
          : find_sorted(f.chunks, &ChunkTrace::index,
                        f.index_by_deliver.back().chunk);
  while (c != nullptr && cursor > lo) {
    if (c->arr_at < sim::Time{0} || c->deq_at < sim::Time{0} ||
        c->enq_at < sim::Time{0} || c->del_at < sim::Time{0}) {
      break;  // partial chunk record; leave the remainder to `other`
    }
    sink.add(SegmentKind::kFanIn, c->arr_at, cursor, f.dst, flow_id,
             c->arr_at + c->del_wait);
    sink.add(SegmentKind::kSerialization, c->deq_at, c->arr_at, f.src,
             flow_id);
    sink.add(SegmentKind::kEgressQueue, c->enq_at, c->deq_at, f.src, flow_id);
    if (c->deq_at > c->enq_at && c->deq_at > lo) {
      visits.push_back(QueueVisit{BlameSide::kEgress, c->egress_host, flow_id,
                                  c->enq_idx, c->deq_idx});
    }
    if (c->del_at > c->arr_at && c->del_at > lo) {
      visits.push_back(QueueVisit{BlameSide::kIngress, c->ingress_host,
                                  flow_id, c->arr_idx, c->del_idx});
    }
    cursor = c->enq_at;
    if (cursor <= f.start_at || cursor <= lo) break;
    // The chunk was admitted by the delivery of an earlier chunk at the
    // same instant; follow it.
    const Delivery* d = find_sorted(f.index_by_deliver, &Delivery::at, cursor);
    if (d == nullptr) break;
    c = find_sorted(f.chunks, &ChunkTrace::index, d->chunk);
  }
  // Gap between flow start and where the chunk chain bottomed out (missing
  // chunk data, truncated trace): unattributable.
  if (cursor > f.start_at) {
    sink.add(SegmentKind::kOther, std::max(f.start_at, lo), cursor, f.src,
             flow_id);
  }
}

/// Walks the backward causal chain for one barrier window [lo, release],
/// alternating transfer and compute links per the PS state machine:
/// model flow <- aggregation <- gradient flow <- worker compute <- model
/// flow of the previous iteration <- ... Every link ends exactly where the
/// next begins (same-instant callbacks in the simulator), so the segments
/// tile the window; when a link cannot be found the remainder is `other`.
inline void walk_critical_path(const Index& ix, std::int32_t job, sim::Time lo,
                               sim::Time release_at, std::int32_t release_host,
                               SegmentSink& sink,
                               std::vector<QueueVisit>& visits) {
  enum class Phase { kModelFlow, kAggregate, kGradientFlow, kCompute };
  Phase phase = Phase::kModelFlow;
  std::int32_t host = release_host;
  sim::Time cursor = release_at;
  // The chain shortens cursor by >= 1 ns per full cycle; the bound only
  // guards against malformed (hand-edited) traces.
  for (int steps = 0; cursor > lo && steps < 1 << 20; ++steps) {
    switch (phase) {
      case Phase::kModelFlow: {
        auto it = ix.flow_by_end.find({job, kModelUpdateKind, host, cursor});
        if (it == ix.flow_by_end.end()) {
          sink.add(SegmentKind::kOther, lo, cursor, host, 0);
          return;
        }
        const FlowTrace& f = ix.flows.at(it->second);
        decompose_flow(f, lo, sink, visits, it->second);
        host = f.src;
        cursor = std::max(f.start_at, lo);
        phase = Phase::kAggregate;
        break;
      }
      case Phase::kAggregate: {
        // Greatest aggregation span at this host ending at or before the
        // flow start; the gap between its end and the flow start is the
        // coordination wait (transmission gate).
        auto it = ix.agg_by_end.upper_bound({job, host, cursor});
        if (it == ix.agg_by_end.begin()) {
          sink.add(SegmentKind::kOther, lo, cursor, host, 0);
          return;
        }
        --it;
        if (std::get<0>(it->first) != job || std::get<1>(it->first) != host) {
          sink.add(SegmentKind::kOther, lo, cursor, host, 0);
          return;
        }
        const Span& agg = it->second;
        sink.add(SegmentKind::kOther, agg.end, cursor, host, 0);
        sink.add(SegmentKind::kCompute, agg.begin, std::min(agg.end, cursor),
                 host, 0);
        cursor = std::max(agg.begin, lo);
        phase = Phase::kGradientFlow;
        break;
      }
      case Phase::kGradientFlow: {
        // Aggregation starts the instant the last gradient lands.
        auto it =
            ix.flow_by_end.find({job, kGradientUpdateKind, host, cursor});
        if (it == ix.flow_by_end.end()) {
          sink.add(SegmentKind::kOther, lo, cursor, host, 0);
          return;
        }
        const FlowTrace& f = ix.flows.at(it->second);
        decompose_flow(f, lo, sink, visits, it->second);
        host = f.src;
        cursor = std::max(f.start_at, lo);
        phase = Phase::kCompute;
        break;
      }
      case Phase::kCompute: {
        // Gradient flows leave at the exact compute-done instant.
        auto it = ix.compute_by_end.find({job, host, cursor});
        if (it == ix.compute_by_end.end()) {
          sink.add(SegmentKind::kOther, lo, cursor, host, 0);
          return;
        }
        const Span& cs = it->second;
        sink.add(SegmentKind::kCompute, cs.begin, cursor, host, 0);
        cursor = std::max(cs.begin, lo);
        // Compute started when the previous iteration's model update
        // finished arriving at this worker host.
        phase = Phase::kModelFlow;
        break;
      }
    }
  }
  if (cursor > lo) sink.add(SegmentKind::kOther, lo, cursor, host, 0);
}

/// Folds the segment list into the per-kind ns totals. Fan-in segments
/// also split at fan_in_wait_end into ingress-queue wait vs receive
/// serialization; the two sub-totals always sum exactly to fan_in_ns.
inline void accumulate(IterationReport& r) {
  for (const PathSegment& s : r.segments) {
    sim::Time len = s.end - s.begin;
    switch (s.kind) {
      case SegmentKind::kCompute: r.compute_ns += len; break;
      case SegmentKind::kEgressQueue: r.egress_queue_ns += len; break;
      case SegmentKind::kSerialization: r.serialization_ns += len; break;
      case SegmentKind::kFanIn: {
        r.fan_in_ns += len;
        // The sink clamps fan_in_wait_end into [begin, end]; a segment
        // built without the split (degraded trace) carries -1 and counts
        // fully as receive serialization.
        sim::Time split = s.fan_in_wait_end >= s.begin ? s.fan_in_wait_end
                                                      : s.begin;
        r.fan_in_wait_ns += split - s.begin;
        r.fan_in_ser_ns += s.end - split;
        break;
      }
      case SegmentKind::kOther: r.other_ns += len; break;
    }
  }
}

/// Builds one IterationReport skeleton (segments + per-kind totals, no
/// blame) for the critical release of (job, iteration).
inline IterationReport build_iteration(const Index& ix, std::int32_t job,
                                       std::int64_t iteration,
                                       const std::vector<Release>& rels,
                                       std::vector<QueueVisit>& visits) {
  // Critical worker: largest wait; first in log order breaks ties.
  const Release* crit = &rels.front();
  for (const Release& r : rels) {
    if (r.wait > crit->wait) crit = &r;
  }

  IterationReport r;
  r.job = job;
  r.iteration = iteration;
  r.critical_worker = crit->worker;
  r.release_at = crit->at;
  r.barrier_wait = crit->wait;
  r.enter_at = crit->at - crit->wait;

  std::int32_t worker_host = -1;
  auto wh = ix.worker_host.find({job, crit->worker});
  if (wh != ix.worker_host.end()) worker_host = wh->second;

  SegmentSink sink(r.enter_at);
  if (worker_host >= 0) {
    walk_critical_path(ix, job, r.enter_at, r.release_at, worker_host, sink,
                       visits);
  } else {
    sink.add(SegmentKind::kOther, r.enter_at, r.release_at, -1, 0);
  }
  r.segments = sink.take();
  accumulate(r);
  return r;
}

/// Folds one finalized iteration into its job rollup.
inline void fold_into_summary(JobSummary& js, const IterationReport& r) {
  js.job = r.job;
  ++js.iterations;
  js.total_wait_ns += r.barrier_wait;
  js.compute_ns += r.compute_ns;
  js.egress_queue_ns += r.egress_queue_ns;
  js.serialization_ns += r.serialization_ns;
  js.fan_in_ns += r.fan_in_ns;
  js.other_ns += r.other_ns;
  js.fan_in_wait_ns += r.fan_in_wait_ns;
  js.fan_in_ser_ns += r.fan_in_ser_ns;
  for (const BlameEntry& b : r.blame) {
    if (b.side == BlameSide::kEgress) {
      if (b.culprit_job == r.job) {
        js.self_blame_bytes += b.bytes;
      } else {
        js.cross_job_blame_bytes += b.bytes;
      }
    } else {
      if (b.culprit_job == r.job) {
        js.self_ingress_blame_bytes += b.bytes;
      } else {
        js.cross_job_ingress_blame_bytes += b.bytes;
      }
    }
  }
}

}  // namespace tls::obs::detail
