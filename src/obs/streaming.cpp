#include "obs/streaming.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "simcore/check.hpp"

namespace tls::obs {

namespace {

using detail::ChunkTrace;
using detail::FlowTrace;
using detail::QueueVisit;
using detail::Release;
using detail::Span;

constexpr std::int32_t kI32Min = std::numeric_limits<std::int32_t>::min();

}  // namespace

void StreamingAnalyzer::note_retention(std::ptrdiff_t delta) {
  retained_ = static_cast<std::size_t>(
      static_cast<std::ptrdiff_t>(retained_) + delta);
  if (retained_ > peak_retained_) peak_retained_ = retained_;
}

detail::FlowTrace& StreamingAnalyzer::flow_of(const TraceEvent& e) {
  auto [it, inserted] = ix_.flows.try_emplace(e.flow);
  if (inserted) {
    flows_by_job_[e.job].push_back(e.flow);
    note_retention(1);
    if (!spare_.empty()) {
      it->second.chunks = std::move(spare_.back().chunks);
      it->second.index_by_deliver = std::move(spare_.back().index_by_deliver);
      spare_.pop_back();
    }
  }
  return it->second;
}

void StreamingAnalyzer::add_port_record(std::vector<Lane>& lanes,
                                        const TraceEvent& e, std::size_t idx) {
  detail::slot_of(lanes, &Lane::host, e.host)
      .first->recs.push_back(PortRec{idx, e.flow, e.job, e.band, e.bytes});
  note_retention(1);
}

void StreamingAnalyzer::ingest(const TraceEvent& e) {
  std::size_t idx = next_idx_++;
  if (e.at < last_at_) {
    out_of_order_ = true;
  } else {
    last_at_ = e.at;
  }
  // Time moved strictly past a completed barrier's last release: every
  // index entry its walk can reference is final now (nondecreasing time).
  if (next_deadline_ < e.at) finalize_ripe(e.at);

  switch (e.kind) {
    case EventKind::kFlowStart: {
      FlowTrace& f = flow_of(e);
      f.src = e.host;
      f.dst = static_cast<std::int32_t>(e.a);
      f.job = e.job;
      f.kind = e.band;
      f.iteration = e.b;
      f.start_at = e.at;
      break;
    }
    case EventKind::kFlowEnd: {
      FlowTrace& f = flow_of(e);
      if (f.start_at < sim::Time{0}) {  // end without start
        f.src = e.host;
        f.dst = static_cast<std::int32_t>(e.a);
        f.job = e.job;
        f.kind = e.band;
        f.iteration = e.b;
        f.start_at = e.at - e.dur;
      }
      f.end_at = e.at;
      auto [fit, finserted] = ix_.flow_by_end.insert_or_assign(
          std::make_tuple(e.job, e.band, static_cast<std::int32_t>(e.a),
                          e.at),
          e.flow);
      (void)fit;
      if (finserted) note_retention(1);
      break;
    }
    case EventKind::kChunkEnqueue: {
      FlowTrace& f = flow_of(e);
      auto [c, inserted] = detail::slot_of(f.chunks, &ChunkTrace::index, e.b);
      if (inserted) note_retention(1);
      c->enq_at = e.at;
      c->enq_idx = idx;
      c->egress_host = e.host;
      c->band = e.band;
      c->bytes = e.bytes;
      if (idx < f.min_enq_idx) f.min_enq_idx = idx;
      break;
    }
    case EventKind::kChunkDequeue: {
      FlowTrace& f = flow_of(e);
      auto [c, inserted] = detail::slot_of(f.chunks, &ChunkTrace::index, e.b);
      if (inserted) note_retention(1);
      c->deq_at = e.at;
      c->deq_idx = idx;
      c->egress_host = e.host;
      c->band = e.band;
      c->bytes = e.bytes;
      add_port_record(deq_lanes_, e, idx);
      break;
    }
    case EventKind::kIngressArrive: {
      FlowTrace& f = flow_of(e);
      auto [c, inserted] = detail::slot_of(f.chunks, &ChunkTrace::index, e.b);
      if (inserted) note_retention(1);
      c->arr_at = e.at;
      c->arr_idx = idx;
      if (idx < f.min_arr_idx) f.min_arr_idx = idx;
      break;
    }
    case EventKind::kIngressDeliver: {
      FlowTrace& f = flow_of(e);
      auto [c, inserted] = detail::slot_of(f.chunks, &ChunkTrace::index, e.b);
      if (inserted) note_retention(1);
      c->del_at = e.at;
      c->del_idx = idx;
      c->del_wait = sim::from_nanos(e.a);
      c->ingress_host = e.host;
      detail::slot_of(f.index_by_deliver, &detail::Delivery::at, e.at)
          .first->chunk = e.b;
      add_port_record(del_lanes_, e, idx);
      break;
    }
    case EventKind::kWorkerCompute: {
      ix_.worker_host[{e.job, static_cast<std::int32_t>(e.a)}] = e.host;
      auto [it, inserted] = ix_.compute_by_end.insert_or_assign(
          std::make_tuple(e.job, e.host, e.at + e.dur),
          Span{e.at, e.at + e.dur, static_cast<std::int32_t>(e.a)});
      (void)it;
      if (inserted) note_retention(1);
      break;
    }
    case EventKind::kPsAggregate: {
      auto [it, inserted] = ix_.agg_by_end.insert_or_assign(
          std::make_tuple(e.job, e.host, e.at + e.dur),
          Span{e.at, e.at + e.dur, static_cast<std::int32_t>(e.a)});
      (void)it;
      if (inserted) note_retention(1);
      break;
    }
    case EventKind::kBarrierEnter: {
      if (e.b < 0) break;  // startup broadcast, not a barrier
      auto [it, inserted] = enters_.try_emplace({e.job, e.b}, 0);
      if (inserted) note_retention(1);
      ++it->second;
      break;
    }
    case EventKind::kBarrierRelease: {
      if (e.b < 0) break;  // startup broadcast, not a barrier
      std::pair<std::int32_t, std::int64_t> key{e.job, e.b};
      std::vector<Release>& rels = ix_.releases[key];
      rels.push_back(Release{e.at, e.dur, static_cast<std::int32_t>(e.a)});
      note_retention(1);
      auto en = enters_.find(key);
      if (en != enters_.end() &&
          static_cast<std::int64_t>(rels.size()) >= en->second) {
        // All expected workers released; arm finalization for the first
        // event past the last release instant.
        ripe_[key] = e.at;
        next_deadline_ = std::min(next_deadline_, e.at);
      }
      break;
    }
    default:
      break;
  }
}

void StreamingAnalyzer::finalize_ripe(sim::Time now) {
  // Collect first (finalize mutates ripe_); map order keeps this
  // deterministic, and order does not affect output (finish() sorts).
  std::vector<std::pair<std::int32_t, std::int64_t>> ready;
  for (const auto& [key, deadline] : ripe_) {
    if (deadline < now) ready.push_back(key);
  }
  for (const auto& key : ready) {
    ripe_.erase(key);
    finalize(key.first, key.second);
  }
  next_deadline_ = sim::kTimeMax;
  for (const auto& [key, deadline] : ripe_) {
    (void)key;
    next_deadline_ = std::min(next_deadline_, deadline);
  }
}

void StreamingAnalyzer::finalize(std::int32_t job, std::int64_t iteration) {
  auto rit = ix_.releases.find({job, iteration});
  if (rit == ix_.releases.end() || rit->second.empty()) return;

  std::vector<QueueVisit> visits;
  IterationReport r =
      detail::build_iteration(ix_, job, iteration, rit->second, visits);

  // Blame pass over the retained per-host port records: the exclusive
  // (begin_idx, end_idx) log windows — dequeues for egress visits,
  // deliveries for ingress visits.
  std::map<detail::BlameKey, std::int64_t> blame;
  for (const QueueVisit& v : visits) {
    // An inverted window (out-of-order input) is empty; binary-searching
    // it would put `lo` past `hi` and walk off the end of the lane.
    if (v.begin_idx >= v.end_idx) continue;
    const Lane* lane = detail::find_sorted(
        v.side == BlameSide::kEgress ? deq_lanes_ : del_lanes_, &Lane::host,
        v.host);
    if (lane == nullptr) continue;
    auto live = lane->recs.begin() + static_cast<std::ptrdiff_t>(lane->head);
    auto lo = std::upper_bound(
        live, lane->recs.end(), v.begin_idx,
        [](std::size_t idx, const PortRec& rec) { return idx < rec.idx; });
    auto hi = std::lower_bound(
        lo, lane->recs.end(), v.end_idx,
        [](const PortRec& rec, std::size_t idx) { return rec.idx < idx; });
    for (auto it = lo; it != hi; ++it) {
      if (it->flow == v.victim_flow) continue;  // own pipeline, not blame
      blame[{static_cast<std::uint8_t>(v.side), v.host, it->job,
             it->band}] += it->bytes;
    }
  }
  detail::emit_blame(blame, r);

  detail::fold_into_summary(jobs_[job], r);

  // Retire. Watermark: min release time of this iteration. Any later
  // iteration's window starts at enter >= its worker's previous release
  // >= this minimum, so index entries keyed strictly below it can never
  // be referenced again (see header contract).
  sim::Time watermark = rit->second.front().at;
  for (const Release& rel : rit->second) {
    watermark = std::min(watermark, rel.at);
  }
  note_retention(-static_cast<std::ptrdiff_t>(rit->second.size()));
  ix_.releases.erase(rit);
  auto en = enters_.find({job, iteration});
  if (en != enters_.end()) {
    enters_.erase(en);
    note_retention(-1);
  }

  auto wit = watermark_.find(job);
  if (wit == watermark_.end()) {
    watermark_[job] = watermark;
  } else {
    wit->second = std::max(wit->second, watermark);
  }
  prune_job(job, watermark_[job]);

  // Background traffic (job < 0) never finalizes an iteration of its own;
  // it retires under the most conservative per-job watermark.
  if (!watermark_.empty()) {
    sim::Time global = watermark_.begin()->second;
    for (const auto& [j, w] : watermark_) {
      (void)j;
      global = std::min(global, w);
    }
    for (const auto& [j, flows] : flows_by_job_) {
      (void)flows;
      if (j < 0) prune_job(j, global);
    }
  }
  prune_port_records();

  finalized_.push_back(std::move(r));
}

void StreamingAnalyzer::prune_job(std::int32_t job, sim::Time watermark) {
  // Ended flows strictly below the watermark (in-flight flows must stay:
  // a later flow_end would otherwise rebuild them without their chunks).
  auto fj = flows_by_job_.find(job);
  if (fj != flows_by_job_.end()) {
    std::vector<std::int64_t>& ids = fj->second;
    std::size_t kept = 0;
    for (std::int64_t id : ids) {
      auto it = ix_.flows.find(id);
      if (it == ix_.flows.end()) continue;
      const FlowTrace& f = it->second;
      if (f.end_at >= sim::Time{0} && f.end_at < watermark) {
        note_retention(-static_cast<std::ptrdiff_t>(1 + f.chunks.size()));
        it->second.chunks.clear();
        it->second.index_by_deliver.clear();
        spare_.push_back(std::move(it->second));
        ix_.flows.erase(it);
      } else {
        ids[kept++] = id;
      }
    }
    ids.resize(kept);
  }

  auto prune_range = [this](auto& m, auto first_key, std::int32_t j,
                            sim::Time w, auto time_of) {
    auto it = m.lower_bound(first_key);
    while (it != m.end() && std::get<0>(it->first) == j) {
      if (time_of(it->first) < w) {
        it = m.erase(it);
        note_retention(-1);
      } else {
        ++it;
      }
    }
  };
  prune_range(ix_.flow_by_end,
              std::make_tuple(job, kI32Min, kI32Min, sim::kTimeMin), job,
              watermark,
              [](const auto& k) { return std::get<3>(k); });
  prune_range(ix_.compute_by_end,
              std::make_tuple(job, kI32Min, sim::kTimeMin), job, watermark,
              [](const auto& k) { return std::get<2>(k); });
  prune_range(ix_.agg_by_end, std::make_tuple(job, kI32Min, sim::kTimeMin),
              job, watermark,
              [](const auto& k) { return std::get<2>(k); });
}

void StreamingAnalyzer::prune_port_records() {
  // Every future egress blame window (enq_idx, deq_idx) comes from a
  // chunk of a still-live flow, so the minimum enqueue index across live
  // flows bounds all of them from below; the ingress lane's windows
  // (arr_idx, del_idx) are bounded by the minimum arrival index the same
  // way. Each lane prunes under its own floor, keeping the per-host
  // delivery records live exactly until the last window that could
  // reference them has finalized. The floors are minima, so the hash
  // order of ix_.flows cannot reach them.
  std::size_t enq_floor = next_idx_;
  std::size_t arr_floor = next_idx_;
  for (const auto& [id, f] : ix_.flows) {
    (void)id;
    if (f.min_enq_idx < enq_floor) enq_floor = f.min_enq_idx;
    if (f.min_arr_idx < arr_floor) arr_floor = f.min_arr_idx;
  }
  auto prune_lanes = [this](std::vector<Lane>& lanes, std::size_t floor_idx) {
    for (Lane& lane : lanes) {
      auto live = std::partition_point(
          lane.recs.begin() + static_cast<std::ptrdiff_t>(lane.head),
          lane.recs.end(),
          [floor_idx](const PortRec& rec) { return rec.idx < floor_idx; });
      auto head = static_cast<std::size_t>(live - lane.recs.begin());
      note_retention(-static_cast<std::ptrdiff_t>(head - lane.head));
      if (head == lane.recs.size()) {
        lane.recs.clear();
        head = 0;
      } else if (head * 2 >= lane.recs.size()) {
        // Each live record moves at most once per halving of its lane:
        // amortized one move per record.
        lane.recs.erase(lane.recs.begin(), live);
        head = 0;
      }
      lane.head = head;
    }
  };
  prune_lanes(deq_lanes_, enq_floor);
  prune_lanes(del_lanes_, arr_floor);
}

RunReport StreamingAnalyzer::report_of(
    std::vector<IterationReport> iterations) const {
  RunReport report;
  report.iterations = std::move(iterations);
  std::sort(report.iterations.begin(), report.iterations.end(),
            [](const IterationReport& a, const IterationReport& b) {
              if (a.job != b.job) return a.job < b.job;
              return a.iteration < b.iteration;
            });
  for (const auto& [job, js] : jobs_) {
    (void)job;
    report.jobs.push_back(js);
  }
  report.health = health_;
  return report;
}

RunReport StreamingAnalyzer::snapshot() const { return report_of(finalized_); }

RunReport StreamingAnalyzer::finish() {
  TLS_CHECK(!finished_, "StreamingAnalyzer::finish() called twice");
  finished_ = true;
  // Armed iterations first, then stragglers whose enters were filtered
  // out (or whose barrier never completed): every released barrier.
  std::vector<std::pair<std::int32_t, std::int64_t>> pending;
  for (const auto& [key, deadline] : ripe_) {
    (void)deadline;
    pending.push_back(key);
  }
  ripe_.clear();
  for (const auto& [key, rels] : ix_.releases) {
    (void)rels;
    if (std::find(pending.begin(), pending.end(), key) == pending.end()) {
      pending.push_back(key);
    }
  }
  std::sort(pending.begin(), pending.end());
  for (const auto& key : pending) finalize(key.first, key.second);
  return report_of(std::move(finalized_));
}

}  // namespace tls::obs
