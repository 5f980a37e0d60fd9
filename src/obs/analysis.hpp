// tls::obs::analysis — straggler root-cause attribution reports.
//
// obs::StreamingAnalyzer (obs/streaming.hpp) consumes a simulation's trace
// event stream — a live Tracer or a trace CSV read back through
// obs/reader.hpp — and builds a RunReport that holds, per job per
// synchronous iteration:
//
//   (a) the critical path of the barrier: starting from the worker with
//       the largest barrier wait, the backward causal chain
//         barrier release <- critical model-update flow <- PS aggregation
//         <- last gradient flow <- straggler compute <- (previous
//         iteration's model flow ...)
//       decomposed into contiguous integer-ns segments — compute (worker
//       step + PS aggregation), host-egress queueing, serialization
//       (wire + switch), receiver fan-in (ingress queue + receive
//       serialization), and `other` (coordination gaps, e.g. transmission
//       gate waits). Segments partition [barrier enter, barrier release]
//       exactly: their lengths always sum to the barrier wait.
//
//   (b) a two-sided contention blame matrix: for every egress-queueing
//       segment on the critical path, the bytes each competing (job, band)
//       drained ahead of the blamed chunk at that host ("egress" side), and
//       for every fan-in segment, the bytes sibling flows got delivered
//       ahead of the critical chunk at the receiving host ("ingress" side).
//       "Ahead" is log-order: a chunk_dequeue (resp. ingress_deliver) event
//       positioned after the blamed chunk's enqueue (resp. arrival) and
//       before its dequeue (resp. delivery) in the trace. The chunk already
//       in service when the victim arrived was dequeued (delivered) earlier
//       in the log, so the non-preempted in-service chunk is naturally
//       excluded on both sides.
//
// This header holds the report types, their renderers, and (c) policy
// diff reports: two runs of the same scenario under different disciplines
// (e.g. FIFO vs TLs-One), aligned per (job, iteration), certifying whether
// priority bands removed the queueing-behind-other-jobs blame for the
// prioritized job.
//
// Everything is integer arithmetic on trace timestamps, iterated in
// deterministic (std::map / log) order, and rendered with fixed integer
// formatting — reports are byte-identical across repeated seeded runs and
// serial-vs-parallel plan runs (the golden-report test pins this).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace tls::obs {

/// What a critical-path segment's time was spent on.
enum class SegmentKind : std::uint8_t {
  kCompute = 0,        ///< worker step or PS aggregation span
  kEgressQueue = 1,    ///< queued in a host egress qdisc
  kSerialization = 2,  ///< on the wire + switch traversal
  kFanIn = 3,          ///< destination ingress queue + receive serialization
  kOther = 4,          ///< coordination gaps (gate waits, unattributed)
};

/// Stable lower-snake name ("compute", "egress_queue", ...).
const char* to_string(SegmentKind kind);

/// One contiguous slice of a barrier's critical path. Segments are emitted
/// in increasing time order and tile [enter, release] with no gaps.
struct PathSegment {
  SegmentKind kind = SegmentKind::kOther;
  sim::Time begin{};
  sim::Time end{};
  /// Host where the time accrued (-1 when not host-specific).
  std::int32_t host = -1;
  /// Flow the segment belongs to (0 for compute/other segments).
  std::int64_t flow = 0;
  /// kFanIn only: instant where the ingress-queue wait ended and receive
  /// serialization began, clamped into [begin, end]. -1 for other kinds.
  sim::Time fan_in_wait_end{-1};
};

/// Which port of the fabric a blame cell was measured at.
enum class BlameSide : std::uint8_t {
  kEgress = 0,   ///< sender's egress qdisc (chunk_dequeue window)
  kIngress = 1,  ///< receiver's ingress port (ingress_deliver window)
};

/// Stable lower-snake name ("egress" / "ingress").
const char* to_string(BlameSide side);

/// Bytes a competing (job, band) moved ahead of the victim job's
/// critical-path chunks at one host — at the sender's egress qdisc
/// (kEgress) or the receiver's ingress port (kIngress).
struct BlameEntry {
  BlameSide side = BlameSide::kEgress;
  std::int32_t host = -1;
  std::int32_t culprit_job = -1;
  std::int32_t culprit_band = -1;
  std::int64_t bytes = 0;
};

/// Attribution for one (job, iteration) barrier.
struct IterationReport {
  std::int32_t job = -1;
  std::int64_t iteration = -1;
  /// Worker with the largest barrier wait; its window is decomposed.
  std::int32_t critical_worker = -1;
  sim::Time enter_at{};
  sim::Time release_at{};
  sim::Time barrier_wait{};
  // Per-kind totals; these five always sum exactly to barrier_wait.
  sim::Time compute_ns{};
  sim::Time egress_queue_ns{};
  sim::Time serialization_ns{};
  sim::Time fan_in_ns{};
  sim::Time other_ns{};
  /// fan_in_ns split at the receiver: ingress-queue wait vs receive
  /// serialization. Always sums exactly to fan_in_ns.
  sim::Time fan_in_wait_ns{};
  sim::Time fan_in_ser_ns{};
  std::vector<PathSegment> segments;  ///< time order, tiling [enter, release]
  std::vector<BlameEntry> blame;      ///< sorted by (side, host, job, band)
};

/// Whole-run rollup for one job.
struct JobSummary {
  std::int32_t job = -1;
  std::int64_t iterations = 0;
  sim::Time total_wait_ns{};
  sim::Time compute_ns{};
  sim::Time egress_queue_ns{};
  sim::Time serialization_ns{};
  sim::Time fan_in_ns{};
  sim::Time other_ns{};
  sim::Time fan_in_wait_ns{};
  sim::Time fan_in_ser_ns{};
  /// Egress-side blame bytes from other jobs vs the job's own traffic.
  std::int64_t cross_job_blame_bytes = 0;
  std::int64_t self_blame_bytes = 0;
  /// Ingress-side (receiver fan-in) blame bytes, split the same way.
  std::int64_t cross_job_ingress_blame_bytes = 0;
  std::int64_t self_ingress_blame_bytes = 0;
};

/// Full attribution report for one run.
struct RunReport {
  std::vector<IterationReport> iterations;  ///< sorted by (job, iteration)
  std::vector<JobSummary> jobs;             ///< sorted by job
  /// Capture completeness of the trace the report was built from. When the
  /// tracer dropped events (max_events cap) the text/JSON renderers emit a
  /// warning — a truncated trace must never pass as a complete one.
  TraceHealth health{};
};

/// Human-readable report (per-iteration table + per-job rollup).
std::string report_text(const RunReport& report);
/// Tidy long CSV: one row per segment total and per blame cell.
std::string report_csv(const RunReport& report);
/// JSON document ("tlsreport-v2" schema), integers only.
std::string report_json(const RunReport& report);

/// One aligned (job, iteration) comparison row. A value of -1 for a wait
/// means that run had no such iteration.
struct DiffRow {
  std::int32_t job = -1;
  std::int64_t iteration = -1;
  sim::Time wait_a{-1};
  sim::Time wait_b{-1};
  std::int64_t cross_blame_a = 0;
  std::int64_t cross_blame_b = 0;
  std::int64_t cross_ingress_blame_a = 0;
  std::int64_t cross_ingress_blame_b = 0;
};

/// Per-job totals of the two runs side by side.
struct JobDiff {
  std::int32_t job = -1;
  sim::Time total_wait_a{};
  sim::Time total_wait_b{};
  std::int64_t cross_blame_a = 0;
  std::int64_t cross_blame_b = 0;
  std::int64_t cross_ingress_blame_a = 0;
  std::int64_t cross_ingress_blame_b = 0;
};

/// Aligned comparison of two runs of the same scenario.
struct DiffReport {
  std::string label_a;
  std::string label_b;
  std::vector<DiffRow> rows;   ///< sorted by (job, iteration)
  std::vector<JobDiff> jobs;   ///< sorted by job
};

DiffReport diff_reports(const RunReport& a, const RunReport& b,
                        const std::string& label_a,
                        const std::string& label_b);

std::string diff_text(const DiffReport& diff);
std::string diff_csv(const DiffReport& diff);
std::string diff_json(const DiffReport& diff);

}  // namespace tls::obs
