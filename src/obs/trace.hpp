// tls::obs — structured simulation tracing.
//
// A Tracer is the per-simulation observability hub: typed trace events
// (chunk enqueue/dequeue, qdisc band service, htb green/yellow borrowing,
// TLs-RR rotations, barrier enter/release, straggler-lag samples) plus an
// optional metrics Registry the same emission sites feed. Components reach
// it through Simulator::tracer() — a single pointer load — so a run with no
// tracer attached pays one null check per emission site.
//
// Every event the tracer accepts goes, as it is emitted, to each attached
// TraceSink (the streaming trace-CSV writer, the attribution engine). The
// in-memory log is optional (on by default), so an owner whose consumers
// are all sinks holds no memory that grows with trace length.
//
// Determinism contract (DESIGN.md "Observability"): every event is stamped
// with *simulation* time passed in by the emitter, events are delivered in
// emission order by the single-threaded event loop, and the exporters
// format integers only — so trace files are byte-identical across repeated
// seeded runs and across serial vs parallel (tls::runtime) execution.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

// Layer note: obs sits below net in the module DAG, but the emission-site
// vocabulary (HostId, BandId, Bytes) lives in net/units.hpp. tools/layers.txt
// grants obs this one header file-scoped; the layer checker still verifies
// the file-level include graph stays acyclic.
#include "net/units.hpp"
#include "simcore/time.hpp"

namespace tls::obs {

class Registry;

/// Event categories, usable as a bitmask filter (--trace-filter).
enum class Cat : std::uint32_t {
  kChunk = 1u << 0,      ///< chunk enqueue/dequeue at a host egress NIC
  kQdisc = 1u << 1,      ///< discipline-level band service decisions
  kHtb = 1u << 2,        ///< htb green/yellow sends and overlimit stalls
  kRotation = 1u << 3,   ///< TLs-RR rotations and per-job band assignment
  kBarrier = 1u << 4,    ///< synchronous-barrier enter/release spans
  kStraggler = 1u << 5,  ///< per-iteration straggler-lag samples
  kSample = 1u << 6,     ///< periodic gauge samples (queue depth, lag)
  kFlow = 1u << 7,       ///< application flow start/end (causal linkage)
  kIngress = 1u << 8,    ///< chunk arrive/deliver at a host ingress NIC
  kCompute = 1u << 9,    ///< worker compute steps and PS aggregation spans
};

/// Every category enabled.
inline constexpr std::uint32_t kAllCats = 0x3ff;

/// The categories obs::analysis needs to reconstruct critical paths and
/// blame matrices (chunk, barrier, flow, ingress, compute).
inline constexpr std::uint32_t kAnalysisCats =
    static_cast<std::uint32_t>(Cat::kChunk) |
    static_cast<std::uint32_t>(Cat::kBarrier) |
    static_cast<std::uint32_t>(Cat::kFlow) |
    static_cast<std::uint32_t>(Cat::kIngress) |
    static_cast<std::uint32_t>(Cat::kCompute);

/// Number of defined categories (== popcount(kAllCats)).
inline constexpr int kNumCats = 10;

/// Index of a category's bit in [0, kNumCats); kNumCats - 1 for unknown
/// bits so malformed inputs stay in range.
int cat_index(Cat cat);

/// Stable lower-case name of a category ("chunk", "htb", ...).
const char* to_string(Cat cat);

/// The category named `name` (the inverse of to_string); false when no
/// category has that name.
bool cat_from_string(std::string_view name, Cat* out);

/// Parses a category filter: comma-separated names, "all", or "none".
/// Returns false and sets *error on an unknown name.
bool parse_categories(const std::string& text, std::uint32_t* mask,
                      std::string* error);

/// Capture-completeness record for one trace: how many events the tracer
/// refused to accept, split by why (the max_events cap vs deliberate
/// sampling) and by category. It travels with the trace — the trace-CSV
/// writer appends it as `#health` trailer comments and the reader restores
/// it — so offline attribution can warn that it ran on an incomplete log
/// instead of silently passing a truncated trace as a complete one.
struct TraceHealth {
  std::uint64_t dropped_total = 0;      ///< events past the max_events cap
  std::uint64_t sampled_out_total = 0;  ///< events excluded by sampling
  std::uint64_t dropped_by_cat[kNumCats] = {};
  std::uint64_t sampled_out_by_cat[kNumCats] = {};

  /// True when every emitted event was accepted.
  bool complete() const {
    return dropped_total == 0 && sampled_out_total == 0;
  }
};

/// Parses a sampling spec: comma-separated `cat=N` pairs ("qdisc=16,htb=8"),
/// keeping one event in every N of that category. Returns false and sets
/// *error on an unknown category or an N that is not a whole decimal in
/// [1, 2^32 - 1]. `out` must have kNumCats slots; unmentioned categories
/// are left untouched.
bool parse_sampling(const std::string& text, std::uint32_t* out,
                    std::string* error);

/// What happened. Order is part of the trace-CSV schema; append only.
enum class EventKind : std::uint8_t {
  kChunkEnqueue = 0,   ///< chunk admitted to an egress qdisc
  kChunkDequeue = 1,   ///< chunk picked for the wire (a = queue wait ns)
  kBandService = 2,    ///< discipline served `band` (prio/pfifo)
  kHtbGreen = 3,       ///< htb sent at assured rate
  kHtbYellow = 4,      ///< htb sent by borrowing from the root (yellow)
  kOverlimit = 5,      ///< rate limiter stalled the port (a = retry time ns)
  kRotation = 6,       ///< TLs-RR rotation tick (a = rotation offset)
  kBandAssign = 7,     ///< controller steered `job` into `band` on `host`
  kBarrierEnter = 8,   ///< worker (a) entered the barrier (b = iteration)
  kBarrierRelease = 9, ///< worker (a) exited; dur = wait (b = iteration)
  kStragglerLag = 10,  ///< iteration (a) wait spread max-min (b = lag ns)
  kGaugeSample = 11,   ///< periodic sample (a = value), named via band/b
  // Causal-attribution events (obs::analysis). For flow events `band`
  // carries the FlowKind ordinal — flows have no band; chunks do.
  kFlowStart = 12,      ///< flow admitted (host = src, a = dst, b = iteration)
  kFlowEnd = 13,        ///< last byte delivered (dur = flow completion time)
  kIngressArrive = 14,  ///< chunk reached the destination ingress queue
  kIngressDeliver = 15, ///< chunk delivered (a = fan-in wait, dur = residence)
  kWorkerCompute = 16,  ///< local step span (a = worker, b = iteration)
  kPsAggregate = 17,    ///< PS aggregation span (a = shard, b = iteration)
};

/// Number of defined event kinds (the last ordinal plus one).
inline constexpr std::size_t kNumEventKinds =
    static_cast<std::size_t>(EventKind::kPsAggregate) + 1;

/// One fixed-size trace record. Field meaning depends on `kind`; `a` and
/// `b` are kind-specific payloads documented on EventKind. The record is
/// deliberately flat integers (not strong types): it is the serialization
/// boundary — rows round-trip through trace CSVs where host/band/bytes are
/// plain columns, and `a`/`b` are payload slots whose unit depends on the
/// kind. Tracer's emission methods take the strong types and flatten here.
struct TraceEvent {
  sim::Time at{};
  EventKind kind = EventKind::kChunkEnqueue;
  Cat cat = Cat::kChunk;
  std::int32_t host = -1;
  std::int32_t job = -1;
  std::int32_t band = -1;
  std::int64_t flow = 0;
  std::int64_t bytes = 0;
  std::int64_t a = 0;
  std::int64_t b = 0;
  sim::Time dur{};
};

/// Consumer of a tracer's live event stream (Tracer::add_sink).
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  /// Receives one accepted event; called in emission order.
  virtual void on_event(const TraceEvent& e) = 0;
};

/// Per-simulation observability hub: typed emission methods behind a
/// category mask, capture sampling and an event cap, delivering each
/// accepted event to the attached sinks and (unless turned off) an
/// append-only in-memory log, plus an optional metrics Registry fed by the
/// same methods. Single-threaded by contract, like everything else inside
/// one simulation.
class Tracer {
 public:
  explicit Tracer(std::uint32_t categories = kAllCats) : mask_(categories) {}

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// True when `cat` events are being recorded.
  bool enabled(Cat cat) const {
    return (mask_ & static_cast<std::uint32_t>(cat)) != 0;
  }
  /// True when any emission site has work to do (events or metrics).
  bool active() const { return mask_ != 0 || registry_ != nullptr; }

  /// Attaches a metrics registry; emission sites then update counters and
  /// histograms even for categories filtered out of the event log.
  void set_registry(Registry* registry) { registry_ = registry; }
  Registry* registry() const { return registry_; }

  /// Caps the accepted events (0 = unlimited). Events past the cap reach
  /// neither the log nor any sink; they are counted in dropped(), so a
  /// runaway trace degrades instead of exhausting memory.
  void set_max_events(std::size_t cap) { max_events_ = cap; }
  std::uint64_t dropped() const { return health_.dropped_total; }

  /// Per-category sampling: keep one event in every `n` of category `cat`
  /// (n <= 1 disables). The kAnalysisCats categories are always kept —
  /// the critical-chain events must stay integer-exact for attribution —
  /// so requests for them are clamped to 1.
  void set_sample_every(Cat cat, std::uint32_t n);

  /// Capture-health snapshot: cap drops and sampling exclusions, per cat.
  const TraceHealth& health() const { return health_; }

  /// Delivers every event accepted from now on to `sink`, in emission
  /// order, after the sinks attached before it. Not owned; it must outlive
  /// the last emission.
  void add_sink(TraceSink* sink) { sinks_.push_back(sink); }

  /// Whether accepted events are also appended to events() (the default).
  /// An owner whose consumers are all sinks turns this off, so the tracer
  /// holds no per-event memory.
  void set_retain_events(bool retain) { retain_ = retain; }

  /// The in-memory log: every accepted event while retention is on.
  const std::vector<TraceEvent>& events() const { return events_; }
  /// Events accepted so far (past mask, sampling and cap), retained or not.
  std::size_t size() const { return accepted_; }

  // --- typed emission sites (hot path: check enabled() before calling) ---

  /// Chunk admission/service at a host egress qdisc. `job` is the owning
  /// job (-1 for background traffic) and `index` the chunk's position in
  /// its flow — together they give the analysis layer an exact chunk
  /// identity ((flow, index)) and a "who delayed whom" job axis.
  void chunk_enqueue(sim::Time at, net::HostId host, std::int32_t job,
                     net::BandId band, std::int64_t flow, std::int64_t index,
                     net::Bytes bytes);
  void chunk_dequeue(sim::Time at, net::HostId host, std::int32_t job,
                     net::BandId band, std::int64_t flow, std::int64_t index,
                     net::Bytes bytes, sim::Time queue_wait);
  void band_service(sim::Time at, net::HostId host, net::BandId band,
                    net::Bytes bytes);
  void htb_send(sim::Time at, net::HostId host, net::BandId band,
                net::Bytes bytes, bool borrowed);
  void overlimit(sim::Time at, net::HostId host, sim::Time retry_at);
  void rotation(sim::Time at, std::int64_t offset);
  void band_assign(sim::Time at, net::HostId host, std::int32_t job,
                   net::BandId band);
  void barrier_enter(sim::Time at, std::int32_t job, std::int32_t worker,
                     std::int64_t iteration);
  void barrier_release(sim::Time at, std::int32_t job, std::int32_t worker,
                       std::int64_t iteration, sim::Time wait);
  /// Flow lifecycle, the causal spine linking chunks to jobs/iterations.
  /// `kind_ordinal` is the net::FlowKind value; `iteration` tags which
  /// synchronous barrier the transfer serves (-1 = startup/non-barrier).
  void flow_start(sim::Time at, net::HostId src, net::HostId dst,
                  std::int32_t job, std::int32_t kind_ordinal,
                  std::int64_t flow, net::Bytes bytes, std::int64_t iteration);
  void flow_end(sim::Time at, net::HostId src, net::HostId dst,
                std::int32_t job, std::int32_t kind_ordinal,
                std::int64_t flow, net::Bytes bytes, std::int64_t iteration,
                sim::Time elapsed);
  /// Receive-side fan-in: chunk joins the destination ingress FIFO, and
  /// its delivery (`wait` = time queued behind other arrivals, `residence`
  /// = wait + receive serialization).
  void ingress_arrive(sim::Time at, net::HostId host, std::int32_t job,
                      net::BandId band, std::int64_t flow, std::int64_t index,
                      net::Bytes bytes);
  void ingress_deliver(sim::Time at, net::HostId host, std::int32_t job,
                       net::BandId band, std::int64_t flow,
                       std::int64_t index, net::Bytes bytes, sim::Time wait,
                       sim::Time residence);
  /// Compute spans, emitted at span start with the full duration (the
  /// simulator schedules compute atomically, so the end is already known).
  void worker_compute(sim::Time at, net::HostId host, std::int32_t job,
                      std::int32_t worker, std::int64_t iteration,
                      sim::Time duration);
  void ps_aggregate(sim::Time at, net::HostId host, std::int32_t job,
                    std::int32_t shard, std::int64_t iteration,
                    sim::Time duration);
  void straggler_lag(sim::Time at, std::int32_t job, std::int64_t iteration,
                     sim::Time lag);
  /// Periodic gauge sample; also recorded as a registry timeseries point
  /// under `name` when a registry is attached.
  void gauge_sample(sim::Time at, const std::string& name, net::HostId host,
                    std::int32_t job, double value);

 private:
  void push(const TraceEvent& e);

  std::uint32_t mask_;
  Registry* registry_ = nullptr;
  std::size_t max_events_ = 0;
  std::uint32_t sample_every_[kNumCats] = {1, 1, 1, 1, 1, 1, 1, 1, 1, 1};
  std::uint64_t sample_seen_[kNumCats] = {};
  TraceHealth health_;
  std::size_t accepted_ = 0;
  bool retain_ = true;
  std::vector<TraceSink*> sinks_;
  std::vector<TraceEvent> events_;
};

/// Derives a per-run artifact path by inserting `.label` before the final
/// extension ("out/t.json", "seed3" -> "out/t.seed3.json"; '/' in labels
/// becomes '-' so sweep labels like "p3/tls-rr" stay single files).
std::string per_run_path(const std::string& base, const std::string& label);

}  // namespace tls::obs

// Emission-site guard: true when a tracer is attached and has work to do.
#define TLS_OBS_ACTIVE(tracer) ((tracer) != nullptr && (tracer)->active())
