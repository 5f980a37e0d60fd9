// Host NIC ports: the egress side schedules through a pluggable qdisc, the
// ingress side is a plain FIFO drain (receive fan-in contention).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "net/chunk_ring.hpp"
#include "net/classifier.hpp"
#include "net/qdisc.hpp"
#include "simcore/simulator.hpp"

namespace tls::net {

/// Cumulative byte/chunk counters for one direction of a port; the ifstat
/// analog reads these.
struct PortCounters {
  Bytes bytes{};
  std::uint64_t chunks = 0;
  Bytes peak_backlog_bytes{};
};

/// Transmit side of a host NIC. Owns the classifier and qdisc; serializes
/// one chunk at a time at the line rate and hands completed chunks to the
/// fabric for delivery.
class EgressPort {
 public:
  using TransmitDone = std::function<void(const Chunk&)>;

  EgressPort(sim::Simulator& simulator, Rate rate, TransmitDone on_transmit);

  EgressPort(const EgressPort&) = delete;
  EgressPort& operator=(const EgressPort&) = delete;

  /// Classifies `spec`, stamps the chunk's band, enqueues, and kicks the
  /// link if idle.
  void submit(Chunk chunk, const FlowSpec& spec);

  /// Replaces the queueing discipline. Backlogged chunks are migrated into
  /// the new qdisc in the old one's service order (Linux would drop them;
  /// our transfers are lossless). Migrated chunks keep their band stamp —
  /// the new discipline clamps or default-routes unknown bands.
  void set_qdisc(std::unique_ptr<Qdisc> qdisc);

  Qdisc& qdisc() { return *qdisc_; }
  const Qdisc& qdisc() const { return *qdisc_; }
  Classifier& classifier() { return classifier_; }
  const Classifier& classifier() const { return classifier_; }

  Rate rate() const { return rate_; }
  bool busy() const { return busy_; }
  const PortCounters& counters() const { return counters_; }

  /// Re-polls the qdisc if the link is idle; safe to call any time (the tc
  /// applier calls this after reconfiguration).
  void kick();

  /// Declares which host this port serves (trace track identity) and
  /// propagates the simulator's tracer into the installed qdisc. Called by
  /// the Fabric at wiring time; a port left unwired traces as host -1.
  void set_host(HostId host);
  HostId host() const { return host_; }

  /// Fast-forward telemetry: chunks served from the staging lane without a
  /// qdisc poll, vs direct dequeue polls (including idle ones). The hit
  /// rate promotions/(promotions+polls) measures how much of the drain the
  /// port fast-forwarded.
  std::uint64_t ff_promotions() const { return ff_promotions_; }
  std::uint64_t ff_polls() const { return ff_polls_; }
  /// Bytes parked in the staging lane (already dequeued from the qdisc,
  /// not yet on the wire).
  Bytes staged_bytes() const { return staged_bytes_; }

 private:
  // Chunks batch-staged per qdisc pull; bounds how far ahead of the wire
  // the port dequeues, so a qdisc swap never migrates a long staged tail.
  static constexpr std::size_t kStageBatch = 64;

  void finish_transmit(const Chunk& chunk);
  /// Puts `chunk` on the wire now. Single point through which both the
  /// staged fast path and the poll path start a transmission.
  void start_transmit(const Chunk& chunk);
  /// Refills the staging lane from the qdisc when fast-forwarding is safe:
  /// the discipline is fifo-stable and no tracer needs per-chunk dequeue
  /// events at their poll instants.
  void maybe_stage();

  sim::Simulator& sim_;
  HostId host_ = kNoHost;
  Rate rate_;
  TransmitDone on_transmit_;
  std::unique_ptr<Qdisc> qdisc_;
  Classifier classifier_;
  bool busy_ = false;
  bool retry_armed_ = false;
  sim::EventId retry_event_{};
  PortCounters counters_;
  // Fast-forward staging lane: chunks already dequeued from a fifo-stable
  // qdisc in one batch, served in order without further polls. Promotion
  // happens inside kick() exactly where the poll path would schedule, so
  // the event schedule order is identical to poll-per-chunk.
  ChunkRing staged_;
  Bytes staged_bytes_{};
  std::uint64_t ff_promotions_ = 0;
  std::uint64_t ff_polls_ = 0;
  // Byte-conservation bookkeeping: everything submitted is either already
  // transmitted (counters_.bytes), in flight on the wire, staged, or still
  // queued in the qdisc.
  Bytes submitted_bytes_{};
  Bytes in_flight_bytes_{};
};

/// Receive side of a host NIC: FIFO service at line rate, modeling fan-in
/// serialization at the receiver.
class IngressPort {
 public:
  using Delivered = std::function<void(const Chunk&)>;

  IngressPort(sim::Simulator& simulator, Rate rate, Delivered on_delivered);

  IngressPort(const IngressPort&) = delete;
  IngressPort& operator=(const IngressPort&) = delete;

  /// Chunk arrives from the switch; queued behind any chunk in service.
  void arrive(const Chunk& chunk);

  Rate rate() const { return rate_; }
  Bytes backlog_bytes() const { return backlog_bytes_; }
  const PortCounters& counters() const { return counters_; }

  /// Declares which host this port serves (trace track identity). Called
  /// by the Fabric at wiring time; a port left unwired traces as host -1.
  void set_host(HostId host) { host_ = host; }
  HostId host() const { return host_; }

 private:
  void serve_next();
  /// Completes the in-service chunk's delivery and starts the next one.
  void finish_delivery();

  sim::Simulator& sim_;
  HostId host_ = kNoHost;
  Rate rate_;
  Delivered on_delivered_;
  /// FIFO of waiting chunks; the ring's stamp lane records each chunk's
  /// arrival instant (fan-in wait and residence trace fields derive from
  /// it), replacing a second parallel deque.
  ChunkRing queue_;
  Bytes backlog_bytes_{};
  bool busy_ = false;
  /// The chunk in service while busy_, with its arrival instant and the
  /// time it waited behind earlier chunks. The port serves one chunk at a
  /// time, so these live here rather than in the completion event's
  /// capture, which then fits the inline callback buffer.
  Chunk serving_{};
  sim::Time serving_arrived_at_{};
  sim::Time serving_wait_{};
  PortCounters counters_;
};

}  // namespace tls::net
