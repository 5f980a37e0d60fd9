// Host NIC ports: the egress side schedules through a pluggable qdisc, the
// ingress side is a plain FIFO drain (receive fan-in contention).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "net/classifier.hpp"
#include "net/qdisc.hpp"
#include "net/ring.hpp"
#include "simcore/simulator.hpp"

namespace tls::net {

/// Cumulative byte/chunk counters for one direction of a port; the ifstat
/// analog reads these.
struct PortCounters {
  Bytes bytes{};
  std::uint64_t chunks = 0;
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

  /// If the link is idle, polls the qdisc once and puts the chunk it
  /// returns on the wire, or re-arms the poll when a shaped qdisc must
  /// wait. The port's only data path; safe to call any time (the tc
  /// applier calls this after reconfiguration).
  void kick();

  /// Declares which host this port serves (trace track identity) and
  /// propagates the simulator's tracer into the installed qdisc. Called by
  /// the Fabric at wiring time; a port left unwired traces as host -1.
  void set_host(HostId host);
  HostId host() const { return host_; }

  /// Always 0: the port has one data path, a qdisc poll per chunk. Kept
  /// only because perfbench/traced_main.cpp still reads them.
  std::uint64_t ff_promotions() const { return 0; }
  std::uint64_t ff_polls() const { return 0; }

 private:
  void finish_transmit(const Chunk& chunk);

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
  // Byte-conservation bookkeeping: everything submitted is either already
  // transmitted (counters_.bytes), in flight on the wire, or still queued
  // in the qdisc.
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
  /// A chunk with its arrival instant, from which the fan-in wait and
  /// residence trace fields derive.
  struct Arrival {
    Chunk chunk;
    sim::Time at{};
  };

  /// FIFO of waiting chunks.
  Ring<Arrival> queue_;
  Bytes backlog_bytes_{};
  bool busy_ = false;
  /// The chunk in service while busy_, and the time it waited behind
  /// earlier chunks. The port serves one chunk at a time, so these live
  /// here rather than in the completion event's capture, which then fits
  /// the inline callback buffer.
  Arrival serving_{};
  sim::Time serving_wait_{};
  PortCounters counters_;
};

}  // namespace tls::net
