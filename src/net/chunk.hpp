// Flow and chunk descriptors shared across the network substrate.
//
// A "flow" is one application message (e.g. a model update to one worker)
// and a "chunk" is the unit the NIC schedules — a fixed-size segment of a
// flow, standing in for a TSO burst of packets. Scheduling at chunk
// granularity is what lets the simulator reproduce FIFO-vs-priority
// interleaving effects without paying for per-packet events.
#pragma once

#include <cstdint>
#include <string>

#include "net/units.hpp"
#include "simcore/time.hpp"

namespace tls::net {

/// Application-level meaning of a flow; used for instrumentation and
/// (optionally) by classifier rules.
enum class FlowKind : std::uint8_t {
  kModelUpdate,     ///< PS -> worker parameter broadcast leg.
  kGradientUpdate,  ///< worker -> PS gradient push leg.
  kControl,         ///< small RPC-ish traffic.
  kBulk,            ///< anything else (background load, tests).
};

const char* to_string(FlowKind kind);

/// Immutable description of a transfer, fixed at start_flow() time.
struct FlowSpec {
  HostId src = kNoHost;
  HostId dst = kNoHost;
  Bytes bytes{};
  /// TCP-ish endpoint ports. In the PS architecture the PS port is stable
  /// for the job's lifetime, which is exactly what tc filters match on.
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  /// Owning job, or -1 for non-job traffic.
  std::int32_t job_id = -1;
  FlowKind kind = FlowKind::kBulk;
  /// Synchronous-barrier iteration this transfer serves (-1 = startup or
  /// non-barrier traffic). Purely observational: stamped by the workload
  /// onto flow/chunk trace events so obs::analysis can attribute each
  /// chunk to the iteration whose barrier it gates.
  std::int64_t iteration = -1;
  /// Base service weight inside a band (multiplied by the fabric's
  /// per-flow TCP-unfairness noise).
  double weight = 1.0;
};

/// One schedulable segment of a flow. Fields are ordered by size so the
/// struct packs into 56 bytes, `flow_slot` included: a transmit-completion
/// event captures `[this, chunk]`, which must fit EventQueue::Callback's
/// 64-byte buffer.
struct Chunk {
  FlowId flow = 0;
  Bytes size{};
  /// Service weight inherited from the flow (with noise applied).
  double weight = 1.0;
  /// Simulation time the chunk entered the egress qdisc (stamped by
  /// EgressPort::submit); queue-wait and HOL-blocking metrics derive from
  /// dequeue-time minus this.
  sim::Time enqueued_at{};
  std::uint32_t index = 0;
  /// Band/class assigned by the egress classifier at admission time.
  BandId band{0};
  /// Destination host, denormalized for the egress->ingress handoff.
  HostId dst = kNoHost;
  /// Owning job, denormalized from the flow spec for trace attribution
  /// (-1 = background/non-job traffic).
  std::int32_t job = -1;
  /// The admitting Fabric's slot for the flow, so a delivery finds the
  /// flow's state without a lookup. Only that Fabric reads it; `flow`
  /// stays the flow's identity everywhere else.
  std::uint32_t flow_slot = 0;
  bool last = false;
};
static_assert(sizeof(Chunk) == 56,
              "a [this, chunk] capture must fit the 64-byte event callback");

}  // namespace tls::net
