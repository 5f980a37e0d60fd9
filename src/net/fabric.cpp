#include "net/fabric.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "obs/trace.hpp"
#include "simcore/check.hpp"

namespace tls::net {

Fabric::Fabric(sim::Simulator& simulator, const FabricConfig& config)
    : sim_(simulator), config_(config), rng_(simulator.rng().fork("fabric")) {
  if (config_.num_hosts < 1) throw std::invalid_argument("num_hosts < 1");
  if (config_.link_rate <= Rate{0.0}) throw std::invalid_argument("link_rate <= 0");
  if (config_.chunk_size <= Bytes{0}) throw std::invalid_argument("chunk_size <= 0");
  if (config_.flow_window < 1) throw std::invalid_argument("flow_window < 1");
  egress_.reserve(static_cast<std::size_t>(config_.num_hosts));
  ingress_.reserve(static_cast<std::size_t>(config_.num_hosts));
  for (HostId h{0}; h < HostId{config_.num_hosts}; ++h) {
    egress_.push_back(std::make_unique<EgressPort>(
        sim_, config_.link_rate,
        [this, h](const Chunk& c) { on_transmit(h, c); }));
    egress_.back()->set_host(h);
    ingress_.push_back(std::make_unique<IngressPort>(
        sim_, config_.link_rate, [this](const Chunk& c) { on_delivered(c); }));
    ingress_.back()->set_host(h);
  }
}

EgressPort& Fabric::egress(HostId host) {
  return *egress_.at(static_cast<std::size_t>(host.idx()));
}
const EgressPort& Fabric::egress(HostId host) const {
  return *egress_.at(static_cast<std::size_t>(host.idx()));
}
IngressPort& Fabric::ingress(HostId host) {
  return *ingress_.at(static_cast<std::size_t>(host.idx()));
}
const IngressPort& Fabric::ingress(HostId host) const {
  return *ingress_.at(static_cast<std::size_t>(host.idx()));
}

Bytes Fabric::chunk_bytes(const FlowState& flow, std::uint32_t index) const {
  Bytes remaining = flow.wire_bytes -
                    config_.chunk_size * static_cast<std::int64_t>(index);
  return std::min(remaining, config_.chunk_size);
}

FlowId Fabric::start_flow(const FlowSpec& spec, FlowCallback on_complete) {
  HostId hosts_end{config_.num_hosts};
  if (spec.src < HostId{0} || spec.src >= hosts_end ||
      spec.dst < HostId{0} || spec.dst >= hosts_end) {
    throw std::invalid_argument("flow endpoints out of range");
  }
  if (spec.bytes < Bytes{0}) throw std::invalid_argument("negative flow size");

  FlowId id = next_flow_id_++;
  if (TLS_OBS_ACTIVE(sim_.tracer())) {
    sim_.tracer()->flow_start(sim_.now(), spec.src, spec.dst, spec.job_id,
                              static_cast<std::int32_t>(spec.kind),
                              static_cast<std::int64_t>(id), spec.bytes,
                              spec.iteration);
  }
  if (spec.bytes == Bytes{0}) {
    // Degenerate flow: deliver "instantly" but asynchronously, preserving
    // the invariant that callbacks never run inside start_flow. The record
    // is boxed so the capture fits the event callback's inline buffer;
    // this path is rare enough that one allocation does not matter.
    auto rec = std::make_unique<FlowRecord>(
        FlowRecord{id, spec, sim_.now(), sim_.now()});
    if (TLS_OBS_ACTIVE(sim_.tracer())) {
      sim_.tracer()->flow_end(sim_.now(), spec.src, spec.dst, spec.job_id,
                              static_cast<std::int32_t>(spec.kind),
                              static_cast<std::int64_t>(id), spec.bytes,
                              spec.iteration, sim::Time{0});
    }
    sim_.schedule_after(sim::Time{0},
                        [cb = std::move(on_complete), rec = std::move(rec)] {
                          cb(*rec);
                        });
    ++completed_flows_;
    return id;
  }

  std::uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(flows_.size());
    flows_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  FlowState& flow = flows_[slot];
  flow.id = id;
  flow.spec = spec;
  flow.on_complete = std::move(on_complete);
  double noise = config_.tcp_weight_sigma > 0
                     ? rng_.lognormal_median(1.0, config_.tcp_weight_sigma)
                     : 1.0;
  flow.noisy_weight = spec.weight * noise;
  flow.window = std::clamp(
      static_cast<int>(std::lround(config_.flow_window * flow.noisy_weight)),
      1, 4 * config_.flow_window);
  // The scheduler moves wire bytes: payload inflated by transport overhead.
  flow.wire_bytes = std::max(
      Bytes{1},
      Bytes{std::llround(to_double(spec.bytes) * config_.protocol_overhead)});
  flow.chunks_total = static_cast<std::uint32_t>(
      (flow.wire_bytes + config_.chunk_size - Bytes{1}) / config_.chunk_size);
  flow.next_index = 0;
  flow.delivered_chunks = 0;
  flow.start = sim_.now();
  admit(slot);
  return id;
}

void Fabric::admit(std::uint32_t slot) {
  FlowState& flow = flows_[slot];
  while (flow.next_index < flow.chunks_total &&
         static_cast<int>(flow.next_index - flow.delivered_chunks) <
             flow.window) {
    Chunk chunk;
    chunk.flow = flow.id;
    chunk.flow_slot = slot;
    chunk.index = flow.next_index;
    chunk.size = chunk_bytes(flow, flow.next_index);
    chunk.last = (flow.next_index + 1 == flow.chunks_total);
    chunk.weight = flow.noisy_weight;
    chunk.dst = flow.spec.dst;
    chunk.job = flow.spec.job_id;
    ++flow.next_index;
    egress(flow.spec.src).submit(chunk, flow.spec);
  }
}

void Fabric::on_transmit(HostId /*src*/, const Chunk& chunk) {
  // Switch traversal; the switch itself is non-blocking, so the only
  // contention on the receive path is the destination ingress drain.
  sim_.schedule_after(config_.switch_latency,
                      [this, chunk] { ingress(chunk.dst).arrive(chunk); });
}

void Fabric::on_delivered(const Chunk& chunk) {
  TLS_CHECK(chunk.flow_slot < flows_.size() &&
                flows_[chunk.flow_slot].id == chunk.flow,
            "delivered chunk of flow ", chunk.flow, " names slot ",
            chunk.flow_slot, ", which does not hold that flow");
  FlowState& flow = flows_[chunk.flow_slot];
  ++flow.delivered_chunks;
  if (flow.delivered_chunks == flow.chunks_total) {
    FlowRecord rec{chunk.flow, flow.spec, flow.start, sim_.now()};
    FlowCallback cb = std::move(flow.on_complete);
    flow.on_complete = nullptr;
    flow.id = 0;
    free_slots_.push_back(chunk.flow_slot);
    ++completed_flows_;
    if (TLS_OBS_ACTIVE(sim_.tracer())) {
      sim_.tracer()->flow_end(sim_.now(), rec.spec.src, rec.spec.dst,
                              rec.spec.job_id,
                              static_cast<std::int32_t>(rec.spec.kind),
                              static_cast<std::int64_t>(rec.id),
                              rec.spec.bytes, rec.spec.iteration,
                              rec.end - rec.start);
    }
    if (cb) cb(rec);
    return;
  }
  admit(chunk.flow_slot);
}

}  // namespace tls::net
