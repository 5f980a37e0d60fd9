// Weighted deficit-round-robin over per-flow queues.
//
// This is the intra-band scheduler used by both the prio qdisc and htb leaf
// classes. Weights model the throughput share each TCP flow would obtain
// through a shared queue; the fabric draws a lognormal per-flow noise factor
// so completions inside a burst spread out the way they do on a real NIC.
#pragma once

#include <algorithm>
#include <cstddef>
#include <deque>
#include <optional>
#include <unordered_map>

#include "net/chunk.hpp"
#include "net/ring.hpp"

namespace tls::net {

/// One DRR band: a set of active per-flow FIFO queues served round-robin,
/// each earning `quantum * weight` bytes of deficit per round.
class WdrrBand {
 public:
  /// `quantum` is the base per-round byte allowance for weight-1.0 flows;
  /// it should be at least the common chunk size or DRR degenerates into
  /// multi-round spinning.
  explicit WdrrBand(Bytes quantum = 128 * kKiB);

  // Move-only: the per-flow rings own their storage.
  WdrrBand(WdrrBand&&) = default;
  WdrrBand& operator=(WdrrBand&&) = default;
  WdrrBand(const WdrrBand&) = delete;
  WdrrBand& operator=(const WdrrBand&) = delete;

  void enqueue(const Chunk& chunk);

  /// Serves the next chunk in weighted round-robin order, or nullopt when
  /// the band is empty.
  std::optional<Chunk> dequeue();

  Bytes backlog_bytes() const { return backlog_bytes_; }
  std::size_t backlog_chunks() const { return backlog_chunks_; }
  bool empty() const { return backlog_chunks_ == 0; }

  /// Number of flows currently backlogged in this band.
  std::size_t active_flows() const { return active_.size(); }

  Bytes quantum() const { return quantum_; }

  /// Deficit a flow of `weight` earns per round: quantum * weight, rounded
  /// down and capped at 2^62 bytes so a huge quantum cannot overflow the
  /// deficit. A quantum whose top-up at kMinWeight is 0 would leave a
  /// light flow spinning in dequeue forever, so the constructor rejects it
  /// and configuration surfaces (htb classes) must too.
  static Bytes top_up(Bytes quantum, double weight) {
    return Bytes{static_cast<std::int64_t>(
        std::min(to_double(quantum) * weight, 0x1p62))};
  }

  // Minimum effective weight; guards against pathological starvation and
  // unbounded DRR rounds when a noise draw comes out tiny.
  static constexpr double kMinWeight = 0.05;

 private:
  struct FlowQueue {
    Ring<Chunk> chunks;
    double weight = 1.0;
    Bytes deficit{};
    bool in_round = false;  // currently on the active list
  };

  Bytes quantum_;
  std::unordered_map<FlowId, FlowQueue> flows_;
  std::deque<FlowId> active_;
  Bytes backlog_bytes_{};
  std::size_t backlog_chunks_ = 0;
};

}  // namespace tls::net
