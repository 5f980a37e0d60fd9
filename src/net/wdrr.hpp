// Weighted deficit-round-robin over per-flow queues.
//
// This is the intra-band scheduler used by both the prio qdisc and htb leaf
// classes. Weights model the throughput share each TCP flow would obtain
// through a shared queue; the fabric draws a lognormal per-flow noise factor
// so completions inside a burst spread out the way they do on a real NIC.
//
// Per-flow state allocates nothing in steady state: flow queues live in a
// pool of slots whose rings keep their storage from burst to burst, the
// round is a ring of slot indices, and a flow finds its slot through an
// open-addressing index keyed by FlowId.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "net/chunk.hpp"
#include "simcore/ring.hpp"

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
  std::size_t active_flows() const { return round_.size(); }

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
  /// A backlogged flow's queue. When the queue empties, the flow leaves the
  /// round and its slot goes back to the free list, ring storage and all.
  struct FlowQueue {
    sim::Ring<Chunk> chunks;
    FlowId flow = 0;
    Bytes top_up{};  // per-round deficit, fixed while the flow is backlogged
    Bytes deficit{};
  };

  /// One index entry: a backlogged flow and its slot, or kNoSlot if free.
  struct IndexEntry {
    FlowId flow = 0;
    std::uint32_t slot = kNoSlot;
  };
  static constexpr std::uint32_t kNoSlot = UINT32_MAX;

  /// The slot of the chunk's flow. A flow that is not backlogged takes a
  /// free slot, with zero deficit, the chunk's weight and a place at the
  /// back of the round.
  std::uint32_t slot_for(const Chunk& chunk);
  /// Where `flow` sits in the index, or the free entry its probe ends at.
  std::size_t probe(FlowId flow) const;
  std::size_t home(FlowId flow) const {
    return static_cast<std::size_t>((flow * 0x9E3779B97F4A7C15ull) >>
                                    index_shift_);
  }
  void grow_index();
  void unindex(FlowId flow);

  Bytes quantum_;
  std::vector<FlowQueue> slots_;
  std::vector<std::uint32_t> free_slots_;
  sim::Ring<std::uint32_t> round_;  // backlogged slots, in service order
  // Linear probing over a power-of-two table at most half full, keyed by a
  // multiplicative hash's top bits; deletion shifts later entries back.
  std::vector<IndexEntry> index_;
  unsigned index_shift_ = 64;
  Bytes backlog_bytes_{};
  std::size_t backlog_chunks_ = 0;
};

}  // namespace tls::net
