// pfifo: the Linux default single-band FIFO queue.
//
// Chunks are served strictly in arrival order regardless of flow or band.
// Combined with the transport's delivery-clocked admission window this
// approximates how concurrent TCP flows interleave through the default
// qdisc. Lossless (no tail drop); see DESIGN.md §4.
#pragma once

#include "net/qdisc.hpp"
#include "net/ring.hpp"

namespace tls::net {

class PfifoQdisc final : public Qdisc {
 public:
  PfifoQdisc() = default;

  void enqueue(const Chunk& chunk) override;
  DequeueResult dequeue(sim::Time now) override;
  Bytes backlog_bytes() const override { return backlog_bytes_; }
  std::size_t backlog_chunks() const override { return queue_.size(); }
  void drain(std::vector<Chunk>& out) override;

 private:
  Ring<Chunk> queue_;
  Bytes backlog_bytes_{};
  ByteLedger ledger_;
};

}  // namespace tls::net
