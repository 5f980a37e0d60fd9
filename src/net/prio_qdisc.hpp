// prio: strict-priority bands with weighted-DRR service inside each band.
//
// Band 0 drains first; band k is served only when bands 0..k-1 are empty.
// This is the data-plane model TensorLights configures: each DL job's model
// update traffic is filtered into one band, so a high-priority job's burst
// clears the NIC before lower-priority bursts (Figure 4c/4d of the paper).
// With a single band, prio degenerates to fair sharing among flows, which is
// the FIFO *baseline* model for many long-lived TCP flows.
#pragma once

#include <vector>

#include "net/qdisc.hpp"
#include "net/wdrr.hpp"

namespace tls::net {

class PrioQdisc final : public Qdisc {
 public:
  /// `bands` in [1, 16]; Linux prio supports up to 16 bands. `quantum` is
  /// the WDRR base quantum per band.
  explicit PrioQdisc(int bands = 3, Bytes quantum = 128 * kKiB);

  void enqueue(const Chunk& chunk) override;
  DequeueResult dequeue(sim::Time now) override;
  Bytes backlog_bytes() const override;
  std::size_t backlog_chunks() const override;
  void drain(std::vector<Chunk>& out) override;

  int bands() const { return static_cast<int>(bands_.size()); }
  const WdrrBand& band(int i) const { return bands_.at(static_cast<std::size_t>(i)); }

  /// Maximum band count Linux prio accepts.
  static constexpr int kMaxBands = 16;

 private:
  std::vector<WdrrBand> bands_;
  ByteLedger ledger_;
};

}  // namespace tls::net
