// htb: hierarchical token bucket, the discipline the paper deploys via tc.
//
// We model the two-level tree the paper uses: one root class at link rate
// and one leaf class per priority level. A leaf is
//   * GREEN  when it has tokens for its assured `rate`,
//   * YELLOW when it is over `rate` but under `ceil` and can borrow from
//     the root (the work-conserving case TensorLights relies on),
//   * RED    when it may not send; the qdisc then reports the earliest
//     time any backlogged leaf becomes eligible.
// Green leaves are served before yellow ones; ties break by class `prio`
// (lower first), then least-recently-served for fairness. Inside a leaf,
// flows share via weighted DRR.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "net/qdisc.hpp"
#include "net/ring.hpp"
#include "net/wdrr.hpp"

namespace tls::net {

/// Static configuration of one htb leaf class.
struct HtbClassConfig {
  /// classid minor (1:minor); must be > 0 and unique in the qdisc.
  std::uint32_t minor = 0;
  /// Assured rate (bytes/sec, > 0).
  Rate rate = mbps(1);
  /// Ceiling rate when borrowing (bytes/sec, >= rate).
  Rate ceil = gbps(10);
  /// Token bucket depths.
  Bytes burst = 64 * kKiB;
  Bytes cburst = 64 * kKiB;
  /// Priority among borrowing classes; 0 is served first.
  int prio = 0;
  /// WDRR quantum for flows inside the class.
  Bytes quantum = 128 * kKiB;
};

class HtbQdisc final : public Qdisc {
 public:
  /// `root_rate` is the total rate the tree may emit (normally the link
  /// rate). Chunks whose band matches no class minor go to `default_minor`
  /// if that class exists, otherwise to the unshaped direct queue (mirrors
  /// htb's `default`/direct-queue behaviour).
  explicit HtbQdisc(Rate root_rate, std::uint32_t default_minor = 0);

  /// Adds a leaf class. Returns false (and changes nothing) when the minor
  /// is 0, duplicated, or the config is invalid (rate <= 0 or ceil < rate).
  bool add_class(const HtbClassConfig& config);

  /// Replaces the configuration of an existing class, keeping its backlog.
  /// Token buckets are reset to full. Returns false when absent/invalid.
  bool change_class(const HtbClassConfig& config);

  /// Removes an *empty* class. Returns false when absent or backlogged.
  bool delete_class(std::uint32_t minor);

  bool has_class(std::uint32_t minor) const { return find(minor) != nullptr; }
  std::optional<HtbClassConfig> class_config(std::uint32_t minor) const;
  std::size_t class_count() const { return classes_.size(); }
  Bytes class_backlog(std::uint32_t minor) const;

  void enqueue(const Chunk& chunk) override;
  DequeueResult dequeue(sim::Time now) override;
  Bytes backlog_bytes() const override;
  std::size_t backlog_chunks() const override { return backlog_chunks_; }
  void drain(std::vector<Chunk>& out) override;

 private:
  struct LeafClass {
    HtbClassConfig cfg;
    WdrrBand queue;
    double tokens = 0;   // bytes of assured-rate credit
    double ctokens = 0;  // bytes of ceil-rate credit
    sim::Time last_refill{};
    std::uint64_t last_served = 0;

    explicit LeafClass(const HtbClassConfig& c)
        : cfg(c), queue(c.quantum), tokens(to_double(c.burst)),
          ctokens(to_double(c.cburst)) {}
  };

  enum class Mode { kGreen, kYellow, kRed };

  /// The class with `minor`, or nullptr.
  LeafClass* find(std::uint32_t minor);
  const LeafClass* find(std::uint32_t minor) const;

  void refill(LeafClass& leaf, sim::Time now) const;
  void refill_root(sim::Time now);
  /// htb lets buckets go negative by up to one packet: a class may send
  /// while its bucket is >= 0 and the charge can overdraw it, so classes
  /// stay schedulable regardless of the chunk-size/burst ratio.
  Mode mode_of(const LeafClass& leaf) const;
  /// Seconds until `leaf` becomes eligible again (buckets back to >= 0).
  double eligible_in(const LeafClass& leaf) const;

  Rate root_rate_;
  std::uint32_t default_minor_;
  double root_tokens_;
  Bytes root_burst_;
  sim::Time root_last_refill_{};
  std::uint64_t serve_seq_ = 0;

  // Sorted by minor: dequeue scans and breaks ties in minor order.
  std::vector<LeafClass> classes_;
  Ring<Chunk> direct_;  // unclassified, unshaped
  Bytes direct_bytes_{};
  std::size_t backlog_chunks_ = 0;  // direct queue and every class
  ByteLedger ledger_;
};

}  // namespace tls::net
