// Reference per-flow and per-class tables for the differential tests in
// table_differential_test.cpp: the node-based WdrrBand and HtbQdisc that
// net::WdrrBand's slot pool and net::HtbQdisc's sorted class vector
// replaced. The WDRR band keeps its flows in a std::unordered_map and its
// round in a std::deque of FlowIds; the htb keeps its classes in a
// std::map and walks every class to count its backlog. The scheduling
// logic is the one src/net ran before the tables changed, so any decision
// the new tables take differently shows up as a different chunk served.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <unordered_map>
#include <vector>

#include "net/htb_qdisc.hpp"
#include "net/qdisc.hpp"
#include "net/ring.hpp"
#include "net/wdrr.hpp"

namespace tls::net::reference {

/// Weighted DRR over a FlowId-keyed hash map of per-flow queues. A flow
/// leaves the map when its queue empties, so its next chunk brings it back
/// at the back of the round with zero deficit and that chunk's weight.
class WdrrBand {
 public:
  explicit WdrrBand(Bytes quantum = 128 * kKiB) : quantum_(quantum) {}

  void enqueue(const Chunk& chunk);
  std::optional<Chunk> dequeue();

  Bytes backlog_bytes() const { return backlog_bytes_; }
  std::size_t backlog_chunks() const { return backlog_chunks_; }
  bool empty() const { return backlog_chunks_ == 0; }
  std::size_t active_flows() const { return active_.size(); }

 private:
  struct FlowQueue {
    Ring<Chunk> chunks;
    double weight = 1.0;
    Bytes deficit{};
    bool in_round = false;
  };

  Bytes quantum_;
  std::unordered_map<FlowId, FlowQueue> flows_;
  std::deque<FlowId> active_;
  Bytes backlog_bytes_{};
  std::size_t backlog_chunks_ = 0;
};

/// htb over a std::map of leaf classes, each a reference::WdrrBand, with
/// the same green/yellow/red selection, tie-breaks and token arithmetic.
class HtbQdisc {
 public:
  explicit HtbQdisc(Rate root_rate, std::uint32_t default_minor = 0);

  bool add_class(const HtbClassConfig& config);
  bool change_class(const HtbClassConfig& config);
  bool delete_class(std::uint32_t minor);

  void enqueue(const Chunk& chunk);
  DequeueResult dequeue(sim::Time now);
  void drain(std::vector<Chunk>& out);
  Bytes backlog_bytes() const;
  std::size_t backlog_chunks() const;

 private:
  struct LeafClass {
    HtbClassConfig cfg;
    WdrrBand queue;
    double tokens = 0;
    double ctokens = 0;
    sim::Time last_refill{};
    std::uint64_t last_served = 0;

    explicit LeafClass(const HtbClassConfig& c)
        : cfg(c), queue(c.quantum), tokens(to_double(c.burst)),
          ctokens(to_double(c.cburst)) {}
  };

  enum class Mode { kGreen, kYellow, kRed };

  void refill(LeafClass& leaf, sim::Time now) const;
  void refill_root(sim::Time now);
  Mode mode_of(const LeafClass& leaf) const;
  double eligible_in(const LeafClass& leaf) const;

  Rate root_rate_;
  std::uint32_t default_minor_;
  double root_tokens_;
  Bytes root_burst_;
  sim::Time root_last_refill_{};
  std::uint64_t serve_seq_ = 0;
  std::map<std::uint32_t, LeafClass> classes_;
  Ring<Chunk> direct_;
  Bytes direct_bytes_{};
};

}  // namespace tls::net::reference
