// Queueing-discipline interface for the simulated egress NIC.
//
// The EgressPort polls its qdisc whenever the link goes idle. A qdisc can
// answer with a chunk to transmit, with "nothing can be sent before time T"
// (rate-limited disciplines such as htb), or with "empty".
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "net/chunk.hpp"
#include "simcore/check.hpp"
#include "simcore/time.hpp"

namespace tls::obs {
class Tracer;
}  // namespace tls::obs

namespace tls::net {

/// Cumulative service counters of a qdisc (or one of its classes/bands),
/// the `tc -s` statistics analog.
struct QdiscStats {
  Bytes bytes_sent{};
  std::uint64_t chunks_sent = 0;
  /// htb only: sends at assured rate (green) vs borrowed (yellow).
  std::uint64_t green_sends = 0;
  std::uint64_t yellow_sends = 0;
  /// Rate-limited stalls reported to the port (kWaitUntil results).
  std::uint64_t overlimits = 0;
};

/// Byte-conservation ledger for qdisc implementations. The disciplines here
/// are lossless, so at any instant
///   enqueued == dequeued + drained + backlog.
/// Implementations update the ledger on every chunk movement (two integer
/// additions on the hot path) and audit the balance with TLS_DCHECK, so a
/// chunk silently lost or double-counted by a refactor aborts Debug and
/// sanitizer runs at the first operation that breaks the books.
struct ByteLedger {
  Bytes enqueued{};
  Bytes dequeued{};
  Bytes drained{};

  bool balanced(Bytes backlog) const {
    return backlog >= Bytes{0} && enqueued == dequeued + drained + backlog;
  }
};

/// Result of a dequeue attempt.
struct DequeueResult {
  enum class Kind { kChunk, kWaitUntil, kIdle };
  Kind kind = Kind::kIdle;
  Chunk chunk{};
  sim::Time retry_at{};

  static DequeueResult idle() { return {}; }
  static DequeueResult wait_until(sim::Time t) {
    DequeueResult r;
    r.kind = Kind::kWaitUntil;
    r.retry_at = t;
    return r;
  }
  static DequeueResult of(const Chunk& c) {
    DequeueResult r;
    r.kind = Kind::kChunk;
    r.chunk = c;
    return r;
  }
};

/// Abstract egress queueing discipline.
///
/// Disciplines are lossless: the flow-transport admission window bounds the
/// backlog instead of tail-drop + retransmission (see DESIGN.md §4).
class Qdisc {
 public:
  virtual ~Qdisc() = default;

  /// Adds a chunk. `chunk.band` has already been set by the classifier.
  virtual void enqueue(const Chunk& chunk) = 0;

  /// Attempts to pick the next chunk to put on the wire at time `now`.
  virtual DequeueResult dequeue(sim::Time now) = 0;

  virtual Bytes backlog_bytes() const = 0;
  virtual std::size_t backlog_chunks() const = 0;

  /// Removes all queued chunks in service order, appending them to `out`.
  /// Used to migrate backlog when the root qdisc is replaced (Linux drops
  /// the backlog on `tc qdisc replace`; a lossless simulation migrates).
  virtual void drain(std::vector<Chunk>& out) = 0;

  /// Whole-qdisc service counters (`tc -s qdisc show` analog).
  virtual const QdiscStats& stats() const = 0;

  /// Human-readable statistics dump, one line per class/band where the
  /// discipline has them.
  virtual std::string stats_text() const = 0;

  /// Discipline name for introspection ("pfifo", "prio", "htb").
  virtual std::string kind() const = 0;

  bool empty() const { return backlog_chunks() == 0; }

  /// Attaches the observability sink and the host this qdisc serves.
  /// Implementations emit discipline-level events (band service, htb
  /// green/yellow, overlimit) through `obs_` when non-null; the EgressPort
  /// propagates this on installation and qdisc replacement.
  void set_obs(obs::Tracer* tracer, HostId host) {
    obs_ = tracer;
    obs_host_ = host;
  }

 protected:
  obs::Tracer* obs_ = nullptr;
  HostId obs_host_ = kNoHost;
};

}  // namespace tls::net
