// Pending-event set for the discrete-event simulator.
//
// A binary min-heap keyed on (time, sequence number). The sequence number
// makes ordering of simultaneous events deterministic (FIFO by scheduling
// order), which in turn makes whole experiments reproducible: the pop
// order is exactly ascending (time, seq).
//
// Callbacks live in a slot table, not in the heap: an EventId names a slot
// plus the slot's generation at scheduling time, and heap entries are
// 24-byte (time, seq, id) keys, so sift moves never move a callback.
// Firing or cancelling an event bumps its slot's generation and frees the
// slot for reuse, so cancel() is a compare and a write, and a cancelled
// entry is recognised as a tombstone (generation mismatch) and discarded
// when it reaches the top of the heap. The table holds one slot per
// pending event at its peak, not one per event ever scheduled.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "simcore/callback.hpp"
#include "simcore/check.hpp"
#include "simcore/time.hpp"

namespace tls::sim {

/// Opaque handle identifying a scheduled event; used for cancellation.
/// Packs the event's slot-table index (low 32 bits) and the slot's
/// generation (high 32 bits); generation 0 is never handed out, so the
/// default-constructed id names no event.
struct EventId {
  std::uint64_t value = 0;
  friend bool operator==(const EventId&, const EventId&) = default;
};

/// Binary-heap queue of timed callbacks with stable ordering and O(1)
/// cancellation.
class EventQueue {
 public:
  /// Move-only, allocation-free callable; captures up to 64 bytes.
  using Callback = InlineCallback;

  /// Internal activity counters; bench_simcore and the obs wiring read
  /// these to publish events/sec and tombstone counts.
  struct Stats {
    std::uint64_t scheduled = 0;
    std::uint64_t cancelled = 0;
    std::uint64_t popped = 0;
    /// Cancelled entries discarded from the top of the heap.
    std::uint64_t tombstones_skipped = 0;
    /// Always 0: the heap has no overflow tier and no calendar window.
    /// Both stay declared only because perfbench's traced run still reads
    /// them for its simcore.overflow_pulls and simcore.window_jumps
    /// metrics; they go when those metrics retire.
    std::uint64_t overflow_pulls = 0;
    std::uint64_t window_jumps = 0;
  };

  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Schedules `cb` at absolute time `at`. Returns a handle usable with
  /// cancel(). Events at equal times fire in scheduling order.
  EventId schedule(Time at, Callback cb);

  /// Cancels a previously scheduled event in O(1). Returns true if the
  /// event was still pending (and is now guaranteed not to fire), false if
  /// it already fired, was already cancelled, or predates clear().
  bool cancel(EventId id);

  /// True when no live events remain.
  bool empty() const { return live_ == 0; }

  /// Number of live (non-cancelled, not-yet-fired) events.
  std::size_t size() const { return live_; }

  /// Time of the earliest live event. Requires !empty().
  Time peek_time();

  /// Removes and returns the earliest live event. Requires !empty().
  /// The returned pair is (time, callback).
  std::pair<Time, Callback> pop();

  /// Removes and returns the earliest live event if it is due at or
  /// before `until`; otherwise (or when empty) returns nullopt and leaves
  /// every pending event in place. Looks at the top of the heap once,
  /// where peek_time() followed by pop() looks twice.
  std::optional<std::pair<Time, Callback>> pop_due(Time until);

  /// Drops everything, firing nothing. EventIds issued before clear()
  /// become stale: cancelling one returns false and can never affect an
  /// event scheduled afterwards.
  void clear();

  const Stats& stats() const { return stats_; }

  /// Storage the queue holds, in entries: the heap's capacity and the
  /// slot table's size. Tests pin the "memory follows the pending set"
  /// invariants through it; it is not an activity counter, so Stats (and
  /// the --metrics export) leave it out.
  struct Footprint {
    std::size_t heap_capacity = 0;
    std::size_t slots = 0;
  };
  Footprint footprint() const;

 private:
  /// Heap key of a pending (or cancelled) event; its callback is in
  /// slot_cb_.
  struct Entry {
    Time at;
    std::uint64_t seq;
    EventId id;
  };
  /// Heap order for std::push_heap / std::pop_heap, which keep the
  /// greatest element on top: "greater" on the strict total order
  /// (at, seq), so the earliest entry is on top. seq is unique, so no
  /// ties.
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      return a.at != b.at ? a.at > b.at : a.seq > b.seq;
    }
  };

  /// Removes the top entry of the heap.
  void pop_top();
  /// Discards tombstones off the top until a live entry is there, and
  /// returns it. Requires !empty().
  const Entry& next_live();
  /// Stores `cb` in a free slot and returns the id naming it.
  EventId take_slot(Callback&& cb);
  bool pending(EventId id) const;
  /// Ends the life of the event in `slot` (fired or cancelled): bumps the
  /// slot's generation, so its id and heap entry go stale, frees the
  /// slot, and destroys whatever callback is still in it.
  void retire(std::uint32_t slot);

  // --- slot table: generation and callback per slot, plus free slots ---
  std::vector<std::uint32_t> slot_gen_;
  std::vector<Callback> slot_cb_;
  std::vector<std::uint32_t> free_slots_;

  /// Min-heap on (at, seq) under Later; holds live entries and the
  /// tombstones not yet discarded.
  std::vector<Entry> heap_;

  std::uint64_t next_seq_ = 1;
  std::size_t live_ = 0;
  Stats stats_;
  // Time of the last popped event; pops must never go backwards or the
  // simulation clock (and therefore every derived metric) is corrupt.
  Time last_pop_time_ = kTimeMin;
};

}  // namespace tls::sim
