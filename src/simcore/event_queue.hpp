// Pending-event set for the discrete-event simulator.
//
// A binary min-heap keyed on (time, sequence number). The sequence number
// makes ordering of simultaneous events deterministic (FIFO by scheduling
// order), which in turn makes whole experiments reproducible: the pop
// order is exactly ascending (time, seq).
//
// Callbacks live in a slot table, not in the heap. A heap entry is a
// 16-byte (time, key) pair whose key is the event's sequence number above
// its slot index (seq << 24 | slot), so sift moves never move a callback
// and (time, key) sorts exactly like (time, seq). The key is also the
// EventId. A slot holds the key of its live event (0 when free) and the
// callback, built in place by schedule() and moved out once, by pop_due().
// Firing or cancelling an event zeroes its slot's key and frees the slot
// for reuse, so cancel() is a compare and a write, and a cancelled entry is
// recognised as a tombstone (key mismatch) and discarded when it reaches
// the top of the heap. Sequence numbers are never reused, so a stale id
// never matches a later event in the same slot. The table holds one slot
// per pending event at its peak, not one per event ever scheduled.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "simcore/callback.hpp"
#include "simcore/check.hpp"
#include "simcore/time.hpp"

namespace tls::sim {

/// Opaque handle identifying a scheduled event; used for cancellation.
/// Sequence numbers start at 1 and are never reused, so the
/// default-constructed id names no event and an id never names a later
/// event.
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

  /// Schedules `f` at absolute time `at`, building its callback in a slot.
  /// Returns a handle usable with cancel(). Events at equal times fire in
  /// scheduling order. If copying `f` throws, nothing is scheduled.
  template <typename F>
    requires requires(Callback& cb, F&& f) { cb.emplace(std::forward<F>(f)); }
  EventId schedule(Time at, F&& f) {
    std::uint32_t slot;
    if (free_slots_.empty()) {
      slot = add_slot();
    } else {
      slot = free_slots_.back();
      free_slots_.pop_back();
    }
    try {
      slot_cb_[slot].emplace(std::forward<F>(f));
    } catch (...) {
      free_slots_.push_back(slot);  // still empty, so free again
      throw;
    }
    return push(at, slot);
  }

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

  /// If the earliest live event is due at or before `until`, removes it,
  /// moves its callback into `cb` (which must be empty), stores its time
  /// in `at` and returns true. Otherwise (or when empty) returns false and
  /// leaves every pending event in place.
  bool pop_due(Time until, Time& at, Callback& cb);

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
  /// Low bits of a key: the slot index. The table stops one short of
  /// 2^24 slots, and sequence numbers stop at 2^40, so a key never wraps.
  static constexpr std::uint32_t kSlotBits = 24;
  static constexpr std::uint64_t kSlotMask =
      (std::uint64_t{1} << kSlotBits) - 1;
  static constexpr std::uint64_t kSeqEnd = std::uint64_t{1} << 40;

  /// Heap key of a pending (or cancelled) event; its callback is in
  /// slot_cb_[key & kSlotMask].
  struct Entry {
    Time at;
    std::uint64_t key;
  };
  /// Heap order for std::push_heap / std::pop_heap, which keep the
  /// greatest element on top: "greater" on the strict total order
  /// (at, key), so the earliest entry is on top. Keys are unique, so no
  /// ties.
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      return a.at != b.at ? a.at > b.at : a.key > b.key;
    }
  };

  static std::uint32_t slot_of(std::uint64_t key) {
    return static_cast<std::uint32_t>(key & kSlotMask);
  }

  /// Appends an empty slot to the table and returns its index.
  std::uint32_t add_slot();
  /// Makes the callback just built in the taken slot `slot` a pending
  /// event at `at`.
  EventId push(Time at, std::uint32_t slot);
  /// Removes the top entry of the heap.
  void pop_top();
  /// Discards tombstones off the top until a live entry is there, and
  /// returns it. Requires !empty().
  const Entry& next_live();
  /// Frees `slot` (its event fired or was cancelled) and moves its
  /// callback into the empty `into`. The caller runs or destroys it once
  /// the queue is consistent: a capture may re-enter the queue.
  void release(std::uint32_t slot, Callback& into);

  // --- slot table: the live event's key (0 when free) and the callback per
  // slot, plus free slots ---
  std::vector<std::uint64_t> slot_key_;
  std::vector<Callback> slot_cb_;
  std::vector<std::uint32_t> free_slots_;

  /// Min-heap on (at, key) under Later; holds live entries and the
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
