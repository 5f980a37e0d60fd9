// Pending-event set for the discrete-event simulator.
//
// A two-tier calendar queue keyed on (time, sequence number). The sequence
// number makes ordering of simultaneous events deterministic (FIFO by
// scheduling order), which in turn makes whole experiments reproducible.
//
// Structure: a flat window of fixed-count, adaptive-width time buckets
// covers the near future; events beyond the window land in a binary-heap
// overflow tier and migrate into buckets when the window re-anchors. Each
// bucket is a sorted vector consumed through a head cursor, so the common
// short-horizon schedule (a transmit completion a few microseconds out)
// is an O(1) append and never touches the heap. The pop order is exactly
// ascending (time, seq) — byte-identical to the binary heap this replaced.
// The consumed prefix of the bucket under the cursor is compacted away
// once it passes half the bucket, so a bucket holds at most about twice
// its pending entries plus a small constant, however many events it has
// already delivered.
//
// Callbacks live in a slot table, not in the calendar: an EventId names a
// slot plus the slot's generation at scheduling time, and calendar entries
// are 24-byte (time, seq, id) keys, so sorts, heap moves and compaction
// never move a callback. Firing or cancelling an event bumps its slot's
// generation and frees the slot for reuse, so cancel() is a compare and a
// write, and a cancelled entry is recognised as a tombstone (generation
// mismatch) and skipped when the consuming cursor reaches it. The table
// holds one slot per pending event at its peak, not one per event ever
// scheduled.
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

/// Calendar queue of timed callbacks with stable ordering and O(1)
/// cancellation.
class EventQueue {
 public:
  /// Move-only, allocation-free callable; captures up to 64 bytes.
  using Callback = InlineCallback;

  /// Internal activity counters; bench_simcore and the obs wiring read
  /// these to publish events/sec and tier behavior.
  struct Stats {
    std::uint64_t scheduled = 0;
    std::uint64_t cancelled = 0;
    std::uint64_t popped = 0;
    /// Cancelled entries physically discarded by the consuming cursor.
    std::uint64_t tombstones_skipped = 0;
    /// Entries migrated overflow-heap -> calendar window.
    std::uint64_t overflow_pulls = 0;
    /// Window re-anchors (calendar exhausted, refilled from overflow).
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
  /// every pending event in place. Locates the event in one cursor walk,
  /// where peek_time() followed by pop() takes two.
  std::optional<std::pair<Time, Callback>> pop_due(Time until);

  /// Drops everything, firing nothing. EventIds issued before clear()
  /// become stale: cancelling one returns false and can never affect an
  /// event scheduled afterwards.
  void clear();

  const Stats& stats() const { return stats_; }

  /// Storage the queue holds, in entries: the largest calendar bucket's
  /// capacity and the slot table's size. Tests pin the
  /// "memory follows the pending set" invariants through it; it is not an
  /// activity counter, so Stats (and the --metrics export) leave it out.
  struct Footprint {
    std::size_t max_bucket_capacity = 0;
    std::size_t slots = 0;
  };
  Footprint footprint() const;

 private:
  /// Calendar key of a pending (or cancelled) event; its callback is in
  /// slot_cb_.
  struct Entry {
    Time at;
    std::uint64_t seq;
    EventId id;
  };
  /// Strict total order: (at, seq). seq is unique, so no ties.
  static bool entry_less(const Entry& a, const Entry& b) {
    return a.at != b.at ? a.at < b.at : a.seq < b.seq;
  }

  /// One calendar bucket: entries in [head, v.size()) pending, slots
  /// before head consumed. Out-of-order arrivals only set `dirty`; the
  /// pending range is sorted by (at, seq) lazily when the consuming
  /// cursor first reaches the bucket, so a burst of non-monotone
  /// schedules into one bucket costs one O(k log k) sort instead of k
  /// O(k) sorted inserts.
  struct Bucket {
    std::vector<Entry> v;
    std::size_t head = 0;
    bool dirty = false;
  };

  static constexpr std::size_t kBuckets = 512;  // power of two
  static constexpr std::size_t kBitmapWords = kBuckets / 64;
  static constexpr Time kDefaultWidth{1 << 12};  // ~4us at ns resolution
  static constexpr Time kMaxWidth{std::int64_t{1} << 42};
  static constexpr std::size_t kWidthSample = 16;
  /// Consumed-prefix length below which the cursor bucket is never
  /// compacted, so a small bucket is not shifted on every pop.
  static constexpr std::size_t kCompactMin = 32;
  /// Pending-range size at which a bucket is too dense for the current
  /// width and the calendar re-anchors with a narrower geometry.
  static constexpr std::size_t kDenseBucket = 64;

  Time window_end() const;
  void push_bucket(std::size_t idx, Entry&& e);
  void insert_entry(Entry&& e);
  Entry pop_overflow();
  /// Re-anchors the window at the overflow minimum, adapts the bucket
  /// width to the observed head spacing, and migrates in-window entries.
  void refill_window();
  /// Spills every calendar entry into the overflow heap and re-anchors
  /// with a freshly estimated width. Called when one bucket turns dense
  /// relative to the current geometry; without it, a stream of
  /// out-of-order inserts into the cursor bucket would re-sort an
  /// ever-growing range on every pop.
  void rebucket();
  /// Positions (cur_, head) on the earliest physical entry, refilling from
  /// overflow as needed. Requires a physical entry to exist.
  Entry* peek_physical();
  /// Consumes the entry peek_physical() returned, compacting the
  /// bucket's consumed prefix once it passes half the bucket.
  void drop_front();
  /// Positions on the earliest *live* entry, discarding tombstones.
  Entry* next_live();
  /// Stores `cb` in a free slot and returns the id naming it.
  EventId take_slot(Callback&& cb);
  bool pending(EventId id) const;
  /// Ends the life of the event in `slot` (fired or cancelled): bumps the
  /// slot's generation, so its id and queue entry go stale, frees the
  /// slot, and destroys whatever callback is still in it.
  void retire(std::uint32_t slot);

  // --- slot table: generation and callback per slot, plus free slots ---
  std::vector<std::uint32_t> slot_gen_;
  std::vector<Callback> slot_cb_;
  std::vector<std::uint32_t> free_slots_;

  // --- calendar window ---
  std::vector<Bucket> buckets_{kBuckets};
  std::uint64_t occupied_[kBitmapWords] = {};
  Time window_start_{};
  Time width_ = kDefaultWidth;
  /// One-shot upper bound on the next refill's width estimate, armed by
  /// rebucket() to guarantee the geometry narrows. kMaxWidth = unarmed.
  Time width_cap_ = kMaxWidth;
  std::size_t cur_ = 0;        // lowest possibly-occupied bucket
  std::size_t cal_count_ = 0;  // physical entries in buckets

  // --- overflow tier: min-heap on (at, seq) ---
  std::vector<Entry> overflow_;

  std::uint64_t next_seq_ = 1;
  std::size_t live_ = 0;
  Stats stats_;
  // Time of the last popped event; pops must never go backwards or the
  // simulation clock (and therefore every derived metric) is corrupt.
  Time last_pop_time_ = kTimeMin;
};

}  // namespace tls::sim
