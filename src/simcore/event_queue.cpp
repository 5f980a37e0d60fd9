#include "simcore/event_queue.hpp"

#include <algorithm>
#include <utility>

namespace tls::sim {

namespace {

std::uint32_t slot_of(EventId id) {
  return static_cast<std::uint32_t>(id.value);
}
std::uint32_t generation_of(EventId id) {
  return static_cast<std::uint32_t>(id.value >> 32);
}

}  // namespace

EventId EventQueue::take_slot(Callback&& cb) {
  std::uint32_t slot;
  if (free_slots_.empty()) {
    TLS_CHECK(slot_gen_.size() < UINT32_MAX, "event slot table full");
    slot = static_cast<std::uint32_t>(slot_gen_.size());
    slot_gen_.push_back(1);
    slot_cb_.push_back(std::move(cb));
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    slot_cb_[slot] = std::move(cb);
  }
  return EventId{(std::uint64_t{slot_gen_[slot]} << 32) | slot};
}

bool EventQueue::pending(EventId id) const {
  std::uint32_t slot = slot_of(id);
  return slot < slot_gen_.size() && slot_gen_[slot] == generation_of(id);
}

void EventQueue::retire(std::uint32_t slot) {
  // Generation 0 is never handed out, so EventId{} stays invalid after a
  // wrap.
  if (++slot_gen_[slot] == 0) slot_gen_[slot] = 1;
  free_slots_.push_back(slot);
  // Destroyed only once the slot is consistent: a capture's destructor may
  // re-enter the queue.
  Callback dead = std::move(slot_cb_[slot]);
}

void EventQueue::pop_top() {
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  heap_.pop_back();
}

const EventQueue::Entry& EventQueue::next_live() {
  for (;;) {
    TLS_DCHECK(!heap_.empty(), "event heap empty with ", live_,
               " live events");
    if (pending(heap_.front().id)) return heap_.front();
    // Tombstone: the event was cancelled.
    ++stats_.tombstones_skipped;
    pop_top();
  }
}

EventId EventQueue::schedule(Time at, Callback cb) {
  TLS_CHECK(cb, "scheduling a null callback at t=", at);
  std::uint64_t seq = next_seq_++;
  EventId id = take_slot(std::move(cb));
  heap_.push_back(Entry{at, seq, id});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  ++live_;
  ++stats_.scheduled;
  return id;
}

bool EventQueue::cancel(EventId id) {
  // Fired, cancelled, cleared, or never scheduled.
  if (!pending(id)) return false;
  retire(slot_of(id));
  ++stats_.cancelled;
  TLS_CHECK(live_ > 0, "cancel with zero live events (id=", id.value, ")");
  --live_;
  return true;
}

Time EventQueue::peek_time() {
  TLS_CHECK(!empty(), "peek_time() on an empty event queue");
  return next_live().at;
}

std::pair<Time, EventQueue::Callback> EventQueue::pop() {
  TLS_CHECK(!empty(), "pop() on an empty event queue");
  return *pop_due(kTimeMax);
}

std::optional<std::pair<Time, EventQueue::Callback>> EventQueue::pop_due(
    Time until) {
  std::optional<std::pair<Time, Callback>> out;
  if (empty()) return out;
  const Entry e = next_live();
  if (e.at > until) return out;
  pop_top();
  std::uint32_t slot = slot_of(e.id);
  out.emplace(e.at, std::move(slot_cb_[slot]));
  retire(slot);
  --live_;
  ++stats_.popped;
  // Event-time monotonicity: the queue must deliver times in nondecreasing
  // order or the simulation clock would run backwards.
  TLS_CHECK(e.at >= last_pop_time_, "event queue went backwards: popped t=",
            e.at, " after t=", last_pop_time_);
  last_pop_time_ = e.at;
  return out;
}

void EventQueue::clear() {
  heap_.clear();
  live_ = 0;
  last_pop_time_ = kTimeMin;
  // Stale EventIds must stay dead: retire every slot, so cancel() on a
  // pre-clear() handle can never touch a post-clear() event.
  free_slots_.clear();
  for (std::uint32_t slot = 0; slot < slot_gen_.size(); ++slot) retire(slot);
}

EventQueue::Footprint EventQueue::footprint() const {
  return Footprint{heap_.capacity(), slot_gen_.size()};
}

}  // namespace tls::sim
