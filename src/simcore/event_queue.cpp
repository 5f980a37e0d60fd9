#include "simcore/event_queue.hpp"

#include <algorithm>
#include <utility>

namespace tls::sim {

std::uint32_t EventQueue::add_slot() {
  TLS_CHECK(slot_key_.size() < kSlotMask, "event slot table full");
  const auto slot = static_cast<std::uint32_t>(slot_key_.size());
  // The callback first: if the key's push throws, the next call finds the
  // callback already there, so both vectors always cover every key.
  slot_cb_.resize(slot + 1);
  slot_key_.push_back(0);
  return slot;
}

EventId EventQueue::push(Time at, std::uint32_t slot) {
  TLS_CHECK(slot_cb_[slot], "scheduling a null callback at t=", at);
  TLS_CHECK(next_seq_ < kSeqEnd, "event sequence numbers exhausted at t=",
            at);
  const std::uint64_t key = next_seq_ << kSlotBits | slot;
  ++next_seq_;
  slot_key_[slot] = key;
  ++live_;
  ++stats_.scheduled;
  // The delay is measured only from a pop at a time >= 0 and only when
  // not negative, so the subtraction cannot overflow.
  Time delay = kNoDelay;
  if (last_pop_time_ >= Time{0} && at >= last_pop_time_) {
    delay = at - last_pop_time_;
    for (std::size_t lane = 0; lane < kLanes; ++lane) {
      if (lane_delay_[lane] == delay) {
        lanes_[lane].push_back(Entry{at, key});
        return EventId{key};
      }
    }
    if (delay == last_heap_delay_) {
      // Second heap push in a row at this delay: bind a free lane to it.
      for (Time& bound : lane_delay_) {
        if (bound == kNoDelay) {
          bound = delay;
          break;
        }
      }
    }
  }
  last_heap_delay_ = delay;
  heap_.push_back(Entry{at, key});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  return EventId{key};
}

void EventQueue::release(std::uint32_t slot, Callback& into) {
  into = std::move(slot_cb_[slot]);
  slot_key_[slot] = 0;
  free_slots_.push_back(slot);
}

void EventQueue::drop(std::size_t source) {
  if (source == kLanes) {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
  } else {
    lanes_[source].take_front();
  }
}

std::size_t EventQueue::least_source() const {
  std::size_t source = kLanes;
  const Entry* least = heap_.empty() ? &kNoEntry : &heap_.front();
  for (std::size_t lane = 0; lane < kLanes; ++lane) {
    if (!lanes_[lane].empty() && earlier(lanes_[lane].front(), *least)) {
      least = &lanes_[lane].front();
      source = lane;
    }
  }
  TLS_DCHECK(least != &kNoEntry, "event queue holds no entry with ", live_,
             " live events");
  return source;
}

std::size_t EventQueue::next_live() {
  for (;;) {
    const std::size_t source = least_source();
    const Entry& least = head(source);
    if (slot_key_[slot_of(least.key)] == least.key) return source;
    // Tombstone: the event was cancelled. Only the least entry is
    // discarded, so the count is the one a heap alone would keep.
    ++stats_.tombstones_skipped;
    drop(source);
  }
}

bool EventQueue::cancel(EventId id) {
  // Fired, cancelled, cleared, or never scheduled. Free slots hold key 0,
  // which no event has.
  const std::uint32_t slot = slot_of(id.value);
  if (id.value == 0 || slot >= slot_key_.size() ||
      slot_key_[slot] != id.value) {
    return false;
  }
  Callback dead;
  release(slot, dead);
  ++stats_.cancelled;
  TLS_CHECK(live_ > 0, "cancel with zero live events (id=", id.value, ")");
  --live_;
  return true;
}

Time EventQueue::peek_time() {
  TLS_CHECK(!empty(), "peek_time() on an empty event queue");
  return head(next_live()).at;
}

std::pair<Time, EventQueue::Callback> EventQueue::pop() {
  TLS_CHECK(!empty(), "pop() on an empty event queue");
  std::pair<Time, Callback> out;
  pop_due(kTimeMax, out.first, out.second);
  return out;
}

bool EventQueue::pop_due(Time until, Time& at, Callback& cb) {
  if (empty()) return false;
  const std::size_t source = next_live();
  const Entry top = head(source);
  if (top.at > until) return false;
  drop(source);
  release(slot_of(top.key), cb);
  --live_;
  ++stats_.popped;
  // Event-time monotonicity: the queue must deliver times in nondecreasing
  // order or the simulation clock would run backwards.
  TLS_CHECK(top.at >= last_pop_time_, "event queue went backwards: popped t=",
            top.at, " after t=", last_pop_time_);
  last_pop_time_ = top.at;
  at = top.at;
  return true;
}

void EventQueue::clear() {
  heap_.clear();
  for (Ring<Entry>& lane : lanes_) lane.clear();
  lane_delay_.fill(kNoDelay);
  last_heap_delay_ = kNoDelay;
  live_ = 0;
  last_pop_time_ = kTimeMin;
  // Every slot goes free. Sequence numbers carry on, so an EventId issued
  // before clear() can never match an event scheduled after it.
  free_slots_.clear();
  for (std::uint32_t slot = 0; slot < slot_key_.size(); ++slot) {
    Callback dead;
    release(slot, dead);
  }
}

EventQueue::Footprint EventQueue::footprint() const {
  Footprint fp{heap_.capacity(), slot_key_.size(), 0};
  for (const Ring<Entry>& lane : lanes_) fp.lane_capacity += lane.capacity();
  return fp;
}

}  // namespace tls::sim
