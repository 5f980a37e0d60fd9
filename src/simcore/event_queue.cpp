#include "simcore/event_queue.hpp"

#include <algorithm>
#include <bit>
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

Time EventQueue::window_end() const {
  Time span = width_ * static_cast<std::int64_t>(kBuckets);
  return window_start_ > kTimeMax - span ? kTimeMax : window_start_ + span;
}

void EventQueue::push_bucket(std::size_t idx, Entry&& e) {
  TLS_DCHECK(idx < kBuckets, "bucket index out of range: ", idx);
  Bucket& b = buckets_[idx];
  // Always an O(1) append: in-order arrivals (the overwhelmingly common
  // case — completions scheduled at monotone times) keep the pending range
  // sorted for free, and anything else just marks the bucket for a lazy
  // sort at consumption time.
  if (!b.v.empty() && entry_less(e, b.v.back())) b.dirty = true;
  b.v.push_back(std::move(e));
  occupied_[idx >> 6] |= std::uint64_t(1) << (idx & 63);
  ++cal_count_;
}

void EventQueue::insert_entry(Entry&& e) {
  if (e.at < window_start_) {
    // Behind the consuming cursor (legitimately possible when earlier
    // buckets drained empty, or past-scheduling misuse — the monotonicity
    // TLS_CHECK in pop() flags the latter). Funnel into the next bucket to
    // be consumed; in-bucket (at, seq) order puts it first.
    push_bucket(cur_, std::move(e));
    return;
  }
  if (e.at < window_end()) {
    std::size_t idx =
        static_cast<std::size_t>((e.at - window_start_) / width_);
    push_bucket(idx < cur_ ? cur_ : idx, std::move(e));
    return;
  }
  overflow_.push_back(std::move(e));
  std::push_heap(overflow_.begin(), overflow_.end(),
                 [](const Entry& a, const Entry& b) { return entry_less(b, a); });
}

EventQueue::Entry EventQueue::pop_overflow() {
  std::pop_heap(overflow_.begin(), overflow_.end(),
                [](const Entry& a, const Entry& b) { return entry_less(b, a); });
  Entry e = std::move(overflow_.back());
  overflow_.pop_back();
  return e;
}

void EventQueue::refill_window() {
  TLS_CHECK(!overflow_.empty(), "calendar refill with an empty overflow tier");
  ++stats_.window_jumps;
  // Sample the head of the overflow tier to estimate event spacing, then
  // re-anchor the window at the earliest pending time. The estimate only
  // depends on queue content, so the structure stays deterministic.
  Entry first = pop_overflow();
  Time t0 = first.at;
  std::vector<Entry> sample;
  sample.push_back(std::move(first));
  while (sample.size() < kWidthSample && !overflow_.empty()) {
    sample.push_back(pop_overflow());
  }
  if (sample.size() > 1) {
    Time gap =
        (sample.back().at - t0) / static_cast<std::int64_t>(sample.size() - 1);
    // Aim for a handful of events per bucket; clamp so span arithmetic
    // never overflows and width never hits zero.
    Time w = gap > kMaxWidth / 4 ? kMaxWidth : gap * 4;
    width_ = std::clamp(w, Time{1}, kMaxWidth);
  }
  // A pending rebucket() cap must bound the width BEFORE any entry is
  // distributed: every entry in one window generation must be bucketed
  // under the same width, or an insert with a narrower width could land
  // in a higher bucket than an already-placed later-time entry and the
  // pop order would invert. Normal refills (empty calendar) reset it.
  width_ = std::min(width_, width_cap_);
  width_cap_ = kMaxWidth;
  window_start_ = t0;
  cur_ = 0;
  stats_.overflow_pulls += sample.size();
  for (Entry& e : sample) insert_entry(std::move(e));
  Time we = window_end();
  while (!overflow_.empty() && overflow_.front().at < we) {
    insert_entry(pop_overflow());
    ++stats_.overflow_pulls;
  }
}

void EventQueue::rebucket() {
  // Each rebucket at least halves the width (enforced via width_cap_
  // inside refill_window, before anything is distributed), so a dense
  // cluster hiding behind a sparse head — which fools the spacing sample
  // into the same estimate every time — cannot retrigger forever: width_
  // reaches 1 in at most ~40 steps and the trigger requires width_ > 1.
  width_cap_ = std::max(Time{1}, width_ / 2);
  for (Bucket& b : buckets_) {
    for (std::size_t j = b.head; j < b.v.size(); ++j) {
      overflow_.push_back(std::move(b.v[j]));
    }
    b.v.clear();
    b.head = 0;
    b.dirty = false;
  }
  for (std::uint64_t& w : occupied_) w = 0;
  cal_count_ = 0;
  std::make_heap(overflow_.begin(), overflow_.end(),
                 [](const Entry& a, const Entry& b) { return entry_less(b, a); });
  refill_window();
}

EventQueue::Entry* EventQueue::peek_physical() {
  for (;;) {
    if (cal_count_ == 0) {
      TLS_CHECK(!overflow_.empty(),
                "event queue cursor ran past every physical entry");
      refill_window();
      continue;
    }
    // Scan the occupancy bitmap from cur_ for the first non-empty bucket.
    std::size_t word = cur_ >> 6;
    std::uint64_t bits =
        occupied_[word] & (~std::uint64_t(0) << (cur_ & 63));
    while (bits == 0) {
      ++word;
      TLS_CHECK(word < kBitmapWords,
                "calendar occupancy bitmap inconsistent with cal_count=",
                cal_count_);
      bits = occupied_[word];
    }
    cur_ = (word << 6) + static_cast<std::size_t>(std::countr_zero(bits));
    Bucket& b = buckets_[cur_];
    TLS_DCHECK(b.head < b.v.size(), "occupied bit set on drained bucket ",
               cur_);
    if (b.v.size() - b.head > kDenseBucket && width_ > Time{1}) {
      // Too many pending entries share one bucket: the width is wrong for
      // the current event density (e.g. a funnelled burst of near-past
      // schedules). Narrow the geometry instead of paying a large re-sort
      // on every pop. width_ == 1 cannot narrow further — coincident
      // events legitimately share a bucket and the lazy sort handles them.
      rebucket();
      continue;
    }
    if (b.dirty) {
      std::sort(b.v.begin() + static_cast<std::ptrdiff_t>(b.head), b.v.end(),
                [](const Entry& a, const Entry& bb) {
                  return entry_less(a, bb);
                });
      b.dirty = false;
    }
    return &b.v[b.head];
  }
}

void EventQueue::drop_front() {
  Bucket& b = buckets_[cur_];
  ++b.head;
  --cal_count_;
  if (b.head == b.v.size()) {
    b.v.clear();
    b.head = 0;
    b.dirty = false;
    occupied_[cur_ >> 6] &= ~(std::uint64_t(1) << (cur_ & 63));
  } else if (b.head >= kCompactMin && b.head * 2 >= b.v.size()) {
    // The cursor bucket keeps taking appends while it drains, so without
    // this its consumed prefix would grow with every event it delivers.
    // Each pending entry moves at most once per halving of the bucket:
    // amortized one move per pop.
    b.v.erase(b.v.begin(), b.v.begin() + static_cast<std::ptrdiff_t>(b.head));
    b.head = 0;
  }
}

EventQueue::Entry* EventQueue::next_live() {
  for (;;) {
    Entry* e = peek_physical();
    if (pending(e->id)) return e;
    // Tombstone: the event was cancelled.
    ++stats_.tombstones_skipped;
    drop_front();
  }
}

EventId EventQueue::schedule(Time at, Callback cb) {
  TLS_CHECK(cb, "scheduling a null callback at t=", at);
  std::uint64_t seq = next_seq_++;
  EventId id = take_slot(std::move(cb));
  if (cal_count_ == 0 && overflow_.empty()) {
    // Physically empty: re-anchor the window so the new event lands in
    // bucket 0 instead of forcing everything through a stale cursor.
    window_start_ = at;
    cur_ = 0;
  }
  insert_entry(Entry{at, seq, id});
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
  return next_live()->at;
}

std::pair<Time, EventQueue::Callback> EventQueue::pop() {
  TLS_CHECK(!empty(), "pop() on an empty event queue");
  return *pop_due(kTimeMax);
}

std::optional<std::pair<Time, EventQueue::Callback>> EventQueue::pop_due(
    Time until) {
  std::optional<std::pair<Time, Callback>> out;
  if (empty()) return out;
  Entry* e = next_live();
  if (e->at > until) return out;
  std::uint32_t slot = slot_of(e->id);
  out.emplace(e->at, std::move(slot_cb_[slot]));
  retire(slot);
  --live_;
  ++stats_.popped;
  // Event-time monotonicity: the queue must deliver times in nondecreasing
  // order or the simulation clock would run backwards.
  TLS_CHECK(e->at >= last_pop_time_, "event queue went backwards: popped t=",
            e->at, " after t=", last_pop_time_);
  last_pop_time_ = e->at;
  drop_front();
  return out;
}

void EventQueue::clear() {
  for (Bucket& b : buckets_) {
    b.v.clear();
    b.head = 0;
    b.dirty = false;
  }
  for (std::uint64_t& w : occupied_) w = 0;
  cal_count_ = 0;
  overflow_.clear();
  live_ = 0;
  last_pop_time_ = kTimeMin;
  // Stale EventIds must stay dead: retire every slot, so cancel() on a
  // pre-clear() handle can never touch a post-clear() event.
  free_slots_.clear();
  for (std::uint32_t slot = 0; slot < slot_gen_.size(); ++slot) retire(slot);
  window_start_ = Time{0};
  width_ = kDefaultWidth;
  width_cap_ = kMaxWidth;
  cur_ = 0;
}

EventQueue::Footprint EventQueue::footprint() const {
  Footprint f;
  for (const Bucket& b : buckets_) {
    f.max_bucket_capacity = std::max(f.max_bucket_capacity, b.v.capacity());
  }
  f.slots = slot_gen_.size();
  return f;
}

}  // namespace tls::sim
