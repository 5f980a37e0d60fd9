#include "net/htb_qdisc.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "obs/trace.hpp"
#include "simcore/time.hpp"

namespace tls::net {

namespace {
bool valid_config(const HtbClassConfig& c) {
  return c.minor != 0 && c.rate > Rate{0.0} && c.ceil >= c.rate &&
         c.burst > Bytes{0} && c.cburst > Bytes{0} &&
         WdrrBand::top_up(c.quantum, WdrrBand::kMinWeight) > Bytes{0};
}

/// First class in `classes` (sorted by minor) whose minor is >= `minor`.
template <typename Classes>
auto lower_bound_minor(Classes& classes, std::uint32_t minor) {
  return std::lower_bound(
      classes.begin(), classes.end(), minor,
      [](const auto& leaf, std::uint32_t m) { return leaf.cfg.minor < m; });
}
}  // namespace

HtbQdisc::HtbQdisc(Rate root_rate, std::uint32_t default_minor)
    : root_rate_(root_rate),
      default_minor_(default_minor),
      root_tokens_(0),
      root_burst_(256 * kKiB) {
  TLS_CHECK(root_rate_ > Rate{0.0}, "htb root rate must be positive, got ",
            root_rate_);
  root_tokens_ = to_double(root_burst_);
}

const HtbQdisc::LeafClass* HtbQdisc::find(std::uint32_t minor) const {
  auto it = lower_bound_minor(classes_, minor);
  return it != classes_.end() && it->cfg.minor == minor ? &*it : nullptr;
}

HtbQdisc::LeafClass* HtbQdisc::find(std::uint32_t minor) {
  return const_cast<LeafClass*>(std::as_const(*this).find(minor));
}

bool HtbQdisc::add_class(const HtbClassConfig& config) {
  if (!valid_config(config)) return false;
  auto it = lower_bound_minor(classes_, config.minor);
  if (it != classes_.end() && it->cfg.minor == config.minor) return false;
  classes_.emplace(it, config);
  return true;
}

bool HtbQdisc::change_class(const HtbClassConfig& config) {
  if (!valid_config(config)) return false;
  LeafClass* leaf = find(config.minor);
  if (leaf == nullptr) return false;
  leaf->cfg = config;
  leaf->tokens = to_double(config.burst);
  leaf->ctokens = to_double(config.cburst);
  return true;
}

bool HtbQdisc::delete_class(std::uint32_t minor) {
  auto it = lower_bound_minor(classes_, minor);
  if (it == classes_.end() || it->cfg.minor != minor) return false;
  if (!it->queue.empty()) return false;
  classes_.erase(it);
  return true;
}

std::optional<HtbClassConfig> HtbQdisc::class_config(std::uint32_t minor) const {
  const LeafClass* leaf = find(minor);
  if (leaf == nullptr) return std::nullopt;
  return leaf->cfg;
}

Bytes HtbQdisc::class_backlog(std::uint32_t minor) const {
  const LeafClass* leaf = find(minor);
  return leaf == nullptr ? Bytes{0} : leaf->queue.backlog_bytes();
}

void HtbQdisc::enqueue(const Chunk& chunk) {
  TLS_CHECK(chunk.size >= Bytes{0}, "htb enqueue of negative-size chunk: ",
            chunk.size);
  ledger_.enqueued += chunk.size;
  ++backlog_chunks_;
  std::uint32_t minor =
      chunk.band.valid() ? static_cast<std::uint32_t>(chunk.band.idx()) : 0;
  LeafClass* leaf = find(minor);
  if (leaf == nullptr && default_minor_ != 0) leaf = find(default_minor_);
  if (leaf == nullptr) {
    direct_.push_back(chunk);
    direct_bytes_ += chunk.size;
    TLS_DCHECK(ledger_.balanced(backlog_bytes()),
               "htb ledger imbalance after direct enqueue");
    return;
  }
  leaf->queue.enqueue(chunk);
  TLS_DCHECK(ledger_.balanced(backlog_bytes()),
             "htb ledger imbalance after enqueue");
}

void HtbQdisc::refill(LeafClass& leaf, sim::Time now) const {
  double dt = sim::to_seconds(now - leaf.last_refill);
  if (dt <= 0) return;
  leaf.tokens = std::min(to_double(leaf.cfg.burst),
                         leaf.tokens + bytes_in(leaf.cfg.rate, dt));
  leaf.ctokens = std::min(to_double(leaf.cfg.cburst),
                          leaf.ctokens + bytes_in(leaf.cfg.ceil, dt));
  leaf.last_refill = now;
}

void HtbQdisc::refill_root(sim::Time now) {
  double dt = sim::to_seconds(now - root_last_refill_);
  if (dt <= 0) return;
  root_tokens_ = std::min(to_double(root_burst_),
                          root_tokens_ + bytes_in(root_rate_, dt));
  root_last_refill_ = now;
}

HtbQdisc::Mode HtbQdisc::mode_of(const LeafClass& leaf) const {
  if (root_tokens_ < 0) return Mode::kRed;
  if (leaf.tokens >= 0) return Mode::kGreen;
  if (leaf.ctokens >= 0) return Mode::kYellow;
  return Mode::kRed;
}

double HtbQdisc::eligible_in(const LeafClass& leaf) const {
  double root_wait =
      root_tokens_ >= 0 ? 0.0 : seconds_for(-root_tokens_, root_rate_);
  double green_wait =
      leaf.tokens >= 0 ? 0.0 : seconds_for(-leaf.tokens, leaf.cfg.rate);
  double yellow_wait =
      leaf.ctokens >= 0 ? 0.0 : seconds_for(-leaf.ctokens, leaf.cfg.ceil);
  return std::max(root_wait, std::min(green_wait, yellow_wait));
}

DequeueResult HtbQdisc::dequeue(sim::Time now) {
  // Direct (unclassified) traffic bypasses shaping entirely, like htb's
  // direct queue.
  if (!direct_.empty()) {
    Chunk c = direct_.take_front();
    direct_bytes_ -= c.size;
    --backlog_chunks_;
    TLS_CHECK(direct_bytes_ >= Bytes{0}, "htb direct backlog went negative: ",
              direct_bytes_);
    ledger_.dequeued += c.size;
    TLS_DCHECK(ledger_.balanced(backlog_bytes()),
               "htb ledger imbalance after direct dequeue");
    return DequeueResult::of(c);
  }
  if (backlog_chunks_ == 0) return DequeueResult::idle();

  // Refill every class, and pick GREEN first, then YELLOW; tie-break by
  // (prio, least recently served) for borrowing fairness among peers.
  refill_root(now);
  LeafClass* best = nullptr;
  Mode best_mode = Mode::kRed;
  auto better = [&](LeafClass& cand, Mode m) {
    if (best == nullptr) return true;
    if (m != best_mode) return m == Mode::kGreen;
    if (cand.cfg.prio != best->cfg.prio) return cand.cfg.prio < best->cfg.prio;
    return cand.last_served < best->last_served;
  };
  for (LeafClass& leaf : classes_) {
    refill(leaf, now);
    if (leaf.queue.empty()) continue;
    Mode m = mode_of(leaf);
    if (m == Mode::kRed) continue;
    if (better(leaf, m)) {
      best = &leaf;
      best_mode = m;
    }
  }

  if (best == nullptr) {
    // Everything backlogged is RED: report the earliest eligibility.
    double wait_s = std::numeric_limits<double>::infinity();
    for (const LeafClass& leaf : classes_) {
      if (leaf.queue.empty()) continue;
      wait_s = std::min(wait_s, eligible_in(leaf));
    }
    TLS_CHECK(std::isfinite(wait_s),
              "htb: all-red backlog but no finite eligibility time");
    sim::Time retry = now + std::max(sim::from_seconds(wait_s), sim::Time{1});
    TLS_CHECK(retry > now, "htb retry time not in the future: retry=", retry,
              " now=", now);
    if (TLS_OBS_ACTIVE(obs_)) obs_->overlimit(now, obs_host_, retry);
    return DequeueResult::wait_until(retry);
  }

  std::optional<Chunk> chunk = best->queue.dequeue();
  TLS_CHECK(chunk.has_value(), "htb picked a class with an empty queue");
  --backlog_chunks_;
  double need = to_double(chunk->size);
  // Sending consumes ceil credit and root credit; assured-rate credit only
  // when sending green. Buckets may overdraw (go negative) by one chunk.
  if (best_mode == Mode::kGreen) best->tokens -= need;
  best->ctokens -= need;
  root_tokens_ -= need;
  best->last_served = ++serve_seq_;
  if (TLS_OBS_ACTIVE(obs_)) {
    obs_->htb_send(now, obs_host_,
                   BandId{static_cast<std::int32_t>(best->cfg.minor)},
                   chunk->size, best_mode != Mode::kGreen);
  }
  ledger_.dequeued += chunk->size;
  TLS_DCHECK(ledger_.balanced(backlog_bytes()), "htb ledger imbalance: in=",
             ledger_.enqueued, " out=", ledger_.dequeued, " drained=",
             ledger_.drained, " backlog=", backlog_bytes());
  return DequeueResult::of(*chunk);
}

void HtbQdisc::drain(std::vector<Chunk>& out) {
  direct_.append_to(out);
  direct_.clear();
  ledger_.drained += direct_bytes_;
  direct_bytes_ = Bytes{0};
  for (LeafClass& leaf : classes_) {
    while (auto c = leaf.queue.dequeue()) {
      ledger_.drained += c->size;
      out.push_back(*c);
    }
  }
  backlog_chunks_ = 0;
  TLS_DCHECK(ledger_.balanced(backlog_bytes()),
             "htb ledger imbalance after drain");
}

Bytes HtbQdisc::backlog_bytes() const {
  Bytes total = direct_bytes_;
  for (const LeafClass& leaf : classes_) total += leaf.queue.backlog_bytes();
  return total;
}

}  // namespace tls::net
