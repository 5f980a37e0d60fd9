#include "reference_tables.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "simcore/check.hpp"
#include "simcore/time.hpp"

namespace tls::net::reference {

void WdrrBand::enqueue(const Chunk& chunk) {
  auto [it, inserted] = flows_.try_emplace(chunk.flow);
  FlowQueue& fq = it->second;
  if (inserted || fq.chunks.empty()) {
    fq.weight = std::max(chunk.weight, net::WdrrBand::kMinWeight);
  }
  fq.chunks.push_back(chunk);
  backlog_bytes_ += chunk.size;
  ++backlog_chunks_;
  if (!fq.in_round) {
    fq.in_round = true;
    fq.deficit = Bytes{0};
    active_.push_back(chunk.flow);
  }
}

std::optional<Chunk> WdrrBand::dequeue() {
  if (backlog_chunks_ == 0) return std::nullopt;
  for (;;) {
    TLS_CHECK(!active_.empty(), "reference wdrr: empty active list");
    FlowId fid = active_.front();
    auto it = flows_.find(fid);
    TLS_CHECK(it != flows_.end(), "reference wdrr: active flow ", fid,
              " missing from flow table");
    FlowQueue& fq = it->second;
    if (fq.deficit < fq.chunks.front().size) {
      fq.deficit += net::WdrrBand::top_up(quantum_, fq.weight);
      active_.pop_front();
      active_.push_back(fid);
      continue;
    }
    Chunk served = fq.chunks.take_front();
    fq.deficit -= served.size;
    backlog_bytes_ -= served.size;
    --backlog_chunks_;
    if (fq.chunks.empty()) {
      fq.in_round = false;
      fq.deficit = Bytes{0};
      active_.pop_front();
      flows_.erase(it);
    }
    return served;
  }
}

namespace {
bool valid_config(const HtbClassConfig& c) {
  return c.minor != 0 && c.rate > Rate{0.0} && c.ceil >= c.rate &&
         c.burst > Bytes{0} && c.cburst > Bytes{0} &&
         net::WdrrBand::top_up(c.quantum, net::WdrrBand::kMinWeight) >
             Bytes{0};
}
}  // namespace

HtbQdisc::HtbQdisc(Rate root_rate, std::uint32_t default_minor)
    : root_rate_(root_rate),
      default_minor_(default_minor),
      root_tokens_(0),
      root_burst_(256 * kKiB) {
  root_tokens_ = to_double(root_burst_);
}

bool HtbQdisc::add_class(const HtbClassConfig& config) {
  if (!valid_config(config) || classes_.count(config.minor) != 0) {
    return false;
  }
  classes_.emplace(config.minor, LeafClass(config));
  return true;
}

bool HtbQdisc::change_class(const HtbClassConfig& config) {
  if (!valid_config(config)) return false;
  auto it = classes_.find(config.minor);
  if (it == classes_.end()) return false;
  LeafClass& leaf = it->second;
  leaf.cfg = config;
  leaf.tokens = to_double(config.burst);
  leaf.ctokens = to_double(config.cburst);
  return true;
}

bool HtbQdisc::delete_class(std::uint32_t minor) {
  auto it = classes_.find(minor);
  if (it == classes_.end()) return false;
  if (!it->second.queue.empty()) return false;
  classes_.erase(it);
  return true;
}

void HtbQdisc::enqueue(const Chunk& chunk) {
  std::uint32_t minor =
      chunk.band.valid() ? static_cast<std::uint32_t>(chunk.band.idx()) : 0;
  auto it = classes_.find(minor);
  if (it == classes_.end() && default_minor_ != 0) {
    it = classes_.find(default_minor_);
  }
  if (it == classes_.end()) {
    direct_.push_back(chunk);
    direct_bytes_ += chunk.size;
    return;
  }
  it->second.queue.enqueue(chunk);
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
  if (!direct_.empty()) {
    Chunk c = direct_.take_front();
    direct_bytes_ -= c.size;
    return DequeueResult::of(c);
  }
  if (backlog_chunks() == 0) return DequeueResult::idle();

  refill_root(now);
  for (auto& [minor, leaf] : classes_) {
    (void)minor;
    refill(leaf, now);
  }

  LeafClass* best = nullptr;
  Mode best_mode = Mode::kRed;
  auto better = [&](LeafClass& cand, Mode m) {
    if (best == nullptr) return true;
    if (m != best_mode) return m == Mode::kGreen;
    if (cand.cfg.prio != best->cfg.prio) return cand.cfg.prio < best->cfg.prio;
    return cand.last_served < best->last_served;
  };
  for (auto& [minor, leaf] : classes_) {
    (void)minor;
    if (leaf.queue.empty()) continue;
    Mode m = mode_of(leaf);
    if (m == Mode::kRed) continue;
    if (better(leaf, m)) {
      best = &leaf;
      best_mode = m;
    }
  }

  if (best == nullptr) {
    double wait_s = std::numeric_limits<double>::infinity();
    for (auto& [minor, leaf] : classes_) {
      (void)minor;
      if (leaf.queue.empty()) continue;
      wait_s = std::min(wait_s, eligible_in(leaf));
    }
    TLS_CHECK(std::isfinite(wait_s), "reference htb: no eligibility time");
    return DequeueResult::wait_until(
        now + std::max(sim::from_seconds(wait_s), sim::Time{1}));
  }

  std::optional<Chunk> chunk = best->queue.dequeue();
  double need = to_double(chunk->size);
  if (best_mode == Mode::kGreen) best->tokens -= need;
  best->ctokens -= need;
  root_tokens_ -= need;
  best->last_served = ++serve_seq_;
  return DequeueResult::of(*chunk);
}

void HtbQdisc::drain(std::vector<Chunk>& out) {
  direct_.append_to(out);
  direct_.clear();
  direct_bytes_ = Bytes{0};
  for (auto& [minor, leaf] : classes_) {
    (void)minor;
    while (auto c = leaf.queue.dequeue()) out.push_back(*c);
  }
}

Bytes HtbQdisc::backlog_bytes() const {
  Bytes total = direct_bytes_;
  for (const auto& [minor, leaf] : classes_) {
    (void)minor;
    total += leaf.queue.backlog_bytes();
  }
  return total;
}

std::size_t HtbQdisc::backlog_chunks() const {
  std::size_t total = direct_.size();
  for (const auto& [minor, leaf] : classes_) {
    (void)minor;
    total += leaf.queue.backlog_chunks();
  }
  return total;
}

}  // namespace tls::net::reference
