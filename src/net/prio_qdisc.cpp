#include "net/prio_qdisc.hpp"

#include <algorithm>

#include "obs/trace.hpp"
#include "simcore/check.hpp"

namespace tls::net {

PrioQdisc::PrioQdisc(int bands, Bytes quantum) {
  TLS_CHECK(bands >= 1 && bands <= kMaxBands, "prio band count must be in [1, ",
            kMaxBands, "], got ", bands);
  bands_.reserve(static_cast<std::size_t>(bands));
  for (int i = 0; i < bands; ++i) bands_.emplace_back(quantum);
}

void PrioQdisc::enqueue(const Chunk& chunk) {
  TLS_CHECK(chunk.size >= Bytes{0}, "prio enqueue of negative-size chunk: ",
            chunk.size);
  // Out-of-range bands are clamped to the lowest priority, mirroring how a
  // misconfigured tc filter lands traffic in the last band.
  int b = std::clamp<int>(chunk.band.idx(), 0, bands() - 1);
  bands_[static_cast<std::size_t>(b)].enqueue(chunk);
  ledger_.enqueued += chunk.size;
  TLS_DCHECK(ledger_.balanced(backlog_bytes()),
             "prio ledger imbalance after enqueue");
}

DequeueResult PrioQdisc::dequeue(sim::Time now) {
  for (std::size_t b = 0; b < bands_.size(); ++b) {
    if (auto c = bands_[b].dequeue()) {
      if (TLS_OBS_ACTIVE(obs_)) {
        obs_->band_service(now, obs_host_,
                           BandId{static_cast<std::int32_t>(b)}, c->size);
      }
      ledger_.dequeued += c->size;
      TLS_DCHECK(ledger_.balanced(backlog_bytes()),
                 "prio ledger imbalance: in=", ledger_.enqueued, " out=",
                 ledger_.dequeued, " drained=", ledger_.drained, " backlog=",
                 backlog_bytes());
      return DequeueResult::of(*c);
    }
  }
  TLS_DCHECK(backlog_chunks() == 0,
             "prio reported idle with backlog of ", backlog_chunks(),
             " chunks");
  return DequeueResult::idle();
}

void PrioQdisc::drain(std::vector<Chunk>& out) {
  for (auto& band : bands_) {
    while (auto c = band.dequeue()) {
      ledger_.drained += c->size;
      out.push_back(*c);
    }
  }
  TLS_DCHECK(ledger_.balanced(backlog_bytes()),
             "prio ledger imbalance after drain");
}

Bytes PrioQdisc::backlog_bytes() const {
  Bytes total{};
  for (const auto& b : bands_) total += b.backlog_bytes();
  return total;
}

std::size_t PrioQdisc::backlog_chunks() const {
  std::size_t total = 0;
  for (const auto& b : bands_) total += b.backlog_chunks();
  return total;
}

}  // namespace tls::net
