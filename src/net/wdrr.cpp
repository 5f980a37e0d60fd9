#include "net/wdrr.hpp"

#include <algorithm>
#include <bit>

#include "simcore/check.hpp"

namespace tls::net {

WdrrBand::WdrrBand(Bytes quantum) : quantum_(quantum) {
  TLS_CHECK(top_up(quantum_, kMinWeight) > Bytes{0},
            "wdrr quantum must earn a positive top-up at the minimum weight, "
            "got ", quantum_);
}

void WdrrBand::enqueue(const Chunk& chunk) {
  TLS_CHECK(chunk.size >= Bytes{0}, "wdrr enqueue of negative-size chunk: ",
            chunk.size);
  slots_[slot_for(chunk)].chunks.push_back(chunk);
  backlog_bytes_ += chunk.size;
  ++backlog_chunks_;
}

std::uint32_t WdrrBand::slot_for(const Chunk& chunk) {
  if (!index_.empty()) {
    const IndexEntry& e = index_[probe(chunk.flow)];
    if (e.slot != kNoSlot) return e.slot;
  }
  if (2 * (round_.size() + 1) > index_.size()) grow_index();
  std::uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  FlowQueue& fq = slots_[slot];
  fq.flow = chunk.flow;
  fq.top_up = top_up(quantum_, std::max(chunk.weight, kMinWeight));
  fq.deficit = Bytes{0};
  index_[probe(chunk.flow)] = {chunk.flow, slot};
  round_.push_back(slot);
  return slot;
}

std::size_t WdrrBand::probe(FlowId flow) const {
  const std::size_t mask = index_.size() - 1;
  std::size_t i = home(flow);
  while (index_[i].slot != kNoSlot && index_[i].flow != flow) {
    i = (i + 1) & mask;
  }
  return i;
}

void WdrrBand::grow_index() {
  std::vector<IndexEntry> old(std::max<std::size_t>(16, 2 * index_.size()));
  old.swap(index_);
  index_shift_ = 64 - static_cast<unsigned>(std::countr_zero(index_.size()));
  for (const IndexEntry& e : old) {
    if (e.slot != kNoSlot) index_[probe(e.flow)] = e;
  }
}

void WdrrBand::unindex(FlowId flow) {
  std::size_t hole = probe(flow);
  TLS_CHECK(index_[hole].slot != kNoSlot, "wdrr: backlogged flow ", flow,
            " missing from the flow index");
  // Backward-shift deletion: each later entry of the probe run whose home
  // is not in (hole, j] moves into the hole, so every remaining flow is
  // still reached from its home without tombstones.
  const std::size_t mask = index_.size() - 1;
  for (std::size_t j = (hole + 1) & mask; index_[j].slot != kNoSlot;
       j = (j + 1) & mask) {
    if (((j - home(index_[j].flow)) & mask) >= ((j - hole) & mask)) {
      index_[hole] = index_[j];
      hole = j;
    }
  }
  index_[hole].slot = kNoSlot;
}

std::optional<Chunk> WdrrBand::dequeue() {
  if (backlog_chunks_ == 0) return std::nullopt;
  // Each iteration either serves a chunk or tops up one flow's deficit and
  // rotates it; with weight >= kMinWeight a flow needs at most
  // ceil(chunk/quantum/kMinWeight) top-ups, so this terminates quickly.
  for (;;) {
    TLS_CHECK(!round_.empty(),
              "wdrr: backlogged band with an empty round (",
              backlog_chunks_, " chunks unreachable)");
    const std::uint32_t slot = round_.front();
    FlowQueue& fq = slots_[slot];
    TLS_CHECK(!fq.chunks.empty(), "wdrr: active flow ", fq.flow,
              " has an empty queue");
    if (fq.deficit < fq.chunks.front().size) {
      fq.deficit += fq.top_up;
      round_.push_back(round_.take_front());
      continue;
    }
    Chunk served = fq.chunks.take_front();
    fq.deficit -= served.size;
    backlog_bytes_ -= served.size;
    --backlog_chunks_;
    TLS_CHECK(backlog_bytes_ >= Bytes{0}, "wdrr backlog went negative: ",
              backlog_bytes_);
    if (fq.chunks.empty()) {
      // The flow leaves the round; its next chunk brings it back at the
      // back, with zero deficit and that chunk's weight.
      round_.take_front();
      unindex(fq.flow);
      free_slots_.push_back(slot);
    }
    return served;
  }
}

}  // namespace tls::net
