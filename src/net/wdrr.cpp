#include "net/wdrr.hpp"

#include <algorithm>

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
  auto [it, inserted] = flows_.try_emplace(chunk.flow);
  FlowQueue& fq = it->second;
  if (inserted || fq.chunks.empty()) {
    fq.weight = std::max(chunk.weight, kMinWeight);
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
  // Each iteration either serves a chunk or tops up one flow's deficit and
  // rotates it; with weight >= kMinWeight a flow needs at most
  // ceil(chunk/quantum/kMinWeight) top-ups, so this terminates quickly.
  for (;;) {
    TLS_CHECK(!active_.empty(),
              "wdrr: backlogged band with empty active list (",
              backlog_chunks_, " chunks unreachable)");
    FlowId fid = active_.front();
    auto it = flows_.find(fid);
    TLS_CHECK(it != flows_.end(), "wdrr: active flow ", fid,
              " missing from flow table");
    FlowQueue& fq = it->second;
    TLS_CHECK(!fq.chunks.empty(), "wdrr: active flow ", fid,
              " has an empty queue");
    if (fq.deficit < fq.chunks.front().size) {
      fq.deficit += top_up(quantum_, fq.weight);
      active_.pop_front();
      active_.push_back(fid);
      continue;
    }
    Chunk served = fq.chunks.take_front();
    fq.deficit -= served.size;
    backlog_bytes_ -= served.size;
    --backlog_chunks_;
    TLS_CHECK(backlog_bytes_ >= Bytes{0}, "wdrr backlog went negative: ",
              backlog_bytes_);
    if (fq.chunks.empty()) {
      fq.in_round = false;
      fq.deficit = Bytes{0};
      active_.pop_front();
      flows_.erase(it);
    }
    return served;
  }
}

}  // namespace tls::net
