#include "net/pfifo_qdisc.hpp"

#include <sstream>

#include "obs/trace.hpp"

namespace tls::net {

void PfifoQdisc::enqueue(const Chunk& chunk) {
  TLS_CHECK(chunk.size >= Bytes{0}, "pfifo enqueue of negative-size chunk: ",
            chunk.size);
  queue_.push_back(chunk);
  backlog_bytes_ += chunk.size;
  ledger_.enqueued += chunk.size;
  TLS_DCHECK(ledger_.balanced(backlog_bytes_), "pfifo ledger imbalance: in=",
             ledger_.enqueued, " out=", ledger_.dequeued, " drained=",
             ledger_.drained, " backlog=", backlog_bytes_);
}

void PfifoQdisc::drain(std::vector<Chunk>& out) {
  queue_.append_to(out);
  queue_.clear();
  ledger_.drained += backlog_bytes_;
  backlog_bytes_ = Bytes{0};
  TLS_DCHECK(ledger_.balanced(backlog_bytes_), "pfifo ledger imbalance after drain");
}

DequeueResult PfifoQdisc::dequeue(sim::Time now) {
  if (queue_.empty()) return DequeueResult::idle();
  Chunk c = queue_.take_front();
  if (TLS_OBS_ACTIVE(obs_)) obs_->band_service(now, obs_host_, BandId{0}, c.size);
  backlog_bytes_ -= c.size;
  TLS_CHECK(backlog_bytes_ >= Bytes{0}, "pfifo backlog went negative: ",
            backlog_bytes_);
  stats_.bytes_sent += c.size;
  ++stats_.chunks_sent;
  ledger_.dequeued += c.size;
  TLS_DCHECK(ledger_.balanced(backlog_bytes_), "pfifo ledger imbalance: in=",
             ledger_.enqueued, " out=", ledger_.dequeued, " drained=",
             ledger_.drained, " backlog=", backlog_bytes_);
  return DequeueResult::of(c);
}

std::string PfifoQdisc::stats_text() const {
  std::ostringstream os;
  os << "qdisc pfifo: sent " << stats_.bytes_sent << " bytes "
     << stats_.chunks_sent << " chunks, backlog " << backlog_bytes_
     << " bytes " << queue_.size() << " chunks\n";
  return os.str();
}

}  // namespace tls::net
