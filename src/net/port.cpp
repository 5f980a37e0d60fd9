#include "net/port.hpp"

#include <algorithm>
#include <utility>

#include "net/pfifo_qdisc.hpp"
#include "obs/trace.hpp"
#include "simcore/check.hpp"

namespace tls::net {

EgressPort::EgressPort(sim::Simulator& simulator, Rate rate,
                       TransmitDone on_transmit)
    : sim_(simulator),
      rate_(rate),
      on_transmit_(std::move(on_transmit)),
      qdisc_(std::make_unique<PfifoQdisc>()) {
  TLS_CHECK(rate_ > Rate{0.0}, "egress port rate must be positive, got ", rate_);
  TLS_CHECK(on_transmit_, "egress port with null transmit callback");
}

void EgressPort::submit(Chunk chunk, const FlowSpec& spec) {
  TLS_CHECK(chunk.size >= Bytes{0}, "egress submit of negative-size chunk: ",
            chunk.size);
  chunk.band = classifier_.classify(spec);
  chunk.enqueued_at = sim_.now();
  submitted_bytes_ += chunk.size;
  if (TLS_OBS_ACTIVE(sim_.tracer())) {
    sim_.tracer()->chunk_enqueue(sim_.now(), host_, chunk.job, chunk.band,
                                 static_cast<std::int64_t>(chunk.flow),
                                 chunk.index, chunk.size);
  }
  qdisc_->enqueue(chunk);
  TLS_DCHECK(submitted_bytes_ == counters_.bytes + in_flight_bytes_ +
                                     qdisc_->backlog_bytes(),
             "egress byte conservation broken after submit: submitted=",
             submitted_bytes_, " transmitted=", counters_.bytes,
             " in_flight=", in_flight_bytes_,
             " backlog=", qdisc_->backlog_bytes());
  kick();
}

void EgressPort::set_qdisc(std::unique_ptr<Qdisc> qdisc) {
  TLS_CHECK(qdisc, "set_qdisc(nullptr)");
  std::vector<Chunk> backlog;
  Bytes before = qdisc_->backlog_bytes();
  qdisc_->drain(backlog);
  qdisc_ = std::move(qdisc);
  qdisc_->set_obs(sim_.tracer(), host_);
  for (const Chunk& c : backlog) qdisc_->enqueue(c);
  TLS_DCHECK(qdisc_->backlog_bytes() == before,
             "qdisc replacement lost bytes: before=", before, " after=",
             qdisc_->backlog_bytes());
  kick();
}

void EgressPort::kick() {
  if (busy_) return;
  DequeueResult r = qdisc_->dequeue(sim_.now());
  switch (r.kind) {
    case DequeueResult::Kind::kChunk: {
      if (retry_armed_) {
        sim_.cancel(retry_event_);
        retry_armed_ = false;
      }
      busy_ = true;
      const Chunk& chunk = r.chunk;
      if (TLS_OBS_ACTIVE(sim_.tracer())) {
        sim_.tracer()->chunk_dequeue(sim_.now(), host_, chunk.job, chunk.band,
                                     static_cast<std::int64_t>(chunk.flow),
                                     chunk.index, chunk.size,
                                     sim_.now() - chunk.enqueued_at);
      }
      in_flight_bytes_ += chunk.size;
      sim_.schedule_after(transmit_time(chunk.size, rate_),
                          [this, chunk] { finish_transmit(chunk); });
      break;
    }
    case DequeueResult::Kind::kWaitUntil: {
      // Re-arm the poll; a newer enqueue may land earlier, in which case
      // kick() runs again and the earlier of the two polls wins.
      if (retry_armed_) sim_.cancel(retry_event_);
      retry_armed_ = true;
      retry_event_ = sim_.schedule_at(std::max(r.retry_at, sim_.now() + sim::Time{1}),
                                      [this] {
                                        retry_armed_ = false;
                                        kick();
                                      });
      break;
    }
    case DequeueResult::Kind::kIdle:
      break;
  }
}

void EgressPort::set_host(HostId host) {
  host_ = host;
  qdisc_->set_obs(sim_.tracer(), host_);
}

void EgressPort::finish_transmit(const Chunk& chunk) {
  busy_ = false;
  counters_.bytes += chunk.size;
  ++counters_.chunks;
  in_flight_bytes_ -= chunk.size;
  TLS_CHECK(in_flight_bytes_ >= Bytes{0}, "egress in-flight bytes went negative: ",
            in_flight_bytes_);
  TLS_DCHECK(submitted_bytes_ == counters_.bytes + in_flight_bytes_ +
                                     qdisc_->backlog_bytes(),
             "egress byte conservation broken after transmit: submitted=",
             submitted_bytes_, " transmitted=", counters_.bytes,
             " in_flight=", in_flight_bytes_,
             " backlog=", qdisc_->backlog_bytes());
  on_transmit_(chunk);
  kick();
}

IngressPort::IngressPort(sim::Simulator& simulator, Rate rate,
                         Delivered on_delivered)
    : sim_(simulator), rate_(rate), on_delivered_(std::move(on_delivered)) {
  TLS_CHECK(rate_ > Rate{0.0}, "ingress port rate must be positive, got ", rate_);
  TLS_CHECK(on_delivered_, "ingress port with null delivery callback");
}

void IngressPort::arrive(const Chunk& chunk) {
  TLS_CHECK(chunk.size >= Bytes{0}, "ingress arrival of negative-size chunk: ",
            chunk.size);
  if (TLS_OBS_ACTIVE(sim_.tracer())) {
    sim_.tracer()->ingress_arrive(sim_.now(), host_, chunk.job, chunk.band,
                                  static_cast<std::int64_t>(chunk.flow),
                                  chunk.index, chunk.size);
  }
  queue_.push_back({chunk, sim_.now()});
  backlog_bytes_ += chunk.size;
  if (!busy_) serve_next();
}

void IngressPort::serve_next() {
  if (queue_.empty()) {
    busy_ = false;
    return;
  }
  busy_ = true;
  serving_ = queue_.take_front();
  backlog_bytes_ -= serving_.chunk.size;
  TLS_CHECK(backlog_bytes_ >= Bytes{0}, "ingress backlog went negative: ",
            backlog_bytes_);
  serving_wait_ = sim_.now() - serving_.at;
  sim_.schedule_after(transmit_time(serving_.chunk.size, rate_),
                      [this] { finish_delivery(); });
}

void IngressPort::finish_delivery() {
  const Chunk& c = serving_.chunk;
  counters_.bytes += c.size;
  ++counters_.chunks;
  if (TLS_OBS_ACTIVE(sim_.tracer())) {
    sim_.tracer()->ingress_deliver(sim_.now(), host_, c.job, c.band,
                                   static_cast<std::int64_t>(c.flow), c.index,
                                   c.size, serving_wait_,
                                   sim_.now() - serving_.at);
  }
  // busy_ stays set through the callback, so a re-entrant arrive() only
  // queues and serving_ is not overwritten before serve_next() below.
  on_delivered_(c);
  serve_next();
}

}  // namespace tls::net
