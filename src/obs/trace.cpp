#include "obs/trace.hpp"

#include "obs/metrics_registry.hpp"
#include "simcore/parse.hpp"

namespace tls::obs {

namespace {

struct CatName {
  Cat cat;
  std::string_view name;
};

// Ordered to match the Cat bit layout; also the canonical listing order in
// error messages and docs.
constexpr CatName kCatNames[] = {
    {Cat::kChunk, "chunk"},        {Cat::kQdisc, "qdisc"},
    {Cat::kHtb, "htb"},            {Cat::kRotation, "rotation"},
    {Cat::kBarrier, "barrier"},    {Cat::kStraggler, "straggler"},
    {Cat::kSample, "sample"},      {Cat::kFlow, "flow"},
    {Cat::kIngress, "ingress"},    {Cat::kCompute, "compute"},
};

/// Canonical comma-separated listing of every category name, embedded in
/// both parse_categories' and parse_sampling's unknown-name diagnostics so
/// the two flags never drift apart.
std::string known_categories() {
  std::string known;
  for (const CatName& cn : kCatNames) {
    if (!known.empty()) known += ",";
    known += cn.name;
  }
  return known;
}

}  // namespace

int cat_index(Cat cat) {
  std::uint32_t bits = static_cast<std::uint32_t>(cat);
  for (int i = 0; i < kNumCats; ++i) {
    if (bits == (1u << i)) return i;
  }
  return kNumCats - 1;
}

const char* to_string(Cat cat) {
  for (const CatName& cn : kCatNames) {
    if (cn.cat == cat) return cn.name.data();
  }
  return "?";
}

bool cat_from_string(std::string_view name, Cat* out) {
  for (const CatName& cn : kCatNames) {
    if (cn.name == name) {
      *out = cn.cat;
      return true;
    }
  }
  return false;
}

bool parse_categories(const std::string& text, std::uint32_t* mask,
                      std::string* error) {
  std::uint32_t out = 0;
  bool saw_token = false;
  for (std::string_view item : sim::split(text, ',')) {
    std::string_view tok = sim::trim(item);
    if (tok.empty()) continue;
    saw_token = true;
    Cat cat{};
    if (tok == "all") {
      out |= kAllCats;
    } else if (tok == "none") {
      // Explicitly contributes no bits; lets "--trace-filter none" mean
      // "trace file requested but empty" for overhead measurement.
    } else if (cat_from_string(tok, &cat)) {
      out |= static_cast<std::uint32_t>(cat);
    } else {
      if (error != nullptr) {
        *error = "unknown trace category '" + std::string(tok) +
                 "' (expected all, none, or a comma list of " +
                 known_categories() + ")";
      }
      return false;
    }
  }
  if (!saw_token) {
    if (error != nullptr) *error = "empty trace category filter";
    return false;
  }
  *mask = out;
  return true;
}

bool parse_sampling(const std::string& text, std::uint32_t* out,
                    std::string* error) {
  bool saw_token = false;
  for (std::string_view item : sim::split(text, ',')) {
    std::string_view tok = sim::trim(item);
    if (tok.empty()) continue;
    saw_token = true;
    std::string_view term[2];
    Cat cat{};
    std::uint32_t n = 0;
    if (sim::split(tok, '=', term, 2) != 2 || !cat_from_string(term[0], &cat) ||
        !sim::parse_int(term[1], &n, 1)) {
      if (error != nullptr) {
        *error = "bad sampling term '" + std::string(tok) +
                 "' (expected a comma list of cat=N with N >= 1 and cat "
                 "one of " +
                 known_categories() + ", e.g. qdisc=16,htb=8)";
      }
      return false;
    }
    out[cat_index(cat)] = n;
  }
  if (!saw_token) {
    if (error != nullptr) *error = "empty sampling spec";
    return false;
  }
  return true;
}

void Tracer::set_sample_every(Cat cat, std::uint32_t n) {
  if (n == 0) n = 1;
  std::uint32_t bit = static_cast<std::uint32_t>(cat);
  if ((bit & kAnalysisCats) != 0) n = 1;  // keep the critical chain
  sample_every_[cat_index(cat)] = n;
}

void Tracer::push(const TraceEvent& e) {
  int ci = cat_index(e.cat);
  std::uint32_t every = sample_every_[ci];
  if (every > 1 && (sample_seen_[ci]++ % every) != 0) {
    ++health_.sampled_out_total;
    ++health_.sampled_out_by_cat[ci];
    return;
  }
  if (max_events_ != 0 && accepted_ >= max_events_) {
    ++health_.dropped_total;
    ++health_.dropped_by_cat[ci];
    return;
  }
  ++accepted_;
  if (retain_) events_.push_back(e);
  for (TraceSink* sink : sinks_) sink->on_event(e);
}

void Tracer::chunk_enqueue(sim::Time at, net::HostId host, std::int32_t job,
                           net::BandId band, std::int64_t flow,
                           std::int64_t index, net::Bytes bytes) {
  if (registry_ != nullptr) {
    registry_->counter("chunks_enqueued", host.idx(), -1, band.idx()).add(1);
  }
  if (!enabled(Cat::kChunk)) return;
  TraceEvent e;
  e.at = at;
  e.kind = EventKind::kChunkEnqueue;
  e.cat = Cat::kChunk;
  e.host = host.idx();
  e.job = job;
  e.band = band.idx();
  e.flow = flow;
  e.bytes = bytes.raw();
  e.b = index;
  push(e);
}

void Tracer::chunk_dequeue(sim::Time at, net::HostId host, std::int32_t job,
                           net::BandId band, std::int64_t flow,
                           std::int64_t index, net::Bytes bytes,
                           sim::Time queue_wait) {
  if (registry_ != nullptr) {
    registry_->counter("bytes_drained", host.idx(), -1, band.idx())
        .add(bytes.raw());
    registry_->histogram("queue_wait_ns", host.idx(), -1, band.idx())
        .record(sim::to_nanos(queue_wait));
  }
  if (!enabled(Cat::kChunk)) return;
  TraceEvent e;
  e.at = at;
  e.kind = EventKind::kChunkDequeue;
  e.cat = Cat::kChunk;
  e.host = host.idx();
  e.job = job;
  e.band = band.idx();
  e.flow = flow;
  e.bytes = bytes.raw();
  e.a = sim::to_nanos(queue_wait);
  e.b = index;
  push(e);
}

void Tracer::band_service(sim::Time at, net::HostId host, net::BandId band,
                          net::Bytes bytes) {
  if (registry_ != nullptr) {
    registry_->counter("band_services", host.idx(), -1, band.idx()).add(1);
  }
  if (!enabled(Cat::kQdisc)) return;
  TraceEvent e;
  e.at = at;
  e.kind = EventKind::kBandService;
  e.cat = Cat::kQdisc;
  e.host = host.idx();
  e.band = band.idx();
  e.bytes = bytes.raw();
  push(e);
}

void Tracer::htb_send(sim::Time at, net::HostId host, net::BandId band,
                      net::Bytes bytes, bool borrowed) {
  if (registry_ != nullptr) {
    registry_->counter(borrowed ? "htb_yellow_bytes" : "htb_green_bytes",
                       host.idx(), -1, band.idx())
        .add(bytes.raw());
  }
  if (!enabled(Cat::kHtb)) return;
  TraceEvent e;
  e.at = at;
  e.kind = borrowed ? EventKind::kHtbYellow : EventKind::kHtbGreen;
  e.cat = Cat::kHtb;
  e.host = host.idx();
  e.band = band.idx();
  e.bytes = bytes.raw();
  push(e);
}

void Tracer::overlimit(sim::Time at, net::HostId host, sim::Time retry_at) {
  if (registry_ != nullptr) {
    registry_->counter("overlimits", host.idx(), -1, -1).add(1);
    registry_->histogram("overlimit_stall_ns", host.idx(), -1, -1)
        .record(sim::to_nanos(retry_at > at ? retry_at - at : sim::Time{0}));
  }
  if (!enabled(Cat::kHtb)) return;
  TraceEvent e;
  e.at = at;
  e.kind = EventKind::kOverlimit;
  e.cat = Cat::kHtb;
  e.host = host.idx();
  e.a = sim::to_nanos(retry_at);
  push(e);
}

void Tracer::rotation(sim::Time at, std::int64_t offset) {
  if (registry_ != nullptr) {
    registry_->counter("rotations", -1, -1, -1).add(1);
  }
  if (!enabled(Cat::kRotation)) return;
  TraceEvent e;
  e.at = at;
  e.kind = EventKind::kRotation;
  e.cat = Cat::kRotation;
  e.a = offset;
  push(e);
}

void Tracer::band_assign(sim::Time at, net::HostId host, std::int32_t job,
                         net::BandId band) {
  if (registry_ != nullptr) {
    registry_->counter("band_assigns", host.idx(), job, band.idx()).add(1);
  }
  if (!enabled(Cat::kRotation)) return;
  TraceEvent e;
  e.at = at;
  e.kind = EventKind::kBandAssign;
  e.cat = Cat::kRotation;
  e.host = host.idx();
  e.job = job;
  e.band = band.idx();
  push(e);
}

void Tracer::barrier_enter(sim::Time at, std::int32_t job,
                           std::int32_t worker, std::int64_t iteration) {
  if (!enabled(Cat::kBarrier)) return;
  TraceEvent e;
  e.at = at;
  e.kind = EventKind::kBarrierEnter;
  e.cat = Cat::kBarrier;
  e.job = job;
  e.a = worker;
  e.b = iteration;
  push(e);
}

void Tracer::barrier_release(sim::Time at, std::int32_t job,
                             std::int32_t worker, std::int64_t iteration,
                             sim::Time wait) {
  if (registry_ != nullptr) {
    registry_->histogram("barrier_wait_ns", -1, job, -1)
        .record(sim::to_nanos(wait));
  }
  if (!enabled(Cat::kBarrier)) return;
  TraceEvent e;
  e.at = at;
  e.kind = EventKind::kBarrierRelease;
  e.cat = Cat::kBarrier;
  e.job = job;
  e.a = worker;
  e.b = iteration;
  e.dur = wait;
  push(e);
}

void Tracer::flow_start(sim::Time at, net::HostId src, net::HostId dst,
                        std::int32_t job, std::int32_t kind_ordinal,
                        std::int64_t flow, net::Bytes bytes,
                        std::int64_t iteration) {
  if (registry_ != nullptr) {
    registry_->counter("flows_started", src.idx(), job, -1).add(1);
  }
  if (!enabled(Cat::kFlow)) return;
  TraceEvent e;
  e.at = at;
  e.kind = EventKind::kFlowStart;
  e.cat = Cat::kFlow;
  e.host = src.idx();
  e.job = job;
  e.band = kind_ordinal;
  e.flow = flow;
  e.bytes = bytes.raw();
  e.a = dst.idx();
  e.b = iteration;
  push(e);
}

void Tracer::flow_end(sim::Time at, net::HostId src, net::HostId dst,
                      std::int32_t job, std::int32_t kind_ordinal,
                      std::int64_t flow, net::Bytes bytes,
                      std::int64_t iteration, sim::Time elapsed) {
  if (registry_ != nullptr) {
    registry_->counter("flows_completed", src.idx(), job, -1).add(1);
    registry_->histogram("flow_completion_ns", src.idx(), job, -1)
        .record(sim::to_nanos(elapsed));
  }
  if (!enabled(Cat::kFlow)) return;
  TraceEvent e;
  e.at = at;
  e.kind = EventKind::kFlowEnd;
  e.cat = Cat::kFlow;
  e.host = src.idx();
  e.job = job;
  e.band = kind_ordinal;
  e.flow = flow;
  e.bytes = bytes.raw();
  e.a = dst.idx();
  e.b = iteration;
  e.dur = elapsed;
  push(e);
}

void Tracer::ingress_arrive(sim::Time at, net::HostId host, std::int32_t job,
                            net::BandId band, std::int64_t flow,
                            std::int64_t index, net::Bytes bytes) {
  if (!enabled(Cat::kIngress)) return;
  TraceEvent e;
  e.at = at;
  e.kind = EventKind::kIngressArrive;
  e.cat = Cat::kIngress;
  e.host = host.idx();
  e.job = job;
  e.band = band.idx();
  e.flow = flow;
  e.bytes = bytes.raw();
  e.b = index;
  push(e);
}

void Tracer::ingress_deliver(sim::Time at, net::HostId host, std::int32_t job,
                             net::BandId band, std::int64_t flow,
                             std::int64_t index, net::Bytes bytes,
                             sim::Time wait, sim::Time residence) {
  if (registry_ != nullptr) {
    registry_->histogram("ingress_wait_ns", host.idx(), -1, -1)
        .record(sim::to_nanos(wait));
  }
  if (!enabled(Cat::kIngress)) return;
  TraceEvent e;
  e.at = at;
  e.kind = EventKind::kIngressDeliver;
  e.cat = Cat::kIngress;
  e.host = host.idx();
  e.job = job;
  e.band = band.idx();
  e.flow = flow;
  e.bytes = bytes.raw();
  e.a = sim::to_nanos(wait);
  e.b = index;
  e.dur = residence;
  push(e);
}

void Tracer::worker_compute(sim::Time at, net::HostId host, std::int32_t job,
                            std::int32_t worker, std::int64_t iteration,
                            sim::Time duration) {
  if (registry_ != nullptr) {
    registry_->histogram("worker_compute_ns", host.idx(), job, -1)
        .record(sim::to_nanos(duration));
  }
  if (!enabled(Cat::kCompute)) return;
  TraceEvent e;
  e.at = at;
  e.kind = EventKind::kWorkerCompute;
  e.cat = Cat::kCompute;
  e.host = host.idx();
  e.job = job;
  e.a = worker;
  e.b = iteration;
  e.dur = duration;
  push(e);
}

void Tracer::ps_aggregate(sim::Time at, net::HostId host, std::int32_t job,
                          std::int32_t shard, std::int64_t iteration,
                          sim::Time duration) {
  if (registry_ != nullptr) {
    registry_->histogram("ps_aggregate_ns", host.idx(), job, -1)
        .record(sim::to_nanos(duration));
  }
  if (!enabled(Cat::kCompute)) return;
  TraceEvent e;
  e.at = at;
  e.kind = EventKind::kPsAggregate;
  e.cat = Cat::kCompute;
  e.host = host.idx();
  e.job = job;
  e.a = shard;
  e.b = iteration;
  e.dur = duration;
  push(e);
}

void Tracer::straggler_lag(sim::Time at, std::int32_t job,
                           std::int64_t iteration, sim::Time lag) {
  if (registry_ != nullptr) {
    registry_->histogram("straggler_lag_ns", -1, job, -1)
        .record(sim::to_nanos(lag));
  }
  if (!enabled(Cat::kStraggler)) return;
  TraceEvent e;
  e.at = at;
  e.kind = EventKind::kStragglerLag;
  e.cat = Cat::kStraggler;
  e.job = job;
  e.a = iteration;
  e.b = sim::to_nanos(lag);
  push(e);
}

void Tracer::gauge_sample(sim::Time at, const std::string& name,
                          net::HostId host, std::int32_t job, double value) {
  if (registry_ != nullptr) {
    registry_->gauge(name, host.idx(), job, -1).set(value);
    registry_->record(at, name, host.idx(), job, -1, value);
  }
  if (!enabled(Cat::kSample)) return;
  TraceEvent e;
  e.at = at;
  e.kind = EventKind::kGaugeSample;
  e.cat = Cat::kSample;
  e.host = host.idx();
  e.job = job;
  // The sampled value, truncated; the registry keeps full precision.
  e.a = static_cast<std::int64_t>(value);
  push(e);
}

std::string per_run_path(const std::string& base, const std::string& label) {
  if (base.empty() || label.empty()) return base;
  std::string safe = label;
  for (char& c : safe) {
    if (c == '/' || c == '\\' || c == ' ') c = '-';
  }
  std::size_t slash = base.find_last_of('/');
  std::size_t dot = base.find_last_of('.');
  if (dot == std::string::npos ||
      (slash != std::string::npos && dot < slash)) {
    return base + "." + safe;
  }
  return base.substr(0, dot) + "." + safe + base.substr(dot);
}

}  // namespace tls::obs
