// Simulator-core microbenchmark: the product EventQueue (a binary heap of
// 24-byte keys over a slot table of inline callbacks) against the seed
// binary-heap implementation, plus a 1000-host synthetic fabric drain
// exercising the SoA chunk rings.
//
// The legacy queue is embedded below verbatim (modulo namespace) so the
// comparison always measures the actual seed behavior — in particular its
// O(n) cancel scan and its std::function per entry, which the slot table
// replaces with a generation check and an inline callback.
//
// Knobs:
//   TLS_BENCH_SIMCORE_OPS   reference op count per queue mix (default 20000;
//                           the CI sanitizer smoke uses a much smaller value)
//   TLS_BENCH_ITERS/--iters scales the fabric drain (bytes per flow)
//   TLS_BENCH_JSON_DIR      where BENCH_simcore.json lands
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <utility>
#include <vector>

#include "common.hpp"
#include "net/fabric.hpp"
#include "simcore/event_queue.hpp"
#include "simcore/simulator.hpp"

namespace legacy {

using tls::sim::Time;
using tls::sim::kTimeMin;

struct EventId {
  std::uint64_t seq = 0;
};

/// The seed binary-heap queue, kept as the benchmark baseline. Cancellation
/// is an O(n) heap scan plus a sorted-insert tombstone set.
class EventQueue {
 public:
  using Callback = std::function<void()>;

  EventId schedule(Time at, Callback cb) {
    std::uint64_t seq = next_seq_++;
    heap_.push_back(Entry{at, seq, std::move(cb)});
    std::push_heap(heap_.begin(), heap_.end(), std::greater<>());
    ++live_;
    return EventId{seq};
  }

  bool cancel(EventId id) {
    if (id.seq == 0 || id.seq >= next_seq_) return false;
    if (is_cancelled(id.seq)) return false;
    // The event may already have fired; verify it is still in the heap.
    bool pending = std::any_of(heap_.begin(), heap_.end(),
                               [&](const Entry& e) { return e.seq == id.seq; });
    if (!pending) return false;
    auto it = std::lower_bound(cancelled_.begin(), cancelled_.end(), id.seq);
    cancelled_.insert(it, id.seq);
    --live_;
    return true;
  }

  bool empty() const { return live_ == 0; }
  std::size_t size() const { return live_; }

  Time peek_time() {
    skim();
    return heap_.front().at;
  }

  std::pair<Time, Callback> pop() {
    skim();
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>());
    Entry e = std::move(heap_.back());
    heap_.pop_back();
    --live_;
    last_pop_time_ = e.at;
    return {e.at, std::move(e.cb)};
  }

 private:
  struct Entry {
    Time at;
    std::uint64_t seq;
    Callback cb;
    bool operator>(const Entry& o) const {
      return at != o.at ? at > o.at : seq > o.seq;
    }
  };

  bool is_cancelled(std::uint64_t seq) const {
    return std::binary_search(cancelled_.begin(), cancelled_.end(), seq);
  }

  void skim() {
    while (!heap_.empty() && is_cancelled(heap_.front().seq)) {
      std::uint64_t seq = heap_.front().seq;
      std::pop_heap(heap_.begin(), heap_.end(), std::greater<>());
      heap_.pop_back();
      auto it = std::lower_bound(cancelled_.begin(), cancelled_.end(), seq);
      cancelled_.erase(it);
    }
  }

  std::vector<Entry> heap_;
  std::vector<std::uint64_t> cancelled_;  // sorted-insert small set
  std::uint64_t next_seq_ = 1;
  std::size_t live_ = 0;
  Time last_pop_time_ = kTimeMin;
};

}  // namespace legacy

namespace {

using tls::sim::Time;

/// Deterministic 64-bit LCG: both queues see the identical op stream.
struct Lcg {
  std::uint64_t s;
  std::uint64_t next() {
    s = s * 6364136223846793005ull + 1442695040888963407ull;
    return s >> 33;
  }
};

struct MixResult {
  std::uint64_t events = 0;  // schedules + cancels + pops performed
  double wall_s = 0.0;
  double events_per_sec() const {
    return wall_s > 0 ? static_cast<double>(events) / wall_s : 0.0;
  }
};

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Transmit-completion pattern: monotone near-future schedules interleaved
/// with pops — the shape a busy NIC drives.
template <class Q>
MixResult run_fifo_mix(std::size_t n) {
  Q q;
  Lcg rng{11};
  MixResult r;
  double t0 = now_s();
  Time horizon = tls::sim::Time{0};
  for (std::size_t i = 0; i < n; ++i) {
    q.schedule(horizon + static_cast<Time>(rng.next() % 4096), [] {});
    if (i % 2 == 1) {
      horizon = q.peek_time();
      q.pop();
    }
  }
  while (!q.empty()) q.pop();
  r.events = 2 * n;
  r.wall_s = now_s() - t0;
  return r;
}

/// Retry-timer pattern: a large standing set where half the handles are
/// cancelled before firing. This is the seed queue's quadratic path.
template <class Q>
MixResult run_cancel_heavy(std::size_t n) {
  Q q;
  Lcg rng{22};
  std::vector<decltype(q.schedule(Time{0}, [] {}))> ids;
  ids.reserve(n);
  MixResult r;
  double t0 = now_s();
  for (std::size_t i = 0; i < n; ++i) {
    ids.push_back(q.schedule(static_cast<Time>(rng.next() % (1u << 26)), [] {}));
  }
  for (std::size_t i = 0; i < n; i += 2) q.cancel(ids[i]);
  while (!q.empty()) q.pop();
  r.events = 2 * n;  // n schedules + n/2 cancels + n/2 pops
  r.wall_s = now_s() - t0;
  return r;
}

/// Random mix over spread-out horizons: schedules far ahead of the pops,
/// with cancels whose tombstones wait in the queue until they surface.
template <class Q>
MixResult run_mixed_horizon(std::size_t n) {
  Q q;
  Lcg rng{33};
  std::vector<decltype(q.schedule(Time{0}, [] {}))> ids;
  MixResult r;
  double t0 = now_s();
  Time horizon = tls::sim::Time{0};
  for (std::size_t op = 0; op < n; ++op) {
    std::uint64_t roll = rng.next() % 100;
    if (roll < 50 || q.empty()) {
      ids.push_back(q.schedule(
          horizon + static_cast<Time>(rng.next() % (1u << 20)), [] {}));
    } else if (roll < 70 && !ids.empty()) {
      q.cancel(ids[rng.next() % ids.size()]);
    } else {
      horizon = q.pop().first;
    }
  }
  while (!q.empty()) q.pop();
  r.events = n;
  r.wall_s = now_s() - t0;
  return r;
}

struct DrainResult {
  int hosts = 0;
  std::uint64_t flows = 0;
  std::uint64_t sim_events = 0;
  double wall_s = 0.0;
  double events_per_sec = 0.0;
};

/// 1000 hosts on the star fabric, one bulk flow per host to a distant peer,
/// run to completion, with deep per-port backlogs (large flow window).
DrainResult run_drain(int hosts, tls::net::Bytes bytes_per_flow) {
  tls::sim::Simulator simulator(1);
  tls::net::FabricConfig config;
  config.num_hosts = hosts;
  config.chunk_size = 64 * tls::net::kKiB;
  config.flow_window = 32;
  tls::net::Fabric fabric(simulator, config);
  std::uint64_t completed = 0;
  for (int h = 0; h < hosts; ++h) {
    tls::net::FlowSpec spec;
    spec.src = tls::net::HostId{h};
    spec.dst = tls::net::HostId{(h + hosts / 2 + 1) % hosts};
    spec.bytes = bytes_per_flow;
    fabric.start_flow(spec, [&completed](const tls::net::FlowRecord&) {
      ++completed;
    });
  }
  double t0 = now_s();
  simulator.run();
  DrainResult r;
  r.wall_s = now_s() - t0;
  r.hosts = hosts;
  r.flows = completed;
  r.sim_events = simulator.dispatched();
  r.events_per_sec =
      r.wall_s > 0 ? static_cast<double>(r.sim_events) / r.wall_s : 0.0;
  return r;
}

void write_json(std::size_t ops, const MixResult& fifo_new,
                const MixResult& fifo_old, const MixResult& cancel_new,
                const MixResult& cancel_old, const MixResult& mixed_new,
                const MixResult& mixed_old, const DrainResult& drain,
                double total_wall_s) {
  const char* dir = std::getenv("TLS_BENCH_JSON_DIR");
  std::string path = std::string(dir != nullptr && *dir != '\0' ? dir : ".") +
                     "/BENCH_simcore.json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;  // timing is best-effort, never fails a bench
  auto ratio = [](const MixResult& a, const MixResult& b) {
    return b.events_per_sec() > 0 ? a.events_per_sec() / b.events_per_sec()
                                  : 0.0;
  };
  std::fprintf(
      f,
      "{\n"
      "  \"bench\": \"simcore\",\n"
      "  \"wall_s\": %.6f,\n"
      "  \"iters\": %lld,\n"
      "  \"ref_ops\": %llu,\n"
      "  \"fifo_mix\": {\"queue_eps\": %.0f, \"heap_eps\": %.0f, "
      "\"speedup\": %.2f},\n"
      "  \"cancel_heavy\": {\"queue_eps\": %.0f, \"heap_eps\": %.0f, "
      "\"speedup\": %.2f},\n"
      "  \"mixed_horizon\": {\"queue_eps\": %.0f, \"heap_eps\": %.0f, "
      "\"speedup\": %.2f},\n"
      "  \"drain\": {\"hosts\": %d, \"flows\": %llu, \"sim_events\": %llu,\n"
      "            \"events_per_sec\": %.0f}\n"
      "}\n",
      total_wall_s, static_cast<long long>(tls::bench::bench_iters()),
      static_cast<unsigned long long>(ops), fifo_new.events_per_sec(),
      fifo_old.events_per_sec(), ratio(fifo_new, fifo_old),
      cancel_new.events_per_sec(), cancel_old.events_per_sec(),
      ratio(cancel_new, cancel_old), mixed_new.events_per_sec(),
      mixed_old.events_per_sec(), ratio(mixed_new, mixed_old), drain.hosts,
      static_cast<unsigned long long>(drain.flows),
      static_cast<unsigned long long>(drain.sim_events), drain.events_per_sec);
  std::fclose(f);
}

void print_mix(const char* name, const MixResult& queue,
               const MixResult& heap) {
  double speedup = heap.events_per_sec() > 0
                       ? queue.events_per_sec() / heap.events_per_sec()
                       : 0.0;
  std::printf("%-14s  queue %12.0f ev/s   heap %12.0f ev/s   %7.1fx\n", name,
              queue.events_per_sec(), heap.events_per_sec(), speedup);
}

}  // namespace

int main(int argc, char** argv) {
  tls::bench::init(argc, argv);
  tls::bench::print_header(
      "bench_simcore: event-queue and fabric-drain throughput",
      "simulator core must sustain datacenter-scale event rates");

  std::size_t ops = static_cast<std::size_t>(
      tls::bench::env_long("TLS_BENCH_SIMCORE_OPS", 20000));
  double t0 = now_s();

  std::printf("Queue mixes (%llu reference ops each):\n",
              static_cast<unsigned long long>(ops));
  MixResult fifo_new = run_fifo_mix<tls::sim::EventQueue>(ops);
  MixResult fifo_old = run_fifo_mix<legacy::EventQueue>(ops);
  print_mix("fifo", fifo_new, fifo_old);
  MixResult cancel_new = run_cancel_heavy<tls::sim::EventQueue>(ops);
  MixResult cancel_old = run_cancel_heavy<legacy::EventQueue>(ops);
  print_mix("cancel-heavy", cancel_new, cancel_old);
  MixResult mixed_new = run_mixed_horizon<tls::sim::EventQueue>(ops);
  MixResult mixed_old = run_mixed_horizon<legacy::EventQueue>(ops);
  print_mix("mixed-horizon", mixed_new, mixed_old);

  // Fabric drain: 1000 hosts, one flow each, scaled by --iters.
  int hosts = static_cast<int>(tls::bench::env_long("TLS_BENCH_SIMCORE_HOSTS",
                                                    1000));
  tls::net::Bytes bytes_per_flow =
      64 * tls::net::kKiB *
      static_cast<std::int64_t>(tls::bench::bench_iters());
  DrainResult drain = run_drain(hosts, bytes_per_flow);
  std::printf(
      "\n%d-host drain: %llu flows, %llu sim events in %.2fs (%.0f ev/s)\n",
      drain.hosts, static_cast<unsigned long long>(drain.flows),
      static_cast<unsigned long long>(drain.sim_events), drain.wall_s,
      drain.events_per_sec);

  write_json(ops, fifo_new, fifo_old, cancel_new, cancel_old, mixed_new,
             mixed_old, drain, now_s() - t0);

  bool ok = drain.flows == static_cast<std::uint64_t>(drain.hosts);
  std::printf("\n%s\n", ok ? "DRAIN-COMPLETE" : "DRAIN-INCOMPLETE");
  return ok ? 0 : 1;
}
