#include "reference.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <queue>
#include <string>
#include <unordered_map>
#include <vector>

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

constexpr int kEvents = 400000;
constexpr int kFlows = 20000;
constexpr int kHosts = 64;
// Per-event state spread over 32 MB, touched at random like the
// simulator's per-flow and per-port records, so the loop misses in cache
// and TLB the way a paper-scale pass does.
constexpr std::size_t kStateWords = std::size_t{32} << 17;
constexpr int kTextRows = 200000;

std::uint64_t splitmix(std::uint64_t* state) {
  std::uint64_t z = (*state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Flow {
  std::uint64_t left = 0;
  std::uint64_t host = 0;
};

struct Event {
  std::int64_t at = 0;
  std::uint64_t seq = 0;
  std::function<void()> fire;
};

struct Later {
  bool operator()(const Event& a, const Event& b) const {
    return a.at != b.at ? a.at > b.at : a.seq > b.seq;
  }
};

/// 56 bytes, like the simulator's per-chunk capture, so every callback
/// allocates.
struct Chunk {
  std::uint64_t flow;
  std::uint64_t bytes;
  std::uint64_t pad[4];
  std::int64_t due;
};

/// Returns a checksum of the final state so the work cannot be elided.
std::uint64_t event_loop() {
  std::priority_queue<Event, std::vector<Event>, Later> queue;
  std::unordered_map<std::uint64_t, Flow> flows;
  std::vector<std::uint64_t> host_bytes(kHosts);
  std::vector<std::uint64_t> state(kStateWords, 1);
  std::uint64_t rng = 11;
  std::uint64_t seq = 0;
  std::int64_t now = 0;
  std::function<void(const Chunk&)> send = [&](const Chunk& c) {
    queue.push(Event{c.due, seq++, [&, c] {
      Flow& f = flows[c.flow];
      const std::uint64_t sent = std::min(f.left, c.bytes);
      f.left -= sent;
      host_bytes[f.host] += sent;
      state[splitmix(&rng) % kStateWords] += sent;
      Chunk next = c;
      if (f.left == 0) {
        flows.erase(c.flow);
        next.flow = splitmix(&rng);
        flows[next.flow] = Flow{std::uint64_t{1} << 20, next.flow % kHosts};
      }
      next.due = now + 1 + static_cast<std::int64_t>(splitmix(&rng) % 5000);
      send(next);
    }});
  };
  for (int i = 0; i < kFlows; ++i) {
    const std::uint64_t id = splitmix(&rng);
    flows[id] = Flow{(std::uint64_t{1} << 20) + (id % 1000) * 65536, id % kHosts};
    send(Chunk{id, 65536, {}, static_cast<std::int64_t>(id % 10000)});
  }
  for (int n = 0; n < kEvents; ++n) {
    Event e = std::move(const_cast<Event&>(queue.top()));
    queue.pop();
    now = e.at;
    e.fire();
  }
  std::uint64_t sum = flows.size();
  for (std::uint64_t b : host_bytes) sum += b;
  for (std::size_t i = 0; i < kStateWords; i += 4096) sum += state[i];
  return sum;
}

std::uint64_t text_round_trip() {
  std::string text;
  text.reserve(static_cast<std::size_t>(kTextRows) * 40);
  std::uint64_t rng = 5;
  char line[96];
  for (int i = 0; i < kTextRows; ++i) {
    const int n = std::snprintf(
        line, sizeof line, "%d,%llu,%llu,%.6f\n", i % 21,
        static_cast<unsigned long long>(splitmix(&rng) % 100000000),
        static_cast<unsigned long long>(splitmix(&rng) % 4096),
        static_cast<double>(splitmix(&rng) % 1000000) / 1e3);
    text.append(line, static_cast<std::size_t>(n));
  }
  std::uint64_t sum = 0;
  const char* p = text.c_str();
  const char* end = p + text.size();
  while (p < end) {
    char* next = nullptr;
    for (int field = 0; field < 3; ++field) {
      sum += std::strtoull(p, &next, 10);
      p = next + 1;
    }
    sum += static_cast<std::uint64_t>(std::strtod(p, &next) * 1e3);
    p = next + 1;
  }
  return sum;
}

}  // namespace

ReferenceTimes run_reference() {
  ReferenceTimes t;
  Clock::time_point t0 = Clock::now();
  const std::uint64_t events = event_loop();
  t.events_s = seconds_since(t0);
  t0 = Clock::now();
  const std::uint64_t text = text_round_trip();
  t.text_s = seconds_since(t0);
  t.checksum = events ^ (text * 1099511628211ull);
  return t;
}

}  // namespace perfbench
