// Mutation test of the tc command DSL: parse_command and
// TrafficControl::exec are the only way TensorLights acts on the cluster.
// The seeds are the commands a short TLs-RR run really issues, on the htb
// and on the prio data plane. Every single edit of each distinct command
// is tried: each number field gets a letter among its digits, a '+', a
// space, a value one past a bound, 2^32, a 300-digit number, an unknown
// suffix and no digits at all, and each token is dropped, duplicated and
// swapped with the next. Each mutant the parser accepts takes its seed's
// place in the replayed command stream on a fresh 3-host TrafficControl,
// and two bursts then run up to 1 s of simulated time.
// Pass means no abort, no hang and, under the debug-ubsan preset (with
// float-cast-overflow), no undefined behaviour.
#include <gtest/gtest.h>

#include <cctype>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "cluster/placement.hpp"
#include "exp/session.hpp"
#include "simcore/parse.hpp"
#include "tc/tc.hpp"
#include "workload/gridsearch.hpp"

namespace tls::tc {
namespace {

constexpr int kHosts = 3;

net::FabricConfig fabric_config() {
  net::FabricConfig f;
  f.num_hosts = kHosts;
  f.link_rate = net::gbps(2.5);
  return f;
}

/// The tc commands a two-job TLs-RR run on three hosts issues: root and
/// class set-up, then a filter re-rank every 200 ms of rotation.
std::vector<std::string> issued_commands(core::DataPlane plane) {
  workload::GridSearchConfig w;
  w.num_jobs = 2;
  w.workers_per_job = 2;
  w.local_batch_size = 1;
  w.global_step_target = 2L * 4;
  core::ControllerConfig c;
  c.policy = core::PolicyKind::kTlsRR;
  c.data_plane = plane;
  c.rotation_interval = 200 * sim::kMillisecond;
  exp::Session session(3, kHosts, fabric_config(), c);
  cluster::Launcher& launcher = session.launcher();
  launcher.launch_all(
      workload::grid_search_jobs(w),
      cluster::assign_tasks(cluster::table1(1, w.num_jobs), kHosts,
                            w.workers_per_job),
      cluster::LaunchConfig{});
  session.run(60 * sim::kSecond, [&] { return launcher.all_finished(); });
  return session.control().history();
}

/// Replaces a number with a value just past a bound the DSL or the
/// simulator puts on it (prio 0..7, bands 1..16, ports, 32-bit prefs, hex
/// handle halves), with 2^32 and 2^32 + 2, or with values too large for
/// any integer or for a finite rate.
const std::vector<std::string> kHostileNumbers = {
    "-1",         "0",          "8",          "17",
    "19",         "65536",      "10000",      "2147483648",
    "4294967296", "4294967298", "9223372036854775808",
    std::string(300, '9'),
};

bool is_digit(char c) { return std::isdigit(static_cast<unsigned char>(c)); }

/// Every edit of one field: an unknown suffix, and for each run of digits
/// ("1:3f" has two) a letter among them, a '+', a space that splits the
/// field, each hostile number, and no digits at all.
std::vector<std::string> field_edits(const std::string& token) {
  std::vector<std::string> out = {token + "parsec"};
  for (std::size_t begin = 0; begin < token.size(); ++begin) {
    if (!is_digit(token[begin]) || (begin > 0 && is_digit(token[begin - 1]))) {
      continue;
    }
    std::size_t end = begin;
    while (end < token.size() && is_digit(token[end])) ++end;
    const std::string head = token.substr(0, begin);
    const std::string digits = token.substr(begin, end - begin);
    const std::string tail = token.substr(end);
    std::vector<std::string> runs = kHostileNumbers;
    runs.push_back(digits.substr(0, digits.size() - 1) + "x");
    runs.push_back("+" + digits);
    runs.push_back(digits.substr(0, 1) + " " + digits.substr(1));
    runs.push_back("");
    for (const std::string& run : runs) out.push_back(head + run + tail);
  }
  return out;
}

std::vector<std::string> split_words(const std::string& line) {
  std::vector<std::string> out;
  for (std::string_view w : sim::words(line)) out.emplace_back(w);
  return out;
}

std::string join(const std::vector<std::string>& words) {
  std::string out;
  for (const std::string& w : words) out += (out.empty() ? "" : " ") + w;
  return out;
}

/// Every single edit of `line`: each field edit of each word, and each
/// word dropped, duplicated, or swapped with the next.
std::vector<std::string> mutants_of(const std::string& line) {
  const std::vector<std::string> words = split_words(line);
  std::vector<std::string> out;
  for (std::size_t i = 0; i < words.size(); ++i) {
    const auto at = static_cast<std::ptrdiff_t>(i);
    std::vector<std::string> edited = words;
    for (const std::string& edit : field_edits(words[i])) {
      edited[i] = edit;
      out.push_back(join(edited));
    }
    edited = words;
    edited.erase(edited.begin() + at);
    out.push_back(join(edited));
    edited = words;
    edited.insert(edited.begin() + at, words[i]);
    out.push_back(join(edited));
    if (i + 1 < words.size()) {
      edited = words;
      std::swap(edited[i], edited[i + 1]);
      out.push_back(join(edited));
    }
  }
  return out;
}

/// The host whose filters steer PS ports, and those ports: where the
/// bursts leave from, so they are classified into the bands under test.
struct BurstSource {
  net::HostId host{0};
  std::vector<std::uint16_t> ports;
};

BurstSource burst_source(const std::vector<std::string>& commands) {
  BurstSource source;
  for (const std::string& line : commands) {
    std::vector<std::string> words = split_words(line);
    std::string_view dev;
    for (std::size_t i = 0; i + 1 < words.size(); ++i) {
      if (words[i] == "dev") dev = words[i + 1];
      std::uint16_t port = 0;
      int host = 0;
      if (words[i] == "sport" && sim::parse_int(words[i + 1], &port) &&
          dev.starts_with("host") && sim::parse_int(dev.substr(4), &host)) {
        source.ports.push_back(port);
        source.host = net::HostId{host};
      }
    }
  }
  return source;
}

/// Replays `commands` on a fresh 3-host fabric, with command `at` (if any)
/// replaced by `mutant`, then sends two 1 MiB bursts from the steered host
/// and runs up to 1 s. Returns how many commands exec refused.
int apply_and_run(const std::vector<std::string>& commands, std::size_t at,
                  const std::string& mutant, const BurstSource& source,
                  std::uint64_t seed) {
  sim::Simulator sim(seed);
  net::Fabric fabric(sim, fabric_config());
  TrafficControl control(fabric);
  int refused = 0;
  for (std::size_t i = 0; i < commands.size(); ++i) {
    if (!control.exec(i == at ? mutant : commands[i]).ok) ++refused;
  }
  for (std::size_t b = 0; b < 2; ++b) {
    net::FlowSpec f;
    f.src = source.host;
    f.dst = net::HostId{(source.host.idx() + 1 + static_cast<int>(b)) % kHosts};
    f.bytes = net::kMiB;
    f.src_port = source.ports[b % source.ports.size()];
    fabric.start_flow(f, [](const net::FlowRecord&) {});
  }
  sim.run(1 * sim::kSecond);
  return refused;
}

TEST(TcParserMutation, AcceptedMutantsApplyAndRunWithoutFault) {
  struct Seed {
    std::vector<std::string> commands;
    BurstSource source;
  };
  std::vector<Seed> seeds;
  for (core::DataPlane plane : {core::DataPlane::kHtb, core::DataPlane::kPrio}) {
    Seed seed{issued_commands(plane), {}};
    seed.source = burst_source(seed.commands);
    // Set-up plus rotation re-ranks, and the originals replay cleanly.
    ASSERT_GT(seed.commands.size(), 6u);
    ASSERT_GE(seed.source.ports.size(), 2u);
    ASSERT_EQ(apply_and_run(seed.commands, seed.commands.size(), "",
                            seed.source, 1),
              0);
    seeds.push_back(std::move(seed));
  }

  int rejected = 0;
  int accepted = 0;
  int applied = 0;
  for (const Seed& seed : seeds) {
    std::set<std::string> seen;
    for (std::size_t at = 0; at < seed.commands.size(); ++at) {
      if (!seen.insert(seed.commands[at]).second) continue;
      for (const std::string& mutant : mutants_of(seed.commands[at])) {
        ParseResult parsed = parse_command(mutant);
        if (!parsed.ok) {
          EXPECT_FALSE(parsed.error.empty()) << mutant;
          ++rejected;
          continue;
        }
        ++accepted;
        if (apply_and_run(seed.commands, at, mutant, seed.source, at) == 0) {
          ++applied;
        }
      }
    }
  }
  // Not vacuous: the parser refuses most mutants, and of the ones it
  // accepts some reach the data plane while exec refuses others.
  EXPECT_GT(rejected, 2000);
  EXPECT_GT(accepted, 800);
  EXPECT_GT(applied, 400);
  EXPECT_GT(accepted - applied, 400);
}

}  // namespace
}  // namespace tls::tc
