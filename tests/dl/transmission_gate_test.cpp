// JobRuntime x TransmissionGate interaction: bursts wait for grants and
// always release, even across job completion.
#include <gtest/gtest.h>

#include <map>

#include "dl/job_runtime.hpp"

namespace tls::dl {
namespace {

/// Gate that records requests and grants immediately (asynchronously).
class RecordingGate : public TransmissionGate {
 public:
  explicit RecordingGate(sim::Simulator& simulator) : sim_(simulator) {}

  void request(net::HostId host, net::Bytes bytes,
               std::function<void()> grant) override {
    ++requests_;
    ++per_host_balance_[host];
    last_bytes_ = bytes;
    sim_.schedule_after(delay_, std::move(grant));
  }
  void release(net::HostId host) override {
    ++releases_;
    // Releases must pair with requests on the same host.
    EXPECT_GT(per_host_balance_[host], 0) << "release without request";
    --per_host_balance_[host];
  }

  void set_delay(sim::Time d) { delay_ = d; }
  int requests() const { return requests_; }
  int releases() const { return releases_; }
  net::Bytes last_bytes() const { return last_bytes_; }
  bool balanced() const {
    for (const auto& [host, n] : per_host_balance_) {
      (void)host;
      if (n != 0) return false;
    }
    return true;
  }

 private:
  sim::Simulator& sim_;
  sim::Time delay_ = tls::sim::Time{0};
  int requests_ = 0;
  int releases_ = 0;
  std::map<net::HostId, int> per_host_balance_;
  net::Bytes last_bytes_ = tls::net::Bytes{0};
};

net::FabricConfig ideal(int hosts) {
  net::FabricConfig c;
  c.num_hosts = hosts;
  c.tcp_weight_sigma = 0;
  c.protocol_overhead = 1.0;
  return c;
}

JobSpec small_job(int workers, std::int64_t target) {
  JobSpec spec;
  spec.model = zoo::resnet32_cifar10();
  spec.num_workers = workers;
  spec.local_batch_size = 1;
  spec.global_step_target = target;
  spec.compute_sigma = 0;
  spec.step_overhead = tls::sim::Time{0};
  spec.ps_port = 5000;
  return spec;
}

JobPlacement star(int workers) {
  JobPlacement p;
  p.ps_hosts = {tls::net::HostId{0}};
  for (int w = 0; w < workers; ++w) p.worker_hosts.push_back(net::HostId{1 + w});
  return p;
}

TEST(TransmissionGate, OneRequestAndReleasePerIteration) {
  sim::Simulator s(1);
  net::Fabric fab(s, ideal(4));
  RecordingGate gate(s);
  JobRuntime job(s, fab, small_job(3, 3 * 5), star(3));
  job.set_transmission_gate(&gate);
  job.start();
  s.run();
  EXPECT_TRUE(job.finished());
  // 5 iterations = 5 broadcasts.
  EXPECT_EQ(gate.requests(), 5);
  EXPECT_EQ(gate.releases(), 5);
  // The burst size is the whole fan-out.
  EXPECT_EQ(gate.last_bytes(),
            zoo::resnet32_cifar10().update_bytes() * 3);
}

TEST(TransmissionGate, GrantDelayStallsTheJob) {
  auto jct_with_delay = [](sim::Time delay) {
    sim::Simulator s(1);
    net::Fabric fab(s, ideal(4));
    RecordingGate gate(s);
    gate.set_delay(delay);
    JobRuntime job(s, fab, small_job(3, 3 * 4), star(3));
    job.set_transmission_gate(&gate);
    job.start();
    s.run();
    EXPECT_TRUE(job.finished());
    return job.jct();
  };
  sim::Time fast = jct_with_delay(tls::sim::Time{0});
  sim::Time slow = jct_with_delay(50 * sim::kMillisecond);
  // 4 iterations x 50 ms of gating each.
  EXPECT_NEAR(sim::to_seconds(slow - fast), 0.200, 0.02);
}

TEST(TransmissionGate, NoGateMeansNoCalls) {
  sim::Simulator s(1);
  net::Fabric fab(s, ideal(4));
  JobRuntime job(s, fab, small_job(3, 3 * 2), star(3));
  job.start();
  s.run();
  EXPECT_TRUE(job.finished());  // nothing to assert on the gate: none exists
}

TEST(TransmissionGate, MultiPsRequestsPerShard) {
  sim::Simulator s(1);
  net::Fabric fab(s, ideal(6));
  RecordingGate gate(s);
  JobSpec spec = small_job(3, 3 * 4);
  spec.num_ps = 2;
  JobPlacement p;
  p.ps_hosts = {tls::net::HostId{0}, tls::net::HostId{1}};
  p.worker_hosts = {tls::net::HostId{2}, tls::net::HostId{3}, tls::net::HostId{4}};
  JobRuntime job(s, fab, spec, p);
  job.set_transmission_gate(&gate);
  job.start();
  s.run();
  EXPECT_TRUE(job.finished());
  // 4 iterations x 2 shards.
  EXPECT_EQ(gate.requests(), 8);
  EXPECT_EQ(gate.releases(), 8);
  EXPECT_TRUE(gate.balanced());
}

}  // namespace
}  // namespace tls::dl
