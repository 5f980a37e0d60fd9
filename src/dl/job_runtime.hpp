// Runtime state machine of one distributed DL job on the simulated cluster.
//
// Synchronous mode (the paper's focus) follows Figure 1 of the paper:
//   each PS shard broadcasts its slice of the model to every worker; a
//   worker computes one local batch once it holds *all* shards, pushes one
//   gradient shard to every PS, and blocks in the barrier; a PS that holds
//   all gradient shards aggregates and broadcasts the next model slice.
// With num_ps == 1 this is exactly the paper's main setup; with more, the
// "general case where one DL job has multiple PSes" (Section II).
// A worker's barrier wait runs from local-compute completion (gradient
// transfers start) to full receipt of the next model update (all shards),
// matching the paper's in-graph barrier instrumentation.
#pragma once

#include <functional>
#include <vector>

#include "dl/barrier_log.hpp"
#include "dl/job.hpp"
#include "dl/transmission_gate.hpp"
#include "net/fabric.hpp"
#include "simcore/rng.hpp"
#include "simcore/simulator.hpp"

namespace tls::dl {

/// Callback invoked with every CPU-busy interval [begin, end) on a host;
/// the utilization sampler bins these (the vmstat analog).
using BusySink = std::function<void(net::HostId, sim::Time, sim::Time)>;

class JobRuntime {
 public:
  /// `on_finish` fires once, when the job reaches its global-step target.
  /// `busy_sink` may be empty. Asynchronous training requires num_ps == 1.
  JobRuntime(sim::Simulator& simulator, net::Fabric& fabric, JobSpec spec,
             JobPlacement placement, std::function<void()> on_finish = {},
             BusySink busy_sink = {});

  JobRuntime(const JobRuntime&) = delete;
  JobRuntime& operator=(const JobRuntime&) = delete;

  /// Installs a transmission-coordination gate (may be null). Model-update
  /// bursts then wait for a grant before entering the network and release
  /// the gate on full delivery. Only affects synchronous broadcasts; must
  /// be set before start().
  void set_transmission_gate(TransmissionGate* gate) { gate_ = gate; }

  /// Launches the job: the initial model broadcast leaves every PS now.
  void start();

  /// Evicts the job mid-flight (dynamic-cluster departures): the job
  /// finishes *now* — on_finish fires, departure listeners run — while
  /// chunks already inside the network drain normally (their completion
  /// callbacks no-op on the finished job), so qdisc byte conservation
  /// holds across the eviction. Idempotent; a no-op after normal
  /// completion.
  void request_stop();

  bool started() const { return started_; }
  bool finished() const { return finished_; }
  /// True when the job ended via request_stop() rather than reaching its
  /// global-step target.
  bool evicted() const { return evicted_; }
  sim::Time finish_time() const { return finish_time_; }
  /// Job completion time; only valid when finished().
  sim::Time jct() const { return finish_time_ - start_time_; }

  std::int64_t global_step() const { return global_step_; }
  std::int64_t iteration() const { return iteration_; }
  const JobSpec& spec() const { return spec_; }
  const JobPlacement& placement() const { return placement_; }
  const BarrierLog& barrier_log() const { return barrier_log_; }

  /// Total compute-busy time accumulated per worker index.
  const std::vector<sim::Time>& worker_busy() const { return worker_busy_; }
  /// Total aggregation-busy time over all PS shards.
  sim::Time ps_busy() const { return ps_busy_; }

 private:
  void broadcast_shard(int ps);
  void do_broadcast(int ps);
  void send_shard_to(int ps, int worker);
  void on_model_shard_received(int worker);
  void start_compute(int worker);
  void on_compute_done(int worker);
  void on_gradient_received(int ps);
  void complete_shard_barrier(int ps);
  void finish_job();
  void mark_busy(net::HostId host, sim::Time begin, sim::Time end);
  std::uint16_t worker_port(int worker) const;

  sim::Simulator& sim_;
  net::Fabric& fabric_;
  JobSpec spec_;
  JobPlacement placement_;
  std::function<void()> on_finish_;
  BusySink busy_sink_;
  sim::Rng rng_;

  bool started_ = false;
  bool finished_ = false;
  bool evicted_ = false;
  sim::Time start_time_{};
  sim::Time finish_time_{};
  std::int64_t global_step_ = 0;
  std::int64_t iteration_ = 0;  // completed sync iterations (slowest shard)
  std::int64_t iterations_needed_ = 0;

  // Per-worker state.
  std::vector<std::int64_t> local_steps_;
  std::vector<int> shards_received_;       // model shards held this round
  std::vector<sim::Time> barrier_enter_;   // compute-done instant; -1 = not in barrier
  std::vector<double> pending_waits_;      // waits for the barrier in flight
  int waits_exited_ = 0;                   // workers that exited that barrier
  std::vector<sim::Time> worker_busy_;

  // Per-PS-shard state.
  std::vector<int> ps_gradients_pending_;
  std::vector<std::int64_t> ps_iterations_;
  std::vector<int> burst_outstanding_;  // undelivered model flows per shard
  sim::Time ps_busy_{};
  TransmissionGate* gate_ = nullptr;

  BarrierLog barrier_log_;
};

}  // namespace tls::dl
