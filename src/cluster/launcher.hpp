// Job launcher: instantiates JobRuntimes, assigns stable PS ports, staggers
// starts (the paper spaces launches 0.1 s apart to avoid RPC/SSH overload),
// and publishes arrival/departure events — the hook the TensorLights
// controller subscribes to.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "dl/job_runtime.hpp"
#include "net/fabric.hpp"
#include "simcore/simulator.hpp"

namespace tls::cluster {

/// Observer of job lifecycle. Arrival fires *before* the job's first flow
/// enters the network, so a controller can install priorities in time;
/// departure fires when the job reaches its global-step target.
class JobEventListener {
 public:
  virtual ~JobEventListener() = default;
  virtual void on_job_arrival(const dl::JobSpec& spec,
                              const dl::JobPlacement& placement) = 0;
  virtual void on_job_departure(const dl::JobSpec& spec,
                                const dl::JobPlacement& placement) = 0;
};

struct LaunchConfig {
  /// Delay between consecutive job launches.
  sim::Time stagger = 100 * sim::kMillisecond;
};

/// Creates jobs on the simulated cluster. Every job, static or admitted,
/// holds one 64-port block while it runs: its PS shards listen on the
/// block's first ports and its workers on the ports after them, so a
/// job's PS shards plus workers must be at most 63. Blocks start at port
/// 5000 and are drawn lowest first from one pool that departures refill,
/// so the 16-bit port space holds 945 running jobs.
class Launcher {
 public:
  Launcher(sim::Simulator& simulator, net::Fabric& fabric);

  Launcher(const Launcher&) = delete;
  Launcher& operator=(const Launcher&) = delete;

  /// Listener lifetime must cover the simulation.
  void add_listener(JobEventListener* listener);

  /// Optional sink receiving every CPU-busy interval of every job.
  void set_busy_sink(dl::BusySink sink) { busy_sink_ = std::move(sink); }

  /// Optional transmission-coordination gate passed to every job created
  /// after this call (must outlive the simulation).
  void set_transmission_gate(dl::TransmissionGate* gate) { gate_ = gate; }

  /// Static batch: creates a job for each `specs[i]` placed at
  /// `placements[i]` now, and starts job i `config.stagger * i` after the
  /// current simulation time. On a fresh launcher job i gets port block i.
  void launch_all(std::vector<dl::JobSpec> specs,
                  std::vector<dl::JobPlacement> placements,
                  const LaunchConfig& config = {});

  /// Dynamic-cluster admission: creates one job and starts it at the
  /// current simulation time (arrival listeners fire first, as in
  /// launch_all). `on_departed` (optional) runs after the departure
  /// listeners when this job ends, whether by completion or eviction.
  dl::JobRuntime& admit(dl::JobSpec spec, dl::JobPlacement placement,
                        std::function<void(const dl::JobRuntime&)>
                            on_departed = {});

  /// Evicts a running job mid-flight; its departure fires exactly like a
  /// normal completion (listeners + on_departed + port-block release).
  /// No-op on an already-finished job.
  void evict(dl::JobRuntime& job) { job.request_stop(); }

  const std::vector<std::unique_ptr<dl::JobRuntime>>& jobs() const {
    return jobs_;
  }
  int finished_count() const { return finished_; }
  bool all_finished() const {
    return finished_ == static_cast<int>(jobs_.size()) && !jobs_.empty();
  }

 private:
  /// Creates one job on the lowest free port block, sets its ps_port and
  /// wires its departure; throws when the job's tasks overflow a block or
  /// no block is left.
  dl::JobRuntime& create(dl::JobSpec spec, dl::JobPlacement placement,
                         std::function<void(const dl::JobRuntime&)>
                             on_departed);
  /// Fires the arrival listeners and starts jobs_[index], unless it was
  /// evicted first.
  void start(std::size_t index);

  sim::Simulator& sim_;
  net::Fabric& fabric_;
  std::vector<JobEventListener*> listeners_;
  std::vector<std::unique_ptr<dl::JobRuntime>> jobs_;
  dl::BusySink busy_sink_;
  dl::TransmissionGate* gate_ = nullptr;
  int finished_ = 0;
  /// Port blocks returned by departed jobs, kept sorted descending.
  std::vector<std::uint16_t> free_slots_;
  std::uint16_t next_fresh_slot_ = 0;
};

}  // namespace tls::cluster
