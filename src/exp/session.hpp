// The one simulation driver. A Session builds the stack every simulated
// cluster needs — Simulator, observability wiring, Fabric, TrafficControl,
// Controller, BusyAccumulator, Launcher — runs it in 1 s slices that stop
// exactly at a hard time limit, and writes the observability artifacts.
// exp::run_experiment (a static batch), scenario::Engine (jobs arriving
// and leaving) and the hand-built benches each build one Session and add
// only their workload and their result collection.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "cluster/launcher.hpp"
#include "exp/experiment.hpp"
#include "metrics/util_sampler.hpp"
#include "net/fabric.hpp"
#include "simcore/simulator.hpp"
#include "tc/tc.hpp"
#include "tensorlights/controller.hpp"

namespace tls::exp {

class Session {
 public:
  /// Builds the stack on `num_hosts` hosts (overriding fabric.num_hosts).
  /// When `obs` asks for any artifact a Tracer is attached before the
  /// fabric is wired; a trace CSV that cannot be opened throws here,
  /// before any component exists.
  Session(std::uint64_t seed, int num_hosts, net::FabricConfig fabric,
          const core::ControllerConfig& controller, ObsOptions obs = {});
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  sim::Simulator& sim() { return sim_; }
  net::Fabric& fabric() { return fabric_; }
  tc::TrafficControl& control() { return control_; }
  core::Controller& controller() { return controller_; }
  /// Every job's CPU-busy intervals (the launcher's busy sink).
  metrics::BusyAccumulator& busy() { return busy_; }
  /// Arrival/departure listener: the controller.
  cluster::Launcher& launcher() { return launcher_; }
  /// The metrics registry; null unless obs.metrics_path is set.
  obs::Registry* registry();

  /// Runs 1 s slices until `done` holds (default: every launched job has
  /// finished), the clock reaches `time_limit` — never past it — or the
  /// event queue drains. The first call starts the gauge sampler when a
  /// tracer is attached.
  void run(sim::Time time_limit, const std::function<bool()>& done = {});

  /// Publishes the event-queue and fast-forward counters into the
  /// registry, stops the gauge sampler and writes every requested
  /// artifact; `label` titles the HTML report. Unless this succeeds, the
  /// streamed trace CSV is removed when the Session is destroyed.
  void write_artifacts(const std::string& label);

 private:
  struct Obs;

  sim::Simulator sim_;
  // Declared before the components so every port and qdisc sees the
  // tracer at wiring time and every sink outlives every emission.
  std::unique_ptr<Obs> obs_;
  net::Fabric fabric_;
  tc::TrafficControl control_;
  core::Controller controller_;
  metrics::BusyAccumulator busy_;
  cluster::Launcher launcher_;
  std::unique_ptr<sim::PeriodicTimer> gauge_sampler_;
};

}  // namespace tls::exp
