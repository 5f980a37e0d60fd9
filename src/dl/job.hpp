// Static description of one distributed DL job and its task placement.
#pragma once

#include <cstdint>
#include <vector>

#include "dl/model.hpp"
#include "net/units.hpp"
#include "simcore/time.hpp"

namespace tls::dl {

/// Synchronous training barriers on every iteration (the paper's focus);
/// asynchronous lets each worker run free.
enum class TrainingMode { kSync, kAsync };

struct JobSpec {
  std::int32_t job_id = 0;
  ModelSpec model;
  int num_workers = 1;
  /// Parameter servers per job. With more than one PS the model is sharded
  /// evenly: each PS exchanges update_bytes()/num_ps with every worker each
  /// iteration and runs its own shard barrier ("each PS communicates with
  /// remote workers in a similar way", Section II of the paper).
  int num_ps = 1;
  /// Samples per worker per local step.
  int local_batch_size = 4;
  /// Train until the job's global step (total local steps over all
  /// workers) reaches this target.
  std::int64_t global_step_target = 100;
  TrainingMode mode = TrainingMode::kSync;
  /// Lognormal sigma on each local step's compute time (hardware noise).
  double compute_sigma = 0.12;
  /// PS work to fold one worker's gradient into the model.
  sim::Time ps_aggregate_per_worker = 2 * sim::kMillisecond;
  /// Fixed per-local-step overhead on the worker (input pipeline, session
  /// launch, op scheduling) that does not scale with the batch size.
  sim::Time step_overhead = 150 * sim::kMillisecond;
  /// The first PS's stable TCP port — what tc filters match on. PS shard p
  /// listens on ps_port + p; worker w uses ps_port + num_ps + w.
  std::uint16_t ps_port = 0;

  /// Port of PS shard `p`.
  std::uint16_t ps_shard_port(int p) const {
    return static_cast<std::uint16_t>(ps_port + p);
  }
  /// Bytes of one shard's model (or gradient) update to one worker.
  net::Bytes shard_bytes() const {
    return (model.update_bytes() + net::Bytes{num_ps - 1}) / num_ps;
  }

  /// Expected (noise-free) compute time of one local step.
  sim::Time base_step_time() const {
    return step_overhead +
           sim::from_millis(model.ms_per_sample *
                            static_cast<double>(local_batch_size));
  }
  /// Iterations until the target is reached (sync mode).
  std::int64_t sync_iterations() const {
    return (global_step_target + num_workers - 1) / num_workers;
  }
};

/// Where the job's tasks landed. The paper's setup: one PS host, workers
/// spread one-per-host over the remaining hosts. A multi-PS job lists one
/// host per shard; every placement names at least one PS host.
struct JobPlacement {
  std::vector<net::HostId> ps_hosts;  // per shard, in shard order
  std::vector<net::HostId> worker_hosts;

  /// Host of PS shard `p`.
  net::HostId ps_shard_host(int p) const {
    return ps_hosts.at(static_cast<std::size_t>(p));
  }
  /// Number of PS shards this placement provides for.
  int ps_count() const { return static_cast<int>(ps_hosts.size()); }
};

}  // namespace tls::dl
