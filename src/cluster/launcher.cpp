#include "cluster/launcher.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace tls::cluster {

namespace {

/// Port block s covers [kBasePort + s * kPortStride, + kPortStride).
constexpr std::uint32_t kBasePort = 5000;
constexpr std::uint32_t kPortStride = 64;
/// Blocks that end at or below port 65536: 945.
constexpr std::uint32_t kPortSlots = (65536 - kBasePort) / kPortStride;

}  // namespace

Launcher::Launcher(sim::Simulator& simulator, net::Fabric& fabric)
    : sim_(simulator), fabric_(fabric) {}

void Launcher::add_listener(JobEventListener* listener) {
  listeners_.push_back(listener);
}

dl::JobRuntime& Launcher::create(
    dl::JobSpec spec, dl::JobPlacement placement,
    std::function<void(const dl::JobRuntime&)> on_departed) {
  if (spec.num_ps + spec.num_workers >= static_cast<int>(kPortStride)) {
    throw std::invalid_argument(
        "job " + std::to_string(spec.job_id) + " runs " +
        std::to_string(spec.num_ps) + " PS + " +
        std::to_string(spec.num_workers) +
        " workers; a job's PS shards plus workers must be at most " +
        std::to_string(kPortStride - 1));
  }
  const bool reuse = !free_slots_.empty();
  if (!reuse && next_fresh_slot_ == kPortSlots) {
    throw std::runtime_error("port space exhausted: at most " +
                             std::to_string(kPortSlots) +
                             " jobs can run at once");
  }
  // Sorted descending, so back() is the lowest free slot.
  const std::uint16_t slot = reuse ? free_slots_.back() : next_fresh_slot_;
  spec.ps_port = static_cast<std::uint16_t>(kBasePort + slot * kPortStride);
  std::size_t index = jobs_.size();
  auto on_finish = [this, index, slot, cb = std::move(on_departed)] {
    ++finished_;
    // Lowest-slot-first reuse keeps port assignment a pure function of the
    // creation/departure sequence (determinism across runs).
    free_slots_.insert(
        std::upper_bound(free_slots_.begin(), free_slots_.end(), slot,
                         std::greater<std::uint16_t>()),
        slot);
    const dl::JobRuntime& job = *jobs_[index];
    for (JobEventListener* l : listeners_) {
      l->on_job_departure(job.spec(), job.placement());
    }
    if (cb) cb(job);
  };
  auto runtime = std::make_unique<dl::JobRuntime>(
      sim_, fabric_, std::move(spec), std::move(placement),
      std::move(on_finish), busy_sink_);
  // Taken only now, so a job the runtime rejects leaves its slot free.
  if (reuse) {
    free_slots_.pop_back();
  } else {
    ++next_fresh_slot_;
  }
  jobs_.push_back(std::move(runtime));
  dl::JobRuntime& job = *jobs_.back();
  if (gate_ != nullptr) job.set_transmission_gate(gate_);
  return job;
}

void Launcher::start(std::size_t index) {
  dl::JobRuntime& job = *jobs_[index];
  // Evicted before its staggered start: nothing to launch.
  if (job.finished()) return;
  // Arrival precedes the first packet so controllers can configure tc
  // before the initial model broadcast hits the NIC.
  for (JobEventListener* l : listeners_) {
    l->on_job_arrival(job.spec(), job.placement());
  }
  job.start();
}

dl::JobRuntime& Launcher::admit(
    dl::JobSpec spec, dl::JobPlacement placement,
    std::function<void(const dl::JobRuntime&)> on_departed) {
  dl::JobRuntime& job =
      create(std::move(spec), std::move(placement), std::move(on_departed));
  start(jobs_.size() - 1);
  return job;
}

void Launcher::launch_all(std::vector<dl::JobSpec> specs,
                          std::vector<dl::JobPlacement> placements,
                          const LaunchConfig& config) {
  if (specs.size() != placements.size()) {
    throw std::invalid_argument("specs/placements size mismatch");
  }
  // The whole batch is created now and only the starts are staggered, so
  // jobs() is complete from the start: exp::Session's gauge sampler walks
  // it, and every job it lists gets a job_iteration_lag row.
  const std::size_t first = jobs_.size();
  jobs_.reserve(first + specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    create(std::move(specs[i]), std::move(placements[i]), {});
  }
  for (std::size_t i = 0; i < specs.size(); ++i) {
    sim_.schedule_after(config.stagger * static_cast<std::int64_t>(i),
                        [this, index = first + i] { start(index); });
  }
}

}  // namespace tls::cluster
