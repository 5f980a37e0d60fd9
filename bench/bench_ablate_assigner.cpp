// Ablation: priority-assignment strategy under a heterogeneous job mix.
// The paper (Section IV-B): for grid search any assignment works (random
// suffices); with mixed model sizes, giving smaller updates higher
// priority avoids head-of-line blocking behind large bursts.
#include "common.hpp"

#include "exp/session.hpp"

namespace {

using namespace tls;

struct MixResult {
  double avg_jct = 0;
  double small_avg = 0;  // avg JCT of the small-model jobs
  double big_avg = 0;
};

MixResult run_mix(core::PolicyKind policy, core::AssignStrategy strategy,
                  std::uint64_t seed) {
  core::ControllerConfig cc;
  cc.policy = policy;
  cc.strategy = strategy;
  exp::Session session(seed, /*num_hosts=*/9, /*fabric=*/{}, cc);
  cluster::Launcher& launcher = session.launcher();

  // 4 small (ResNet-32) + 2 large (Inception-v3) jobs, all PSes colocated.
  // Interleaved so arrival order differs from size order and the
  // strategies are genuinely distinguishable.
  std::vector<workload::MixEntry> mix = {
      {dl::zoo::inception_v3(), 1, 1, 8L * 4},
      {dl::zoo::resnet32_cifar10(), 2, 1, 8L * 12},
      {dl::zoo::inception_v3(), 1, 1, 8L * 4},
      {dl::zoo::resnet32_cifar10(), 2, 1, 8L * 12},
  };
  auto specs = workload::heterogeneous_jobs(mix, /*workers=*/8);
  auto placements = cluster::assign_tasks(cluster::table1(1, 6), 9, 8);
  launcher.launch_all(std::move(specs), std::move(placements), {});
  session.run(3600 * sim::kSecond);

  MixResult r;
  int small_n = 0, big_n = 0;
  for (const auto& job : launcher.jobs()) {
    double jct = sim::to_seconds(job->jct());
    r.avg_jct += jct;
    if (job->spec().model.name == "resnet32_cifar10") {
      r.small_avg += jct;
      ++small_n;
    } else {
      r.big_avg += jct;
      ++big_n;
    }
  }
  r.avg_jct /= static_cast<double>(launcher.jobs().size());
  r.small_avg /= small_n;
  r.big_avg /= big_n;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  // Drives a hand-built heterogeneous mix on an exp::Session (no
  // ExperimentConfig), so it picks up init()/Timing only.
  bench::init(argc, argv);
  bench::Timing timing("ablate_assigner");
  bench::print_header(
      "Ablation - priority assignment strategy, heterogeneous mix",
      "smaller-update-first avoids head-of-line blocking behind large "
      "model updates");

  std::uint64_t seed = bench::bench_seed();
  MixResult fifo = run_mix(core::PolicyKind::kFifo,
                           core::AssignStrategy::kArrivalOrder, seed);

  metrics::Table table({"strategy", "avg JCT (s)", "small-model avg",
                        "large-model avg", "norm vs FIFO"});
  table.add_row({"FIFO baseline", metrics::fmt(fifo.avg_jct),
                 metrics::fmt(fifo.small_avg), metrics::fmt(fifo.big_avg),
                 "1.000"});
  for (auto strategy : {core::AssignStrategy::kArrivalOrder,
                        core::AssignStrategy::kRandom,
                        core::AssignStrategy::kSmallestModelFirst}) {
    MixResult r = run_mix(core::PolicyKind::kTlsOne, strategy, seed);
    table.add_row({core::to_string(strategy), metrics::fmt(r.avg_jct),
                   metrics::fmt(r.small_avg), metrics::fmt(r.big_avg),
                   metrics::fmt(r.avg_jct / fifo.avg_jct, 3)});
  }
  std::printf("%s\n", table.str().c_str());
  std::printf(
      "Reading: smallest-model-first should give the small jobs the\n"
      "largest boost without materially hurting the large jobs.\n");
  return 0;
}
