// Heterogeneous job mix with the smallest-model-first assignment —
// Section IV-B's advice: "a higher priority can be assigned to a job with
// a smaller model update, so as to avoid head-of-line blocking from a job
// with larger model update."
//
// Scenario: an inference-refresh fleet (small ResNet-32 jobs) shares PS
// hosts with large vision-model training (Inception-v3, AlexNet). Under
// FIFO the small jobs' 1.9 MB updates queue behind 95-244 MB bursts.
//
// Run: ./build/examples/heterogeneous_mix
#include <iostream>

#include "cluster/placement.hpp"
#include "exp/session.hpp"
#include "metrics/report.hpp"
#include "workload/gridsearch.hpp"

using namespace tls;

namespace {

struct Outcome {
  std::string policy;
  double avg = 0;
  double small_avg = 0;
  double big_avg = 0;
};

Outcome run(core::PolicyKind policy, core::AssignStrategy strategy) {
  core::ControllerConfig cc;
  cc.policy = policy;
  cc.strategy = strategy;
  exp::Session session(/*seed=*/11, /*num_hosts=*/11, /*fabric=*/{}, cc);
  cluster::Launcher& launcher = session.launcher();

  std::vector<workload::MixEntry> mix = {
      {dl::zoo::inception_v3(), 2, 2, 10L * 4},
      {dl::zoo::resnet32_cifar10(), 4, 1, 10L * 15},
      {dl::zoo::alexnet(), 2, 2, 10L * 3},
  };
  auto specs = workload::heterogeneous_jobs(mix, /*workers=*/10);
  auto placements =
      cluster::assign_tasks(cluster::table1(1, static_cast<int>(specs.size())),
                            11, 10);
  launcher.launch_all(std::move(specs), std::move(placements), {});
  session.run(3600 * sim::kSecond);

  Outcome o;
  o.policy = std::string(to_string(policy)) +
             (policy == core::PolicyKind::kFifo
                  ? ""
                  : std::string(" / ") + to_string(strategy));
  int small_n = 0, big_n = 0;
  for (const auto& job : launcher.jobs()) {
    double jct = sim::to_seconds(job->jct());
    o.avg += jct;
    if (job->spec().model.name == "resnet32_cifar10") {
      o.small_avg += jct;
      ++small_n;
    } else {
      o.big_avg += jct;
      ++big_n;
    }
  }
  o.avg /= static_cast<double>(launcher.jobs().size());
  o.small_avg /= small_n;
  o.big_avg /= big_n;
  return o;
}

}  // namespace

int main() {
  std::cout << "Heterogeneous mix: 4x ResNet-32 (1.9 MB updates) sharing one\n"
               "PS host with 2x Inception-v3 (95 MB) and 2x AlexNet (244 MB)\n\n";
  metrics::Table table({"policy", "avg JCT (s)", "small jobs", "large jobs"});
  std::vector<Outcome> outcomes = {
      run(core::PolicyKind::kFifo, core::AssignStrategy::kArrivalOrder),
      run(core::PolicyKind::kTlsOne, core::AssignStrategy::kSmallestModelFirst),
      run(core::PolicyKind::kTlsRR, core::AssignStrategy::kSmallestModelFirst),
  };
  for (const Outcome& o : outcomes) {
    table.add_row({o.policy, metrics::fmt(o.avg), metrics::fmt(o.small_avg),
                   metrics::fmt(o.big_avg)});
  }
  std::cout << table
            << "\nSmall jobs stop queueing behind hundred-megabyte bursts; "
               "large jobs\nlose little because priority is work-conserving.\n";
  return 0;
}
