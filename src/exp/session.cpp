#include "exp/session.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <utility>

#include "exp/export.hpp"
#include "obs/analysis.hpp"
#include "obs/export.hpp"
#include "obs/html.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/streaming.hpp"

namespace tls::exp {

namespace {

/// The --trace-csv file, streamed: opened before the simulation so rows
/// land as events are emitted. Unless commit() succeeds, the destructor
/// removes the partial file, so a run that throws leaves none behind. Only
/// a regular file is removed: a symlink, device or FIFO at the path is the
/// user's, and stays.
class StreamedTraceCsv {
 public:
  explicit StreamedTraceCsv(std::string path)
      : path_(std::move(path)),
        out_(path_, std::ios::binary | std::ios::trunc),
        writer_(out_) {
    if (!out_) {
      throw std::runtime_error("trace CSV export failed: cannot open '" +
                               path_ + "' for writing");
    }
  }
  ~StreamedTraceCsv() {
    if (committed_) return;
    out_.close();
    std::error_code ec;  // a failed removal leaves the partial file
    if (std::filesystem::symlink_status(path_, ec).type() ==
        std::filesystem::file_type::regular) {
      std::filesystem::remove(path_, ec);
    }
  }
  StreamedTraceCsv(const StreamedTraceCsv&) = delete;
  StreamedTraceCsv& operator=(const StreamedTraceCsv&) = delete;

  obs::TraceSink* sink() { return &writer_; }

  /// Appends the health trailer and closes the file, which then takes no
  /// more rows; throws if any write failed.
  void commit(const obs::TraceHealth& health) {
    writer_.finish(health);
    out_.close();
    if (!out_) {
      throw std::runtime_error("trace CSV export failed: write to '" +
                               path_ + "' failed");
    }
    committed_ = true;
  }

 private:
  std::string path_;
  std::ofstream out_;
  obs::TraceCsvWriter writer_;
  bool committed_ = false;
};

net::FabricConfig on_hosts(net::FabricConfig fabric, int num_hosts) {
  fabric.num_hosts = num_hosts;
  return fabric;
}

}  // namespace

/// Tracer, sinks and registry of a run that asked for any artifact.
struct Session::Obs {
  Obs(sim::Simulator& simulator, ObsOptions obs_options);

  ObsOptions options;
  std::unique_ptr<obs::Registry> registry;
  std::unique_ptr<obs::Tracer> tracer;
  std::unique_ptr<StreamedTraceCsv> trace_csv;
  std::unique_ptr<obs::StreamingAnalyzer> analyzer;
};

Session::Obs::Obs(sim::Simulator& simulator, ObsOptions obs_options)
    : options(std::move(obs_options)) {
  std::uint32_t cats = options.trace_categories;
  // The attribution report needs the causal-event categories regardless
  // of how narrow the user's --trace-filter is.
  if (options.report_any()) cats |= obs::kAnalysisCats;
  tracer = std::make_unique<obs::Tracer>(cats);
  tracer->set_max_events(options.max_events);
  if (!options.trace_sample.empty()) {
    std::uint32_t every[obs::kNumCats];
    for (int i = 0; i < obs::kNumCats; ++i) every[i] = 1;
    std::string sample_err;
    if (!obs::parse_sampling(options.trace_sample, every, &sample_err)) {
      throw std::invalid_argument("bad trace sampling spec: " + sample_err);
    }
    for (int i = 0; i < obs::kNumCats; ++i) {
      tracer->set_sample_every(static_cast<obs::Cat>(1u << i), every[i]);
    }
  }
  // Only the Chrome exporter needs the whole log (it lists every track
  // before the first event); the trace CSV and the report stream.
  tracer->set_retain_events(!options.trace_path.empty());
  if (!options.trace_csv_path.empty()) {
    trace_csv = std::make_unique<StreamedTraceCsv>(options.trace_csv_path);
    tracer->add_sink(trace_csv->sink());
  }
  if (options.report_any()) {
    // Same engine as offline tlsreport, so the in-process report and
    // `tlsreport <trace.csv>` are byte-identical (CI cmp's the two).
    analyzer = std::make_unique<obs::StreamingAnalyzer>();
    tracer->add_sink(analyzer.get());
  }
  if (!options.metrics_path.empty()) {
    registry = std::make_unique<obs::Registry>();
    tracer->set_registry(registry.get());
  }
  simulator.set_tracer(tracer.get());
}

Session::Session(std::uint64_t seed, int num_hosts, net::FabricConfig fabric,
                 const core::ControllerConfig& controller, ObsOptions obs)
    : sim_(seed),
      obs_(obs.any() ? std::make_unique<Obs>(sim_, std::move(obs)) : nullptr),
      fabric_(sim_, on_hosts(std::move(fabric), num_hosts)),
      control_(fabric_),
      controller_(sim_, control_, controller),
      busy_(num_hosts),
      launcher_(sim_, fabric_) {
  launcher_.add_listener(&controller_);
  launcher_.set_busy_sink([this](net::HostId h, sim::Time b, sim::Time e) {
    busy_.add(h, b, e);
  });
}

Session::~Session() = default;

obs::Registry* Session::registry() {
  return obs_ ? obs_->registry.get() : nullptr;
}

void Session::run(sim::Time time_limit, const std::function<bool()>& done) {
  // Periodic gauge sampling on the simulation clock: per-host egress queue
  // depth and per-job iteration lag behind the front-runner.
  if (obs_ && !gauge_sampler_ && obs_->options.sample_period > sim::Time{0}) {
    gauge_sampler_ = std::make_unique<sim::PeriodicTimer>(
        sim_, obs_->options.sample_period, [this] {
          obs::Tracer& tracer = *obs_->tracer;
          for (net::HostId h{0}; h < net::HostId{fabric_.num_hosts()}; ++h) {
            tracer.gauge_sample(
                sim_.now(), "egress_backlog_bytes", h, -1,
                net::to_double(fabric_.egress(h).qdisc().backlog_bytes()));
          }
          std::int64_t lead = 0;
          for (const auto& job : launcher_.jobs()) {
            lead = std::max(lead, job->iteration());
          }
          for (const auto& job : launcher_.jobs()) {
            tracer.gauge_sample(sim_.now(), "job_iteration_lag",
                                net::kNoHost, job->spec().job_id,
                                static_cast<double>(lead - job->iteration()));
          }
        });
    gauge_sampler_->start();
  }

  // The NIC sampler, the gauge sampler and the TLs-RR rotation timer
  // re-arm forever, so the event queue never drains on its own.
  const sim::Time slice = 1 * sim::kSecond;
  auto finished = [&] { return done ? done() : launcher_.all_finished(); };
  while (!finished() && sim_.now() < time_limit && !sim_.idle()) {
    sim_.run(std::min(sim_.now() + slice, time_limit));
  }
}

void Session::write_artifacts(const std::string& label) {
  if (!obs_) return;
  // Simulator-core health counters: event-queue activity lands in the
  // metrics export so a perf regression in the scheduling substrate is
  // visible from any traced run. They are read before the gauge sampler
  // stops, so its cancel is not counted.
  if (obs::Registry* registry = obs_->registry.get()) {
    const sim::EventQueue::Stats& qs = sim_.queue_stats();
    auto add = [&](const char* name, std::uint64_t v) {
      registry->counter(name, -1, -1, -1).add(static_cast<std::int64_t>(v));
    };
    add("eventq_scheduled", qs.scheduled);
    add("eventq_cancelled", qs.cancelled);
    add("eventq_popped", qs.popped);
    add("eventq_tombstones_skipped", qs.tombstones_skipped);
  }

  // The trace CSV has been streaming since the start, but it is removed
  // unless committed here, so a run that threw earlier leaves no partial
  // files behind.
  if (gauge_sampler_) gauge_sampler_->stop();
  auto write = [](const std::string& path, const char* what, auto render) {
    std::string err;
    if (!path.empty() && !obs::write_file(path, render(), &err)) {
      throw std::runtime_error(std::string(what) + " export failed: " + err);
    }
  };
  const ObsOptions& o = obs_->options;
  const obs::Tracer& tracer = *obs_->tracer;
  write(o.trace_path, "trace", [&] { return obs::chrome_trace_json(tracer); });
  if (obs_->trace_csv) obs_->trace_csv->commit(tracer.health());
  write(o.metrics_path, "metrics",
        [&] { return obs_->registry->timeseries_csv(sim_.now()); });
  if (!obs_->analyzer) return;
  obs_->analyzer->set_health(tracer.health());
  obs::RunReport report = obs_->analyzer->finish();
  write(o.report_path, "report", [&] { return obs::report_text(report); });
  write(o.report_csv_path, "report CSV",
        [&] { return obs::report_csv(report); });
  write(o.report_json_path, "report JSON",
        [&] { return obs::report_json(report); });
  write(o.report_html_path, "report HTML", [&] {
    obs::HtmlOptions html_opts;
    html_opts.title = "tlsreport: " + label;
    html_opts.label_a = label;
    return obs::report_html(obs::report_json(report), "", html_opts);
  });
}

}  // namespace tls::exp
