#include "scenario/trace.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>
#include <stdexcept>
#include <string_view>

#include "dl/model.hpp"
#include "simcore/parse.hpp"
#include "simcore/rng.hpp"

namespace tls::scenario {

const char* to_string(ArrivalProcess process) {
  switch (process) {
    case ArrivalProcess::kPoisson: return "poisson";
    case ArrivalProcess::kParetoBounded: return "pareto";
  }
  return "?";
}

double bounded_pareto(double u, double alpha, double lo, double hi) {
  // Inverse CDF of the Pareto(alpha) distribution truncated to [lo, hi]:
  // F(x) = (1 - (lo/x)^alpha) / (1 - (lo/hi)^alpha).
  double tail = 1.0 - std::pow(lo / hi, alpha);
  return lo / std::pow(1.0 - u * tail, 1.0 / alpha);
}

namespace {

void validate(const TraceConfig& config) {
  if (config.num_jobs < 1) throw std::invalid_argument("num_jobs < 1");
  if (config.mean_interarrival_s <= 0) {
    throw std::invalid_argument("mean_interarrival_s <= 0");
  }
  if (config.pareto_alpha <= 0) {
    throw std::invalid_argument("pareto_alpha <= 0");
  }
  if (config.pareto_min_s <= 0 || config.pareto_max_s <= config.pareto_min_s) {
    throw std::invalid_argument("pareto bounds: need 0 < min < max");
  }
  if (config.models.empty()) throw std::invalid_argument("empty model mix");
  for (const std::string& name : config.models) {
    if (!dl::zoo::by_name(name)) {
      throw std::invalid_argument("unknown model in mix: " + name);
    }
  }
  if (config.min_workers < 1 || config.max_workers < config.min_workers) {
    throw std::invalid_argument("worker range: need 1 <= min <= max");
  }
  if (config.min_iterations < 1 ||
      config.max_iterations < config.min_iterations) {
    throw std::invalid_argument("iteration range: need 1 <= min <= max");
  }
  if (config.local_batch_size < 1) {
    throw std::invalid_argument("local_batch_size < 1");
  }
  if (config.evict_fraction < 0 || config.evict_fraction > 1) {
    throw std::invalid_argument("evict_fraction outside [0, 1]");
  }
  if (config.evict_fraction > 0 &&
      (config.evict_min_s <= 0 || config.evict_max_s < config.evict_min_s)) {
    throw std::invalid_argument("evict range: need 0 < min <= max");
  }
}

}  // namespace

Trace generate_trace(const TraceConfig& config) {
  validate(config);
  sim::Rng root(config.seed);
  // Separate streams per quantity: adding a new draw to one stream never
  // perturbs the others (the run-for-run comparability contract).
  sim::Rng arrivals = root.fork("arrivals");
  sim::Rng shape = root.fork("shape");
  sim::Rng churn = root.fork("churn");

  Trace trace;
  trace.jobs.reserve(static_cast<std::size_t>(config.num_jobs));
  double clock_s = 0;
  for (int j = 0; j < config.num_jobs; ++j) {
    double gap_s =
        config.process == ArrivalProcess::kPoisson
            ? arrivals.exponential(config.mean_interarrival_s)
            : bounded_pareto(arrivals.uniform(), config.pareto_alpha,
                             config.pareto_min_s, config.pareto_max_s);
    clock_s += gap_s;

    TraceJob job;
    job.job_id = j;
    job.arrival = sim::from_seconds(clock_s);
    job.model = config.models[static_cast<std::size_t>(
        shape.uniform_u64(config.models.size()))];
    job.num_workers = static_cast<int>(
        shape.uniform_i64(config.min_workers, config.max_workers));
    job.local_batch_size = config.local_batch_size;
    job.iterations =
        shape.uniform_i64(config.min_iterations, config.max_iterations);
    if (churn.bernoulli(config.evict_fraction)) {
      job.lifetime = sim::from_seconds(
          churn.uniform(config.evict_min_s, config.evict_max_s));
    }
    trace.jobs.push_back(std::move(job));
  }
  return trace;
}

namespace {

std::string fmt_seconds(sim::Time t) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.9f", sim::to_seconds(t));
  return buf;
}

// A replayed trace gets the bounds tlsim scenario puts on a generated one,
// so every accepted value fits the engine's integer arithmetic: times stay
// within 1e9 s of zero, and iterations x workers fits std::int64_t.
constexpr double kMaxSeconds = 1e9;
constexpr int kMaxWorkers = 4095;
constexpr int kMaxBatch = 65536;
constexpr std::int64_t kMaxIterations = 1000000;

}  // namespace

std::string trace_csv(const Trace& trace) {
  std::string out = "job_id,arrival_s,lifetime_s,model,workers,batch,iterations\n";
  for (const TraceJob& job : trace.jobs) {
    out += std::to_string(job.job_id);
    out += ',';
    out += fmt_seconds(job.arrival);
    out += ',';
    out += fmt_seconds(job.lifetime);
    out += ',';
    out += job.model;
    out += ',';
    out += std::to_string(job.num_workers);
    out += ',';
    out += std::to_string(job.local_batch_size);
    out += ',';
    out += std::to_string(job.iterations);
    out += '\n';
  }
  return out;
}

bool parse_trace_csv(const std::string& text, Trace* out, std::string* error) {
  Trace trace;
  int line_no = 0;
  std::set<std::int32_t> seen_ids;
  for (std::string_view line : sim::split(text, '\n')) {
    ++line_no;
    if (line.ends_with('\r')) line.remove_suffix(1);
    if (line.empty()) continue;
    if (line_no == 1 && line.starts_with("job_id,")) continue;  // header
    std::string_view fields[7];
    std::size_t n = sim::split(line, ',', fields, 7);
    if (n != 7) {
      *error = "trace line " + std::to_string(line_no) + ": expected 7 fields, got " +
               std::to_string(n);
      return false;
    }
    auto fail = [&](const char* what) {
      *error = "trace line " + std::to_string(line_no) + ": " + what;
      return false;
    };
    TraceJob job;
    if (!sim::parse_int(fields[0], &job.job_id, 0)) return fail("bad job_id");
    double arrival_s = 0;
    if (!sim::parse_real(fields[1], &arrival_s, 0, kMaxSeconds)) {
      return fail("bad arrival_s");
    }
    job.arrival = sim::from_seconds(arrival_s);
    double lifetime_s = 0;
    if (!sim::parse_real(fields[2], &lifetime_s, -kMaxSeconds, kMaxSeconds)) {
      return fail("bad lifetime_s");
    }
    job.lifetime = sim::from_seconds(lifetime_s);
    if (fields[3].empty()) return fail("empty model name");
    job.model = fields[3];
    if (!sim::parse_int(fields[4], &job.num_workers, 1, kMaxWorkers)) {
      return fail("bad workers");
    }
    if (!sim::parse_int(fields[5], &job.local_batch_size, 1, kMaxBatch)) {
      return fail("bad batch");
    }
    if (!sim::parse_int(fields[6], &job.iterations, 1, kMaxIterations)) {
      return fail("bad iterations");
    }
    if (!seen_ids.insert(job.job_id).second) {
      return fail("duplicate job_id");
    }
    trace.jobs.push_back(std::move(job));
  }
  // An empty replay would read as "generate" (Config::replay), so a
  // header-only file must not pass for a trace.
  if (trace.jobs.empty()) {
    *error = "trace has no jobs";
    return false;
  }
  std::sort(trace.jobs.begin(), trace.jobs.end(),
            [](const TraceJob& a, const TraceJob& b) {
              if (a.arrival != b.arrival) return a.arrival < b.arrival;
              return a.job_id < b.job_id;
            });
  *out = std::move(trace);
  return true;
}

bool parse_model_mix(const std::string& text, std::vector<std::string>* out,
                     std::string* error) {
  std::string valid;
  for (const dl::ModelSpec& m : dl::zoo::all()) {
    if (!valid.empty()) valid += "|";
    valid += m.name;
  }
  out->clear();
  for (std::string_view field : sim::split(text, ',')) {
    std::string name(field);
    if (name.empty()) continue;
    if (name == "mix") {
      for (const dl::ModelSpec& m : dl::zoo::all()) out->push_back(m.name);
      continue;
    }
    if (!dl::zoo::by_name(name)) {
      *error = "unknown model '" + name + "' (" + valid + "|mix)";
      return false;
    }
    out->push_back(name);
  }
  if (out->empty()) {
    *error = "empty model mix (" + valid + "|mix)";
    return false;
  }
  return true;
}

}  // namespace tls::scenario
