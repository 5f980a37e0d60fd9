#include "scenario/trace.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <sstream>
#include <stdexcept>

#include "dl/model.hpp"
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
constexpr long kMaxWorkers = 4095;
constexpr long kMaxBatch = 65536;
constexpr long kMaxIterations = 1000000;

/// A whole, non-empty field holding an integer in [lo, hi].
bool parse_integer(const std::string& field, long lo, long hi, long* out) {
  if (field.empty()) return false;
  char* end = nullptr;
  long v = std::strtol(field.c_str(), &end, 10);
  if (*end != '\0' || v < lo || v > hi) return false;
  *out = v;
  return true;
}

/// A whole, non-empty field holding a finite real in [lo, kMaxSeconds].
bool parse_seconds(const std::string& field, double lo, double* out) {
  if (field.empty()) return false;
  char* end = nullptr;
  double v = std::strtod(field.c_str(), &end);
  if (*end != '\0' || !(v >= lo && v <= kMaxSeconds)) return false;
  *out = v;
  return true;
}

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
  std::istringstream in(text);
  std::string line;
  int line_no = 0;
  std::set<std::int32_t> seen_ids;
  while (std::getline(in, line)) {
    ++line_no;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    if (line_no == 1 && line.rfind("job_id,", 0) == 0) continue;  // header
    std::vector<std::string> fields;
    std::size_t start = 0;
    for (;;) {
      std::size_t comma = line.find(',', start);
      fields.push_back(line.substr(
          start, comma == std::string::npos ? comma : comma - start));
      if (comma == std::string::npos) break;
      start = comma + 1;
    }
    if (fields.size() != 7) {
      *error = "trace line " + std::to_string(line_no) + ": expected 7 fields, got " +
               std::to_string(fields.size());
      return false;
    }
    auto fail = [&](const char* what) {
      *error = "trace line " + std::to_string(line_no) + ": " + what;
      return false;
    };
    TraceJob job;
    long id = 0;
    if (!parse_integer(fields[0], 0, INT32_MAX, &id)) return fail("bad job_id");
    job.job_id = static_cast<std::int32_t>(id);
    double arrival_s = 0;
    if (!parse_seconds(fields[1], 0, &arrival_s)) return fail("bad arrival_s");
    job.arrival = sim::from_seconds(arrival_s);
    double lifetime_s = 0;
    if (!parse_seconds(fields[2], -kMaxSeconds, &lifetime_s)) {
      return fail("bad lifetime_s");
    }
    job.lifetime = sim::from_seconds(lifetime_s);
    if (fields[3].empty()) return fail("empty model name");
    job.model = fields[3];
    long workers = 0;
    if (!parse_integer(fields[4], 1, kMaxWorkers, &workers)) {
      return fail("bad workers");
    }
    job.num_workers = static_cast<int>(workers);
    long batch = 0;
    if (!parse_integer(fields[5], 1, kMaxBatch, &batch)) {
      return fail("bad batch");
    }
    job.local_batch_size = static_cast<int>(batch);
    long iterations = 0;
    if (!parse_integer(fields[6], 1, kMaxIterations, &iterations)) {
      return fail("bad iterations");
    }
    job.iterations = iterations;
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
  std::stringstream stream(text);
  std::string name;
  while (std::getline(stream, name, ',')) {
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
