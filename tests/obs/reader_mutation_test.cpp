// Differential mutation test of the trace-CSV reader. Seeded field- and
// byte-level mutants of a real 2-job trace CSV go through
// for_each_trace_csv_event and through TraceCsvTail::poll, with the file
// appended in pieces cut at seeded offsets. Both must agree with the
// reference reader in tests/obs/oracle.cpp (the line-copying parser the
// in-place one replaced) on accept or reject, on every delivered event, on
// the #health trailer and on the error string. A second test pads a trace
// so that each of the 60 offsets before the 64 KiB read boundary in turn
// starts a row, which puts the boundary at every byte of the rows around
// it. Under the debug-asan and debug-ubsan presets a view that outlives
// its buffer or reads past its field is reported even when it does not
// fault.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "exp/experiment.hpp"
#include "obs/reader.hpp"
#include "oracle.hpp"
#include "simcore/rng.hpp"

namespace tls::obs {
namespace {

namespace fs = std::filesystem;

/// Lines of a contended 2-job FIFO run's trace CSV, header first, without
/// their newlines.
std::vector<std::string> real_trace_lines(const fs::path& dir) {
  exp::ExperimentConfig c;
  c.num_hosts = 3;
  c.workload.num_jobs = 2;
  c.workload.workers_per_job = 2;
  c.workload.global_step_target = 2 * 2;  // 2 iterations x 2 workers
  // One chunk per flow and sparse gauges: ~160 rows with every event
  // kind, so hundreds of mutants stay cheap under the sanitizers.
  c.fabric.chunk_size = 4096 * net::kKiB;
  c.obs.sample_period = 400 * sim::kMillisecond;
  c.placement = cluster::table1(1, 2);
  c.controller.policy = core::PolicyKind::kFifo;
  c.seed = 1;
  c.obs.trace_csv_path = (dir / "trace.csv").string();
  exp::run_experiment(c);
  std::ifstream in(c.obs.trace_csv_path, std::ios::binary);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

std::string join_lines(const std::vector<std::string>& lines,
                       bool final_newline) {
  std::string text;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (i > 0) text += '\n';
    text += lines[i];
  }
  if (final_newline && !lines.empty()) text += '\n';
  return text;
}

bool same_event(const TraceEvent& x, const TraceEvent& y) {
  return x.at == y.at && x.kind == y.kind && x.cat == y.cat &&
         x.host == y.host && x.job == y.job && x.band == y.band &&
         x.flow == y.flow && x.bytes == y.bytes && x.a == y.a && x.b == y.b &&
         x.dur == y.dur;
}

bool same_health(const TraceHealth& x, const TraceHealth& y) {
  if (x.dropped_total != y.dropped_total ||
      x.sampled_out_total != y.sampled_out_total) {
    return false;
  }
  for (int i = 0; i < kNumCats; ++i) {
    if (x.dropped_by_cat[i] != y.dropped_by_cat[i] ||
        x.sampled_out_by_cat[i] != y.sampled_out_by_cat[i]) {
      return false;
    }
  }
  return true;
}

/// Index of the first event where the two sequences differ, or -1.
long first_difference(const std::vector<TraceEvent>& got,
                      const std::vector<TraceEvent>& want) {
  std::size_t n = std::min(got.size(), want.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (!same_event(got[i], want[i])) return static_cast<long>(i);
  }
  return got.size() == want.size() ? -1 : static_cast<long>(n);
}

/// Runs `text` through for_each_trace_csv_event as a complete input and
/// checks it against the reference reader's reading `want` of it.
void expect_stream_matches(const std::string& text,
                           const oracle::CsvReading& want,
                           const std::string& what) {
  std::istringstream in(text);
  std::vector<TraceEvent> got;
  TraceHealth health;
  std::string error;
  bool ok = for_each_trace_csv_event(
      in, [&got](const TraceEvent& e) { got.push_back(e); }, &health, &error);
  EXPECT_EQ(ok, want.ok) << what << ": " << error << " / " << want.error;
  EXPECT_EQ(first_difference(got, want.events), -1) << what;
  EXPECT_TRUE(same_health(health, want.health)) << what;
  if (!want.ok) {
    EXPECT_EQ(error, want.error) << what;
  }
}

/// Appends `text` to a fresh file at `path` in pieces cut at `cuts`
/// (ascending offsets), polling a TraceCsvTail after each, and checks the
/// tail against the reference reader's reading `want` of the lines
/// complete at the end.
void expect_tail_matches(const std::string& text,
                         const std::vector<std::size_t>& cuts,
                         const fs::path& path, const oracle::CsvReading& want,
                         const std::string& what) {
  { std::ofstream create(path, std::ios::binary | std::ios::trunc); }
  TraceCsvTail tail(path.string());
  std::vector<TraceEvent> got;
  auto sink = [&got](const TraceEvent& e) { got.push_back(e); };
  std::string error;
  bool ok = true;
  std::size_t from = 0;
  for (std::size_t i = 0; i <= cuts.size() && ok; ++i) {
    std::size_t to = i < cuts.size() ? cuts[i] : text.size();
    {
      std::ofstream out(path, std::ios::binary | std::ios::app);
      out.write(text.data() + from, static_cast<std::streamsize>(to - from));
    }
    from = to;
    ok = tail.poll(sink, &error);
  }
  EXPECT_EQ(ok, want.ok) << what << ": " << error << " / " << want.error;
  EXPECT_EQ(first_difference(got, want.events), -1) << what;
  EXPECT_EQ(tail.events_read(), got.size()) << what;
  EXPECT_TRUE(same_health(tail.health(), want.health)) << what;
  if (!want.ok) {
    EXPECT_EQ(error, path.string() + ": " + want.error) << what;
  }
}

// ---- Mutations ------------------------------------------------------------

std::vector<std::string> split_fields(const std::string& line) {
  std::vector<std::string> fields;
  std::size_t start = 0;
  for (;;) {
    std::size_t comma = line.find(',', start);
    fields.push_back(line.substr(start, comma == std::string::npos
                                            ? std::string::npos
                                            : comma - start));
    if (comma == std::string::npos) return fields;
    start = comma + 1;
  }
}

std::string join_fields(const std::vector<std::string>& fields) {
  std::string line;
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) line += ',';
    line += fields[i];
  }
  return line;
}

template <std::size_t N>
const char* pick(const char* const (&options)[N], sim::Rng& rng) {
  return options[rng.uniform_u64(N)];
}

/// A value field `col` of a data row must reject: a letter among the
/// digits, a sign or space the writer never emits, an empty field, one
/// past the column's range, or an unknown kind or category name.
std::string break_field(std::size_t col, std::string field, sim::Rng& rng) {
  if (col == 1 || col == 2) {  // kind, category
    static const char* const kNames[] = {
        "Chunk", "chunks",         "",        "?",
        "flow_", "chunk_enqueue ", "\tchunk", "ingress_deliverx"};
    switch (rng.uniform_u64(3)) {
      case 0:
        return pick(kNames, rng);
      case 1:
        return field + "s";
      default:
        return field.empty() ? "x" : field.substr(0, field.size() - 1);
    }
  }
  const bool narrow = col >= 3 && col <= 5;  // host, job, band: int32
  static const char* const kPastI32[] = {"2147483648", "-2147483649",
                                         "4294967296"};
  static const char* const kPastI64[] = {
      "9223372036854775808", "-9223372036854775809", "18446744073709551616",
      "99999999999999999999"};
  static const char* const kOdd[] = {"0x10", "1e3", "1.0", "-", "--1", "1-"};
  switch (rng.uniform_u64(7)) {
    case 0: {  // a letter in the digits
      std::size_t at = rng.uniform_u64(field.size() + 1);
      field.insert(at, 1, "xeZ"[rng.uniform_u64(3)]);
      return field;
    }
    case 1:
      return "+" + field;
    case 2:
      return " " + field;
    case 3:
      return field + (rng.uniform_u64(2) == 0 ? " " : "\t");
    case 4:
      return "";
    case 5:
      return narrow ? pick(kPastI32, rng) : pick(kPastI64, rng);
    default:
      return pick(kOdd, rng);
  }
}

/// A value field `col` of a data row must accept: the edge of the
/// column's range, leading zeros (past 19 characters too) or minus zero,
/// a small number, or another valid kind or category name.
std::string valid_field(std::size_t col, sim::Rng& rng) {
  if (col == 1) {
    static const char* const kKinds[] = {"chunk_enqueue", "ingress_deliver",
                                         "ps_aggregate", "barrier_release",
                                         "gauge_sample"};
    return pick(kKinds, rng);
  }
  if (col == 2) {
    static const char* const kCats[] = {"chunk", "barrier", "compute",
                                        "ingress", "sample"};
    return pick(kCats, rng);
  }
  const bool narrow = col >= 3 && col <= 5;  // host, job, band: int32
  static const char* const kEdgeI32[] = {"2147483647", "-2147483648"};
  static const char* const kEdgeI64[] = {"9223372036854775807",
                                         "-9223372036854775808"};
  static const char* const kZerosI32[] = {
      "-0", "007", "0000000000000000000000042",
      "-000000000000000000002147483648"};
  static const char* const kZerosI64[] = {
      "-0", "007", "0000000000000000000000042",
      "-00000000000000000009223372036854775808"};
  switch (rng.uniform_u64(3)) {
    case 0:
      return narrow ? pick(kEdgeI32, rng) : pick(kEdgeI64, rng);
    case 1:
      return narrow ? pick(kZerosI32, rng) : pick(kZerosI64, rng);
    default:
      return std::to_string(rng.uniform_i64(-3, 3));
  }
}

/// `#health` trailers: well-formed ones, and ones with bad counts or keys
/// that the reader must skip.
const char* health_row(sim::Rng& rng) {
  static const char* const kGood[] = {
      "#health,dropped,total,7", "#health,sampled,total,30",
      "#health,sampled,qdisc,12", "#health,dropped,chunk,3",
      "#health,dropped,total,9223372036854775807"};
  static const char* const kBad[] = {
      "#health,dropped,total,-1",
      "#health,sampled,chunk,-7",
      "#health,dropped,qdisc,-9223372036854775808",
      "#health,sampled,total,x",
      "#health,dropped,total,",
      "#health,dropped,total,+5",
      "#health,dropped,total, 5",
      "#health,dropped,total,9223372036854775808",
      "#health,dropped,total,18446744073709551616",
      "#health,lost,total,4",
      "#health,sampled,nocat,4",
      "#health,dropped,total",
      "#health,dropped,total,4,4",
      "#healthy,dropped,total,4",
      "# a comment the reader does not know",
      "#"};
  return rng.uniform_u64(2) == 0 ? pick(kGood, rng) : pick(kBad, rng);
}

struct Mutant {
  std::vector<std::string> lines;
  bool final_newline = true;
};

/// A data-row index, or now and then the header.
std::size_t pick_line(const Mutant& m, sim::Rng& rng) {
  if (m.lines.size() < 2 || rng.uniform_u64(40) == 0) return 0;
  return 1 + rng.uniform_u64(m.lines.size() - 1);
}

/// Applies one seeded edit. About half of them leave the trace valid, so
/// the accepted mutants' events are compared to the end as well.
void mutate(Mutant& m, sim::Rng& rng) {
  std::string& line = m.lines[pick_line(m, rng)];
  switch (rng.uniform_u64(12)) {
    case 0:
    case 1: {  // one field broken
      std::vector<std::string> fields = split_fields(line);
      std::size_t col = rng.uniform_u64(fields.size());
      fields[col] = break_field(col, fields[col], rng);
      line = join_fields(fields);
      break;
    }
    case 2:
    case 3:
    case 4: {  // one field replaced by another valid value
      std::vector<std::string> fields = split_fields(line);
      std::size_t col = rng.uniform_u64(fields.size());
      fields[col] = valid_field(col, rng);
      line = join_fields(fields);
      break;
    }
    case 5:  // an extra comma
      line.insert(rng.uniform_u64(line.size() + 1), 1, ',');
      break;
    case 6: {  // a missing comma
      std::size_t comma = line.find(',', rng.uniform_u64(line.size() + 1));
      if (comma == std::string::npos) comma = line.find(',');
      if (comma != std::string::npos) line.erase(comma, 1);
      break;
    }
    case 7:  // \r before \n, or a NUL byte anywhere in the line
      if (rng.uniform_u64(2) == 0) {
        line += '\r';
      } else {
        line.insert(rng.uniform_u64(line.size() + 1), 1, '\0');
      }
      break;
    case 8: {  // the file ends inside one of its last lines
      std::size_t back =
          rng.uniform_u64(std::min<std::size_t>(m.lines.size(), 8));
      std::size_t last = m.lines.size() - 1 - back;
      m.lines.resize(last + 1);
      m.lines[last].resize(rng.uniform_u64(m.lines[last].size() + 1));
      m.final_newline = false;
      break;
    }
    default: {  // a #health trailer or an empty line, among the rows or last
      std::size_t at = rng.uniform_u64(2) == 0
                           ? m.lines.size()
                           : 1 + rng.uniform_u64(m.lines.size());
      m.lines.insert(
          m.lines.begin() +
              static_cast<std::ptrdiff_t>(std::min(at, m.lines.size())),
          rng.uniform_u64(8) == 0 ? "" : health_row(rng));
      break;
    }
  }
}

fs::path fresh_dir(const char* name) {
  fs::path dir = fs::path(testing::TempDir()) / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

TEST(ReaderMutation, InPlaceParserAgreesWithReferenceOnEveryMutant) {
  const fs::path dir = fresh_dir("tls_reader_mutation");
  const std::vector<std::string> original = real_trace_lines(dir);
  ASSERT_GT(original.size(), 150u) << "simulation wrote too small a trace";
  const fs::path tail_path = dir / "tail.csv";

  sim::Rng rng(20261018);
  int rejected = 0;
  int with_health = 0;
  for (int n = 0; n < 600; ++n) {
    Mutant m{original, true};
    const int edits = 1 + static_cast<int>(rng.uniform_u64(2));
    for (int k = 0; k < edits; ++k) mutate(m, rng);
    const std::string text = join_lines(m.lines, m.final_newline);
    const std::string what = "mutant " + std::to_string(n);

    const oracle::CsvReading whole =
        oracle::reference_read_trace_csv(text, true);
    expect_stream_matches(text, whole, what);
    if (!whole.ok) ++rejected;
    if (!same_health(whole.health, TraceHealth{})) ++with_health;

    std::vector<std::size_t> cuts;
    const std::size_t pieces = rng.uniform_u64(5);
    for (std::size_t k = 0; k < pieces; ++k) {
      cuts.push_back(1 + rng.uniform_u64(text.size()));
    }
    std::sort(cuts.begin(), cuts.end());
    // Ending in a newline, the input has no partial line for the tail to
    // hold back, so the reference reads it the same either way.
    expect_tail_matches(text, cuts, tail_path,
                        m.final_newline
                            ? whole
                            : oracle::reference_read_trace_csv(text, false),
                        what);
  }
  // Not vacuous: many mutants are rejected, many pass, and many carry a
  // health trailer the reader must restore.
  EXPECT_GT(rejected, 250);
  EXPECT_LT(rejected, 450);
  EXPECT_GT(with_health, 40);
}

TEST(ReaderMutation, RowsAtEveryOffsetBeforeTheReadBoundaryMatchReference) {
  const fs::path dir = fresh_dir("tls_reader_boundary");
  const std::vector<std::string> trace = real_trace_lines(dir);
  ASSERT_GT(trace.size(), 60u);
  const fs::path tail_path = dir / "tail.csv";

  // Header and a few rows, a comment line sized so that the next line
  // starts at `offset`, then more rows: the read boundary at
  // kReadChunkBytes falls inside the rows that follow.
  std::string lead;
  for (std::size_t i = 0; i < 8; ++i) lead += trace[i] + '\n';
  std::string tail_rows;
  for (std::size_t i = 9; i < 40; ++i) tail_rows += trace[i] + '\n';

  const std::string variants[] = {
      trace[8],                       // the row as written
      trace[8] + "x",                 // malformed: its last field
      "#health,dropped,total,12345",  // a trailer straddles
  };
  for (std::size_t offset = kReadChunkBytes - 60; offset < kReadChunkBytes;
       ++offset) {
    for (std::size_t v = 0; v < 3; ++v) {
      std::string text = lead;
      text += '#';
      text.append(offset - lead.size() - 2, 'p');
      text += '\n';
      ASSERT_EQ(text.size(), offset);
      text += variants[v] + '\n' + tail_rows;
      const std::string what =
          "offset " + std::to_string(offset) + " variant " + std::to_string(v);
      expect_stream_matches(
          text, oracle::reference_read_trace_csv(text, true), what);
      expect_tail_matches(text, {}, tail_path,
                          oracle::reference_read_trace_csv(text, false), what);
    }
  }
}

}  // namespace
}  // namespace tls::obs
