// obs::reader tests: fixed-size chunked parsing (files far larger than one
// read granule, rows straddling chunk boundaries), exact legacy error
// messages, out-of-range integer rejection, the #health trailer round
// trip, the per-event entry point, and TraceCsvTail across partial
// appends.
#include "obs/reader.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "obs/export.hpp"
#include "obs/trace.hpp"
#include "oracle.hpp"

namespace tls::obs {
namespace {

namespace fs = std::filesystem;

fs::path temp_file(const char* name) {
  fs::path dir = fs::path(testing::TempDir()) / "tls_reader_test";
  fs::create_directories(dir);
  return dir / name;
}

void write_file(const fs::path& p, const std::string& content) {
  std::ofstream out(p, std::ios::binary);
  out << content;
}

/// Enough distinct events to cross several 64 KiB read chunks.
std::string big_trace_csv(std::size_t events) {
  Tracer t;
  for (std::size_t i = 0; i < events; ++i) {
    t.chunk_enqueue(sim::Time{static_cast<std::int64_t>(i)}, net::HostId{3},
                    /*job=*/2, net::BandId{1},
                    /*flow=*/static_cast<std::int64_t>(1000 + i), /*index=*/0,
                    net::Bytes{1500});
  }
  std::string csv = trace_csv(t);
  EXPECT_GT(csv.size(), 3 * kReadChunkBytes);
  return csv;
}

TEST(Reader, ChunkedFileReadMatchesStreamRead) {
  std::string csv = big_trace_csv(6000);
  fs::path p = temp_file("big.csv");
  write_file(p, csv);

  std::vector<TraceEvent> from_file;
  std::string error;
  ASSERT_TRUE(oracle::read_trace_csv_file(p.string(), &from_file, nullptr,
                                          &error))
      << error;

  std::istringstream in(csv);
  std::vector<TraceEvent> from_stream;
  ASSERT_TRUE(oracle::read_trace_csv(in, &from_stream, nullptr, &error))
      << error;

  ASSERT_EQ(from_file.size(), 6000u);
  ASSERT_EQ(from_stream.size(), from_file.size());
  for (std::size_t i = 0; i < from_file.size(); ++i) {
    EXPECT_EQ(from_file[i].at, from_stream[i].at);
    EXPECT_EQ(from_file[i].flow, from_stream[i].flow);
  }
  // Spot-check the row that straddles the first chunk boundary.
  EXPECT_EQ(from_file[100].host, 3);
  EXPECT_EQ(from_file[100].bytes, 1500);
}

TEST(Reader, FinalLineWithoutNewlineIsComplete) {
  Tracer t;
  t.chunk_enqueue(sim::Time{5}, net::HostId{1}, 0, net::BandId{0}, 42, 0,
                  net::Bytes{100});
  std::string csv = trace_csv(t);
  ASSERT_EQ(csv.back(), '\n');
  csv.pop_back();
  std::istringstream in(csv);
  std::vector<TraceEvent> events;
  std::string error;
  ASSERT_TRUE(oracle::read_trace_csv(in, &events, nullptr, &error)) << error;
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].flow, 42);
}

TEST(Reader, LegacyErrorMessagesPreserved) {
  std::string error;
  std::vector<TraceEvent> events;

  std::istringstream bad_header("nope\n");
  EXPECT_FALSE(oracle::read_trace_csv(bad_header, &events, nullptr, &error));
  EXPECT_EQ(error,
            "not a trace CSV (expected header "
            "'at_ns,kind,cat,host,job,band,flow,bytes,a,b,dur_ns', got "
            "'nope')");

  std::istringstream empty("");
  EXPECT_FALSE(oracle::read_trace_csv(empty, &events, nullptr, &error));
  EXPECT_NE(error.find("got ''"), std::string::npos);

  std::istringstream short_row(
      "at_ns,kind,cat,host,job,band,flow,bytes,a,b,dur_ns\n1,2,3\n");
  events.clear();
  EXPECT_FALSE(oracle::read_trace_csv(short_row, &events, nullptr, &error));
  EXPECT_EQ(error, "line 2: expected 11 columns, got 3");

  std::istringstream bad_row(
      "at_ns,kind,cat,host,job,band,flow,bytes,a,b,dur_ns\n"
      "1,not_a_kind,chunk,0,0,0,1,1,0,0,0\n");
  events.clear();
  EXPECT_FALSE(oracle::read_trace_csv(bad_row, &events, nullptr, &error));
  EXPECT_EQ(error, "line 2: malformed row '1,not_a_kind,chunk,0,0,0,1,1,0,0,0'");

  EXPECT_FALSE(oracle::read_trace_csv_file("/nonexistent-dir-xyz/t.csv",
                                           &events, nullptr, &error));
  EXPECT_EQ(error, "cannot open trace CSV: /nonexistent-dir-xyz/t.csv");
}

TEST(Reader, RejectsOutOfRangeIntegers) {
  // host, job and band are int32 columns; every other integer column is
  // int64. A value outside its column's range is a malformed row, never a
  // silently narrowed or saturated one (host 4294967296 must not alias
  // host 0); so is anything but a bare decimal, which is all the writer
  // emits.
  const std::string header =
      "at_ns,kind,cat,host,job,band,flow,bytes,a,b,dur_ns\n";
  for (const char* row : {
           "1,chunk_enqueue,chunk,4294967296,0,0,1,1,0,0,0",
           "1,chunk_enqueue,chunk,2147483648,0,0,1,1,0,0,0",
           "1,chunk_enqueue,chunk,0,-2147483649,0,1,1,0,0,0",
           "1,chunk_enqueue,chunk,0,0,4294967297,1,1,0,0,0",
           "9223372036854775808,chunk_enqueue,chunk,0,0,0,1,1,0,0,0",
           "1,chunk_enqueue,chunk,0,0,0,1,99999999999999999999,0,0,0",
           "1,chunk_enqueue,chunk,0,0,0,1,1,0,-9223372036854775809,0",
           "1,chunk_enqueue,chunk,+1,0,0,1,1,0,0,0",
           "1,chunk_enqueue,chunk,0,0,0,1, 1,0,0,0",
       }) {
    std::istringstream in(header + row + "\n");
    std::vector<TraceEvent> events;
    std::string error;
    EXPECT_FALSE(oracle::read_trace_csv(in, &events, nullptr, &error)) << row;
    EXPECT_EQ(error, "line 2: malformed row '" + std::string(row) + "'");
    EXPECT_TRUE(events.empty()) << row;
  }

  // The extremes of each column's range still parse.
  std::istringstream in(
      header +
      "9223372036854775807,chunk_enqueue,chunk,2147483647,-2147483648,"
      "2147483647,1,9223372036854775807,0,-9223372036854775808,0\n");
  std::vector<TraceEvent> events;
  std::string error;
  ASSERT_TRUE(oracle::read_trace_csv(in, &events, nullptr, &error)) << error;
  ASSERT_EQ(events.size(), 1u);
  using I32 = std::numeric_limits<std::int32_t>;
  using I64 = std::numeric_limits<std::int64_t>;
  EXPECT_EQ(events[0].at, sim::kTimeMax);
  EXPECT_EQ(events[0].host, I32::max());
  EXPECT_EQ(events[0].job, I32::min());
  EXPECT_EQ(events[0].band, I32::max());
  EXPECT_EQ(events[0].bytes, I64::max());
  EXPECT_EQ(events[0].b, I64::min());
}

TEST(Reader, HealthTrailerRoundTrips) {
  Tracer t;
  t.set_max_events(2);
  t.set_sample_every(Cat::kQdisc, 3);
  for (int i = 0; i < 6; ++i) {
    t.chunk_enqueue(sim::Time{i}, net::HostId{0}, 0, net::BandId{0}, i, 0,
                    net::Bytes{10});
    t.band_service(sim::Time{i}, net::HostId{0}, net::BandId{0},
                   net::Bytes{10});
  }
  ASSERT_FALSE(t.health().complete());
  std::string csv = trace_csv(t);
  EXPECT_NE(csv.find("#health,dropped,total,"), std::string::npos);
  EXPECT_NE(csv.find("#health,sampled,qdisc,"), std::string::npos);

  std::istringstream in(csv);
  std::vector<TraceEvent> events;
  TraceHealth health;
  std::string error;
  ASSERT_TRUE(oracle::read_trace_csv(in, &events, &health, &error)) << error;
  EXPECT_EQ(events.size(), t.events().size());
  EXPECT_EQ(health.dropped_total, t.health().dropped_total);
  EXPECT_EQ(health.sampled_out_total, t.health().sampled_out_total);
  for (int i = 0; i < kNumCats; ++i) {
    EXPECT_EQ(health.dropped_by_cat[i], t.health().dropped_by_cat[i]) << i;
    EXPECT_EQ(health.sampled_out_by_cat[i], t.health().sampled_out_by_cat[i])
        << i;
  }
}

TEST(Reader, CompleteTraceCarriesNoTrailerAndUnknownCommentsSkip) {
  Tracer t;
  t.chunk_enqueue(sim::Time{1}, net::HostId{0}, 0, net::BandId{0}, 7, 0,
                  net::Bytes{10});
  std::string csv = trace_csv(t);
  EXPECT_EQ(csv.find("#health"), std::string::npos);

  csv += "# a future metadata line the current reader does not know\n";
  std::istringstream in(csv);
  std::vector<TraceEvent> events;
  TraceHealth health;
  std::string error;
  ASSERT_TRUE(oracle::read_trace_csv(in, &events, &health, &error)) << error;
  EXPECT_EQ(events.size(), 1u);
  EXPECT_TRUE(health.complete());
}

TEST(Reader, ForEachDeliversWithoutMaterializing) {
  std::string csv = big_trace_csv(6000);
  fs::path p = temp_file("foreach.csv");
  write_file(p, csv);
  std::size_t n = 0;
  std::int64_t last_flow = -1;
  TraceHealth health;
  std::string error;
  ASSERT_TRUE(for_each_trace_csv_event(
      p.string(),
      [&](const TraceEvent& e) {
        ++n;
        last_flow = e.flow;
      },
      &health, &error))
      << error;
  EXPECT_EQ(n, 6000u);
  EXPECT_EQ(last_flow, 1000 + 5999);
}

TEST(ReaderTail, DeliversAcrossPartialAppends) {
  Tracer t;
  for (int i = 0; i < 10; ++i) {
    t.chunk_enqueue(sim::Time{i}, net::HostId{0}, 0, net::BandId{0}, 500 + i,
                    0, net::Bytes{10});
  }
  std::string csv = trace_csv(t);
  std::vector<std::string> lines;
  std::size_t start = 0;
  for (std::size_t i = 0; i < csv.size(); ++i) {
    if (csv[i] == '\n') {
      lines.push_back(csv.substr(start, i + 1 - start));
      start = i + 1;
    }
  }
  ASSERT_EQ(lines.size(), 11u);  // header + 10 rows

  fs::path p = temp_file("tail.csv");
  fs::remove(p);
  TraceCsvTail tail(p.string());
  std::vector<TraceEvent> got;
  auto sink = [&got](const TraceEvent& e) { got.push_back(e); };
  std::string error;

  // File does not exist yet: poll fails retryably.
  EXPECT_FALSE(tail.poll(sink, &error));
  EXPECT_NE(error.find("cannot open"), std::string::npos);

  auto append = [&p](const std::string& text) {
    std::ofstream out(p, std::ios::binary | std::ios::app);
    out << text;
  };

  // Header + 3 rows, the third cut mid-line: only complete lines deliver.
  append(lines[0] + lines[1] + lines[2] + lines[3].substr(0, 12));
  ASSERT_TRUE(tail.poll(sink, &error)) << error;
  EXPECT_TRUE(tail.header_seen());
  EXPECT_EQ(got.size(), 2u);

  // Completing the cut line delivers exactly it.
  append(lines[3].substr(12));
  ASSERT_TRUE(tail.poll(sink, &error)) << error;
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[2].flow, 502);

  // Nothing new: a poll is a no-op.
  ASSERT_TRUE(tail.poll(sink, &error)) << error;
  EXPECT_EQ(got.size(), 3u);

  // The rest in one append, plus a health trailer.
  for (std::size_t i = 4; i < lines.size(); ++i) append(lines[i]);
  append("#health,dropped,total,5\n#health,dropped,chunk,5\n");
  ASSERT_TRUE(tail.poll(sink, &error)) << error;
  EXPECT_EQ(got.size(), 10u);
  EXPECT_EQ(tail.events_read(), 10u);
  EXPECT_EQ(tail.health().dropped_total, 5u);
  EXPECT_EQ(tail.health().dropped_by_cat[cat_index(Cat::kChunk)], 5u);
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].flow, 500 + static_cast<std::int64_t>(i));
  }
}

TEST(ReaderTail, RestartsAfterTruncationOrRotation) {
  // A writer that restarts (tlsim re-run over the same --trace-csv path)
  // truncates the file; a follower must notice the shrink, reset, and
  // deliver the new file's events instead of silently idling forever at
  // the stale offset.
  auto trace_with_flows = [](std::int64_t first, int n) {
    Tracer t;
    for (int i = 0; i < n; ++i) {
      t.chunk_enqueue(sim::Time{i}, net::HostId{0}, 0, net::BandId{0},
                      first + i, 0, net::Bytes{10});
    }
    return trace_csv(t);
  };

  fs::path p = temp_file("rotate.csv");
  write_file(p, trace_with_flows(700, 8));
  TraceCsvTail tail(p.string());
  std::vector<TraceEvent> got;
  auto sink = [&got](const TraceEvent& e) { got.push_back(e); };
  std::string error;
  ASSERT_TRUE(tail.poll(sink, &error)) << error;
  ASSERT_EQ(got.size(), 8u);

  // Shrink mid-follow: the replacement is shorter than the read offset.
  got.clear();
  write_file(p, trace_with_flows(900, 3));
  ASSERT_TRUE(tail.poll(sink, &error)) << error;
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0].flow, 900);
  EXPECT_EQ(got[2].flow, 902);
  EXPECT_TRUE(tail.header_seen());
  // events_read is cumulative across restarts (run_follow keys growth
  // detection off its increments).
  EXPECT_EQ(tail.events_read(), 11u);

  // Tailing resumes normally against the replacement file: an append to
  // the new file delivers incrementally, a no-growth poll is a no-op.
  got.clear();
  {
    std::string more = trace_with_flows(950, 4);
    std::ofstream out(p, std::ios::binary | std::ios::app);
    out << more.substr(more.find('\n') + 1);  // rows only, header is live
  }
  ASSERT_TRUE(tail.poll(sink, &error)) << error;
  ASSERT_EQ(got.size(), 4u);
  EXPECT_EQ(got[0].flow, 950);
  EXPECT_EQ(tail.events_read(), 15u);
  ASSERT_TRUE(tail.poll(sink, &error)) << error;
  EXPECT_EQ(got.size(), 4u);

  // Rotation to a file whose leading bytes are not the trace header is
  // caught by the content compare even when the file did not shrink; the
  // restart re-parses from byte 0 and reports the new file's real error
  // (rather than idling at a stale offset in a replaced file).
  write_file(p, std::string(4096, 'x') + "\n");
  EXPECT_FALSE(tail.poll(sink, &error));
  EXPECT_NE(error.find("not a trace CSV"), std::string::npos) << error;
}

}  // namespace
}  // namespace tls::obs
