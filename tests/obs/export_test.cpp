// Exporter unit tests: exact Chrome trace-event JSON and trace CSV for a
// hand-built event sequence, and the checked file writer. These pin the
// byte-level format — the integration golden test then pins a whole
// simulated scenario.
#include "obs/export.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <streambuf>
#include <string>
#include <vector>

#include "obs/reader.hpp"
#include "obs/trace.hpp"

namespace tls::obs {
namespace {

TEST(ChromeTrace, EmptyTracerIsStillValidDocument) {
  Tracer t;
  EXPECT_EQ(chrome_trace_json(t),
            "{\"traceEvents\":[\n\n],\"displayTimeUnit\":\"ms\"}\n");
}

TEST(ChromeTrace, RendersTracksInstantsAndSpansExactly) {
  Tracer t;
  t.chunk_enqueue(tls::sim::Time{1500}, tls::net::HostId{0}, 3, tls::net::BandId{1}, 42, 7, tls::net::Bytes{1000});
  t.chunk_dequeue(tls::sim::Time{2500}, tls::net::HostId{0}, 3, tls::net::BandId{1}, 42, 7, tls::net::Bytes{1000}, tls::sim::Time{1000});
  // A 2 ms barrier wait ending at t=5 ms renders as an "X" span starting
  // at the enter time.
  t.barrier_release(tls::sim::Time{5'000'000}, 1, 0, 4, tls::sim::Time{2'000'000});
  t.rotation(tls::sim::Time{7000}, 2);
  EXPECT_EQ(
      chrome_trace_json(t),
      "{\"traceEvents\":[\n"
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
      "\"args\":{\"name\":\"net\"}},\n"
      "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
      "\"args\":{\"name\":\"host 0 nic\"}},\n"
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,"
      "\"args\":{\"name\":\"jobs\"}},\n"
      "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":2,\"tid\":1,"
      "\"args\":{\"name\":\"job 1\"}},\n"
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":3,"
      "\"args\":{\"name\":\"tensorlights\"}},\n"
      "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":3,\"tid\":0,"
      "\"args\":{\"name\":\"controller\"}},\n"
      "{\"name\":\"chunk_enqueue\",\"cat\":\"chunk\",\"ph\":\"i\","
      "\"ts\":1.500,\"pid\":1,\"tid\":0,\"s\":\"t\","
      "\"args\":{\"band\":1,\"flow\":42,\"bytes\":1000,\"index\":7}},\n"
      "{\"name\":\"chunk_dequeue\",\"cat\":\"chunk\",\"ph\":\"i\","
      "\"ts\":2.500,\"pid\":1,\"tid\":0,\"s\":\"t\","
      "\"args\":{\"band\":1,\"flow\":42,\"bytes\":1000,\"index\":7,"
      "\"queue_wait_ns\":1000}},\n"
      "{\"name\":\"barrier_release\",\"cat\":\"barrier\",\"ph\":\"X\","
      "\"ts\":3000.000,\"pid\":2,\"tid\":1,\"dur\":2000.000,"
      "\"args\":{\"worker\":0,\"iteration\":4}},\n"
      "{\"name\":\"rotation\",\"cat\":\"rotation\",\"ph\":\"i\","
      "\"ts\":7.000,\"pid\":3,\"tid\":0,\"s\":\"t\","
      "\"args\":{\"offset\":2}}\n"
      "],\"displayTimeUnit\":\"ms\"}\n");
}

TEST(ChromeTrace, MetadataCoversOnlyUsedTracks) {
  Tracer t;
  t.band_service(tls::sim::Time{100}, tls::net::HostId{3}, tls::net::BandId{0}, tls::net::Bytes{512});
  std::string json = chrome_trace_json(t);
  // Host 3's NIC track is named; no jobs or controller metadata appears.
  EXPECT_NE(json.find("\"host 3 nic\""), std::string::npos);
  EXPECT_EQ(json.find("\"jobs\""), std::string::npos);
  EXPECT_EQ(json.find("\"tensorlights\""), std::string::npos);
}

TEST(ChromeTrace, GaugeSamplesPickJobTrackWhenJobScoped) {
  Tracer t;
  t.gauge_sample(tls::sim::Time{1000}, "job_iteration_lag", tls::net::HostId{-1}, 5, 2.0);
  t.gauge_sample(tls::sim::Time{1000}, "egress_backlog_bytes", tls::net::HostId{2}, -1, 300.5);
  std::string json = chrome_trace_json(t);
  EXPECT_NE(json.find("\"job 5\""), std::string::npos);
  EXPECT_NE(json.find("\"host 2 nic\""), std::string::npos);
  // The instant carries the truncated value; the registry keeps precision.
  EXPECT_NE(json.find("\"value\":300"), std::string::npos);
}

TEST(TraceCsv, RendersEveryFieldExactly) {
  Tracer t;
  t.chunk_enqueue(tls::sim::Time{1500}, tls::net::HostId{0}, 3, tls::net::BandId{1}, 42, 7, tls::net::Bytes{1000});
  t.chunk_dequeue(tls::sim::Time{2500}, tls::net::HostId{0}, 3, tls::net::BandId{1}, 42, 7, tls::net::Bytes{1000}, tls::sim::Time{1000});
  t.barrier_release(tls::sim::Time{5'000'000}, 1, 0, 4, tls::sim::Time{2'000'000});
  t.rotation(tls::sim::Time{7000}, 2);
  EXPECT_EQ(trace_csv(t),
            "at_ns,kind,cat,host,job,band,flow,bytes,a,b,dur_ns\n"
            "1500,chunk_enqueue,chunk,0,3,1,42,1000,0,7,0\n"
            "2500,chunk_dequeue,chunk,0,3,1,42,1000,1000,7,0\n"
            "5000000,barrier_release,barrier,-1,1,-1,0,0,0,4,2000000\n"
            "7000,rotation,rotation,-1,-1,-1,0,0,2,0,0\n");
}

TEST(TraceCsv, EmptyTracerIsHeaderOnly) {
  Tracer t;
  EXPECT_EQ(trace_csv(t), "at_ns,kind,cat,host,job,band,flow,bytes,a,b,dur_ns\n");
}

TEST(TraceCsv, NegativeAndExtremeFieldsRenderExactly) {
  // Rows pinned to what the original iostream formatter printed: a
  // default event's -1 host, job and band, and every integer column at
  // the limits of its type.
  TraceEvent unset;
  unset.at = tls::sim::Time{7};
  unset.kind = EventKind::kRotation;
  unset.cat = Cat::kRotation;
  unset.a = -3;
  TraceEvent lo;
  lo.at = tls::sim::kTimeMin;
  lo.kind = EventKind::kChunkDequeue;
  lo.cat = Cat::kChunk;
  lo.host = lo.job = lo.band = INT32_MIN;
  lo.flow = lo.bytes = lo.a = lo.b = INT64_MIN;
  lo.dur = tls::sim::kTimeMin;
  TraceEvent hi;
  hi.at = tls::sim::kTimeMax;
  hi.kind = EventKind::kIngressDeliver;
  hi.cat = Cat::kIngress;
  hi.host = hi.job = hi.band = INT32_MAX;
  hi.flow = hi.bytes = hi.a = hi.b = INT64_MAX;
  hi.dur = tls::sim::kTimeMax;

  std::ostringstream os;
  TraceCsvWriter writer(os);
  writer.on_event(unset);
  writer.on_event(lo);
  writer.on_event(hi);
  writer.finish(TraceHealth{});
  EXPECT_EQ(os.str(),
            "at_ns,kind,cat,host,job,band,flow,bytes,a,b,dur_ns\n"
            "7,rotation,rotation,-1,-1,-1,0,0,-3,0,0\n"
            "-9223372036854775808,chunk_dequeue,chunk,-2147483648,"
            "-2147483648,-2147483648,-9223372036854775808,"
            "-9223372036854775808,-9223372036854775808,"
            "-9223372036854775808,-9223372036854775808\n"
            "9223372036854775807,ingress_deliver,ingress,2147483647,"
            "2147483647,2147483647,9223372036854775807,9223372036854775807,"
            "9223372036854775807,9223372036854775807,9223372036854775807\n");
}

TEST(TraceCsvWriter, StreamedBytesEqualTraceCsvIncludingHealthTrailer) {
  // One emission sequence into a retaining tracer (rendered afterwards by
  // trace_csv) and into a non-retaining one streaming through the writer.
  auto emit = [](Tracer& t) {
    t.set_sample_every(Cat::kQdisc, 2);
    t.set_max_events(5);
    for (int i = 0; i < 4; ++i) {
      tls::sim::Time at{100 * i};
      t.band_service(at, tls::net::HostId{1}, tls::net::BandId{i % 2},
                     tls::net::Bytes{512});
      t.chunk_enqueue(at, tls::net::HostId{0}, -1, tls::net::BandId{0}, i, 0,
                      tls::net::Bytes{1000});
    }
  };
  Tracer retaining;
  emit(retaining);

  Tracer streamed;
  streamed.set_retain_events(false);
  std::ostringstream os;
  TraceCsvWriter writer(os);
  streamed.add_sink(&writer);
  emit(streamed);
  writer.finish(streamed.health());

  const std::string want = trace_csv(retaining);
  ASSERT_NE(want.find("#health,dropped,total,1\n"), std::string::npos)
      << want;
  ASSERT_NE(want.find("#health,sampled,qdisc,2\n"), std::string::npos)
      << want;
  EXPECT_EQ(os.str(), want);
}

TEST(TraceCsvRoundTrip, DigitBoundaries) {
  // Every integer column at 0, +-1, +-(10^k - 1) and +-10^k for k <= 18 and
  // at the extremes of its type (int32 host, job and band; int64
  // otherwise), with the kinds and categories in turn. Each row must be
  // the std::to_chars rendering of its fields, and the reader must give
  // back the same event.
  std::vector<std::int64_t> values = {0,         1,         -1,
                                      INT32_MIN, INT32_MAX, INT64_MIN,
                                      INT64_MAX};
  std::int64_t pow = 1;
  for (int k = 1; k <= 18; ++k) {
    pow *= 10;
    for (std::int64_t v : {pow - 1, pow}) {
      values.push_back(v);
      values.push_back(-v);
    }
  }
  std::vector<TraceEvent> events;
  for (int col = 0; col < 9; ++col) {
    for (std::int64_t v : values) {
      const bool fits32 = v >= INT32_MIN && v <= INT32_MAX;
      if (col >= 1 && col <= 3 && !fits32) continue;
      TraceEvent e;
      e.kind = static_cast<EventKind>(events.size() % kNumEventKinds);
      e.cat = static_cast<Cat>(1u << (events.size() % kNumCats));
      switch (col) {
        case 0: e.at = tls::sim::from_nanos(v); break;
        case 1: e.host = static_cast<std::int32_t>(v); break;
        case 2: e.job = static_cast<std::int32_t>(v); break;
        case 3: e.band = static_cast<std::int32_t>(v); break;
        case 4: e.flow = v; break;
        case 5: e.bytes = v; break;
        case 6: e.a = v; break;
        case 7: e.b = v; break;
        default: e.dur = tls::sim::from_nanos(v); break;
      }
      events.push_back(e);
    }
  }
  auto field = [](std::int64_t v) {
    char buf[24];
    return std::string(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
  };
  // Five rounds, so rows also cross the writer's block boundaries.
  std::string want = "at_ns,kind,cat,host,job,band,flow,bytes,a,b,dur_ns\n";
  std::ostringstream os;
  TraceCsvWriter writer(os);
  for (int round = 0; round < 5; ++round) {
    for (const TraceEvent& e : events) {
      writer.on_event(e);
      want += field(tls::sim::to_nanos(e.at)) + ',' + to_string(e.kind) +
              ',' + to_string(e.cat) + ',' + field(e.host) + ',' +
              field(e.job) + ',' + field(e.band) + ',' + field(e.flow) +
              ',' + field(e.bytes) + ',' + field(e.a) + ',' + field(e.b) +
              ',' + field(tls::sim::to_nanos(e.dur)) + '\n';
    }
  }
  writer.finish(TraceHealth{});
  ASSERT_GT(want.size(), 2 * kReadChunkBytes);
  const std::string got = os.str();
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t at = 0; at < want.size();) {  // report the first bad row
    std::size_t end = want.find('\n', at) + 1;
    ASSERT_EQ(got.substr(at, end - at), want.substr(at, end - at));
    at = end;
  }

  std::istringstream in(got);
  std::vector<TraceEvent> back;
  std::string error;
  ASSERT_TRUE(for_each_trace_csv_event(
      in, [&back](const TraceEvent& e) { back.push_back(e); }, nullptr,
      &error))
      << error;
  ASSERT_EQ(back.size(), 5 * events.size());
  for (std::size_t i = 0; i < back.size(); ++i) {
    const TraceEvent& x = back[i];
    const TraceEvent& y = events[i % events.size()];
    ASSERT_TRUE(x.at == y.at && x.kind == y.kind && x.cat == y.cat &&
                x.host == y.host && x.job == y.job && x.band == y.band &&
                x.flow == y.flow && x.bytes == y.bytes && x.a == y.a &&
                x.b == y.b && x.dur == y.dur)
        << "row " << i + 2;
  }
}

/// A stream buffer that takes its first `capacity` bytes and refuses the
/// rest, as a disk that fills up does.
class FillingBuf : public std::streambuf {
 public:
  explicit FillingBuf(std::size_t capacity) : capacity_(capacity) {}
  std::size_t taken() const { return taken_; }

 protected:
  std::streamsize xsputn(const char*, std::streamsize n) override {
    const auto room = static_cast<std::streamsize>(capacity_ - taken_);
    const std::streamsize k = std::min(n, room);
    taken_ += static_cast<std::size_t>(k);
    return k;
  }
  int_type overflow(int_type c) override {
    if (traits_type::eq_int_type(c, traits_type::eof())) {
      return traits_type::not_eof(c);
    }
    if (taken_ == capacity_) return traits_type::eof();
    ++taken_;
    return c;
  }

 private:
  std::size_t capacity_;
  std::size_t taken_ = 0;
};

TEST(TraceCsvWriter, StreamThatFailsMidBlockStaysFailedAfterFinish) {
  // The writer hands the stream whole blocks. A stream that fails inside
  // one must show the failure once finish() returns: inside the only
  // block, which finish() writes, and inside the second of three.
  struct Case {
    int rows;
    std::size_t capacity;
  };
  for (const Case& c : {Case{100, 10}, Case{3000, 100'000}}) {
    FillingBuf buf(c.capacity);
    std::ostream os(&buf);
    TraceCsvWriter writer(os);
    TraceEvent e;
    e.kind = EventKind::kChunkDequeue;
    e.flow = 123456789;
    e.bytes = 65536;
    for (int i = 0; i < c.rows; ++i) {
      e.at = tls::sim::from_nanos(1'000'000'000LL + i);
      writer.on_event(e);
    }
    TraceHealth incomplete;
    incomplete.dropped_total = 1;
    writer.finish(incomplete);
    EXPECT_TRUE(os.bad()) << c.rows << " rows";
    EXPECT_EQ(buf.taken(), c.capacity) << c.rows << " rows";
  }
}

TEST(Export, JsonEscapeCoversQuotesBackslashesAndControlBytes) {
  EXPECT_EQ(json_escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(json_escape("tab\there\n"), "tab\\u0009here\\u000a");
  EXPECT_EQ(json_escape(std::string_view("\0\x1f\x7f", 3)),
            "\\u0000\\u001f\x7f");
  // Bytes from 0x20 up pass through, UTF-8 included.
  EXPECT_EQ(json_escape("/ <b> caf\xc3\xa9"), "/ <b> caf\xc3\xa9");
  EXPECT_EQ(json_escape(""), "");
}

TEST(Export, WriteFileRoundTrips) {
  std::string path = ::testing::TempDir() + "/tls_export_test.csv";
  std::string error;
  ASSERT_TRUE(write_file(path, "a,b\n1,2\n", &error)) << error;
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(buf.str(), "a,b\n1,2\n");
  std::remove(path.c_str());
}

TEST(Export, WriteFileFailureReported) {
  std::string error;
  EXPECT_FALSE(write_file("/nonexistent-dir-xyz/file.csv", "x", &error));
  EXPECT_FALSE(error.empty());
  // /dev/full opens fine and fails the write itself, at the flush.
  if (std::ifstream("/dev/full")) {
    EXPECT_FALSE(write_file("/dev/full", "x", &error));
    EXPECT_EQ(error, "write to '/dev/full' failed");
  }
}

}  // namespace
}  // namespace tls::obs
