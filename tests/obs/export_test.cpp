// Exporter unit tests: exact Chrome trace-event JSON and trace CSV for a
// hand-built event sequence, and the checked file writer. These pin the
// byte-level format — the integration golden test then pins a whole
// simulated scenario.
#include "obs/export.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

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
