// obs::analysis unit tests on hand-built event streams with fully
// hand-computed expectations: critical-path decomposition, exact
// conservation, blame-window semantics, graceful degradation on partial
// traces, the trace-CSV reader round trip, and the FlowKind-ordinal pin.
// Every report comes from the streaming engine and is checked byte for
// byte against the batch oracle.
#include "obs/analysis.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "net/chunk.hpp"
#include "obs/export.hpp"
#include "obs/streaming.hpp"
#include "obs/trace.hpp"
#include "oracle.hpp"

namespace tls::obs {
namespace {

/// The streaming engine's report on `events`, which must render exactly as
/// the batch oracle's does.
RunReport analyze(const std::vector<TraceEvent>& events) {
  StreamingAnalyzer engine;
  for (const TraceEvent& e : events) engine.ingest(e);
  RunReport report = engine.finish();
  RunReport batch = oracle::analyze(events);
  EXPECT_EQ(report_text(report), report_text(batch));
  EXPECT_EQ(report_json(report), report_json(batch));
  return report;
}

// The analysis pins FlowKind ordinals (model=0, gradient=1) so it can run
// on offline CSVs without linking net/. If this enum is ever reordered,
// analysis_detail.hpp must follow.
TEST(AnalysisContract, FlowKindOrdinalsPinned) {
  EXPECT_EQ(static_cast<int>(net::FlowKind::kModelUpdate), 0);
  EXPECT_EQ(static_cast<int>(net::FlowKind::kGradientUpdate), 1);
}

TEST(AnalysisContract, SegmentKindNames) {
  EXPECT_STREQ(to_string(SegmentKind::kCompute), "compute");
  EXPECT_STREQ(to_string(SegmentKind::kEgressQueue), "egress_queue");
  EXPECT_STREQ(to_string(SegmentKind::kSerialization), "serialization");
  EXPECT_STREQ(to_string(SegmentKind::kFanIn), "fan_in");
  EXPECT_STREQ(to_string(SegmentKind::kOther), "other");
}

/// One complete synchronous iteration of a 1-worker job, emitted in the
/// order the simulator would: compute on host 1, gradient flow 101 to the
/// PS on host 0, aggregation, model flow 100 back, barrier release. Extra
/// foreign dequeues land inside flow 100's egress-queue window, and extra
/// foreign delivers inside its ingress window at host 1, to exercise every
/// blame inclusion/exclusion rule on both sides. Flow 100's deliver
/// carries an 80 ns ingress-queue wait, splitting its fan-in segment into
/// wait [1800,1880] + receive [1880,2000].
///
/// Timeline (ns):              1000      1100 1150  1250 1300 1400 1600 1800 2000
///   barrier [enter.....................................................release]
///   compute  [900 (clamped to enter)..1100]
///   gradient flow 101:             enq--deq--arr--del
///   PS aggregation:                              [1300..1400]
///   model flow 100:                                    enq....deq..arr..del
void emit_one_iteration(Tracer& t) {
  t.worker_compute(tls::sim::Time{900}, /*host=*/tls::net::HostId{1}, /*job=*/0, /*worker=*/0, /*iteration=*/0,
                   /*duration=*/tls::sim::Time{200});
  t.barrier_enter(tls::sim::Time{1000}, /*job=*/0, /*worker=*/0, /*iteration=*/0);
  t.flow_start(tls::sim::Time{1100}, /*src=*/tls::net::HostId{1}, /*dst=*/tls::net::HostId{0}, /*job=*/0, /*kind_ordinal=*/1,
               /*flow=*/101, /*bytes=*/tls::net::Bytes{5000}, /*iteration=*/0);
  t.chunk_enqueue(tls::sim::Time{1100}, /*host=*/tls::net::HostId{1}, /*job=*/0, /*band=*/tls::net::BandId{0}, /*flow=*/101,
                  /*index=*/0, /*bytes=*/tls::net::Bytes{5000});
  t.chunk_dequeue(tls::sim::Time{1150}, tls::net::HostId{1}, 0, tls::net::BandId{0}, 101, 0, tls::net::Bytes{5000}, /*queue_wait=*/tls::sim::Time{50});
  t.ingress_arrive(tls::sim::Time{1250}, /*host=*/tls::net::HostId{0}, 0, tls::net::BandId{0}, 101, 0, tls::net::Bytes{5000});
  t.ingress_deliver(tls::sim::Time{1300}, tls::net::HostId{0}, 0, tls::net::BandId{0}, 101, 0, tls::net::Bytes{5000}, /*wait=*/tls::sim::Time{0}, /*residence=*/tls::sim::Time{50});
  t.flow_end(tls::sim::Time{1300}, tls::net::HostId{1}, tls::net::HostId{0}, 0, 1, 101, tls::net::Bytes{5000}, 0, /*elapsed=*/tls::sim::Time{200});
  t.ps_aggregate(tls::sim::Time{1300}, /*host=*/tls::net::HostId{0}, /*job=*/0, /*shard=*/0, /*iteration=*/0,
                 /*duration=*/tls::sim::Time{100});
  t.flow_start(tls::sim::Time{1400}, /*src=*/tls::net::HostId{0}, /*dst=*/tls::net::HostId{1}, 0, /*kind_ordinal=*/0, /*flow=*/100,
               tls::net::Bytes{6000}, 0);
  t.chunk_enqueue(tls::sim::Time{1400}, /*host=*/tls::net::HostId{0}, 0, tls::net::BandId{0}, 100, 0, tls::net::Bytes{6000});
  // Inside flow 100's egress-queue log window (enqueue..dequeue):
  t.chunk_dequeue(tls::sim::Time{1450}, tls::net::HostId{0}, /*job=*/1, /*band=*/tls::net::BandId{2}, /*flow=*/999, 0, tls::net::Bytes{7777}, tls::sim::Time{0});
  t.chunk_dequeue(tls::sim::Time{1500}, /*host=*/tls::net::HostId{1}, 1, tls::net::BandId{2}, 998, 0, tls::net::Bytes{1111}, tls::sim::Time{0});  // other host
  t.chunk_dequeue(tls::sim::Time{1520}, tls::net::HostId{0}, /*job=*/0, tls::net::BandId{0}, /*flow=*/555, 0, tls::net::Bytes{3333}, tls::sim::Time{0});  // self
  t.chunk_dequeue(tls::sim::Time{1540}, tls::net::HostId{0}, 0, tls::net::BandId{0}, /*flow=*/100, 1, tls::net::Bytes{500}, tls::sim::Time{0});  // own pipeline
  t.chunk_dequeue(tls::sim::Time{1600}, tls::net::HostId{0}, 0, tls::net::BandId{0}, 100, 0, tls::net::Bytes{6000}, /*queue_wait=*/tls::sim::Time{200});
  // After the victim's dequeue: outside the window.
  t.chunk_dequeue(tls::sim::Time{1650}, tls::net::HostId{0}, 1, tls::net::BandId{2}, /*flow=*/997, 0, tls::net::Bytes{2222}, tls::sim::Time{0});
  t.ingress_arrive(tls::sim::Time{1800}, /*host=*/tls::net::HostId{1}, 0, tls::net::BandId{0}, 100, 0, tls::net::Bytes{6000});
  // Inside flow 100's ingress log window (arrive..deliver) at host 1:
  t.ingress_deliver(tls::sim::Time{1850}, tls::net::HostId{1}, /*job=*/1, /*band=*/tls::net::BandId{2}, /*flow=*/888, 0, tls::net::Bytes{4444}, tls::sim::Time{0}, tls::sim::Time{10});
  t.ingress_deliver(tls::sim::Time{1870}, /*host=*/tls::net::HostId{0}, 1, tls::net::BandId{2}, 887, 0, tls::net::Bytes{123}, tls::sim::Time{0}, tls::sim::Time{10});  // other host
  t.ingress_deliver(tls::sim::Time{1890}, tls::net::HostId{1}, /*job=*/0, tls::net::BandId{0}, /*flow=*/666, 0, tls::net::Bytes{2222}, tls::sim::Time{0}, tls::sim::Time{10});  // self
  t.ingress_deliver(tls::sim::Time{1900}, tls::net::HostId{1}, 0, tls::net::BandId{0}, /*flow=*/100, 1, tls::net::Bytes{500}, tls::sim::Time{0}, tls::sim::Time{10});  // own pipeline
  t.ingress_deliver(tls::sim::Time{2000}, tls::net::HostId{1}, 0, tls::net::BandId{0}, 100, 0, tls::net::Bytes{6000}, /*wait=*/tls::sim::Time{80}, /*residence=*/tls::sim::Time{200});
  // After the victim's deliver: outside the window.
  t.ingress_deliver(tls::sim::Time{2000}, tls::net::HostId{1}, 1, tls::net::BandId{2}, /*flow=*/886, 0, tls::net::Bytes{3210}, tls::sim::Time{0}, tls::sim::Time{10});
  t.flow_end(tls::sim::Time{2000}, tls::net::HostId{0}, tls::net::HostId{1}, 0, 0, 100, tls::net::Bytes{6000}, 0, /*elapsed=*/tls::sim::Time{600});
  t.barrier_release(tls::sim::Time{2000}, 0, 0, 0, /*wait=*/tls::sim::Time{1000});
}

std::vector<TraceEvent> one_iteration_trace() {
  Tracer t;
  emit_one_iteration(t);
  return t.events();
}

TEST(Analysis, DecomposesOneIterationExactly) {
  RunReport report = analyze(one_iteration_trace());
  ASSERT_EQ(report.iterations.size(), 1u);
  const IterationReport& r = report.iterations[0];
  EXPECT_EQ(r.job, 0);
  EXPECT_EQ(r.iteration, 0);
  EXPECT_EQ(r.critical_worker, 0);
  EXPECT_EQ(r.enter_at, tls::sim::Time{1000});
  EXPECT_EQ(r.release_at, tls::sim::Time{2000});
  EXPECT_EQ(r.barrier_wait, tls::sim::Time{1000});

  // Hand-computed decomposition: worker compute clamped to the barrier
  // window [1000,1100], gradient chunk 50+100+50, aggregation 100, model
  // chunk 200+200+200.
  EXPECT_EQ(r.compute_ns, tls::sim::Time{200});
  EXPECT_EQ(r.egress_queue_ns, tls::sim::Time{250});
  EXPECT_EQ(r.serialization_ns, tls::sim::Time{300});
  EXPECT_EQ(r.fan_in_ns, tls::sim::Time{250});
  EXPECT_EQ(r.other_ns, tls::sim::Time{0});
  EXPECT_EQ(r.compute_ns + r.egress_queue_ns + r.serialization_ns +
                r.fan_in_ns + r.other_ns,
            r.barrier_wait);
  // The fan-in total splits into ingress-queue wait vs receive
  // serialization at arr_at + del_wait: the model chunk waited 80 ns
  // ([1800,1880]), the gradient chunk 0; the split always sums back.
  EXPECT_EQ(r.fan_in_wait_ns, tls::sim::Time{80});
  EXPECT_EQ(r.fan_in_ser_ns, tls::sim::Time{170});
  EXPECT_EQ(r.fan_in_wait_ns + r.fan_in_ser_ns, r.fan_in_ns);

  // Segments tile [enter, release] in forward time order with no gaps.
  ASSERT_EQ(r.segments.size(), 8u);
  EXPECT_EQ(r.segments.front().begin, r.enter_at);
  EXPECT_EQ(r.segments.back().end, r.release_at);
  for (std::size_t i = 1; i < r.segments.size(); ++i) {
    EXPECT_EQ(r.segments[i - 1].end, r.segments[i].begin) << "gap at " << i;
  }
  EXPECT_EQ(r.segments[0].kind, SegmentKind::kCompute);        // worker step
  EXPECT_EQ(r.segments[1].kind, SegmentKind::kEgressQueue);    // gradient
  EXPECT_EQ(r.segments[2].kind, SegmentKind::kSerialization);
  EXPECT_EQ(r.segments[3].kind, SegmentKind::kFanIn);
  EXPECT_EQ(r.segments[4].kind, SegmentKind::kCompute);        // aggregation
  EXPECT_EQ(r.segments[5].kind, SegmentKind::kEgressQueue);    // model
  EXPECT_EQ(r.segments[6].kind, SegmentKind::kSerialization);
  EXPECT_EQ(r.segments[7].kind, SegmentKind::kFanIn);
  EXPECT_EQ(r.segments[5].host, 0);    // model flow queues at the PS host
  EXPECT_EQ(r.segments[5].flow, 100);
  // Only fan-in segments carry the wait/receive split point.
  EXPECT_EQ(r.segments[3].fan_in_wait_end, tls::sim::Time{1250});
  EXPECT_EQ(r.segments[7].fan_in_wait_end, tls::sim::Time{1880});
  EXPECT_EQ(r.segments[0].fan_in_wait_end, tls::sim::Time{-1});
}

TEST(Analysis, BlameWindowCountsForeignDequeuesOnly) {
  RunReport report = analyze(one_iteration_trace());
  ASSERT_EQ(report.iterations.size(), 1u);
  const IterationReport& r = report.iterations[0];

  // Egress side, flow 100's window: flow 999 (job 1) and flow 555 (job 0)
  // at host 0 count; the other-host, own-pipeline, and outside-window
  // dequeues do not. Ingress side, same flow's window at host 1: flow 888
  // (job 1) and flow 666 (job 0) count under the same exclusion rules.
  // Entries are sorted by (side, host, culprit job, culprit band) with
  // egress first.
  ASSERT_EQ(r.blame.size(), 4u);
  EXPECT_EQ(r.blame[0].side, BlameSide::kEgress);
  EXPECT_EQ(r.blame[0].host, 0);
  EXPECT_EQ(r.blame[0].culprit_job, 0);
  EXPECT_EQ(r.blame[0].culprit_band, 0);
  EXPECT_EQ(r.blame[0].bytes, 3333);
  EXPECT_EQ(r.blame[1].side, BlameSide::kEgress);
  EXPECT_EQ(r.blame[1].host, 0);
  EXPECT_EQ(r.blame[1].culprit_job, 1);
  EXPECT_EQ(r.blame[1].culprit_band, 2);
  EXPECT_EQ(r.blame[1].bytes, 7777);
  EXPECT_EQ(r.blame[2].side, BlameSide::kIngress);
  EXPECT_EQ(r.blame[2].host, 1);
  EXPECT_EQ(r.blame[2].culprit_job, 0);
  EXPECT_EQ(r.blame[2].culprit_band, 0);
  EXPECT_EQ(r.blame[2].bytes, 2222);
  EXPECT_EQ(r.blame[3].side, BlameSide::kIngress);
  EXPECT_EQ(r.blame[3].host, 1);
  EXPECT_EQ(r.blame[3].culprit_job, 1);
  EXPECT_EQ(r.blame[3].culprit_band, 2);
  EXPECT_EQ(r.blame[3].bytes, 4444);

  ASSERT_EQ(report.jobs.size(), 1u);
  EXPECT_EQ(report.jobs[0].cross_job_blame_bytes, 7777);
  EXPECT_EQ(report.jobs[0].self_blame_bytes, 3333);
  EXPECT_EQ(report.jobs[0].cross_job_ingress_blame_bytes, 4444);
  EXPECT_EQ(report.jobs[0].self_ingress_blame_bytes, 2222);
  EXPECT_EQ(report.jobs[0].total_wait_ns, tls::sim::Time{1000});
  EXPECT_EQ(report.jobs[0].iterations, 1);
}

TEST(Analysis, BareBarrierEventsFallToOther) {
  // No compute/flow events at all: the whole window is unattributable and
  // must land in `other` — never dropped, never crashing.
  Tracer t;
  t.barrier_enter(tls::sim::Time{700}, 0, 0, 0);
  t.barrier_release(tls::sim::Time{1000}, 0, /*worker=*/0, 0, /*wait=*/tls::sim::Time{300});
  RunReport report = analyze(t.events());
  ASSERT_EQ(report.iterations.size(), 1u);
  const IterationReport& r = report.iterations[0];
  EXPECT_EQ(r.other_ns, tls::sim::Time{300});
  EXPECT_EQ(r.other_ns, r.barrier_wait);
  ASSERT_EQ(r.segments.size(), 1u);
  EXPECT_EQ(r.segments[0].kind, SegmentKind::kOther);
  EXPECT_TRUE(r.blame.empty());
}

TEST(Analysis, CriticalWorkerIsLargestWaitFirstInLogOnTies) {
  Tracer t;
  t.barrier_release(tls::sim::Time{1000}, 0, /*worker=*/0, 0, /*wait=*/tls::sim::Time{100});
  t.barrier_release(tls::sim::Time{1000}, 0, /*worker=*/1, 0, /*wait=*/tls::sim::Time{300});
  t.barrier_release(tls::sim::Time{2000}, 0, /*worker=*/2, 1, /*wait=*/tls::sim::Time{250});
  t.barrier_release(tls::sim::Time{2000}, 0, /*worker=*/3, 1, /*wait=*/tls::sim::Time{250});
  RunReport report = analyze(t.events());
  ASSERT_EQ(report.iterations.size(), 2u);
  EXPECT_EQ(report.iterations[0].critical_worker, 1);  // strictly larger
  EXPECT_EQ(report.iterations[0].barrier_wait, tls::sim::Time{300});
  EXPECT_EQ(report.iterations[1].critical_worker, 2);  // tie: log order
}

TEST(Analysis, StartupBroadcastIterationIsSkipped) {
  // iteration -1 tags the startup model broadcast; it is not a barrier.
  Tracer t;
  t.barrier_release(tls::sim::Time{500}, 0, 0, /*iteration=*/-1, tls::sim::Time{100});
  RunReport report = analyze(t.events());
  EXPECT_TRUE(report.iterations.empty());
  EXPECT_TRUE(report.jobs.empty());
}

TEST(Analysis, EmptyTraceYieldsEmptyReport) {
  RunReport report = analyze({});
  EXPECT_TRUE(report.iterations.empty());
  EXPECT_TRUE(report.jobs.empty());
  EXPECT_NE(report_text(report).find("jobs 0, iterations 0"),
            std::string::npos);
}

TEST(AnalysisRenderers, TextCsvJsonAgreeOnTotals) {
  RunReport report = analyze(one_iteration_trace());
  std::string text = report_text(report);
  EXPECT_NE(text.find("wait 1000 ns = compute 200 + egress_queue 250 + "
                      "serialization 300 + fan_in 250 (wait 80 + recv 170) + "
                      "other 0"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("blame host 0: job 1 band 2 drained 7777 bytes ahead"),
            std::string::npos);
  EXPECT_NE(text.find("ingress blame host 1: job 1 band 2 delivered 4444 "
                      "bytes ahead"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("fan_in split: ingress wait 80 ns, receive 170 ns"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("ingress blame: cross-job 4444 bytes, self 2222 bytes"),
            std::string::npos)
      << text;

  std::string csv = report_csv(report);
  EXPECT_NE(csv.find("job,iteration,critical_worker,record,host,culprit_job,"
                     "culprit_band,metric,value\n"),
            std::string::npos);
  EXPECT_NE(csv.find("0,0,0,segment,-1,-1,-1,barrier_wait_ns,1000"),
            std::string::npos);
  EXPECT_NE(csv.find("0,0,0,segment,-1,-1,-1,fan_in_wait_ns,80"),
            std::string::npos);
  EXPECT_NE(csv.find("0,0,0,segment,-1,-1,-1,fan_in_ser_ns,170"),
            std::string::npos);
  EXPECT_NE(csv.find("0,0,0,blame,0,1,2,blame_bytes,7777"), std::string::npos);
  EXPECT_NE(csv.find("0,0,0,ingress_blame,1,1,2,ingress_blame_bytes,4444"),
            std::string::npos)
      << csv;

  std::string json = report_json(report);
  EXPECT_NE(json.find("\"schema\":\"tlsreport-v2\""), std::string::npos);
  EXPECT_NE(json.find("\"cross_job_blame_bytes\":7777"), std::string::npos);
  EXPECT_NE(json.find("\"self_blame_bytes\":3333"), std::string::npos);
  EXPECT_NE(json.find("\"cross_job_ingress_blame_bytes\":4444"),
            std::string::npos);
  EXPECT_NE(json.find("\"self_ingress_blame_bytes\":2222"),
            std::string::npos);
  EXPECT_NE(json.find("\"fan_in_wait_ns\":80"), std::string::npos);
  EXPECT_NE(json.find("\"side\":\"egress\""), std::string::npos);
  EXPECT_NE(json.find("\"side\":\"ingress\""), std::string::npos);
  // Integer-only output: a float would break byte-identical determinism.
  EXPECT_EQ(json.find('.'), std::string::npos);
}

TEST(AnalysisReader, TraceCsvRoundTripsEveryField) {
  Tracer t;
  emit_one_iteration(t);
  const std::vector<TraceEvent>& events = t.events();
  std::istringstream in(trace_csv(t));
  std::vector<TraceEvent> parsed;
  std::string error;
  ASSERT_TRUE(oracle::read_trace_csv(in, &parsed, nullptr, &error)) << error;
  ASSERT_EQ(parsed.size(), events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(parsed[i].at, events[i].at) << i;
    EXPECT_EQ(parsed[i].kind, events[i].kind) << i;
    EXPECT_EQ(parsed[i].cat, events[i].cat) << i;
    EXPECT_EQ(parsed[i].host, events[i].host) << i;
    EXPECT_EQ(parsed[i].job, events[i].job) << i;
    EXPECT_EQ(parsed[i].band, events[i].band) << i;
    EXPECT_EQ(parsed[i].flow, events[i].flow) << i;
    EXPECT_EQ(parsed[i].bytes, events[i].bytes) << i;
    EXPECT_EQ(parsed[i].a, events[i].a) << i;
    EXPECT_EQ(parsed[i].b, events[i].b) << i;
    EXPECT_EQ(parsed[i].dur, events[i].dur) << i;
  }
  // The round trip is lossless for the analysis too.
  EXPECT_EQ(report_text(analyze(parsed)), report_text(analyze(events)));
}

TEST(AnalysisReader, RejectsWrongHeader) {
  std::istringstream in("time,stuff\n1,2\n");
  std::vector<TraceEvent> out;
  std::string error;
  EXPECT_FALSE(oracle::read_trace_csv(in, &out, nullptr, &error));
  EXPECT_NE(error.find("header"), std::string::npos) << error;
}

TEST(AnalysisReader, RejectsMalformedRowWithLineNumber) {
  std::istringstream in(
      "at_ns,kind,cat,host,job,band,flow,bytes,a,b,dur_ns\n"
      "10,chunk_enqueue,chunk,0,0,0,1,100,0,0,0\n"
      "20,not_a_kind,chunk,0,0,0,1,100,0,0,0\n");
  std::vector<TraceEvent> out;
  std::string error;
  EXPECT_FALSE(oracle::read_trace_csv(in, &out, nullptr, &error));
  EXPECT_NE(error.find("line 3"), std::string::npos) << error;
  EXPECT_EQ(out.size(), 1u);  // rows before the error are kept
}

TEST(AnalysisReader, RejectsShortRow) {
  std::istringstream in(
      "at_ns,kind,cat,host,job,band,flow,bytes,a,b,dur_ns\n"
      "10,chunk_enqueue,chunk\n");
  std::vector<TraceEvent> out;
  std::string error;
  EXPECT_FALSE(oracle::read_trace_csv(in, &out, nullptr, &error));
  EXPECT_NE(error.find("11 columns"), std::string::npos) << error;
}

TEST(AnalysisReader, MissingFileReportsPath) {
  std::vector<TraceEvent> out;
  std::string error;
  EXPECT_FALSE(oracle::read_trace_csv_file("/nonexistent-dir-xyz/trace.csv",
                                           &out, nullptr, &error));
  EXPECT_NE(error.find("/nonexistent-dir-xyz/trace.csv"), std::string::npos);
}

RunReport report_with(std::int32_t job, std::int64_t iteration,
                      sim::Time wait, std::int64_t cross_bytes,
                      std::int64_t ingress_bytes = 0) {
  RunReport r;
  IterationReport it;
  it.job = job;
  it.iteration = iteration;
  it.barrier_wait = wait;
  if (cross_bytes > 0) {
    it.blame.push_back(BlameEntry{BlameSide::kEgress, 0, job + 1, 0, cross_bytes});
  }
  if (ingress_bytes > 0) {
    it.blame.push_back(
        BlameEntry{BlameSide::kIngress, 1, job + 1, 0, ingress_bytes});
  }
  r.iterations.push_back(it);
  JobSummary js;
  js.job = job;
  js.iterations = 1;
  js.total_wait_ns = wait;
  js.cross_job_blame_bytes = cross_bytes;
  js.cross_job_ingress_blame_bytes = ingress_bytes;
  r.jobs.push_back(js);
  return r;
}

TEST(AnalysisDiff, AlignsRowsAndFlagsMissingIterations) {
  RunReport a = report_with(0, 0, tls::sim::Time{500}, 100);
  RunReport b = report_with(0, 1, tls::sim::Time{400}, 0);  // different iteration
  DiffReport d = diff_reports(a, b, "fifo", "tls-one");
  EXPECT_EQ(d.label_a, "fifo");
  EXPECT_EQ(d.label_b, "tls-one");
  ASSERT_EQ(d.rows.size(), 2u);
  EXPECT_EQ(d.rows[0].iteration, 0);
  EXPECT_EQ(d.rows[0].wait_a, tls::sim::Time{500});
  EXPECT_EQ(d.rows[0].wait_b, tls::sim::Time{-1});  // missing on the B side
  EXPECT_EQ(d.rows[1].iteration, 1);
  EXPECT_EQ(d.rows[1].wait_a, tls::sim::Time{-1});
  EXPECT_EQ(d.rows[1].wait_b, tls::sim::Time{400});
}

TEST(AnalysisDiff, CertifiesCrossJobBlameElimination) {
  DiffReport d = diff_reports(report_with(0, 0, tls::sim::Time{500}, 4096),
                              report_with(0, 0, tls::sim::Time{300}, 0), "fifo", "tls-one");
  ASSERT_EQ(d.jobs.size(), 1u);
  EXPECT_EQ(d.jobs[0].cross_blame_a, 4096);
  EXPECT_EQ(d.jobs[0].cross_blame_b, 0);
  std::string text = diff_text(d);
  EXPECT_NE(text.find("[queueing-behind-other-jobs eliminated]"),
            std::string::npos)
      << text;
  // The tag only fires when blame actually went to zero.
  DiffReport still = diff_reports(report_with(0, 0, tls::sim::Time{500}, 4096),
                                  report_with(0, 0, tls::sim::Time{300}, 64), "a", "b");
  EXPECT_EQ(diff_text(still).find("eliminated"), std::string::npos);

  std::string json = diff_json(d);
  EXPECT_NE(json.find("\"schema\":\"tlsreport-diff-v2\""), std::string::npos);
  EXPECT_NE(json.find("\"cross_job_blame_bytes_a\":4096"), std::string::npos);
  std::string csv = diff_csv(d);
  EXPECT_NE(csv.find("job,iteration,metric,a,b\n"), std::string::npos);
  EXPECT_NE(csv.find("0,-1,cross_job_blame_bytes,4096,0"), std::string::npos);
}

TEST(AnalysisDiff, CertifiesFanInContentionElimination) {
  // Both sides of the blame matrix go to zero: both certificates fire.
  DiffReport d = diff_reports(
      report_with(0, 0, tls::sim::Time{500}, 4096, /*ingress_bytes=*/2048),
      report_with(0, 0, tls::sim::Time{300}, 0, 0), "fifo", "tls-one");
  ASSERT_EQ(d.jobs.size(), 1u);
  EXPECT_EQ(d.jobs[0].cross_ingress_blame_a, 2048);
  EXPECT_EQ(d.jobs[0].cross_ingress_blame_b, 0);
  std::string text = diff_text(d);
  EXPECT_NE(text.find("[queueing-behind-other-jobs eliminated]"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("[fan-in contention eliminated]"), std::string::npos)
      << text;

  // Only the ingress side goes to zero: only the fan-in tag fires.
  DiffReport ingress_only = diff_reports(
      report_with(0, 0, tls::sim::Time{500}, 4096, 2048),
      report_with(0, 0, tls::sim::Time{300}, 64, 0), "a", "b");
  std::string partial = diff_text(ingress_only);
  EXPECT_EQ(partial.find("[queueing-behind-other-jobs eliminated]"),
            std::string::npos);
  EXPECT_NE(partial.find("[fan-in contention eliminated]"), std::string::npos);
  // Residual ingress blame: no tag.
  DiffReport still = diff_reports(
      report_with(0, 0, tls::sim::Time{500}, 0, 2048),
      report_with(0, 0, tls::sim::Time{300}, 0, 64), "a", "b");
  EXPECT_EQ(diff_text(still).find("fan-in contention"), std::string::npos);

  std::string json = diff_json(d);
  EXPECT_NE(json.find("\"cross_job_ingress_blame_bytes_a\":2048"),
            std::string::npos);
  EXPECT_NE(json.find("\"cross_job_ingress_blame_bytes_b\":0"),
            std::string::npos);
  std::string csv = diff_csv(d);
  EXPECT_NE(csv.find("0,-1,cross_job_ingress_blame_bytes,2048,0"),
            std::string::npos)
      << csv;
}

TEST(AnalysisDiff, JsonEscapesLabels) {
  // Labels default to the trace CSV file names, so any byte can reach the
  // diff JSON: a quote or backslash gets a backslash, a control byte is
  // written as \u00XX.
  DiffReport d =
      diff_reports(report_with(0, 0, tls::sim::Time{500}, 0),
                   report_with(0, 0, tls::sim::Time{300}, 0), "a\"b\\c",
                   "run\t2");
  const std::string json = diff_json(d);
  const std::string head =
      "{\"schema\":\"tlsreport-diff-v2\",\"a\":\"a\\\"b\\\\c\","
      "\"b\":\"run\\u00092\",\"jobs\":[";
  EXPECT_EQ(json.substr(0, head.size()), head);
}

TEST(AnalysisContract, BlameSideNames) {
  EXPECT_STREQ(to_string(BlameSide::kEgress), "egress");
  EXPECT_STREQ(to_string(BlameSide::kIngress), "ingress");
}

}  // namespace
}  // namespace tls::obs
