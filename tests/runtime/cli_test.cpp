#include "runtime/cli.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace tls::runtime {
namespace {

struct CliRun {
  int code = 0;
  std::string out;
  std::string err;
};

CliRun cli(std::initializer_list<std::string> args) {
  std::ostringstream out, err;
  int code = run_cli(std::vector<std::string>(args), out, err);
  return {code, out.str(), err.str()};
}

// Small-but-contended base flags so CLI tests run in milliseconds.
#define SMALL "--hosts", "6", "--jobs", "6", "--workers", "5", \
              "--batch", "1", "--iters", "6", "--link-gbps", "2.5"

TEST(Cli, HelpByDefaultAndExplicit) {
  CliRun r = cli({});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("usage: tlsim"), std::string::npos);
  EXPECT_EQ(cli({"help"}).code, 0);
  CliRun flag = cli({"--help"});
  EXPECT_EQ(flag.code, 0);
  EXPECT_EQ(flag.out, r.out);
}

TEST(Cli, UnknownCommandFails) {
  CliRun r = cli({"frobnicate"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("unknown command"), std::string::npos);
}

TEST(Cli, RunProducesTable) {
  CliRun r = cli({"run", SMALL, "--policy", "tls-one"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("TLs-One"), std::string::npos);
  EXPECT_NE(r.out.find("avg JCT"), std::string::npos);
}

TEST(Cli, RunCsvOutput) {
  CliRun r = cli({"run", SMALL, "--policy", "fifo", "--csv"});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("policy,avg JCT (s)"), std::string::npos);
  EXPECT_NE(r.out.find("FIFO,"), std::string::npos);
}

TEST(Cli, RunReplicated) {
  CliRun r = cli({"run", SMALL, "--policy", "fifo", "--replicas", "2"});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("across 2 seeds"), std::string::npos);
}

TEST(Cli, CompareShowsAllPolicies) {
  CliRun r = cli({"compare", SMALL});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("FIFO"), std::string::npos);
  EXPECT_NE(r.out.find("TLs-One"), std::string::npos);
  EXPECT_NE(r.out.find("TLs-RR"), std::string::npos);
}

TEST(Cli, BadPolicyRejected) {
  CliRun r = cli({"run", SMALL, "--policy", "wfq"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("--policy"), std::string::npos);
}

TEST(Cli, BadNumberRejected) {
  EXPECT_EQ(cli({"run", "--hosts", "zero"}).code, 2);
  EXPECT_EQ(cli({"run", "--placement", "9"}).code, 2);
  EXPECT_EQ(cli({"run", "--bands", "16"}).code, 2);
}

TEST(Cli, WorkerHostConstraintEnforced) {
  CliRun r = cli({"run", "--hosts", "4", "--jobs", "2", "--workers", "4"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("--workers"), std::string::npos);
}

TEST(Cli, ManyBandsSelectPrioPlane) {
  // 15 bands exceed htb's 8 prio levels; the CLI must switch data planes
  // rather than fail.
  CliRun r = cli({"run", SMALL, "--policy", "tls-one", "--bands", "15"});
  EXPECT_EQ(r.code, 0) << r.err;
}

TEST(Cli, BackgroundFlagAccepted) {
  CliRun r = cli({"run", SMALL, "--policy", "tls-rr", "--background"});
  EXPECT_EQ(r.code, 0) << r.err;
}

TEST(Cli, ExportPrefixWritesArtifacts) {
  std::string prefix = ::testing::TempDir() + "/tlsim_cli_export";
  CliRun r = cli({"run", SMALL, "--policy", "fifo", "--export-prefix", prefix});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("exported"), std::string::npos);
  for (const char* suffix : {".jobs.csv", ".barriers.csv", ".json"}) {
    std::ifstream in(prefix + suffix);
    EXPECT_TRUE(in.good()) << suffix;
    std::string first_line;
    std::getline(in, first_line);
    EXPECT_FALSE(first_line.empty()) << suffix;
    std::remove((prefix + suffix).c_str());
  }
}

TEST(Cli, ExportToBadPathFails) {
  CliRun r = cli({"run", SMALL, "--policy", "fifo", "--export-prefix",
                  "/nonexistent-dir-xyz/out"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("export failed"), std::string::npos);
}

TEST(Cli, TraceFilterUnknownCategoryRejected) {
  CliRun r = cli({"run", SMALL, "--trace-filter", "chunk,bogus"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("bogus"), std::string::npos) << r.err;
  // The error lists every valid category so the user can self-serve.
  for (const char* name : {"chunk", "qdisc", "htb", "rotation", "barrier",
                           "straggler", "sample", "flow", "ingress",
                           "compute"}) {
    EXPECT_NE(r.err.find(name), std::string::npos) << name << ": " << r.err;
  }
}

TEST(Cli, ReportFlagsWriteAttributionArtifacts) {
  std::string prefix = ::testing::TempDir() + "/tlsim_cli_report";
  CliRun r = cli({"run", SMALL, "--policy", "fifo",
                  "--report", prefix + ".txt",
                  "--report-csv", prefix + ".csv",
                  "--report-json", prefix + ".json"});
  EXPECT_EQ(r.code, 0) << r.err;
  std::ifstream text(prefix + ".txt");
  std::string first_line;
  std::getline(text, first_line);
  EXPECT_NE(first_line.find("tlsreport:"), std::string::npos);
  std::ifstream csv(prefix + ".csv");
  std::getline(csv, first_line);
  EXPECT_NE(first_line.find("job,iteration"), std::string::npos);
  std::ifstream json(prefix + ".json");
  std::getline(json, first_line);
  EXPECT_NE(first_line.find("\"schema\":\"tlsreport-v2\""), std::string::npos);
  for (const char* suffix : {".txt", ".csv", ".json"}) {
    std::remove((prefix + suffix).c_str());
  }
}

TEST(Cli, ReportWorksWithNarrowTraceFilter) {
  // --report forces the analysis categories even when --trace-filter would
  // exclude them; the report must not silently degrade to all-`other`.
  std::string path = ::testing::TempDir() + "/tlsim_cli_report_narrow.txt";
  CliRun r = cli({"run", SMALL, "--policy", "fifo", "--trace-filter", "none",
                  "--report", path});
  EXPECT_EQ(r.code, 0) << r.err;
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  // Degraded analysis would attribute zero compute to every job's rollup.
  EXPECT_NE(buf.str().find("total wait"), std::string::npos);
  EXPECT_EQ(buf.str().find("compute 0 ("), std::string::npos) << buf.str();
  std::remove(path.c_str());
}

// Small dynamic-cluster scenario: finishes in well under a second.
#define SMALL_SCENARIO                                                  \
  "scenario", "--hosts", "4", "--cores", "4", "--scenario-jobs", "5",   \
      "--scenario-mean-s", "2", "--scenario-workers-min", "2",          \
      "--scenario-workers-max", "3", "--scenario-iters-min", "3",       \
      "--scenario-iters-max", "4", "--scenario-batch", "1",             \
      "--scenario-sample-s", "0"

TEST(Cli, ScenarioProducesTable) {
  CliRun r = cli({SMALL_SCENARIO, "--policy", "tls-one"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("policy"), std::string::npos);
  EXPECT_NE(r.out.find("mean JCT (s)"), std::string::npos);
  EXPECT_NE(r.out.find("TLs-One"), std::string::npos);
}

TEST(Cli, ScenarioCompareRunsAllPolicies) {
  CliRun r = cli({SMALL_SCENARIO, "--scenario-compare", "--csv"});
  EXPECT_EQ(r.code, 0) << r.err;
  for (const char* policy : {"FIFO", "TLs-One", "TLs-RR"}) {
    EXPECT_NE(r.out.find(policy), std::string::npos) << policy << "\n" << r.out;
  }
}

TEST(Cli, SwitchGivenAValueIsAUsageError) {
  // A switch is on when present, so a value given to it could only be
  // dropped: "--background=false" would turn background traffic on. A
  // switch never takes the next token, so "--csv extra" leaves "extra" a
  // stray positional. Each is a usage error.
  struct Case {
    std::vector<std::string> args;
    std::string message;
  };
  const std::string kSwitch = "is a switch and takes no value";
  const std::vector<Case> cases = {
      {{"run", SMALL, "--background=false"}, kSwitch},
      {{"run", SMALL, "--background", "0"}, "unexpected argument '0'"},
      {{"run", SMALL, "--csv=no"}, kSwitch},
      {{"run", SMALL, "--progress=0"}, kSwitch},
      {{"run", SMALL, "--csv", "extra"}, "unexpected argument 'extra'"},
      {{"compare", SMALL, "--csv=true"}, kSwitch},
      {{SMALL_SCENARIO, "--scenario-compare=no"}, kSwitch},
  };
  for (const Case& c : cases) {
    std::ostringstream out, err;
    EXPECT_EQ(run_cli(c.args, out, err), 2) << c.args.back();
    EXPECT_TRUE(out.str().empty()) << c.args.back();
    EXPECT_NE(err.str().find(c.message), std::string::npos) << err.str();
  }
}

TEST(Cli, ValueFlagGivenBareIsAUsageError) {
  // A flag that takes a value, given none, must not read as "true": a
  // path flag would write a file named "true", a number flag would quote a
  // value the user never typed. Each is a usage error before any run.
  struct Case {
    std::vector<std::string> args;
    std::string flag;
  };
  const std::vector<Case> cases = {
      {{"run", SMALL, "--trace-csv", "--seed", "3"}, "trace-csv"},
      {{"run", "--iters", "--hosts", "4"}, "iters"},
      {{"run", SMALL, "--policy"}, "policy"},
      {{SMALL_SCENARIO, "--scenario-out"}, "scenario-out"},
  };
  for (const Case& c : cases) {
    std::ostringstream out, err;
    EXPECT_EQ(run_cli(c.args, out, err), 2) << c.flag;
    EXPECT_TRUE(out.str().empty()) << out.str();
    EXPECT_EQ(err.str().rfind("tlsim: --" + c.flag + " needs a value\n", 0),
              0u)
        << err.str();
    EXPECT_NE(err.str().find("usage: tlsim"), std::string::npos) << err.str();
  }
}

TEST(Cli, StrayPositionalArgumentIsAUsageError) {
  // Only the command is positional: a word after it is a typo or a value
  // whose flag was dropped, never something to ignore.
  struct Case {
    std::vector<std::string> args;
    std::string stray;
  };
  const std::vector<Case> cases = {
      {{"run", SMALL, "extra"}, "extra"},
      {{"compare", SMALL, "fifo"}, "fifo"},
      {{"run", "--iters", "2", "3"}, "3"},
  };
  for (const Case& c : cases) {
    std::ostringstream out, err;
    EXPECT_EQ(run_cli(c.args, out, err), 2) << c.stray;
    EXPECT_TRUE(out.str().empty()) << out.str();
    EXPECT_EQ(err.str().rfind("tlsim: unexpected argument '" + c.stray +
                                  "'\n",
                              0),
              0u)
        << err.str();
    EXPECT_NE(err.str().find("usage: tlsim"), std::string::npos) << err.str();
  }
}

TEST(Cli, ScenarioUnknownFlagRejectedWithValidList) {
  CliRun r = cli({SMALL_SCENARIO, "--scenario-bogus", "1"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("unknown flag --scenario-bogus"), std::string::npos)
      << r.err;
  // The error lists every valid scenario flag so the user can self-serve.
  EXPECT_NE(r.err.find("--scenario-jobs"), std::string::npos) << r.err;
  EXPECT_NE(r.err.find("--scenario-csv"), std::string::npos) << r.err;
}

TEST(Cli, ScenarioBadArrivalsRejected) {
  CliRun r = cli({SMALL_SCENARIO, "--scenario-arrivals", "weibull"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("bad --scenario-arrivals 'weibull' (poisson|pareto)"),
            std::string::npos)
      << r.err;
}

TEST(Cli, ScenarioBadAdmissionRejected) {
  CliRun r = cli({SMALL_SCENARIO, "--scenario-admission", "drop"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("bad --scenario-admission 'drop'"), std::string::npos)
      << r.err;
  EXPECT_NE(r.err.find("share|queue|reject"), std::string::npos) << r.err;
}

TEST(Cli, ScenarioBadModelRejectedWithZooList) {
  CliRun r = cli({SMALL_SCENARIO, "--scenario-models", "resnet999"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("bad --scenario-models"), std::string::npos) << r.err;
  EXPECT_NE(r.err.find("unknown model 'resnet999'"), std::string::npos)
      << r.err;
  EXPECT_NE(r.err.find("resnet32_cifar10"), std::string::npos) << r.err;
}

TEST(Cli, ScenarioBadRangeRejected) {
  CliRun r = cli({SMALL_SCENARIO, "--scenario-evict-frac", "1.5"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("--scenario-evict-frac must be <= 1"),
            std::string::npos)
      << r.err;
}

TEST(Cli, ScenarioBadNumberRejected) {
  CliRun r = cli({SMALL_SCENARIO, "--scenario-band-limit", "many"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("bad value for --scenario-band-limit"),
            std::string::npos)
      << r.err;
}

TEST(Cli, ScenarioWritesResultAndTraceArtifacts) {
  std::string prefix = ::testing::TempDir() + "/tlsim_cli_scenario";
  CliRun r = cli({SMALL_SCENARIO, "--policy", "tls-one",
                  "--scenario-out", prefix + ".json",
                  "--scenario-csv", prefix + ".csv",
                  "--scenario-trace-out", prefix + "_trace.csv"});
  EXPECT_EQ(r.code, 0) << r.err;
  std::ifstream json(prefix + ".json");
  std::string line;
  std::getline(json, line);
  EXPECT_EQ(line, "{");
  std::getline(json, line);
  EXPECT_NE(line.find("\"schema\": \"scenario-v1\""), std::string::npos);
  std::ifstream csv(prefix + ".csv");
  std::getline(csv, line);
  EXPECT_NE(line.find("job_id,model"), std::string::npos);
  std::ifstream trace(prefix + "_trace.csv");
  std::getline(trace, line);
  EXPECT_NE(line.find("job_id,arrival_s"), std::string::npos);
  for (const char* suffix : {".json", ".csv", "_trace.csv"}) {
    std::remove((prefix + suffix).c_str());
  }
}

TEST(Cli, ScenarioTraceReplayRoundTrips) {
  // Export the generated trace, replay it, and check the replayed run
  // reports the same jobs.
  std::string path = ::testing::TempDir() + "/tlsim_cli_scenario_replay.csv";
  CliRun gen = cli({SMALL_SCENARIO, "--policy", "fifo", "--csv",
                    "--scenario-trace-out", path});
  ASSERT_EQ(gen.code, 0) << gen.err;
  CliRun replay = cli({SMALL_SCENARIO, "--policy", "fifo", "--csv",
                       "--scenario-trace", path});
  EXPECT_EQ(replay.code, 0) << replay.err;
  EXPECT_EQ(gen.out, replay.out);
  std::remove(path.c_str());
}

TEST(Cli, ScenarioNanArrivalTraceIsAUsageError) {
  std::string path = ::testing::TempDir() + "/tlsim_cli_nan_arrival.csv";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "job_id,arrival_s,lifetime_s,model,workers,batch,iterations\n"
        << "0,nan,0,resnet32_cifar10,2,1,3\n";
  }
  CliRun r = cli({SMALL_SCENARIO, "--scenario-trace", path});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("trace line 2: bad arrival_s"), std::string::npos)
      << r.err;
  std::remove(path.c_str());
}

TEST(Cli, ScenarioEmptyTraceIsAUsageError) {
  // A header-only file parses to no jobs; the run must not fall back to
  // the generated trace (an empty replay means "generate").
  std::string path = ::testing::TempDir() + "/tlsim_cli_empty_trace.csv";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "job_id,arrival_s,lifetime_s,model,workers,batch,iterations\n";
  }
  CliRun r = cli({SMALL_SCENARIO, "--scenario-trace", path});
  EXPECT_EQ(r.code, 2);
  EXPECT_TRUE(r.out.empty()) << r.out;
  EXPECT_NE(r.err.find("trace has no jobs"), std::string::npos) << r.err;
  std::remove(path.c_str());
}

TEST(Cli, ScenarioMissingTraceFileRejected) {
  CliRun r = cli({SMALL_SCENARIO, "--scenario-trace", "/nonexistent/t.csv"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("cannot open --scenario-trace file"), std::string::npos)
      << r.err;
}

TEST(Cli, RunRejectsAMistypedFlagAndListsTheValidOnes) {
  // --iter is not --iters: the run must not silently use 60 iterations.
  CliRun r = cli({"run", SMALL, "--iter", "500"});
  EXPECT_EQ(r.code, 2);
  EXPECT_TRUE(r.out.empty()) << r.out;
  EXPECT_NE(r.err.find("unknown flag --iter "), std::string::npos) << r.err;
  for (const char* valid : {"--iters", "--replicas", "--export-prefix",
                            "--trace-csv", "--threads"}) {
    EXPECT_NE(r.err.find(valid), std::string::npos) << valid << ": " << r.err;
  }
}

TEST(Cli, ScenarioRejectsTraceAndReportFlagsAndWritesNothing) {
  std::string prefix = ::testing::TempDir() + "/tlsim_cli_scenario_obs";
  std::remove((prefix + ".json").c_str());
  std::remove((prefix + ".txt").c_str());
  CliRun r = cli({SMALL_SCENARIO, "--trace", prefix + ".json", "--report",
                  prefix + ".txt"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("unknown flag --trace "), std::string::npos) << r.err;
  EXPECT_NE(r.err.find("--scenario-jobs"), std::string::npos) << r.err;
  EXPECT_FALSE(std::ifstream(prefix + ".json").good());
  EXPECT_FALSE(std::ifstream(prefix + ".txt").good());
}

TEST(Cli, EachCommandRejectsTheFlagsItDoesNotRead) {
  // compare and the sweeps run every policy / placement / batch size
  // themselves; only run replicates and exports; scenario has no testbed;
  // and no command has a result cache.
  const std::vector<std::vector<std::string>> rejected = {
      {"compare", "--policy", "fifo"},
      {"compare", "--replicas", "2"},
      {"sweep-placement", "--placement", "2"},
      {"sweep-batch", "--batch", "2"},
      {"sweep-batch", "--export-prefix", "out"},
      {"run", "--cores", "4"},
      {"run", "--scenario-jobs", "4"},
      {"scenario", "--jobs", "4"},
      {"scenario", "--progress"},
      {"run", "--cache", "dir"},
      {"compare", "--no-cache"},
  };
  for (const std::vector<std::string>& args : rejected) {
    std::ostringstream out, err;
    EXPECT_EQ(run_cli(args, out, err), 2) << args[0] << " " << args[1];
    EXPECT_NE(err.str().find("unknown flag " + args[1]), std::string::npos)
        << err.str();
  }
}

// Every numeric flag of run and scenario, and --trace-sample's N, takes a
// whole plain decimal in its range: each malformed or out-of-range value
// (and an explicitly empty --flag=) exits 2 naming the flag, before any
// simulation starts.
TEST(CliMutation, EveryNumericFlagRejectsMalformedValues) {
  const std::vector<std::string> malformed = {
      "abc", "", "+5", " 5", "5 ", "0x10", "nan", "inf", "1e400"};
  const std::string kPastInt = "4294967296";
  const std::string kPastReal = "1000000001";  // reals stop at 1e9
  struct Flag {
    bool scenario;
    std::string name;
    std::vector<std::string> past;  // one past each bound
  };
  const std::vector<Flag> flags = {
      {false, "hosts", {"1", "4097", kPastInt}},
      {false, "seed", {"-1", "4611686018427387904"}},
      {false, "bands", {"0", "16", kPastInt}},
      {false, "interval-s", {"0.0009", kPastReal}},
      {false, "link-gbps", {"0.0009", kPastReal}},
      {false, "threads", {"-1", "4097", kPastInt}},
      {false, "jobs", {"0", "4097", kPastInt}},
      {false, "workers", {"0", "4096", kPastInt}},
      {false, "ps", {"0", "65", kPastInt}},
      {false, "batch", {"0", "65537", kPastInt}},
      {false, "iters", {"0", "1000001", kPastInt}},
      {false, "placement", {"0", "9", kPastInt}},
      {false, "replicas", {"0", "-1", "10001", kPastInt}},
      {true, "hosts", {"1", "4097", kPastInt}},
      {true, "seed", {"-1", "4611686018427387904"}},
      {true, "bands", {"0", "16", kPastInt}},
      {true, "interval-s", {"0.0009", kPastReal}},
      {true, "link-gbps", {"0.0009", kPastReal}},
      {true, "threads", {"-1", "4097", kPastInt}},
      {true, "cores", {"0", "1025", kPastInt}},
      {true, "scenario-band-limit", {"-2", "4097", kPastInt}},
      {true, "scenario-time-limit-s", {"0.9", kPastReal}},
      {true, "scenario-sample-s", {"-0.1", kPastReal}},
      {true, "scenario-jobs", {"0", "100001", kPastInt}},
      {true, "scenario-mean-s", {"0.0000009", kPastReal}},
      {true, "scenario-pareto-alpha", {"0.0000009", kPastReal}},
      {true, "scenario-pareto-min-s", {"0.0000009", kPastReal}},
      {true, "scenario-pareto-max-s", {"0.0000009", kPastReal}},
      {true, "scenario-workers-min", {"0", "4096", kPastInt}},
      {true, "scenario-workers-max", {"0", "4096", kPastInt}},
      {true, "scenario-iters-min", {"0", "1000001", kPastInt}},
      {true, "scenario-iters-max", {"0", "1000001", kPastInt}},
      {true, "scenario-batch", {"0", "65537", kPastInt}},
      {true, "scenario-evict-frac", {"-0.1", kPastReal}},
      {true, "scenario-evict-min-s", {"0.0000009", kPastReal}},
      {true, "scenario-evict-max-s", {"0.0000009", kPastReal}},
      {true, "scenario-trace-seed", {"-1", "4611686018427387904"}},
  };
  auto expect_rejected = [](std::vector<std::string> args,
                            const std::string& flag, const std::string& value) {
    args.push_back("--" + flag + "=" + value);
    std::ostringstream out, err;
    EXPECT_EQ(run_cli(args, out, err), 2) << "--" << flag << "='" << value
                                          << "'";
    EXPECT_TRUE(out.str().empty()) << "--" << flag << "='" << value << "'";
    EXPECT_NE(err.str().find("bad value for --" + flag), std::string::npos)
        << err.str();
  };
  const std::vector<std::string> run = {"run", SMALL};
  const std::vector<std::string> scenario = {SMALL_SCENARIO};
  for (const Flag& f : flags) {
    std::vector<std::string> values = malformed;
    values.insert(values.end(), f.past.begin(), f.past.end());
    for (const std::string& v : values) {
      expect_rejected(f.scenario ? scenario : run, f.name, v);
    }
  }
  // --trace-sample's N; "5 " is left out because spaces around a list item
  // are trimmed ("qdisc=16, htb=8").
  expect_rejected(run, "trace-sample", "");
  for (const std::string& v : malformed) {
    if (v != "5 ") expect_rejected(run, "trace-sample", "qdisc=" + v);
  }
  for (const char* v : {"0", "16x", "4294967296"}) {
    expect_rejected(run, "trace-sample", std::string("qdisc=") + v);
  }
}

// A path or list flag given an empty value is malformed, not absent: each
// one exits 2 naming the flag, before any simulation starts and before
// any file is written.
TEST(CliMutation, EveryPathAndListFlagRejectsAnEmptyValue) {
  struct Flag {
    bool scenario;
    std::string name;
  };
  const std::vector<Flag> flags = {
      {false, "trace"},          {false, "trace-csv"},
      {false, "metrics"},        {false, "report"},
      {false, "report-csv"},     {false, "report-json"},
      {false, "report-html"},    {false, "export-prefix"},
      {true, "metrics"},         {true, "scenario-models"},
      {true, "scenario-trace"},  {true, "scenario-trace-out"},
      {true, "scenario-out"},    {true, "scenario-csv"},
  };
  for (const Flag& f : flags) {
    std::vector<std::string> args =
        f.scenario ? std::vector<std::string>{SMALL_SCENARIO}
                   : std::vector<std::string>{"run", SMALL};
    args.push_back("--" + f.name + "=");
    std::ostringstream out, err;
    EXPECT_EQ(run_cli(args, out, err), 2) << "--" << f.name << "=";
    EXPECT_TRUE(out.str().empty()) << "--" << f.name << "=";
    EXPECT_NE(err.str().find("bad value for --" + f.name + ": ''"),
              std::string::npos)
        << err.str();
  }
}

TEST(Cli, UnwritableTraceCsvFailsWithExitOne) {
  CliRun r = cli({"run", SMALL, "--trace-csv", "/nonexistent-dir-xyz/t.csv"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("tlsim: trace CSV export failed: cannot open"),
            std::string::npos)
      << r.err;
}

TEST(Cli, UnwritableScenarioMetricsFailsWithExitOne) {
  CliRun r = cli({SMALL_SCENARIO, "--metrics", "/nonexistent-dir-xyz/m.csv"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("tlsim: scenario metrics export failed"),
            std::string::npos)
      << r.err;
}

TEST(Cli, SubMillisecondRotationIntervalIsAUsageError) {
  // 1e-10 s rounds to a zero rotation interval, which the controller
  // rejects; the shared reader refuses it up front, on every command.
  CliRun run = cli({"run", SMALL, "--interval-s", "1e-10"});
  EXPECT_EQ(run.code, 2);
  EXPECT_NE(run.err.find("bad value for --interval-s: '1e-10'"),
            std::string::npos)
      << run.err;
  CliRun scenario = cli({SMALL_SCENARIO, "--interval-s", "1e-10"});
  EXPECT_EQ(scenario.code, 2);
}

TEST(Cli, NonFiniteAndHugeRealsAreRejected) {
  for (const char* bad : {"nan", "inf", "1e300", "2.5x"}) {
    EXPECT_EQ(cli({"run", SMALL, "--link-gbps", bad}).code, 2) << bad;
    EXPECT_EQ(cli({SMALL_SCENARIO, "--scenario-time-limit-s", bad}).code, 2)
        << bad;
  }
}

// Each running job holds one 64-port block from port 5000 up, so 945 jobs
// fit below port 65536 and a static batch gets the same pool as churn.
TEST(Cli, StaticBatchBeyondThePortSpaceFails) {
  for (const char* jobs : {"946", "1025"}) {
    CliRun r = cli({"run", "--hosts", "2", "--jobs", jobs, "--workers", "1",
                    "--iters", "1"});
    EXPECT_EQ(r.code, 1) << jobs;
    EXPECT_NE(r.err.find("tlsim: port space exhausted: at most 945 jobs"),
              std::string::npos)
        << jobs << ": " << r.err;
  }
  CliRun wide = cli({"run", "--hosts", "1026", "--jobs", "1025", "--workers",
                     "1", "--iters", "1"});
  EXPECT_EQ(wide.code, 1);
  EXPECT_NE(wide.err.find("port space exhausted"), std::string::npos)
      << wide.err;
}

TEST(Cli, StaticBatchFillingThePortSpaceRuns) {
  CliRun r = cli({"run", "--hosts", "2", "--jobs", "945", "--workers", "1",
                  "--iters", "1", "--csv"});
  EXPECT_EQ(r.code, 0) << r.err;
}

TEST(Cli, TooManyTasksPerJobNamesTheFlagLimit) {
  CliRun workers = cli({"run", "--hosts", "70", "--jobs", "2", "--workers",
                        "63", "--iters", "1"});
  EXPECT_EQ(workers.code, 1);
  EXPECT_NE(workers.err.find("tlsim: job 0 runs 1 PS + 63 workers; a job's "
                             "PS shards plus workers must be at most 63"),
            std::string::npos)
      << workers.err;
  CliRun shards = cli({"run", "--ps", "44", "--hosts", "100", "--jobs", "2",
                       "--workers", "20", "--iters", "1"});
  EXPECT_EQ(shards.code, 1);
  EXPECT_NE(shards.err.find("tlsim: job 0 runs 44 PS + 20 workers; a job's "
                            "PS shards plus workers must be at most 63"),
            std::string::npos)
      << shards.err;
}

TEST(Cli, SweepBatchRuns) {
  CliRun r = cli({"sweep-batch", "--hosts", "5", "--jobs", "4", "--workers",
                  "4", "--iters", "3", "--link-gbps", "2.5", "--csv"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("batch,FIFO avg JCT (s)"), std::string::npos);
  // Five batch rows.
  EXPECT_NE(r.out.find("\n16,"), std::string::npos);
}

}  // namespace
}  // namespace tls::runtime
