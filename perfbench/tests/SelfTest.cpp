//===- perfbench/tests/SelfTest.cpp - Tests of the benchmark's own code ---===//
//
// Part of the TaskCheck benchmark.
//
//===----------------------------------------------------------------------===//
///
/// Checks what the benchmark's numbers rest on:
///  - the median, percentile and geomean helpers on fixed inputs;
///  - span self time (a span minus the union of its children);
///  - the forwarding observer is transparent: a wrapped checker reports
///    the same violation set and visitStats counters as an unwrapped one;
///  - a traced run's span file passes tools/validate_trace.py, and its one
///    obs/self-accounting event carries the measured traced_overhead_pct.
///
//===----------------------------------------------------------------------===//

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "Common.h"
#include "Stats.h"
#include "Workloads.h"
#include "support/Statistics.h"
#include "trace/TraceGenerator.h"
#include "trace/TraceReplayer.h"

using namespace perfbench;

namespace {

TEST(Stats, MedianOfOddAndEvenCounts) {
  EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(median({7}), 7.0);
  EXPECT_DOUBLE_EQ(median({}), 0.0);
}

TEST(Stats, PercentileInterpolatesBetweenRanks) {
  std::vector<double> TenValues = {10, 9, 8, 7, 6, 5, 4, 3, 2, 1};
  EXPECT_DOUBLE_EQ(percentile(TenValues, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(TenValues, 100), 10.0);
  EXPECT_NEAR(percentile(TenValues, 90), 9.1, 1e-12);
  EXPECT_NEAR(percentile(TenValues, 25), 3.25, 1e-12);
  EXPECT_DOUBLE_EQ(percentile({5}, 90), 5.0);
}

TEST(Stats, GeomeanOfRatios) {
  EXPECT_NEAR(avc::geometricMean({1, 4}), 2.0, 1e-12);
  EXPECT_NEAR(avc::geometricMean({2, 8, 4}), 4.0, 1e-12);
  EXPECT_DOUBLE_EQ(avc::geometricMean({}), 0.0);
}

TEST(Spans, SelfTimeSubtractsTheUnionOfChildren) {
  std::vector<SpanRecord> Spans(4);
  Spans[0] = {"pass", 0, 100, -1, 1};
  Spans[1] = {"a", 10, 30, 0, 2}; // two children overlapping in time,
  Spans[2] = {"b", 20, 50, 0, 3}; // as concurrent clients do
  Spans[3] = {"c", 90, 120, 0, 2}; // clipped to its parent's end
  std::vector<double> Self = selfTimes(Spans);
  EXPECT_DOUBLE_EQ(Self[0], 100.0 - 40.0 - 10.0);
  EXPECT_DOUBLE_EQ(Self[1], 20.0);
  EXPECT_DOUBLE_EQ(Self[3], 30.0);
}

avc::Trace generatedTrace() {
  avc::TraceGenOptions Opts;
  Opts.Seed = 11;
  Opts.NumTasks = 200;
  Opts.NumLocations = 16;
  Opts.NumLocks = 3;
  Opts.LockedFraction = 0.3;
  avc::GenProgram Program = avc::generateProgram(Opts);
  return avc::linearizeRandom(Program, 5);
}

TEST(ForwardingObserver, IsTransparentToEveryEngine) {
  avc::Trace Events = generatedTrace();
  avc::ToolOptions Opts;
  Opts.MaxRetainedReports = SIZE_MAX;
  for (Engine E : {Engine::Dpst, Engine::Velodrome, Engine::VClock}) {
    std::unique_ptr<avc::CheckerTool> Plain = makeTool(E, Opts);
    std::unique_ptr<avc::CheckerTool> Wrapped = makeTool(E, Opts);
    avc::replayTrace(Events, *Plain);
    ForwardingObserver Fwd(*Wrapped);
    avc::replayTrace(Events, Fwd);

    EXPECT_EQ(Plain->violationKeys(), Wrapped->violationKeys())
        << engineName(E);
    EXPECT_EQ(Plain->numViolations(), Wrapped->numViolations())
        << engineName(E);
    EXPECT_TRUE(StatMap(*Plain) == StatMap(*Wrapped)) << engineName(E);
    EXPECT_GT(Fwd.accessTiming().Sampled, 0u) << engineName(E);
    EXPECT_GT(Fwd.taskTiming().Sampled, 0u) << engineName(E);
  }
  // The trace must exercise the DPST checker's violation recording.
  std::unique_ptr<avc::CheckerTool> Dpst = makeTool(Engine::Dpst, Opts);
  avc::replayTrace(Events, *Dpst);
  EXPECT_GT(Dpst->numViolations(), 0u);
}

TEST(ForwardingObserver, IsTransparentOnALiveKernel) {
  const avc::workloads::Workload *Sort = paperKernels().back();
  ASSERT_STREQ(Sort->Name, "sort");
  std::unique_ptr<avc::CheckerTool> Plain =
      makeTool(Engine::Dpst, avc::ToolOptions());
  std::unique_ptr<avc::CheckerTool> Wrapped =
      makeTool(Engine::Dpst, avc::ToolOptions());
  observedRun(*Sort, 1, 0.05, {Plain.get()});
  ForwardingObserver Fwd(*Wrapped);
  observedRun(*Sort, 1, 0.05, {&Fwd});
  // Heap addresses differ between the two runs, so the address-keyed
  // access-path cache may collide differently; every other count must match.
  StatMap A(*Plain), B(*Wrapped);
  for (const char *Key : {"violations", "violating_locations", "locations",
                          "reads", "writes", "dpst_nodes", "lca_queries"})
    EXPECT_EQ(A.get(Key), B.get(Key)) << Key;
  EXPECT_GT(A.get("reads"), 0.0);
}

double metric(const Outcome &Out, const std::string &Name) {
  for (const Metric &M : Out.Metrics)
    if (M.Name == Name)
      return M.Value;
  ADD_FAILURE() << "no metric " << Name;
  return NAN;
}

TEST(TracedRun, SpanFileValidatesAndCarriesTheMeasuredOverhead) {
  std::filesystem::path Dir =
      std::filesystem::current_path() / "perfbench-selftest";
  std::filesystem::create_directories(Dir);
  RunConfig Cfg;
  Cfg.Workload = "batch-4w";
  Cfg.Seconds = 0.05;
  Cfg.Traced = true;
  Cfg.Scale = 0.02;
  Cfg.SetupReps = 1;
  Cfg.WorkDir = Dir.string();
  std::string SpansPath = (Dir / "batch-4w.spans.json").string();
  Outcome Out = runBatch(Cfg, 2);
  EXPECT_TRUE(Out.correct());
  EXPECT_EQ(Out.Metrics.size(), 27u);

  std::string Command = std::string("python3 ") + PERFBENCH_VALIDATE_TRACE +
                        " " + SpansPath + " > /dev/null";
  EXPECT_EQ(std::system(Command.c_str()), 0);

  std::ifstream In(SpansPath);
  std::stringstream Text;
  Text << In.rdbuf();
  std::string Json = Text.str();
  size_t At = Json.find("\"obs/self-accounting\"");
  ASSERT_NE(At, std::string::npos);
  EXPECT_EQ(Json.find("\"obs/self-accounting\"", At + 1), std::string::npos);
  size_t Key = Json.find("\"estimated_overhead_pct\": ", At);
  ASSERT_NE(Key, std::string::npos);
  double Written =
      std::strtod(Json.c_str() + Key + sizeof("\"estimated_overhead_pct\": ") - 1,
                  nullptr);
  double Measured = metric(Out, "traced_overhead_pct");
  EXPECT_NEAR(Written, Measured, 1e-4 * std::max(1.0, std::fabs(Measured)));
  std::filesystem::remove_all(Dir);
}

} // namespace
