//===- perfbench/harness/Common.h - Shared benchmark plumbing ---*- C++ -*-===//
//
// Part of the TaskCheck benchmark.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What every workload shares: the run configuration, the result a run
/// reports (its last line of output), the engines under test, and
/// small helpers around TaskCheck's public API (registry factories,
/// visitStats, the metrics registry, peak RSS).
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include <array>
#include <cmath>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "Observers.h"
#include "Spans.h"
#include "checker/CheckerTool.h"
#include "checker/ToolOptions.h"
#include "workloads/Workloads.h"

namespace perfbench {

/// One benchmark invocation.
struct RunConfig {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Traced = false;
  /// Workload input scale; 1 is the benchmark (the self-tests shrink it).
  double Scale = 1.0;
  /// Set-up repetitions; setup_s is their median.
  unsigned SetupReps = 3;
  /// Holds batch-4w's trace files while the run lasts, and the span file
  /// <Workload>.spans.json of a traced run.
  std::string WorkDir = ".";
};

struct Metric {
  std::string Name;
  double Value;
  std::string Unit;
};

/// What a run reports: the verdict tally plus named metrics.
struct Outcome {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<Metric> Metrics;

  bool correct() const { return Failed == 0 && Attempted > 0; }
  /// Adds a metric; a non-finite value (a zero-time denominator) is a
  /// failed measurement and reads as 0.
  void add(std::string Name, double Value, std::string Unit) {
    Metrics.push_back(
        {std::move(Name), std::isfinite(Value) ? Value : 0.0, std::move(Unit)});
  }
  /// Counts one checked verdict; returns \p Ok.
  bool verdict(bool Ok) {
    ++Attempted;
    Failed += Ok ? 0 : 1;
    return Ok;
  }
};

/// The result line: {"correct", "attempted", "failed",
/// "metrics": {name: {"value", "unit"}}}, with every digit of each value.
std::string resultJson(const Outcome &Out);

/// The engines a workload times. None is the uninstrumented baseline.
enum class Engine { None, Dpst, Velodrome, VClock };
inline constexpr Engine AllEngines[] = {Engine::None, Engine::Dpst,
                                        Engine::Velodrome, Engine::VClock};
const char *engineName(Engine E);
avc::ToolKind engineKind(Engine E);

/// Builds \p E through the process ToolRegistry (null for None).
std::unique_ptr<avc::CheckerTool> makeTool(Engine E,
                                           const avc::ToolOptions &Opts);

/// The engine's visitStats counters by key; absent keys read as 0.
class StatMap {
public:
  StatMap() = default;
  explicit StatMap(const avc::CheckerTool &Tool);
  double get(const std::string &Key) const;
  StatMap &operator+=(const StatMap &O);
  bool operator==(const StatMap &O) const { return Values == O.Values; }

private:
  std::map<std::string, double> Values;
};

/// Wall-time samples of a set of jobs (kernel runs or trace checks) under
/// each engine.
class EngineTimings {
public:
  explicit EngineTimings(size_t Jobs) : Samples(Jobs) {}
  void add(size_t Job, Engine E, double Seconds) {
    Samples[Job][size_t(E)].push_back(Seconds);
  }
  double medianOf(size_t Job, Engine E) const;
  /// Sum over jobs of the median wall under \p E, in seconds.
  double sumOfMedians(Engine E) const;
  /// Geomean over jobs of median(E) / median(None).
  double slowdown(Engine E) const;
  /// Every sample taken under \p E.
  std::vector<double> all(Engine E) const;

private:
  std::vector<std::array<std::vector<double>, 4>> Samples;
};

/// Appends the end-to-end metrics, in BENCHMARK.json order. The slowdowns,
/// walls and verdict-latency percentiles come from \p T; \p EventsPerS is
/// the workload's own throughput definition.
void addEndToEndMetrics(Outcome &Out, const EngineTimings &T, double SetupS,
                        double EventsPerS);

/// Everything the traced run measures, one field per per-layer metric.
struct LayerReport {
  double DispatchNs = 0;
  EventCounts Counts;
  CallTiming Access, Lock, Task; ///< DPST checker calls
  StatMap Stats;                 ///< DPST checker visitStats, summed
  double RuntimeTasks = 0, RuntimeSteals = 0;
  double VelodromeAccessNs = 0, VClockAccessNs = 0;
  double DecodeNs = 0, BytesPerEvent = 0, ReplayNs = 0;
  double ConstructUs = 0, PublishUs = 0;
  double ContentionX = 0;
  double TracedOverheadPct = 0;
};

/// Appends the per-layer metrics, in BENCHMARK.json order.
void addLayerMetrics(Outcome &Out, const LayerReport &L);

/// Prints each span name's summed self time (the traced run's layer
/// breakdown) and writes the span file.
bool finishSpans(const SpanLog &Log, const RunConfig &Cfg, double OverheadPct);

/// The 13 paper kernels in Table 1 order.
std::vector<const avc::workloads::Workload *> paperKernels();

/// Runs \p W on a bare TaskRuntime of \p Workers with \p Observers
/// attached; returns the wall seconds of the run.
double observedRun(const avc::workloads::Workload &W, unsigned Workers,
                   double Scale,
                   const std::vector<avc::ExecutionObserver *> &Observers);

/// Observer-dispatch cost per event: the median wall with a do-nothing
/// CountingObserver minus the median uninstrumented wall, summed over
/// \p Kernels, over their events. \p Reps interleaved pairs per kernel.
double dispatchNsPerEvent(SpanLog &Log,
                          const std::vector<const avc::workloads::Workload *>
                              &Kernels,
                          unsigned Workers, double Scale, unsigned Reps,
                          EventCounts &Counts);

/// Current total of a MetricsRegistry counter (0 if never registered).
double registryCounter(const char *Name);

/// Peak resident set of this process, in MiB.
double peakRssMb();

/// Deterministic per-purpose random source derived from the run seed.
std::mt19937_64 seededRng(uint64_t Seed, uint64_t Stream);

/// Seed of generated item \p Index (splitmix64 of the run seed and index).
uint64_t mixSeed(uint64_t Seed, uint64_t Index);

/// Runs \p Body repeatedly until \p Seconds of wall time have passed (and
/// at least \p MinReps times); returns the number of repetitions.
unsigned repeatFor(double Seconds, unsigned MinReps,
                   const std::function<void(unsigned)> &Body);

/// Prints a line to stdout prefixed with "# " (human-readable context;
/// the result JSON is always the last line).
void note(const char *Fmt, ...) __attribute__((format(printf, 1, 2)));

} // namespace perfbench

#endif // PERFBENCH_COMMON_H
