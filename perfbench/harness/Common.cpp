//===- perfbench/harness/Common.cpp - Shared benchmark plumbing -----------===//
//
// Part of the TaskCheck benchmark.
//
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "Stats.h"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <sys/resource.h>

#include "checker/ToolRegistry.h"
#include "obs/Metrics.h"
#include "runtime/TaskRuntime.h"
#include "support/JsonReport.h"
#include "support/Statistics.h"
#include "support/Timing.h"

using namespace perfbench;

std::string perfbench::resultJson(const Outcome &Out) {
  std::string S = "{\"correct\": ";
  S += Out.correct() ? "true" : "false";
  S += ", \"attempted\": " + std::to_string(Out.Attempted);
  S += ", \"failed\": " + std::to_string(Out.Failed);
  S += ", \"metrics\": {";
  for (size_t I = 0; I < Out.Metrics.size(); ++I) {
    const Metric &M = Out.Metrics[I];
    char Value[64];
    std::snprintf(Value, sizeof(Value), "%.17g", M.Value);
    S += (I ? ", " : "") + avc::jsonQuote(M.Name) + ": {\"value\": " + Value +
         ", \"unit\": " + avc::jsonQuote(M.Unit) + "}";
  }
  return S + "}}";
}

const char *perfbench::engineName(Engine E) {
  switch (E) {
  case Engine::None:
    return "none";
  case Engine::Dpst:
    return "dpst";
  case Engine::Velodrome:
    return "velodrome";
  case Engine::VClock:
    return "vclock";
  }
  return "?";
}

avc::ToolKind perfbench::engineKind(Engine E) {
  switch (E) {
  case Engine::None:
    return avc::ToolKind::None;
  case Engine::Dpst:
    return avc::ToolKind::Atomicity;
  case Engine::Velodrome:
    return avc::ToolKind::Velodrome;
  case Engine::VClock:
    return avc::ToolKind::VClock;
  }
  return avc::ToolKind::None;
}

std::unique_ptr<avc::CheckerTool>
perfbench::makeTool(Engine E, const avc::ToolOptions &Opts) {
  const avc::ToolRegistration *Reg =
      avc::ToolRegistry::instance().find(engineKind(E));
  if (!Reg || !Reg->Factory)
    return nullptr;
  return Reg->Factory(Opts, nullptr);
}

StatMap::StatMap(const avc::CheckerTool &Tool) {
  Tool.visitStats(
      [this](const char *Key, double Value) { Values[Key] += Value; });
}

double StatMap::get(const std::string &Key) const {
  auto It = Values.find(Key);
  return It == Values.end() ? 0.0 : It->second;
}

StatMap &StatMap::operator+=(const StatMap &O) {
  for (const auto &[Key, Value] : O.Values)
    Values[Key] += Value;
  return *this;
}

double EngineTimings::medianOf(size_t Job, Engine E) const {
  return median(Samples[Job][size_t(E)]);
}

double EngineTimings::sumOfMedians(Engine E) const {
  double Total = 0;
  for (size_t J = 0; J < Samples.size(); ++J)
    Total += medianOf(J, E);
  return Total;
}

double EngineTimings::slowdown(Engine E) const {
  std::vector<double> Ratios;
  for (size_t J = 0; J < Samples.size(); ++J)
    Ratios.push_back(medianOf(J, E) / medianOf(J, Engine::None));
  return avc::geometricMean(Ratios);
}

std::vector<double> EngineTimings::all(Engine E) const {
  std::vector<double> Out;
  for (const auto &Job : Samples)
    Out.insert(Out.end(), Job[size_t(E)].begin(), Job[size_t(E)].end());
  return Out;
}

void perfbench::addEndToEndMetrics(Outcome &Out, const EngineTimings &T,
                                   double SetupS, double EventsPerS) {
  std::vector<double> Verdicts = T.all(Engine::Dpst);
  double P90 = percentile(Verdicts, 90);
  note("verdict latency over %zu checked samples (%zd beyond p90)",
       Verdicts.size(),
       std::count_if(Verdicts.begin(), Verdicts.end(),
                     [P90](double V) { return V > P90; }));
  Out.add("setup_s", SetupS, "s");
  Out.add("checked_slowdown_x", T.slowdown(Engine::Dpst), "x");
  Out.add("checked_wall_ms", T.sumOfMedians(Engine::Dpst) * 1e3, "ms");
  Out.add("baseline_wall_ms", T.sumOfMedians(Engine::None) * 1e3, "ms");
  Out.add("velodrome_slowdown_x", T.slowdown(Engine::Velodrome), "x");
  Out.add("vclock_slowdown_x", T.slowdown(Engine::VClock), "x");
  Out.add("events_per_s", EventsPerS, "1/s");
  Out.add("trace_p50_ms", percentile(Verdicts, 50) * 1e3, "ms");
  Out.add("trace_p90_ms", P90 * 1e3, "ms");
  Out.add("peak_rss_mb", peakRssMb(), "MiB");
}

void perfbench::addLayerMetrics(Outcome &Out, const LayerReport &L) {
  const StatMap &S = L.Stats;
  double Accesses = S.get("reads") + S.get("writes");
  double Skips = S.get("pre_seq_skips") + S.get("pre_site_skips");
  auto Pct = [](double Part, double Whole) {
    return Whole > 0 ? 100.0 * Part / Whole : 0.0;
  };
  Out.add("instrument.dispatch_ns", L.DispatchNs, "ns");
  Out.add("instrument.reads", double(L.Counts.Reads), "count");
  Out.add("instrument.writes", double(L.Counts.Writes), "count");
  Out.add("instrument.task_events", double(L.Counts.TaskEvents), "count");
  Out.add("instrument.lock_events", double(L.Counts.LockEvents), "count");
  Out.add("checker.access_ns", L.Access.nsPerCall(), "ns");
  Out.add("checker.lock_event_ns", L.Lock.nsPerCall(), "ns");
  Out.add("dpst.task_event_ns", L.Task.nsPerCall(), "ns");
  Out.add("dpst.nodes", S.get("dpst_nodes"), "count");
  Out.add("dpst.par_queries", S.get("lca_queries"), "count");
  Out.add("checker.locations", S.get("locations"), "count");
  Out.add("checker.violations", S.get("violations"), "count");
  Out.add("checker.violating_locations", S.get("violating_locations"),
          "count");
  Out.add("checker.cache_hit_pct", Pct(S.get("cache_hits"), Accesses), "%");
  Out.add("checker.cache_path_hit_pct", Pct(S.get("cache_path_hits"), Accesses),
          "%");
  Out.add("analysis.pre_skip_pct", Pct(Skips, Accesses + Skips), "%");
  Out.add("runtime.tasks", L.RuntimeTasks, "count");
  Out.add("runtime.steals", L.RuntimeSteals, "count");
  Out.add("checker.velodrome_access_ns", L.VelodromeAccessNs, "ns");
  Out.add("checker.vclock_access_ns", L.VClockAccessNs, "ns");
  Out.add("trace.decode_ns", L.DecodeNs, "ns");
  Out.add("trace.bytes_per_event", L.BytesPerEvent, "bytes");
  Out.add("trace.replay_ns", L.ReplayNs, "ns");
  Out.add("checker.construct_us", L.ConstructUs, "us");
  Out.add("obs.publish_us", L.PublishUs, "us");
  Out.add("checker.contention_x", L.ContentionX, "x");
  Out.add("traced_overhead_pct", L.TracedOverheadPct, "%");
}

bool perfbench::finishSpans(const SpanLog &Log, const RunConfig &Cfg,
                            double OverheadPct) {
  note("layer self time (span minus the part its child spans cover):");
  for (const auto &[Name, Ns] : Log.selfTimeByName())
    note("  %-28s %10.2f ms", Name.c_str(), Ns / 1e6);
  std::string Path = Cfg.WorkDir + "/" + Cfg.Workload + ".spans.json";
  if (!Log.writeChromeTrace(Path, OverheadPct))
    return false;
  note("spans written to %s", Path.c_str());
  return true;
}

std::vector<const avc::workloads::Workload *> perfbench::paperKernels() {
  size_t Count = 0;
  const avc::workloads::Workload *Table = avc::workloads::allWorkloads(Count);
  std::vector<const avc::workloads::Workload *> Out;
  for (size_t I = 0; I < Count; ++I)
    Out.push_back(&Table[I]);
  return Out;
}

double perfbench::observedRun(
    const avc::workloads::Workload &W, unsigned Workers, double Scale,
    const std::vector<avc::ExecutionObserver *> &Observers) {
  avc::TaskRuntime::Options RtOpts;
  RtOpts.NumThreads = Workers;
  avc::TaskRuntime RT(RtOpts);
  for (avc::ExecutionObserver *Obs : Observers)
    RT.addObserver(Obs);
  avc::Timer T;
  RT.run([&] { W.Run(Scale); });
  return T.elapsedSeconds();
}

double perfbench::dispatchNsPerEvent(
    SpanLog &Log, const std::vector<const avc::workloads::Workload *> &Kernels,
    unsigned Workers, double Scale, unsigned Reps, EventCounts &Counts) {
  double ExtraNs = 0;
  Counts = EventCounts();
  for (const avc::workloads::Workload *W : Kernels) {
    SpanLog::Scope Kernel(Log, std::string("kernel/") + W->Name);
    std::vector<double> Base, Counted;
    for (unsigned R = 0; R < Reps; ++R) {
      {
        SpanLog::Scope S(Log, "runtime/run none");
        Base.push_back(observedRun(*W, Workers, Scale, {}));
      }
      SpanLog::Scope S(Log, "runtime/run counting");
      CountingObserver Counter;
      Counted.push_back(observedRun(*W, Workers, Scale, {&Counter}));
      if (R == 0)
        Counts += Counter.counts();
    }
    ExtraNs += (median(Counted) - median(Base)) * 1e9;
  }
  return Counts.total() ? ExtraNs / double(Counts.total()) : 0.0;
}

double perfbench::registryCounter(const char *Name) {
  avc::metrics::Snapshot S = avc::metrics::MetricsRegistry::instance().snapshot();
  const avc::metrics::MetricSample *M = S.find(Name);
  return M ? M->Value : 0.0;
}

double perfbench::peakRssMb() {
  struct rusage Usage;
  if (getrusage(RUSAGE_SELF, &Usage) != 0)
    return 0.0;
  return double(Usage.ru_maxrss) / 1024.0; // ru_maxrss is in KiB on Linux
}

uint64_t perfbench::mixSeed(uint64_t Seed, uint64_t Index) {
  uint64_t Z = Seed * 0x9e3779b97f4a7c15ULL + Index + 0x632be59bd9b4e019ULL;
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
  return Z ^ (Z >> 31);
}

std::mt19937_64 perfbench::seededRng(uint64_t Seed, uint64_t Stream) {
  return std::mt19937_64(mixSeed(Seed, Stream));
}

unsigned perfbench::repeatFor(double Seconds, unsigned MinReps,
                              const std::function<void(unsigned)> &Body) {
  avc::Timer T;
  unsigned Reps = 0;
  while (Reps < MinReps || T.elapsedSeconds() < Seconds)
    Body(Reps++);
  return Reps;
}

void perfbench::note(const char *Fmt, ...) {
  std::fputs("# ", stdout);
  va_list Args;
  va_start(Args, Fmt);
  std::vfprintf(stdout, Fmt, Args);
  va_end(Args);
  std::fputc('\n', stdout);
}
