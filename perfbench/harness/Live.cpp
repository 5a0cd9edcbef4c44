//===- perfbench/harness/Live.cpp - live-1w and live-4w -------------------===//
//
// Part of the TaskCheck benchmark.
//
//===----------------------------------------------------------------------===//
///
/// The 13 paper kernels run live, Figure 13's setting. Every round visits
/// the kernels in a seeded order and runs each one under every engine in a
/// seeded order, so machine drift hits the uninstrumented and checked sides
/// alike. Timed runs go through ToolContext, the front end an application
/// links against.
///
/// Known answers: the DPST checker reports no violation on any kernel at
/// either worker count, and Velodrome and vclock report none at 1 worker.
/// At 4 workers the trace-bound engines judge only the schedule they
/// observe, which differs per run (kmeans shows 17 to 132 cycles), so
/// their verdicts there have no fixed answer and are not checked.
///
//===----------------------------------------------------------------------===//

#include <algorithm>

#include "Stats.h"
#include "Workloads.h"
#include "instrument/ToolContext.h"
#include "obs/Metrics.h"
#include "support/Timing.h"
#include "trace/TraceCodec.h"
#include "trace/TraceRecorder.h"
#include "trace/TraceReplayer.h"

using namespace perfbench;
using avc::workloads::Workload;

namespace {

/// Whether \p E's verdict on a kernel has a known answer at \p Workers.
bool verdictKnown(Engine E, unsigned Workers) {
  return E == Engine::Dpst || (E != Engine::None && Workers == 1);
}

bool verdictOk(const avc::CheckerTool *Tool) {
  return !Tool || (Tool->numViolations() == 0 && Tool->violationKeys().empty());
}

void checkVerdict(const avc::CheckerTool *Tool, Engine E, const Workload &W,
                  unsigned Workers, Outcome &Out) {
  if (verdictKnown(E, Workers) && !Out.verdict(verdictOk(Tool)))
    std::fprintf(stderr,
                 "error: %s reported violations on %s at %u worker(s); "
                 "expected none\n",
                 engineName(E), W.Name, Workers);
}

avc::ToolOptions toolOptions(unsigned Workers) {
  avc::ToolOptions Opts;
  Opts.NumThreads = Workers;
  return Opts;
}

/// One timed run through ToolContext; checks the verdict when it is known.
double timedRun(const Workload &W, Engine E, unsigned Workers, double Scale,
                Outcome &Out) {
  avc::ToolContext::Options Opts;
  Opts.Tool = engineKind(E);
  Opts.Checker = toolOptions(Workers);
  avc::ToolContext Ctx(Opts);
  avc::Timer T;
  Ctx.run([&] { W.Run(Scale); });
  double Seconds = T.elapsedSeconds();
  checkVerdict(Ctx.tool(), E, W, Workers, Out);
  return Seconds;
}

/// One set-up: counts every kernel's events with a do-nothing observer and
/// warms the checker with one DPST run per kernel. Repeated
/// Cfg.SetupReps times; returns the median seconds.
double setUp(const RunConfig &Cfg, const std::vector<const Workload *> &Kernels,
             unsigned Workers, std::vector<EventCounts> &Counts,
             Outcome &Out) {
  std::vector<double> Times;
  for (unsigned R = 0; R < std::max(1u, Cfg.SetupReps); ++R) {
    avc::Timer T;
    Counts.clear();
    for (const Workload *W : Kernels) {
      CountingObserver Counter;
      observedRun(*W, Workers, Cfg.Scale, {&Counter});
      Counts.push_back(Counter.counts());
      timedRun(*W, Engine::Dpst, Workers, Cfg.Scale, Out);
    }
    Times.push_back(T.elapsedSeconds());
  }
  return median(Times);
}

Outcome runUntraced(const RunConfig &Cfg, unsigned Workers) {
  Outcome Out;
  std::vector<const Workload *> Kernels = paperKernels();
  std::vector<EventCounts> Counts;
  double SetupS = setUp(Cfg, Kernels, Workers, Counts, Out);

  EngineTimings Times(Kernels.size());
  std::mt19937_64 Rng = seededRng(Cfg.Seed, 1);
  std::vector<size_t> Order(Kernels.size());
  for (size_t I = 0; I < Order.size(); ++I)
    Order[I] = I;
  std::vector<Engine> Engines(std::begin(AllEngines), std::end(AllEngines));
  // Eight rounds give 104 checked runs, so at least ten lie beyond p90.
  unsigned Rounds = repeatFor(Cfg.Seconds, 8, [&](unsigned) {
    std::shuffle(Order.begin(), Order.end(), Rng);
    for (size_t K : Order) {
      std::shuffle(Engines.begin(), Engines.end(), Rng);
      for (Engine E : Engines)
        Times.add(K, E, timedRun(*Kernels[K], E, Workers, Cfg.Scale, Out));
    }
  });

  note("%-14s %10s %9s %9s %9s %9s %8s", "kernel", "events", "base(ms)",
       "dpst(ms)", "velo(ms)", "vclk(ms)", "dpst(x)");
  uint64_t Events = 0;
  for (size_t K = 0; K < Kernels.size(); ++K) {
    Events += Counts[K].total();
    double Base = Times.medianOf(K, Engine::None);
    note("%-14s %10llu %9.2f %9.2f %9.2f %9.2f %7.2fx", Kernels[K]->Name,
         static_cast<unsigned long long>(Counts[K].total()), Base * 1e3,
         Times.medianOf(K, Engine::Dpst) * 1e3,
         Times.medianOf(K, Engine::Velodrome) * 1e3,
         Times.medianOf(K, Engine::VClock) * 1e3,
         Times.medianOf(K, Engine::Dpst) / Base);
  }
  note("%u rounds; setup %.3f s", Rounds, SetupS);
  addEndToEndMetrics(Out, Times, SetupS,
                     double(Events) / Times.sumOfMedians(Engine::Dpst));
  return Out;
}

//===----------------------------------------------------------------------===//
// Traced run
//===----------------------------------------------------------------------===//

/// One engine run on a bare runtime, the engine built through the registry
/// and attached directly or behind a ForwardingObserver, with the layer
/// calls (construct, run, publish) in spans.
struct EngineRun {
  double Seconds = 0;
  double ConstructUs = 0, PublishUs = 0;
  CallTiming Access, Lock, Task;
  StatMap Stats;
  double Tasks = 0, Steals = 0;
};

EngineRun engineRun(SpanLog &Log, const Workload &W, Engine E,
                    unsigned Workers, double Scale, bool Forward,
                    Outcome &Out) {
  EngineRun R;
  std::unique_ptr<avc::CheckerTool> Tool;
  {
    SpanLog::Scope S(Log, "checker/construct");
    avc::Timer T;
    Tool = makeTool(E, toolOptions(Workers));
    R.ConstructUs = T.elapsedSeconds() * 1e6;
  }
  ForwardingObserver Fwd(*Tool);
  avc::ExecutionObserver *Obs =
      Forward ? static_cast<avc::ExecutionObserver *>(&Fwd) : Tool.get();
  double Tasks0 = registryCounter(avc::metrics::names::RuntimeTasksTotal);
  double Steals0 = registryCounter(avc::metrics::names::RuntimeStealsTotal);
  {
    SpanLog::Scope S(Log, std::string("runtime/run ") + engineName(E) +
                              (Forward ? "+fwd" : ""));
    R.Seconds = observedRun(W, Workers, Scale, {Obs});
  }
  R.Tasks = registryCounter(avc::metrics::names::RuntimeTasksTotal) - Tasks0;
  R.Steals = registryCounter(avc::metrics::names::RuntimeStealsTotal) - Steals0;
  {
    SpanLog::Scope S(Log, "obs/publish");
    avc::Timer T;
    Tool->publishMetrics();
    R.PublishUs = T.elapsedSeconds() * 1e6;
  }
  checkVerdict(Tool.get(), E, W, Workers, Out);
  R.Access = Fwd.accessTiming();
  R.Lock = Fwd.lockTiming();
  R.Task = Fwd.taskTiming();
  R.Stats = StatMap(*Tool);
  return R;
}

/// Totals of the trace layer over the kernels' own streams.
struct TraceLayerTotals {
  double Bytes = 0, Events = 0, DecodeNs = 0, ReplayNs = 0;
};

/// Records \p W's stream, encodes it, and times decode and replay of the
/// encoded bytes.
void traceLayer(SpanLog &Log, const Workload &W, unsigned Workers,
                double Scale, TraceLayerTotals &Totals) {
  avc::TraceRecorder Recorder;
  {
    SpanLog::Scope S(Log, "trace/record");
    observedRun(W, Workers, Scale, {&Recorder});
  }
  std::string Encoded;
  {
    SpanLog::Scope S(Log, "trace/encode");
    Encoded = avc::encodeTrace(Recorder.trace());
  }
  std::optional<avc::Trace> Decoded;
  {
    SpanLog::Scope S(Log, "trace/decode");
    avc::Timer T;
    Decoded = avc::parseTraceAuto(Encoded);
    Totals.DecodeNs += double(T.elapsedNanos());
  }
  if (!Decoded)
    return;
  SpanLog::Scope S(Log, "trace/replay");
  CountingObserver Sink;
  avc::Timer T;
  avc::replayTrace(*Decoded, Sink);
  Totals.ReplayNs += double(T.elapsedNanos());
  Totals.Bytes += double(Encoded.size());
  Totals.Events += double(Decoded->size());
}

Outcome runTraced(const RunConfig &Cfg, unsigned Workers) {
  Outcome Out;
  std::vector<const Workload *> Kernels = paperKernels();
  std::vector<EventCounts> Counts;
  setUp(Cfg, Kernels, Workers, Counts, Out);
  const size_t N = Kernels.size();

  SpanLog Log;
  LayerReport L;
  std::string PassName = "pass/" + Cfg.Workload;
  // Plain and forwarded DPST runs, interleaved per kernel in a seeded
  // order: their difference is the tracing overhead, and the forwarded
  // runs give the sampled per-call times.
  std::vector<std::vector<double>> Plain(N), Fwd(N);
  std::vector<EngineRun> FirstFwd(N);
  std::vector<double> ConstructUs, PublishUs;
  std::mt19937_64 Rng = seededRng(Cfg.Seed, 2);
  std::vector<size_t> Order(N);
  for (size_t I = 0; I < N; ++I)
    Order[I] = I;
  unsigned Rounds = repeatFor(Cfg.Seconds, 1, [&](unsigned Round) {
    SpanLog::Scope Pass(Log, PassName);
    std::shuffle(Order.begin(), Order.end(), Rng);
    for (size_t K : Order) {
      const Workload &W = *Kernels[K];
      SpanLog::Scope Kernel(Log, std::string("kernel/") + W.Name);
      bool FwdFirst = Rng() & 1;
      for (bool Forward : {FwdFirst, !FwdFirst}) {
        EngineRun R =
            engineRun(Log, W, Engine::Dpst, Workers, Cfg.Scale, Forward, Out);
        (Forward ? Fwd : Plain)[K].push_back(R.Seconds);
        ConstructUs.push_back(R.ConstructUs);
        PublishUs.push_back(R.PublishUs);
        if (!Forward)
          continue;
        L.Access += R.Access;
        L.Lock += R.Lock;
        L.Task += R.Task;
        if (Round == 0)
          FirstFwd[K] = R;
      }
    }
  });

  // One pass over the remaining layers: observer dispatch, the
  // trace-bound engines, the DPST checker on one worker (the contention
  // reference) and the trace codec on each kernel's own stream.
  CallTiming Velo, VClock, Alone;
  TraceLayerTotals Codec;
  {
    SpanLog::Scope Pass(Log, PassName + " layers");
    L.DispatchNs =
        dispatchNsPerEvent(Log, Kernels, Workers, Cfg.Scale, 3, L.Counts);
    for (const Workload *W : Kernels) {
      SpanLog::Scope Kernel(Log, std::string("kernel/") + W->Name);
      Velo += engineRun(Log, *W, Engine::Velodrome, Workers, Cfg.Scale, true,
                        Out).Access;
      VClock += engineRun(Log, *W, Engine::VClock, Workers, Cfg.Scale, true,
                          Out).Access;
      Alone +=
          engineRun(Log, *W, Engine::Dpst, 1, Cfg.Scale, true, Out).Access;
      traceLayer(Log, *W, Workers, Cfg.Scale, Codec);
    }
  }

  note("%-14s %9s %9s %9s %8s %8s %8s %9s %9s %7s %7s", "kernel", "events",
       "dpst(ms)", "fwd(ms)", "acc(ns)", "lock(ns)", "task(ns)", "nodes",
       "queries", "tasks", "steals");
  double PlainSum = 0, FwdSum = 0;
  for (size_t K = 0; K < N; ++K) {
    PlainSum += median(Plain[K]);
    FwdSum += median(Fwd[K]);
    const EngineRun &R = FirstFwd[K];
    L.Stats += R.Stats;
    L.RuntimeTasks += R.Tasks;
    L.RuntimeSteals += R.Steals;
    note("%-14s %9llu %9.2f %9.2f %8.1f %8.1f %8.1f %9.0f %9.0f %7.0f %7.0f",
         Kernels[K]->Name, static_cast<unsigned long long>(Counts[K].total()),
         median(Plain[K]) * 1e3, median(Fwd[K]) * 1e3, R.Access.nsPerCall(),
         R.Lock.nsPerCall(), R.Task.nsPerCall(), R.Stats.get("dpst_nodes"),
         R.Stats.get("lca_queries"), R.Tasks, R.Steals);
  }
  L.VelodromeAccessNs = Velo.nsPerCall();
  L.VClockAccessNs = VClock.nsPerCall();
  if (Codec.Events > 0) {
    L.DecodeNs = Codec.DecodeNs / Codec.Events;
    L.ReplayNs = Codec.ReplayNs / Codec.Events;
    L.BytesPerEvent = Codec.Bytes / Codec.Events;
  }
  L.ConstructUs = median(ConstructUs);
  L.PublishUs = median(PublishUs);
  if (Alone.nsPerCall() > 0)
    L.ContentionX = L.Access.nsPerCall() / Alone.nsPerCall();
  L.TracedOverheadPct = (FwdSum / PlainSum - 1.0) * 100.0;
  note("%u traced rounds", Rounds);
  addLayerMetrics(Out, L);
  if (!finishSpans(Log, Cfg, L.TracedOverheadPct))
    Out.verdict(false);
  return Out;
}

} // namespace

Outcome perfbench::runLive(const RunConfig &Cfg, unsigned Workers) {
  return Cfg.Traced ? runTraced(Cfg, Workers) : runUntraced(Cfg, Workers);
}
