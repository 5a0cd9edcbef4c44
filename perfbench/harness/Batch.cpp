//===- perfbench/harness/Batch.cpp - batch-4w -----------------------------===//
//
// Part of the TaskCheck benchmark.
//
//===----------------------------------------------------------------------===//
///
/// A fleet of binary trace files checked by closed-loop clients: each
/// client takes the next file and calls checkTraceFile, the unit that both
/// `taskcheck batch` and `serve` fan out. The clients are tasks on a
/// TaskRuntime of that many workers, as in runBatch.
///
/// The fleet has two parts of similar checking cost:
///  - the 13 kernels' own event streams, recorded at 1 worker: realistic
///    address locality and large shadow footprints, no violations;
///  - seeded generator traces over a small shared location set with 30%
///    locked units: dense Par() queries, lockset handling and heavy
///    violation recording. Their sizes are fixed by index, so the seed
///    changes their contents but not the cost profile of a pass.
///
/// Known answers, fixed at set-up: on a generated trace the DPST checker's
/// violating-location set must equal the unbounded-history `basic`
/// engine's, and Velodrome's must equal vclock's; every engine reports no
/// violation on a kernel stream. The timed passes then check each
/// verdict's count against the count whose set was verified.
///
//===----------------------------------------------------------------------===//

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <set>
#include <sstream>
#include <thread>
#include <malloc.h>
#include <unistd.h>

#include "Stats.h"
#include "Workloads.h"
#include "analysis/TraceClassifier.h"
#include "checker/BasicChecker.h"
#include "checker/ToolRegistry.h"
#include "obs/Metrics.h"
#include "runtime/TaskRuntime.h"
#include "support/Timing.h"
#include "trace/BatchReplay.h"
#include "trace/TraceCodec.h"
#include "trace/TraceGenerator.h"
#include "trace/TraceRecorder.h"
#include "trace/TraceReplayer.h"

using namespace perfbench;
namespace fs = std::filesystem;

namespace {

/// Generated traces at scale 1, and their task counts (spread evenly over
/// the fleet by index).
constexpr unsigned GeneratedTraces = 100;
constexpr unsigned MinTasks = 1000, MaxTasks = 3000;

struct FleetTrace {
  std::string Name;
  std::string Path;
  uint64_t Events = 0;
  uint64_t Bytes = 0;
  /// Expected violation count per Engine (None: 0).
  std::array<uint64_t, 4> Expected{};
};

struct Fleet {
  std::vector<FleetTrace> Traces;
  uint64_t Events = 0;
  /// The order clients take the files in: largest first, so a pass ends
  /// with small traces and its wall does not hinge on when a big one
  /// started.
  std::vector<size_t> Order;
};

avc::TraceGenOptions generatorOptions(uint64_t Seed, unsigned Index,
                                      unsigned Count, double Scale) {
  avc::TraceGenOptions O;
  O.Seed = mixSeed(Seed, 1000 + Index);
  double Frac = Count > 1 ? double(Index) / double(Count - 1) : 0.0;
  O.NumTasks = std::max<uint32_t>(
      8, uint32_t((MinTasks + (MaxTasks - MinTasks) * Frac) * Scale));
  O.NumLocations = std::max<uint32_t>(4, uint32_t(256 * Scale));
  O.NumLocks = 4;
  O.MinOpsPerTask = 4;
  O.MaxOpsPerTask = 12;
  O.WriteFraction = 0.5;
  O.LockedFraction = 0.3;
  O.SyncFraction = 0.1;
  return O;
}

bool writeFile(const std::string &Path, const std::string &Bytes) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out.write(Bytes.data(), std::streamsize(Bytes.size()));
  return bool(Out);
}

std::string readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::stringstream Buffer;
  Buffer << In.rdbuf();
  return Buffer.str();
}

/// Replays \p Events into a fresh \p Kind engine keeping every report;
/// returns its violating-location set and violation count.
std::pair<std::set<avc::MemAddr>, uint64_t>
referenceVerdict(const avc::Trace &Events, avc::ToolKind Kind) {
  avc::ToolOptions Opts;
  Opts.MaxRetainedReports = SIZE_MAX;
  std::unique_ptr<avc::CheckerTool> Tool =
      avc::ToolRegistry::instance().find(Kind)->Factory(Opts, nullptr);
  avc::replayTraceTwoPass(Events, *Tool);
  return {Tool->violationKeys(), Tool->numViolations()};
}

/// The locations the unbounded-history `basic` engine flags, asked per
/// location so that none of its (many) reports need be retained.
std::set<avc::MemAddr> basicVerdict(const avc::Trace &Events,
                                    uint32_t NumLocations) {
  avc::BasicChecker Basic;
  avc::replayTraceTwoPass(Events, Basic);
  std::set<avc::MemAddr> Flagged;
  for (uint32_t L = 0; L < NumLocations; ++L)
    if (Basic.locationHasViolation(avc::GenProgram::addressOf(L)))
      Flagged.insert(avc::GenProgram::addressOf(L));
  return Flagged;
}

/// Fixes the known answers of one generated trace; false on a mismatch
/// between an engine and its reference.
bool generatedReferences(const avc::GenProgram &Program,
                         const avc::Trace &Events, FleetTrace &T) {
  std::set<avc::MemAddr> Basic = basicVerdict(Events, Program.NumLocations);
  auto [Dpst, DpstCount] = referenceVerdict(Events, avc::ToolKind::Atomicity);
  auto [Velo, VeloCount] = referenceVerdict(Events, avc::ToolKind::Velodrome);
  auto [VClock, VClockCount] = referenceVerdict(Events, avc::ToolKind::VClock);
  T.Expected[size_t(Engine::Dpst)] = DpstCount;
  T.Expected[size_t(Engine::Velodrome)] = VeloCount;
  T.Expected[size_t(Engine::VClock)] = VClockCount;
  bool Ok = Dpst == Basic && Velo == VClock;
  if (!Ok)
    std::fprintf(stderr,
                 "error: %s: dpst flags %zu locations, basic %zu; velodrome "
                 "%zu, vclock %zu\n",
                 T.Name.c_str(), Dpst.size(), Basic.size(), Velo.size(),
                 VClock.size());
  return Ok;
}

/// Runs \p Body(I) for I in [0, Count) on \p Threads plain threads.
void parallelFor(size_t Count, unsigned Threads,
                 const std::function<void(size_t)> &Body) {
  std::atomic<size_t> Next{0};
  std::vector<std::thread> Pool;
  for (unsigned T = 0; T < Threads; ++T)
    Pool.emplace_back([&] {
      for (size_t I; (I = Next.fetch_add(1)) < Count;)
        Body(I);
    });
  for (std::thread &T : Pool)
    T.join();
}

/// Latencies of one pass, indexed by trace.
struct PassResult {
  double Seconds = 0;
  std::vector<double> Latency;
};

/// One pass over the fleet in \p Order by \p Clients closed-loop clients.
/// \p Check checks trace I and returns whether its verdict was right.
PassResult runClients(const Fleet &F, unsigned Clients,
                      const std::vector<size_t> &Order,
                      const std::function<bool(size_t)> &Check,
                      Outcome &Out) {
  const size_t N = F.Traces.size();
  PassResult R;
  R.Latency.assign(N, 0.0);
  std::vector<char> Ok(N, 0);
  std::atomic<size_t> Next{0};
  avc::TaskRuntime::Options RtOpts;
  RtOpts.NumThreads = Clients;
  avc::TaskRuntime RT(RtOpts);
  avc::Timer T;
  RT.run([&] {
    for (unsigned C = 0; C < Clients; ++C)
      avc::spawn([&] {
        for (size_t I; (I = Next.fetch_add(1)) < N;) {
          size_t Idx = Order[I];
          avc::Timer Latency;
          Ok[Idx] = Check(Idx);
          R.Latency[Idx] = Latency.elapsedSeconds();
        }
      });
    avc::sync();
  });
  R.Seconds = T.elapsedSeconds();
  // Hand freed heap back between passes, so every pass starts from the same
  // resident set and peak RSS measures one pass, not the fragmentation that
  // a varying thread-to-arena assignment leaves behind.
  malloc_trim(0);
  for (size_t I = 0; I < N; ++I)
    if (!Out.verdict(Ok[I]))
      std::fprintf(stderr, "error: wrong verdict or load failure on %s\n",
                   F.Traces[I].Name.c_str());
  return R;
}

/// One pass through the public checkTraceFile.
PassResult checkPass(const Fleet &F, Engine E, unsigned Clients,
                     const std::vector<size_t> &Order, Outcome &Out) {
  avc::BatchOptions Opts;
  Opts.Tool = engineKind(E);
  return runClients(
      F, Clients, Order,
      [&](size_t I) {
        const FleetTrace &T = F.Traces[I];
        avc::BatchTraceResult R = avc::checkTraceFile(T.Path, Opts);
        return R.ok() && R.NumEvents == T.Events &&
               R.NumViolations == T.Expected[size_t(E)];
      },
      Out);
}

/// One set-up: records the kernels, generates the rest of the fleet,
/// writes every trace file, fixes the known answers and runs one untimed
/// DPST warm-up pass.
Fleet buildFleet(const RunConfig &Cfg, const std::string &Dir,
                 unsigned Clients, Outcome &Out) {
  Fleet F;
  fs::create_directories(Dir);
  for (const avc::workloads::Workload *W : paperKernels()) {
    avc::TraceRecorder Recorder;
    observedRun(*W, 1, Cfg.Scale, {&Recorder});
    FleetTrace T;
    T.Name = std::string("kernel/") + W->Name;
    T.Path = Dir + "/k-" + W->Name + ".avctrace";
    std::string Bytes = avc::encodeTrace(Recorder.trace());
    T.Events = Recorder.trace().size();
    T.Bytes = Bytes.size();
    Out.verdict(writeFile(T.Path, Bytes));
    F.Traces.push_back(std::move(T));
  }

  unsigned Count = std::max(4u, unsigned(GeneratedTraces * Cfg.Scale));
  std::vector<FleetTrace> Generated(Count);
  std::vector<char> Ok(Count, 0);
  parallelFor(Count, Clients, [&](size_t I) {
    FleetTrace &T = Generated[I];
    avc::GenProgram Program = avc::generateProgram(
        generatorOptions(Cfg.Seed, unsigned(I), Count, Cfg.Scale));
    avc::Trace Events = avc::linearizeSerial(Program);
    char Name[32];
    std::snprintf(Name, sizeof(Name), "gen/%03zu", I);
    T.Name = Name;
    T.Path = Dir + "/g-" + std::to_string(I) + ".avctrace";
    std::string Bytes = avc::encodeTrace(Events);
    T.Events = Events.size();
    T.Bytes = Bytes.size();
    Ok[I] = writeFile(T.Path, Bytes) && generatedReferences(Program, Events, T);
  });
  for (size_t I = 0; I < Count; ++I) {
    Out.verdict(Ok[I]);
    F.Traces.push_back(std::move(Generated[I]));
  }
  for (size_t I = 0; I < F.Traces.size(); ++I) {
    F.Events += F.Traces[I].Events;
    F.Order.push_back(I);
  }
  std::stable_sort(F.Order.begin(), F.Order.end(), [&](size_t A, size_t B) {
    return F.Traces[A].Events > F.Traces[B].Events;
  });

  checkPass(F, Engine::Dpst, Clients, F.Order, Out);
  return F;
}

/// Set-up repeated Cfg.SetupReps times; returns the median seconds and
/// leaves the last fleet in \p F.
double setUp(const RunConfig &Cfg, const std::string &Dir, unsigned Clients,
             Fleet &F, Outcome &Out) {
  std::vector<double> Times;
  for (unsigned R = 0; R < std::max(1u, Cfg.SetupReps); ++R) {
    avc::Timer T;
    F = buildFleet(Cfg, Dir, Clients, Out);
    Times.push_back(T.elapsedSeconds());
  }
  uint64_t Violations = 0;
  for (const FleetTrace &T : F.Traces)
    Violations += T.Expected[size_t(Engine::Dpst)];
  note("fleet: %zu traces, %llu events, %llu DPST violations; clients %u; "
       "peak RSS after set-up %.1f MiB",
       F.Traces.size(), static_cast<unsigned long long>(F.Events),
       static_cast<unsigned long long>(Violations), Clients, peakRssMb());
  return median(Times);
}

/// Prints one row per kernel trace and one for the generated part.
void printRows(const Fleet &F, const EngineTimings &T) {
  note("%-20s %9s %9s %10s %9s %9s %9s", "trace", "events", "KiB",
       "load(ms)", "dpst(ms)", "velo(ms)", "vclk(ms)");
  double GenEvents = 0, GenBytes = 0;
  std::array<double, 4> Gen{};
  size_t NumGen = 0;
  for (size_t I = 0; I < F.Traces.size(); ++I) {
    const FleetTrace &Tr = F.Traces[I];
    std::array<double, 4> Ms;
    for (Engine E : AllEngines)
      Ms[size_t(E)] = T.medianOf(I, E) * 1e3;
    if (Tr.Name.rfind("gen/", 0) == 0) {
      ++NumGen;
      GenEvents += double(Tr.Events);
      GenBytes += double(Tr.Bytes);
      for (size_t E = 0; E < 4; ++E)
        Gen[E] += Ms[E];
      continue;
    }
    note("%-20s %9llu %9.1f %10.2f %9.2f %9.2f %9.2f", Tr.Name.c_str(),
         static_cast<unsigned long long>(Tr.Events), double(Tr.Bytes) / 1024,
         Ms[0], Ms[1], Ms[2], Ms[3]);
  }
  note("%-20s %9.0f %9.1f %10.2f %9.2f %9.2f %9.2f",
       ("gen/* (" + std::to_string(NumGen) + ", sum)").c_str(), GenEvents,
       GenBytes / 1024, Gen[0], Gen[1], Gen[2], Gen[3]);
}

Outcome runUntraced(const RunConfig &Cfg, const std::string &Dir,
                    unsigned Clients) {
  Outcome Out;
  Fleet F;
  double SetupS = setUp(Cfg, Dir, Clients, F, Out);

  EngineTimings Times(F.Traces.size());
  std::vector<double> DpstPassSeconds;
  std::mt19937_64 Rng = seededRng(Cfg.Seed, 3);
  std::vector<Engine> Engines(std::begin(AllEngines), std::end(AllEngines));
  unsigned Rounds = repeatFor(Cfg.Seconds, 3, [&](unsigned) {
    std::shuffle(Engines.begin(), Engines.end(), Rng);
    for (Engine E : Engines) {
      PassResult P = checkPass(F, E, Clients, F.Order, Out);
      for (size_t I = 0; I < P.Latency.size(); ++I)
        Times.add(I, E, P.Latency[I]);
      if (E == Engine::Dpst)
        DpstPassSeconds.push_back(P.Seconds);
    }
  });
  printRows(F, Times);
  std::string Walls;
  for (double S : DpstPassSeconds)
    Walls += " " + std::to_string(int(S * 1e3));
  note("DPST pass walls (ms):%s", Walls.c_str());
  note("%u rounds; DPST pass median %.1f ms; setup %.3f s", Rounds,
       median(DpstPassSeconds) * 1e3, SetupS);
  addEndToEndMetrics(Out, Times, SetupS,
                     double(F.Events) / median(DpstPassSeconds));
  return Out;
}

//===----------------------------------------------------------------------===//
// Traced run
//===----------------------------------------------------------------------===//

/// What a traced pass gathers from its clients.
struct TracedPass {
  std::mutex Mutex; ///< guards everything below
  CallTiming Access, Lock, Task;
  StatMap Stats;
  double DecodeNs = 0, DecodedEvents = 0;
  std::vector<double> ConstructUs, PublishUs;
  /// Per trace: construct + replay seconds (the check proper).
  std::vector<double> CheckSeconds;
};

/// checkTraceFile's steps called one by one from outside, each in a span:
/// read the file, decode it, build the engine, replay into it behind a
/// ForwardingObserver, publish its metrics.
bool tracedCheck(SpanLog &Log, int64_t PassSpan, const FleetTrace &T,
                 size_t Index, Engine E, TracedPass &P) {
  SpanLog::Scope Trace(Log, "trace/" + T.Name, PassSpan);
  std::string Bytes;
  {
    SpanLog::Scope S(Log, "trace/read");
    Bytes = readFile(T.Path);
  }
  std::optional<avc::Trace> Events;
  avc::Timer Decode;
  {
    SpanLog::Scope S(Log, "trace/decode");
    Events = avc::parseTraceAuto(Bytes);
  }
  double DecodeNs = double(Decode.elapsedNanos());
  if (!Events)
    return false;
  avc::Timer Check;
  std::unique_ptr<avc::CheckerTool> Tool;
  avc::Timer Construct;
  {
    SpanLog::Scope S(Log, "checker/construct");
    Tool = makeTool(E, avc::ToolOptions());
  }
  double ConstructUs = Construct.elapsedSeconds() * 1e6;
  ForwardingObserver Fwd(*Tool);
  {
    SpanLog::Scope S(Log, "trace/replay");
    // replayTraceTwoPass, with the engine behind the forwarding observer.
    if (Tool->preanalysis().options().Mode == avc::PreanalysisMode::On) {
      avc::TraceClassifier Classifier;
      avc::replayTrace(*Events, Classifier);
      Tool->preanalysis().adoptExact(Classifier.classes());
    }
    avc::replayTrace(*Events, Fwd);
  }
  double CheckSeconds = Check.elapsedSeconds();
  avc::Timer Publish;
  {
    SpanLog::Scope S(Log, "obs/publish");
    Tool->publishMetrics();
  }
  double PublishUs = Publish.elapsedSeconds() * 1e6;

  StatMap Stats(*Tool);
  std::lock_guard<std::mutex> Guard(P.Mutex);
  P.Access += Fwd.accessTiming();
  P.Lock += Fwd.lockTiming();
  P.Task += Fwd.taskTiming();
  P.Stats += Stats;
  P.DecodeNs += DecodeNs;
  P.DecodedEvents += double(Events->size());
  P.ConstructUs.push_back(ConstructUs);
  P.PublishUs.push_back(PublishUs);
  P.CheckSeconds[Index] = CheckSeconds;
  return Events->size() == T.Events &&
         Tool->numViolations() == T.Expected[size_t(E)];
}

PassResult tracedPass(SpanLog &Log, const std::string &Name, const Fleet &F,
                      Engine E, unsigned Clients,
                      const std::vector<size_t> &Order, TracedPass &P,
                      Outcome &Out) {
  P.CheckSeconds.assign(F.Traces.size(), 0.0);
  SpanLog::Scope Pass(Log, Name);
  int64_t PassSpan = Pass.id();
  return runClients(
      F, Clients, Order,
      [&](size_t I) {
        return tracedCheck(Log, PassSpan, F.Traces[I], I, E, P);
      },
      Out);
}

Outcome runTraced(const RunConfig &Cfg, const std::string &Dir,
                  unsigned Clients) {
  Outcome Out;
  Fleet F;
  setUp(Cfg, Dir, Clients, F, Out);
  const size_t N = F.Traces.size();

  SpanLog Log;
  LayerReport L;
  std::string PassName = "pass/" + Cfg.Workload;
  std::mt19937_64 Rng = seededRng(Cfg.Seed, 4);
  const std::vector<size_t> &Order = F.Order;

  // Untraced (checkTraceFile) and traced DPST passes, alternating which
  // goes first; their walls give the tracing overhead.
  std::vector<double> Untraced, Traced;
  std::vector<std::vector<double>> Concurrent(N);
  TracedPass Dpst;
  unsigned Rounds = repeatFor(Cfg.Seconds, 1, [&](unsigned Round) {
    bool TracedFirst = Rng() & 1;
    for (bool IsTraced : {TracedFirst, !TracedFirst}) {
      if (!IsTraced) {
        SpanLog::Scope Pass(Log, PassName + " untraced");
        Untraced.push_back(
            checkPass(F, Engine::Dpst, Clients, Order, Out).Seconds);
        continue;
      }
      double Tasks0 = registryCounter(avc::metrics::names::RuntimeTasksTotal);
      double Steals0 =
          registryCounter(avc::metrics::names::RuntimeStealsTotal);
      Traced.push_back(tracedPass(Log, PassName + " dpst", F, Engine::Dpst,
                                  Clients, Order, Dpst, Out)
                           .Seconds);
      if (Round == 0) {
        // Counts are per pass: keep the first pass's.
        L.Stats = Dpst.Stats;
        L.RuntimeTasks =
            registryCounter(avc::metrics::names::RuntimeTasksTotal) - Tasks0;
        L.RuntimeSteals =
            registryCounter(avc::metrics::names::RuntimeStealsTotal) -
            Steals0;
      }
      for (size_t I = 0; I < N; ++I)
        Concurrent[I].push_back(Dpst.CheckSeconds[I]);
    }
  });

  // One pass of each remaining layer measurement.
  TracedPass Velo, VClock, Alone;
  tracedPass(Log, PassName + " velodrome", F, Engine::Velodrome, Clients,
             Order, Velo, Out);
  tracedPass(Log, PassName + " vclock", F, Engine::VClock, Clients, Order,
             VClock, Out);
  tracedPass(Log, PassName + " alone", F, Engine::Dpst, 1, Order, Alone, Out);
  double ReplayNs = 0, ReplayEvents = 0;
  {
    SpanLog::Scope Pass(Log, PassName + " replay");
    CountingObserver Counter;
    for (const FleetTrace &T : F.Traces) {
      std::optional<avc::Trace> Events =
          avc::parseTraceAuto(readFile(T.Path));
      if (!Out.verdict(Events.has_value()))
        continue;
      SpanLog::Scope S(Log, "trace/replay");
      avc::Timer Replay;
      avc::replayTrace(*Events, Counter);
      ReplayNs += double(Replay.elapsedNanos());
      ReplayEvents += double(Events->size());
    }
    L.Counts = Counter.counts();
  }
  {
    // The kernel part of the fleet was recorded live: its observer
    // dispatch cost, at the recording's single worker.
    SpanLog::Scope Pass(Log, PassName + " dispatch");
    EventCounts KernelCounts;
    L.DispatchNs =
        dispatchNsPerEvent(Log, paperKernels(), 1, Cfg.Scale, 3, KernelCounts);
  }

  note("%-20s %9s %9s %9s %9s", "trace", "events", "bytes/ev", "check(ms)",
       "alone(ms)");
  double Bytes = 0, ConcurrentSum = 0, AloneSum = 0;
  for (size_t I = 0; I < N; ++I) {
    const FleetTrace &T = F.Traces[I];
    Bytes += double(T.Bytes);
    double Med = median(Concurrent[I]);
    ConcurrentSum += Med;
    AloneSum += Alone.CheckSeconds[I];
    note("%-20s %9llu %9.2f %9.2f %9.2f", T.Name.c_str(),
         static_cast<unsigned long long>(T.Events),
         double(T.Bytes) / double(T.Events), Med * 1e3,
         Alone.CheckSeconds[I] * 1e3);
  }
  L.Access = Dpst.Access;
  L.Lock = Dpst.Lock;
  L.Task = Dpst.Task;
  L.VelodromeAccessNs = Velo.Access.nsPerCall();
  L.VClockAccessNs = VClock.Access.nsPerCall();
  L.DecodeNs = Dpst.DecodeNs / Dpst.DecodedEvents;
  L.BytesPerEvent = Bytes / double(F.Events);
  L.ReplayNs = ReplayEvents > 0 ? ReplayNs / ReplayEvents : 0;
  L.ConstructUs = median(Dpst.ConstructUs);
  L.PublishUs = median(Dpst.PublishUs);
  L.ContentionX = AloneSum > 0 ? ConcurrentSum / AloneSum : 0;
  L.TracedOverheadPct = (median(Traced) / median(Untraced) - 1.0) * 100.0;
  note("%u traced rounds", Rounds);
  addLayerMetrics(Out, L);
  if (!finishSpans(Log, Cfg, L.TracedOverheadPct))
    Out.verdict(false);
  return Out;
}

} // namespace

Outcome perfbench::runBatch(const RunConfig &Cfg, unsigned Clients) {
  std::string Dir =
      Cfg.WorkDir + "/fleet-" + std::to_string(static_cast<long>(getpid()));
  Outcome Out = Cfg.Traced ? runTraced(Cfg, Dir, Clients)
                           : runUntraced(Cfg, Dir, Clients);
  std::error_code Ignored;
  fs::remove_all(Dir, Ignored);
  return Out;
}
