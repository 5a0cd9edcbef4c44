//===- perfbench/harness/main.cpp - Benchmark entry point -----------------===//
//
// Part of the TaskCheck benchmark.
//
//===----------------------------------------------------------------------===//
///
/// perfbench --workload <live-1w|live-4w|batch-4w> --seed N --seconds S
///           --trace <0|1> [--work-dir DIR]
///
/// Prints context lines starting with "# ", then, as the last line, one
/// JSON object: {"correct", "attempted", "failed", "metrics"}. With
/// --trace 0 the metrics are the end-to-end ones, with --trace 1 the
/// per-layer ones, and the span file <DIR>/<workload>.spans.json is
/// written. Trace files of batch-4w live under DIR while the run lasts.
/// Exits 1 on any wrong verdict or load failure, 2 on bad arguments.
///
//===----------------------------------------------------------------------===//

#include <cstdio>
#include <thread>

#include "Workloads.h"
#include "support/ArgParse.h"

using namespace perfbench;

int main(int Argc, char **Argv) {
  RunConfig Cfg;
  unsigned Trace = 0;
  avc::ArgParser Parser;
  Parser.stringOption("workload", Cfg.Workload)
      .u64Option("seed", Cfg.Seed)
      .doubleOption("seconds", Cfg.Seconds)
      .unsignedOption("trace", Trace)
      .stringOption("work-dir", Cfg.WorkDir);
  if (!Parser.parse(Argc, Argv))
    return 2;
  Cfg.Traced = Trace != 0;
  if (Trace > 1 || !(Cfg.Seconds > 0)) {
    std::fprintf(stderr, "error: need --trace 0|1 and --seconds > 0\n");
    return 2;
  }

  note("workload %s, seed %llu, %g s, trace %u", Cfg.Workload.c_str(),
       static_cast<unsigned long long>(Cfg.Seed), Cfg.Seconds, Trace);
  note("nproc %u, build flags %s", std::thread::hardware_concurrency(),
       PERFBENCH_BUILD_FLAGS);

  Outcome Out;
  if (Cfg.Workload == "live-1w") {
    Out = runLive(Cfg, 1);
  } else if (Cfg.Workload == "live-4w") {
    Out = runLive(Cfg, 4);
  } else if (Cfg.Workload == "batch-4w") {
    Out = runBatch(Cfg, 4);
  } else {
    std::fprintf(stderr,
                 "error: unknown workload '%s' (live-1w, live-4w, batch-4w)\n",
                 Cfg.Workload.c_str());
    return 2;
  }

  note("error_rate %.6f (%llu of %llu checked runs or traces wrong)",
       Out.Attempted ? double(Out.Failed) / double(Out.Attempted) : 1.0,
       static_cast<unsigned long long>(Out.Failed),
       static_cast<unsigned long long>(Out.Attempted));
  std::printf("%s\n", resultJson(Out).c_str());
  std::fflush(stdout);
  return Out.correct() ? 0 : 1;
}
