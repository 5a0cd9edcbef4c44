//===- perfbench/harness/Workloads.h - The benchmark's workloads -*- C++ -*-=//
//
// Part of the TaskCheck benchmark.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The three workloads (README.md in this directory says why each exists):
///
///  - live-1w / live-4w: the 13 paper kernels run live on 1 or 4 workers,
///    uninstrumented and under the DPST checker, Velodrome and vclock,
///    interleaved per kernel;
///  - batch-4w: a fleet of binary trace files (the kernels' own recorded
///    streams plus seeded generator traces) checked by 4 closed-loop
///    clients through checkTraceFile.
///
/// An untraced run reports the end-to-end metrics; a traced run (Traced)
/// reports the per-layer metrics and writes the span file.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "Common.h"

namespace perfbench {

Outcome runLive(const RunConfig &Cfg, unsigned Workers);
Outcome runBatch(const RunConfig &Cfg, unsigned Clients);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
