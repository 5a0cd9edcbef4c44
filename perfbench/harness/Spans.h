//===- perfbench/harness/Spans.h - In-memory spans of a traced run -*- C++ -*-//
//
// Part of the TaskCheck benchmark.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run's span log. A span has a name, a start, an end, the
/// thread that ran it and the span that caused it; spans nest per thread
/// through a thread-local "current span", and a span opened on another
/// thread can name its parent explicitly (a client's per-trace span under
/// the pass span that launched the clients).
///
/// Spans stay in memory and are written once, at the end, as Chrome
/// trace-event JSON through src/obs's own exporter, so the file loads in
/// Perfetto and passes tools/validate_trace.py. A span's B event carries
/// its parent's index + 1 (0 = root) as args.value.
///
/// A layer's self time is its span's duration minus the part of that
/// interval its child spans cover (the union of the children, so children
/// running concurrently on other threads are not counted twice).
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// One closed span. Times are nanoseconds since the log's epoch.
struct SpanRecord {
  std::string Name;
  uint64_t Start = 0;
  uint64_t End = 0;
  int64_t Parent = -1; ///< index of the parent span, -1 for a root
  uint32_t Tid = 0;    ///< 1-based thread ordinal within the log
};

/// Collects spans from any number of threads. One log is active per
/// process at a time (the thread-local current span refers to it).
class SpanLog {
public:
  SpanLog();
  SpanLog(const SpanLog &) = delete;
  SpanLog &operator=(const SpanLog &) = delete;

  /// RAII span: opens on construction under the thread's current span (or
  /// under \p Parent when given), closes on destruction.
  /// Parent argument meaning "the thread's current span".
  static constexpr int64_t CurrentSpan = -2;

  class Scope {
  public:
    Scope(SpanLog &Log, std::string Name, int64_t Parent = CurrentSpan);
    ~Scope();
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    int64_t id() const { return Id; }

  private:
    SpanLog &Log;
    int64_t Id;
    int64_t SavedCurrent;
  };

  /// All spans recorded so far (closed or not; open spans have End == 0).
  std::vector<SpanRecord> spans() const;

  /// Self time summed per span name, in nanoseconds.
  std::map<std::string, double> selfTimeByName() const;

  /// Writes the spans as Chrome trace-event JSON. The file's one
  /// obs/self-accounting event carries \p OverheadPct, the tracing
  /// overhead measured by comparing traced and untraced walls, as its
  /// estimated_overhead_pct. Returns false on I/O failure.
  bool writeChromeTrace(const std::string &Path, double OverheadPct) const;

  uint64_t nowNs() const;

private:
  int64_t open(std::string Name, int64_t Parent);
  void close(int64_t Id);
  uint32_t threadOrdinal();

  const uint64_t Epoch;
  const uint64_t LogId;
  mutable std::mutex Mutex; ///< guards Spans and NextTid
  std::deque<SpanRecord> Spans;
  uint32_t NextTid = 1;
};

/// Self time of every span in \p Spans: its duration minus the union of its
/// children's intervals clipped to it.
std::vector<double> selfTimes(const std::vector<SpanRecord> &Spans);

} // namespace perfbench

#endif // PERFBENCH_SPANS_H
