//===- perfbench/harness/Spans.cpp - In-memory spans of a traced run ------===//
//
// Part of the TaskCheck benchmark.
//
//===----------------------------------------------------------------------===//

#include "Spans.h"

#include <algorithm>
#include <atomic>

#include "obs/ObsExport.h"
#include "support/Timing.h"

using namespace perfbench;

namespace {

/// Distinguishes logs so a thread's cached ordinal never leaks from a
/// destroyed log into a new one at the same address.
std::atomic<uint64_t> NextLogId{1};

struct ThreadState {
  uint64_t LogId = 0;
  uint32_t Tid = 0;
  int64_t Current = -1;
};
thread_local ThreadState TLS;

avc::obs::Cat categoryOf(const std::string &Name) {
  if (Name.rfind("checker/", 0) == 0)
    return avc::obs::Cat::Checker;
  if (Name.rfind("dpst/", 0) == 0)
    return avc::obs::Cat::Dpst;
  if (Name.rfind("obs/", 0) == 0)
    return avc::obs::Cat::Obs;
  return avc::obs::Cat::Runtime;
}

} // namespace

SpanLog::SpanLog()
    : Epoch(avc::nowNanos()),
      LogId(NextLogId.fetch_add(1, std::memory_order_relaxed)) {}

uint64_t SpanLog::nowNs() const { return avc::nowNanos() - Epoch; }

uint32_t SpanLog::threadOrdinal() {
  if (TLS.LogId != LogId) {
    std::lock_guard<std::mutex> Guard(Mutex);
    TLS = ThreadState{LogId, NextTid++, -1};
  }
  return TLS.Tid;
}

int64_t SpanLog::open(std::string Name, int64_t Parent) {
  uint32_t Tid = threadOrdinal();
  SpanRecord R;
  R.Name = std::move(Name);
  R.Parent = Parent == CurrentSpan ? TLS.Current : Parent;
  R.Tid = Tid;
  R.Start = nowNs();
  std::lock_guard<std::mutex> Guard(Mutex);
  Spans.push_back(std::move(R));
  return static_cast<int64_t>(Spans.size() - 1);
}

void SpanLog::close(int64_t Id) {
  uint64_t End = nowNs();
  std::lock_guard<std::mutex> Guard(Mutex);
  Spans[static_cast<size_t>(Id)].End = End;
}

SpanLog::Scope::Scope(SpanLog &Log, std::string Name, int64_t Parent)
    : Log(Log), Id(Log.open(std::move(Name), Parent)),
      SavedCurrent(TLS.Current) {
  TLS.Current = Id;
}

SpanLog::Scope::~Scope() {
  Log.close(Id);
  TLS.Current = SavedCurrent;
}

std::vector<SpanRecord> SpanLog::spans() const {
  std::lock_guard<std::mutex> Guard(Mutex);
  return std::vector<SpanRecord>(Spans.begin(), Spans.end());
}

std::vector<double> perfbench::selfTimes(const std::vector<SpanRecord> &Spans) {
  std::vector<std::vector<size_t>> Children(Spans.size());
  for (size_t I = 0; I < Spans.size(); ++I)
    if (Spans[I].Parent >= 0)
      Children[static_cast<size_t>(Spans[I].Parent)].push_back(I);

  std::vector<double> Self(Spans.size(), 0.0);
  for (size_t I = 0; I < Spans.size(); ++I) {
    const SpanRecord &S = Spans[I];
    if (S.End < S.Start)
      continue; // still open
    // Union of the children's intervals, clipped to this span.
    std::vector<std::pair<uint64_t, uint64_t>> Intervals;
    for (size_t C : Children[I]) {
      uint64_t Lo = std::max(Spans[C].Start, S.Start);
      uint64_t Hi = std::min(Spans[C].End, S.End);
      if (Hi > Lo)
        Intervals.push_back({Lo, Hi});
    }
    std::sort(Intervals.begin(), Intervals.end());
    uint64_t Covered = 0, RunLo = 0, RunHi = 0;
    bool Open = false;
    for (const auto &[Lo, Hi] : Intervals) {
      if (Open && Lo <= RunHi) {
        RunHi = std::max(RunHi, Hi);
        continue;
      }
      if (Open)
        Covered += RunHi - RunLo;
      RunLo = Lo;
      RunHi = Hi;
      Open = true;
    }
    if (Open)
      Covered += RunHi - RunLo;
    Self[I] = double(S.End - S.Start) - double(Covered);
  }
  return Self;
}

std::map<std::string, double> SpanLog::selfTimeByName() const {
  std::vector<SpanRecord> All = spans();
  std::vector<double> Self = selfTimes(All);
  std::map<std::string, double> ByName;
  for (size_t I = 0; I < All.size(); ++I)
    ByName[All[I].Name] += Self[I];
  return ByName;
}

bool SpanLog::writeChromeTrace(const std::string &Path,
                               double OverheadPct) const {
  uint64_t DrainStart = avc::nowNanos();
  std::vector<SpanRecord> All = spans();

  // Emit B/E pairs depth-first per root, so that the exporter's stable
  // sort by timestamp keeps parents opening before and closing after their
  // children even when two stamps are equal.
  std::vector<std::vector<size_t>> Children(All.size());
  std::vector<size_t> Roots;
  for (size_t I = 0; I < All.size(); ++I) {
    if (All[I].End < All[I].Start)
      continue;
    int64_t P = All[I].Parent;
    // A child on another thread nests under nothing on its own track.
    if (P >= 0 && All[static_cast<size_t>(P)].Tid == All[I].Tid)
      Children[static_cast<size_t>(P)].push_back(I);
    else
      Roots.push_back(I);
  }
  std::vector<avc::obs::ExportEvent> Events;
  Events.reserve(All.size() * 2);
  uint64_t LastNs = 0;
  auto Emit = [&](auto &Self, size_t I) -> void {
    const SpanRecord &S = All[I];
    avc::obs::Event B{S.Start, S.Name.c_str(), uint64_t(S.Parent + 1),
                      avc::obs::Phase::Begin, categoryOf(S.Name)};
    Events.push_back({B, S.Tid});
    for (size_t C : Children[I])
      Self(Self, C);
    avc::obs::Event E{S.End, S.Name.c_str(), 0, avc::obs::Phase::End,
                      categoryOf(S.Name)};
    Events.push_back({E, S.Tid});
    LastNs = std::max(LastNs, S.End);
  };
  for (size_t R : Roots)
    Emit(Emit, R);

  avc::obs::ExportSummary Summary;
  Summary.EventsRecorded = Events.size();
  Summary.WallNs = std::max<uint64_t>(LastNs, 1);
  Summary.DrainNs = avc::nowNanos() - DrainStart;
  // The exporter states overhead as cost-per-event x events / wall; give it
  // the per-event cost that reproduces the measured overhead.
  if (Summary.EventsRecorded)
    Summary.RecordNsPerEvent = OverheadPct / 100.0 * double(Summary.WallNs) /
                               double(Summary.EventsRecorded);
  return avc::obs::writeChromeTrace(Path, Events, Summary);
}
