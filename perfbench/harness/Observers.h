//===- perfbench/harness/Observers.h - Measuring observers ------*- C++ -*-===//
//
// Part of the TaskCheck benchmark.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Two ExecutionObservers the traced run plugs into TaskRuntime or
/// replayTrace from outside the program:
///
///  - CountingObserver does nothing but count events by class. Its wall
///    time over an uninstrumented run is the observer-dispatch floor under
///    every checker, and its counts are the multiplier for every per-event
///    cost.
///  - ForwardingObserver wraps an engine and forwards every callback to it
///    unchanged, timing a sample of the calls per class (accesses, lock
///    events, task events). Sampled per-call times times the counts give
///    each layer's self time without one span per access.
///
/// Counts use the metrics registry's per-thread-sharded Counter, so four
/// workers never contend on them.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_OBSERVERS_H
#define PERFBENCH_OBSERVERS_H

#include <cstdint>

#include "obs/Metrics.h"
#include "runtime/ExecutionObserver.h"
#include "support/Timing.h"

namespace perfbench {

/// Event counts by the classes the per-layer metrics use.
struct EventCounts {
  uint64_t Reads = 0;
  uint64_t Writes = 0;
  /// spawn, sync, group wait and task end: the events that append DPST
  /// nodes in the checker.
  uint64_t TaskEvents = 0;
  uint64_t LockEvents = 0;

  uint64_t total() const { return Reads + Writes + TaskEvents + LockEvents; }
  EventCounts &operator+=(const EventCounts &O) {
    Reads += O.Reads;
    Writes += O.Writes;
    TaskEvents += O.TaskEvents;
    LockEvents += O.LockEvents;
    return *this;
  }
};

/// Counts events and does nothing else.
class CountingObserver : public avc::ExecutionObserver {
public:
  void onTaskSpawn(avc::TaskId, const void *, avc::TaskId) override {
    Task.inc();
  }
  void onTaskEnd(avc::TaskId) override { Task.inc(); }
  void onSync(avc::TaskId) override { Task.inc(); }
  void onGroupWait(avc::TaskId, const void *) override { Task.inc(); }
  void onLockAcquire(avc::TaskId, avc::LockId) override { Lock.inc(); }
  void onLockRelease(avc::TaskId, avc::LockId) override { Lock.inc(); }
  void onRead(avc::TaskId, avc::MemAddr) override { Read.inc(); }
  void onWrite(avc::TaskId, avc::MemAddr) override { Write.inc(); }

  EventCounts counts() const {
    return {Read.value(), Write.value(), Task.value(), Lock.value()};
  }

private:
  avc::metrics::Counter Read, Write, Task, Lock;
};

/// Sampled time of one class of forwarded calls. Times the call counts of
/// a CountingObserver give the class's self-time sum.
struct CallTiming {
  uint64_t Sampled = 0;
  uint64_t SampledNs = 0;

  double nsPerCall() const {
    return Sampled ? double(SampledNs) / double(Sampled) : 0.0;
  }
  CallTiming &operator+=(const CallTiming &O) {
    Sampled += O.Sampled;
    SampledNs += O.SampledNs;
    return *this;
  }
};

/// Forwards every callback to \p Inner and times a sample of them. Accesses
/// are timed one in AccessSampleEvery (a power of two) per thread; lock and
/// task events, which are far rarer, are all timed.
class ForwardingObserver : public avc::ExecutionObserver {
public:
  static constexpr uint32_t AccessSampleEvery = 64;

  explicit ForwardingObserver(avc::ExecutionObserver &Inner) : Inner(Inner) {}

  void onProgramStart(avc::TaskId Root) override { Inner.onProgramStart(Root); }
  void onProgramEnd() override { Inner.onProgramEnd(); }
  void onTaskExecuteBegin(avc::TaskId Task) override {
    Inner.onTaskExecuteBegin(Task);
  }
  void onSiteRegister(avc::MemAddr Base, uint64_t Size,
                      uint32_t Stride) override {
    Inner.onSiteRegister(Base, Size, Stride);
  }
  void onTaskSpawn(avc::TaskId Parent, const void *Group,
                   avc::TaskId Child) override {
    timed(TaskClass, [&] { Inner.onTaskSpawn(Parent, Group, Child); });
  }
  void onTaskEnd(avc::TaskId Task) override {
    timed(TaskClass, [&] { Inner.onTaskEnd(Task); });
  }
  void onSync(avc::TaskId Task) override {
    timed(TaskClass, [&] { Inner.onSync(Task); });
  }
  void onGroupWait(avc::TaskId Task, const void *Group) override {
    timed(TaskClass, [&] { Inner.onGroupWait(Task, Group); });
  }
  void onLockAcquire(avc::TaskId Task, avc::LockId Lock) override {
    timed(LockClass, [&] { Inner.onLockAcquire(Task, Lock); });
  }
  void onLockRelease(avc::TaskId Task, avc::LockId Lock) override {
    timed(LockClass, [&] { Inner.onLockRelease(Task, Lock); });
  }
  void onRead(avc::TaskId Task, avc::MemAddr Addr) override {
    sampled([&] { Inner.onRead(Task, Addr); });
  }
  void onWrite(avc::TaskId Task, avc::MemAddr Addr) override {
    sampled([&] { Inner.onWrite(Task, Addr); });
  }

  CallTiming accessTiming() const { return AccessClass.timing(); }
  CallTiming lockTiming() const { return LockClass.timing(); }
  CallTiming taskTiming() const { return TaskClass.timing(); }

private:
  struct ClassTimer {
    avc::metrics::Counter Sampled, SampledNs;
    CallTiming timing() const { return {Sampled.value(), SampledNs.value()}; }
  };

  template <typename FnT> void timed(ClassTimer &C, FnT Fn) {
    uint64_t Start = avc::nowNanos();
    Fn();
    C.SampledNs.add(avc::nowNanos() - Start);
    C.Sampled.inc();
  }

  template <typename FnT> void sampled(FnT Fn) {
    thread_local uint32_t Counter = 0;
    if ((Counter++ & (AccessSampleEvery - 1)) == 0)
      return timed(AccessClass, Fn);
    Fn();
  }

  avc::ExecutionObserver &Inner;
  ClassTimer AccessClass, LockClass, TaskClass;
};

} // namespace perfbench

#endif // PERFBENCH_OBSERVERS_H
