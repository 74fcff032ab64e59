// Cooperative simulated processes.
//
// A Process runs user code (a benchmark node program) as a stackful
// user-space fiber: the body runs on its own mmap'd stack, and control
// passes between it and the engine through a hand-written stack switch in
// process.cpp, with no syscall and no other OS thread. Exactly one of
// {engine, some process} runs at any instant, on the thread driving the
// engine. User code experiences a synchronous, blocking API (advance /
// await) while the engine stays a pure discrete-event core underneath and
// owns every scheduling decision.
//
// advance(d) posts the process's resume at t = now + d and yields, unless
// that resume is certainly the open window's next event: t is before the
// window's end (which a ShardedEngine::runUntil horizon h puts at h + 1)
// and no live event is due at or before t (one due at t was posted
// earlier, so it runs first). Then the engine takes the step in place
// (see engine.hpp) and the body runs on without a fiber switch.
// The step is exact: no event could run between the post and the pop,
// the clock, the executed-event count and the sequence numbers move as
// they would, and no other domain's message can land inside the window.
//
// A fiber is not tied to an OS thread: the ShardedEngine resumes it on
// whichever thread runs its domain's window, which may change from one
// window to the next. Each process keeps its own C++ exception state
// (caught-exception stack and std::uncaught_exceptions()) across the
// switch, as a thread of its own would.
//
// CPU accounting: advance(d, CpuUse::Busy) accrues the process's busy
// counter — the simulated getrusage() that the paper's CPU-utilization
// micro-benchmarks read. Blocking in await() is idle time.
#pragma once

#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <string>
#include <vector>

#include "simcore/engine.hpp"
#include "simcore/time.hpp"

namespace vibe::sim {

class Signal;

/// Whether a span of process time occupies the (simulated) host CPU.
enum class CpuUse : std::uint8_t { Busy, Idle };

class Process {
 public:
  /// Creates the process and schedules its body to start at engine.now().
  /// Lifetime contract: the Process must be destroyed before the Engine.
  Process(Engine& engine, std::string name, std::function<void()> body);
  /// Destroying an unfinished process unwinds its body. While it unwinds,
  /// engine().currentProcess() is null, and advance()/await*() called by
  /// destructors on the body's stack return at once without waiting.
  ~Process();

  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;

  /// --- API callable only from inside the process body ---

  /// Lets `d` of virtual time pass. Busy time counts toward cpuBusy().
  /// Yields to the engine unless the resume would be its next event (see
  /// the file comment).
  void advance(Duration d, CpuUse use = CpuUse::Busy);

  /// Blocks (idle) until the signal fires.
  void await(Signal& s);

  /// Blocks until the signal fires or `timeout` elapses. A negative
  /// timeout means wait forever. Returns true if the signal fired.
  bool awaitFor(Signal& s, Duration timeout);

  /// Like await(), but the elapsed wall time is charged as CPU-busy: the
  /// efficient simulation of a host spinning in a poll loop. VIPL's
  /// poll-until-done helpers use this so polling completes in one event
  /// instead of millions of spin iterations, while getrusage-style
  /// accounting still reports 100% utilization.
  void awaitBusy(Signal& s);

  /// Adds busy time without advancing the clock: work (e.g. a kernel ISR)
  /// that ran on this process's host CPU concurrently while it was blocked,
  /// and that getrusage() would attribute to the process as system time.
  void chargeCpu(Duration d) { cpuBusy_ += d; }

  /// --- Observers (valid from anywhere while the engine is quiescent) ---

  const std::string& name() const { return name_; }
  Engine& engine() const { return engine_; }
  SimTime now() const { return engine_.now(); }
  /// Accumulated simulated CPU-busy time (the getrusage analogue).
  Duration cpuBusy() const { return cpuBusy_; }
  bool finished() const { return state_ == State::Finished; }
  bool blocked() const { return state_ == State::Blocked; }

 private:
  friend class Engine;
  friend class Signal;

  enum class State : std::uint8_t {
    Ready,     // a resume event is queued (or the body has not started)
    Running,   // body is executing right now
    Blocked,   // waiting on a Signal (and possibly a timeout)
    Finished,  // body returned or was killed
  };

  struct Killed {};  // thrown into the body to unwind on forced shutdown

  /// The C++ runtime's per-thread __cxa_eh_globals, whose layout libstdc++
  /// and libc++abi share on x86-64: the caught-exception stack and the
  /// std::uncaught_exceptions() count.
  struct EhState {
    void* caughtExceptions;
    unsigned int uncaughtExceptions;
  };

  /// First frame on the fiber stack: runs the body, then leaves for good.
  [[noreturn]] static void fiberMain(Process* self) noexcept;
  /// Engine side: transfer control to the process until it yields.
  void resume();
  /// Engine side: the raw switch into the fiber and back, swapping in this
  /// process's exception state. Returns on the calling thread.
  void switchIn();
  /// Process side: the raw switch back to whoever called switchIn().
  /// `last` marks the final switch of a finished body.
  void switchOut(bool last);
  /// Process side: return control to the engine until resumed.
  void yieldToEngine();
  /// True when a wait must not park because ~Process is unwinding the
  /// body; rethrows Killed when no exception is in flight.
  bool killedNoWait() const;
  /// Wake path shared by Signal delivery and await timeouts.
  void wakeFromWait(std::uint64_t epoch, bool signalled);
  void assertInBody() const;

  Engine& engine_;
  std::string name_;
  std::function<void()> body_;
  Duration cpuBusy_ = 0;

  State state_ = State::Ready;
  bool killed_ = false;
  std::exception_ptr failure_;

  // Wait bookkeeping: the epoch invalidates stale signal/timeout wakeups.
  std::uint64_t waitEpoch_ = 0;
  bool waitSignalled_ = false;
  EventId timeoutEvent_ = 0;

  // Fiber context (see process.cpp). The parked side's stack pointer is
  // saved in fiberSp_ or callerSp_; the exception state of the process is
  // kept in eh_ while it is parked.
  void* stack_ = nullptr;  // mapping base; the guard page comes first
  void* fiberSp_ = nullptr;
  void* callerSp_ = nullptr;
  EhState eh_{};
  // Sanitizer fiber bookkeeping; unused outside ASan/TSan builds.
  const void* callerStack_ = nullptr;
  std::size_t callerStackSize_ = 0;
  void* tsanFiber_ = nullptr;
  void* tsanCaller_ = nullptr;
};

/// A broadcast wakeup primitive in virtual time. notifyAll() releases every
/// process currently waiting; wakeups are delivered as engine events at the
/// current time, preserving deterministic ordering.
class Signal {
 public:
  explicit Signal(Engine& engine) : engine_(engine) {}
  Signal(const Signal&) = delete;
  Signal& operator=(const Signal&) = delete;

  /// Wakes all current waiters.
  void notifyAll();
  /// Wakes the longest-waiting current waiter, if any.
  void notifyOne();

 private:
  friend class Process;
  struct Waiter {
    Process* proc;
    std::uint64_t epoch;
  };
  void addWaiter(Process* p, std::uint64_t epoch) {
    waiters_.push_back({p, epoch});
  }
  void dropWaiter(const Process* p);
  void post(const Waiter& w);

  Engine& engine_;
  std::vector<Waiter> waiters_;
};

}  // namespace vibe::sim
