#include "simcore/process.hpp"

#include <cxxabi.h>
#include <sys/mman.h>
#include <unistd.h>

#include <cassert>
#include <cstring>
#include <new>

#ifdef __SANITIZE_ADDRESS__
#include <sanitizer/asan_interface.h>
#endif
#ifdef __SANITIZE_THREAD__
#include <sanitizer/tsan_interface.h>
#endif

#if !defined(__x86_64__)
#error "sim::Process has no stack switch for this target: a port must supply vibe_sim_fiber_switch and vibe_sim_fiber_entry, and the initial frame Process::Process builds for them (process.cpp)"
#endif

// The stack switch. vibe_sim_fiber_switch(save, load) pushes the
// callee-saved state of the running side (rbp, rbx, r12-r15, MXCSR and the
// x87 control word: everything a SysV call must preserve) onto its own
// stack, stores its stack pointer through `save`, then pops the same state
// of the side parked at `load` and returns into it. No syscall, no
// signal-mask change. It keeps no CET shadow stack: a program run with
// user shadow stacks enforced would fault at its first switch.
//
// A new fiber's stack holds one such frame whose return address is
// vibe_sim_fiber_entry, which calls r13 with r12 as its argument:
// Process::fiberMain(this). Its unwind info marks the end of the stack for
// the unwinder and debuggers.
asm(R"(
  .pushsection .text
  .globl vibe_sim_fiber_switch
  .hidden vibe_sim_fiber_switch
  .type vibe_sim_fiber_switch, @function
  .p2align 4
vibe_sim_fiber_switch:
  pushq %rbp
  pushq %rbx
  pushq %r12
  pushq %r13
  pushq %r14
  pushq %r15
  subq $8, %rsp
  stmxcsr (%rsp)
  fnstcw 4(%rsp)
  movq %rsp, (%rdi)
  movq %rsi, %rsp
  ldmxcsr (%rsp)
  fldcw 4(%rsp)
  addq $8, %rsp
  popq %r15
  popq %r14
  popq %r13
  popq %r12
  popq %rbx
  popq %rbp
  ret
  .size vibe_sim_fiber_switch, .-vibe_sim_fiber_switch

  .globl vibe_sim_fiber_entry
  .hidden vibe_sim_fiber_entry
  .type vibe_sim_fiber_entry, @function
  .p2align 4
vibe_sim_fiber_entry:
  .cfi_startproc
  .cfi_undefined rip
  movq %r12, %rdi
  call *%r13
  ud2
  .cfi_endproc
  .size vibe_sim_fiber_entry, .-vibe_sim_fiber_entry
  .popsection
)");

extern "C" {
__attribute__((visibility("hidden"))) void vibe_sim_fiber_switch(void** save,
                                                                 void* load);
__attribute__((visibility("hidden"))) void vibe_sim_fiber_entry();
}

namespace vibe::sim {
namespace {

// Stack of every process body. Reserved up front and committed page by
// page as the body touches it; one PROT_NONE guard page below it turns an
// overflow into a fault instead of silent corruption.
constexpr std::size_t kStackBytes = std::size_t{1} << 20;

std::size_t guardBytes() {
  static const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  return page;
}

// What vibe_sim_fiber_switch pops when it first enters a fiber.
struct InitialFrame {
  std::uint32_t mxcsr = 0x1F80;  // SysV initial MXCSR
  std::uint16_t x87cw = 0x037F;  // SysV initial x87 control word
  std::uint16_t pad = 0;
  void* r15 = nullptr;
  void* r14 = nullptr;
  void* r13;  // entry function
  void* r12;  // its argument
  void* rbx = nullptr;
  void* rbp = nullptr;
  void* ret = reinterpret_cast<void*>(&vibe_sim_fiber_entry);
};
static_assert(sizeof(InitialFrame) == 64 && alignof(InitialFrame) == 8);

}  // namespace

Process::Process(Engine& engine, std::string name, std::function<void()> body)
    : engine_(engine), name_(std::move(name)), body_(std::move(body)) {
  const std::size_t guard = guardBytes();
  void* base = mmap(nullptr, guard + kStackBytes, PROT_READ | PROT_WRITE,
                    MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK,
                    -1, 0);
  if (base == MAP_FAILED) {
    throw SimError("Process: cannot map a stack for " + name_);
  }
  if (mprotect(base, guard, PROT_NONE) != 0) {
    munmap(base, guard + kStackBytes);
    throw SimError("Process: cannot protect the stack guard of " + name_);
  }
  stack_ = base;
  // The stack top is page-aligned, so vibe_sim_fiber_entry starts on a
  // 16-byte boundary, as its call requires.
  char* top = static_cast<char*>(base) + guard + kStackBytes;
  auto* frame = new (top - sizeof(InitialFrame)) InitialFrame;
  frame->r13 = reinterpret_cast<void*>(&Process::fiberMain);
  frame->r12 = this;
  fiberSp_ = frame;
#ifdef __SANITIZE_THREAD__
  tsanFiber_ = __tsan_create_fiber(0);
#endif
  engine_.registerProcess(this);
  engine_.post(0, [this] { resume(); });
}

Process::~Process() {
  if (state_ != State::Finished) {
    // Forced shutdown (e.g. a failed run): unwind the body via Killed. The
    // engine's current process stays unset meanwhile (see killedNoWait).
    killed_ = true;
    while (state_ != State::Finished) switchIn();
  }
#ifdef __SANITIZE_THREAD__
  __tsan_destroy_fiber(tsanFiber_);
#endif
#ifdef __SANITIZE_ADDRESS__
  // The frames the body left for good still carry poisoned redzones.
  __asan_unpoison_memory_region(stack_, guardBytes() + kStackBytes);
#endif
  munmap(stack_, guardBytes() + kStackBytes);
  engine_.unregisterProcess(this);
}

void Process::fiberMain(Process* self) noexcept {
#ifdef __SANITIZE_ADDRESS__
  __sanitizer_finish_switch_fiber(nullptr, &self->callerStack_,
                                  &self->callerStackSize_);
#endif
  if (!self->killed_) {
    // Moved onto this stack so the body's captures die when it ends.
    std::function<void()> body = std::move(self->body_);
    try {
      self->state_ = State::Running;
      body();
    } catch (Killed&) {
      // forced shutdown — unwound cleanly
    } catch (...) {
      self->failure_ = std::current_exception();
    }
  }
  self->state_ = State::Finished;
  self->switchOut(true);
  __builtin_unreachable();
}

void Process::switchIn() {
  // The process's exception state stands in for the caller's while it
  // runs. This side always comes back on the thread it left from, so `eh`
  // stays valid, even though the fiber may run on another thread next time.
  // The runtime's type is opaque here, so its bytes are copied.
  static_assert(sizeof(EhState) == 16);
  void* eh = abi::__cxa_get_globals();
  EhState caller;
  std::memcpy(&caller, eh, sizeof caller);
  std::memcpy(eh, &eh_, sizeof eh_);
#ifdef __SANITIZE_ADDRESS__
  void* fakeStack = nullptr;
  __sanitizer_start_switch_fiber(
      &fakeStack, static_cast<char*>(stack_) + guardBytes(), kStackBytes);
#endif
#ifdef __SANITIZE_THREAD__
  tsanCaller_ = __tsan_get_current_fiber();
  __tsan_switch_to_fiber(tsanFiber_, 0);
#endif
  vibe_sim_fiber_switch(&callerSp_, fiberSp_);
#ifdef __SANITIZE_ADDRESS__
  __sanitizer_finish_switch_fiber(fakeStack, nullptr, nullptr);
#endif
  std::memcpy(&eh_, eh, sizeof eh_);
  std::memcpy(eh, &caller, sizeof caller);
}

void Process::switchOut([[maybe_unused]] bool last) {
#ifdef __SANITIZE_ADDRESS__
  // A null save slot on the last switch frees the fiber's fake stack.
  void* fakeStack = nullptr;
  __sanitizer_start_switch_fiber(last ? nullptr : &fakeStack, callerStack_,
                                 callerStackSize_);
#endif
#ifdef __SANITIZE_THREAD__
  __tsan_switch_to_fiber(tsanCaller_, 0);
#endif
  vibe_sim_fiber_switch(&fiberSp_, callerSp_);
#ifdef __SANITIZE_ADDRESS__
  __sanitizer_finish_switch_fiber(fakeStack, &callerStack_, &callerStackSize_);
#endif
}

void Process::resume() {
  assert(state_ == State::Ready || state_ == State::Blocked);
  Process* prev = engine_.current_;
  engine_.current_ = this;
  switchIn();
  engine_.current_ = prev;
  if (failure_) {
    auto f = failure_;
    failure_ = nullptr;
    std::rethrow_exception(f);
  }
}

void Process::yieldToEngine() {
  switchOut(false);
  if (killed_) throw Killed{};
  state_ = State::Running;
}

bool Process::killedNoWait() const {
  if (!killed_) return false;
  // ~Process is unwinding the body, and no engine event resumes it any
  // more: parking would leave a stray event behind and, on resumption,
  // throw Killed into the unwind already in flight. Destructors on the way
  // out therefore skip the wait; a body that swallowed Killed gets it back
  // at its next wait.
  if (std::uncaught_exceptions() > 0) return true;
  throw Killed{};
}

void Process::assertInBody() const {
  [[maybe_unused]] const auto* frame =
      static_cast<const char*>(__builtin_frame_address(0));
  [[maybe_unused]] const auto* low = static_cast<const char*>(stack_);
  assert(frame > low && frame <= low + guardBytes() + kStackBytes &&
         "Process API called from outside the process body");
}

void Process::advance(Duration d, CpuUse use) {
  assertInBody();
  if (d < 0) throw SimError("Process::advance: negative duration");
  if (use == CpuUse::Busy) cpuBusy_ += d;
  if (d == 0) return;  // nothing can interleave at zero cost; skip the yield
  if (killedNoWait()) return;
  // The resume would be the dispatch's next event: take it without leaving.
  if (engine_.stepInPlace(now() + d)) return;
  state_ = State::Ready;
  engine_.post(d, [this] { resume(); });
  yieldToEngine();
}

bool Process::awaitFor(Signal& s, Duration timeout) {
  assertInBody();
  if (killedNoWait()) return false;
  const std::uint64_t epoch = ++waitEpoch_;
  waitSignalled_ = false;
  s.addWaiter(this, epoch);
  timeoutEvent_ = 0;
  if (timeout >= 0) {
    timeoutEvent_ =
        engine_.post(timeout, [this, epoch] { wakeFromWait(epoch, false); });
  }
  state_ = State::Blocked;
  yieldToEngine();
  return waitSignalled_;
}

void Process::await(Signal& s) { awaitFor(s, -1); }

void Process::awaitBusy(Signal& s) {
  const SimTime t0 = now();
  await(s);
  cpuBusy_ += now() - t0;  // a polling wait spins the host CPU
}

void Process::wakeFromWait(std::uint64_t epoch, bool signalled) {
  if (epoch != waitEpoch_ || state_ != State::Blocked) return;  // stale waker
  ++waitEpoch_;  // invalidate the competing signal/timeout source
  waitSignalled_ = signalled;
  if (signalled && timeoutEvent_ != 0) engine_.cancel(timeoutEvent_);
  timeoutEvent_ = 0;
  resume();
}

void Signal::post(const Waiter& w) {
  Process* proc = w.proc;
  const std::uint64_t epoch = w.epoch;
  engine_.post(0, [proc, epoch] { proc->wakeFromWait(epoch, true); });
}

void Signal::notifyAll() {
  for (const Waiter& w : waiters_) post(w);
  waiters_.clear();
}

void Signal::notifyOne() {
  // Skip entries whose wait epoch is stale (e.g. the waiter timed out).
  while (!waiters_.empty()) {
    Waiter w = waiters_.front();
    waiters_.erase(waiters_.begin());
    if (w.epoch == w.proc->waitEpoch_ && w.proc->blocked()) {
      post(w);
      return;
    }
  }
}

void Signal::dropWaiter(const Process* p) {
  std::erase_if(waiters_, [p](const Waiter& w) { return w.proc == p; });
}

}  // namespace vibe::sim
