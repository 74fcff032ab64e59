#include "simcore/engine.hpp"

#include <algorithm>
#include <utility>

#include "simcore/process.hpp"

namespace vibe::sim {

std::uint32_t Engine::allocSlot() {
  if (freeHead_ != kNoSlot) {
    const std::uint32_t s = freeHead_;
    freeHead_ = slotAt(s).nextFree;
    return s;
  }
  if ((slotCount_ & (kSlabSize - 1)) == 0) {
    slabs_.push_back(std::make_unique<Slot[]>(kSlabSize));
  }
  return slotCount_++;
}

EventId Engine::postAt(SimTime t, EventFn fn) {
  if (parked()) {
    throw SimError(
        "Engine::postAt: engine is parked between PDES windows; schedule "
        "into a foreign domain via ShardedEngine::sendAt instead");
  }
  return postAtImpl(t, std::move(fn));
}

EventId Engine::postAtImpl(SimTime t, EventFn fn) {
  if (!fn) {
    throw SimError("Engine::postAt: null callable");
  }
  if (t < now_) {
    throw SimError("Engine::postAt: scheduling into the past");
  }
  const std::uint32_t slot = allocSlot();
  Slot& s = slotAt(slot);
  s.fn = std::move(fn);
  heap_.push_back(Handle{t, nextSeq_++, slot, s.gen});
  std::push_heap(heap_.begin(), heap_.end(), HandleAfter{});
  ++live_;
  return (static_cast<EventId>(s.gen) << 32) | (slot + 1);
}

bool Engine::cancel(EventId id) {
  if (parked()) {
    throw SimError(
        "Engine::cancel: engine is parked between PDES windows; "
        "cross-domain timer cancel is forbidden under sharding");
  }
  const std::uint32_t slotPlus1 = static_cast<std::uint32_t>(id);
  const std::uint32_t gen = static_cast<std::uint32_t>(id >> 32);
  if (slotPlus1 == 0 || slotPlus1 > slotCount_) return false;
  const std::uint32_t slot = slotPlus1 - 1;
  Slot& s = slotAt(slot);
  if (s.gen != gen || !s.fn) return false;
  s.fn.reset();  // destroy the callback now, not at fire time
  ++s.gen;       // invalidates the id and the heap handle
  freeSlot(slot);
  --live_;
  ++staleInHeap_;
  compactIfStale();
  return true;
}

void Engine::compactIfStale() {
  if (staleInHeap_ <= 64 || staleInHeap_ <= live_) return;
  std::erase_if(heap_, [this](const Handle& h) {
    return slotAt(h.slot).gen != h.gen;
  });
  std::make_heap(heap_.begin(), heap_.end(), HandleAfter{});
  staleInHeap_ = 0;
}

std::uint64_t Engine::runWindow(SimTime windowEnd) {
  DispatchScope scope(*this, windowEnd - 1);
  const std::uint64_t before = executed_;
  while (!heap_.empty() && heap_.front().time < windowEnd) {
    std::pop_heap(heap_.begin(), heap_.end(), HandleAfter{});
    const Handle h = heap_.back();
    heap_.pop_back();
    Slot& s = slotAt(h.slot);
    if (s.gen != h.gen) {  // cancelled; handle predates compaction
      --staleInHeap_;
      continue;
    }
    now_ = h.time;
    ++executed_;
    --live_;
    EventFn fn = std::move(s.fn);
    ++s.gen;
    freeSlot(h.slot);
    fn();
  }
  return executed_ - before;
}

SimTime Engine::nextEventTime() {
  while (!heap_.empty()) {
    const Handle top = heap_.front();
    if (slotAt(top.slot).gen == top.gen) return top.time;
    std::pop_heap(heap_.begin(), heap_.end(), HandleAfter{});
    heap_.pop_back();
    --staleInHeap_;
  }
  return kNoEventTime;
}

bool Engine::stepInPlace(SimTime t) {
  if (t > dispatchLast_ || nextEventTime() <= t) return false;
  now_ = t;
  ++executed_;
  ++nextSeq_;
  return true;
}

void Engine::advanceTo(SimTime t) {
  if (t > now_) now_ = t;
}

std::string Engine::blockedProcessNames() const {
  std::string out;
  for (const Process* p : processes_) {
    if (!p->blocked()) continue;
    if (!out.empty()) out += ", ";
    out += p->name();
  }
  return out;
}

void Engine::unregisterProcess(Process* p) {
  processes_.erase(std::remove(processes_.begin(), processes_.end(), p),
                   processes_.end());
}

}  // namespace vibe::sim
