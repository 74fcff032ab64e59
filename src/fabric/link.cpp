#include "fabric/link.hpp"

#include <algorithm>
#include <memory>
#include <utility>

namespace vibe::fabric {

double Link::effectiveRate(std::vector<RateWindow>& windows, double base,
                           sim::SimTime now) {
  if (windows.empty()) return base;
  std::erase_if(windows, [now](const RateWindow& w) { return w.end <= now; });
  double rate = base;
  // Later entries were scheduled later: last covering window wins.
  for (const RateWindow& w : windows) {
    if (w.start <= now && now < w.end) rate = w.rate;
  }
  return rate;
}

void Link::scheduleLossWindow(sim::SimTime start, sim::SimTime end,
                              double rate) {
  if (end <= start) return;
  lossWindows_.push_back({start, end, rate});
}

void Link::scheduleCorruptWindow(sim::SimTime start, sim::SimTime end,
                                 double rate) {
  if (end <= start) return;
  corruptWindows_.push_back({start, end, rate});
}

void Link::scheduleLatencyWindow(sim::SimTime start, sim::SimTime end,
                                 sim::Duration extra) {
  if (end <= start) return;
  latencyWindows_.push_back({start, end, extra});
}

std::uint32_t Link::queuedFrames(sim::SimTime now) {
  while (!serEnds_.empty() && serEnds_.front() <= now) serEnds_.pop_front();
  return static_cast<std::uint32_t>(serEnds_.size());
}

void Link::send(PacketPtr p) {
  if (!sink_) throw sim::SimError("Link::send on unconnected link " + name_);
  const sim::SimTime now = engine_.now();
  const std::uint64_t wire = p->wireBytes(params_.headerBytes);
  const sim::Duration ser = sim::transferTime(wire, params_.bandwidthMBps);
  const sim::SimTime done = tx_.acquire(now, ser);
  while (!serEnds_.empty() && serEnds_.front() <= now) serEnds_.pop_front();
  serEnds_.push_back(done);
  ++framesSent_;
  // All fault decisions happen at send() entry time: with no windows
  // scheduled this reduces to exactly the base Bernoulli model, drawing
  // the same PRNG sequence (byte-identical runs).
  const double loss = effectiveRate(lossWindows_, params_.lossRate, now);
  if (loss > 0.0 && !isConnectionManagement(p->kind) && rng_.chance(loss)) {
    ++framesDropped_;
    return;  // the wire time is still consumed; the frame just never arrives
  }
  if (!corruptWindows_.empty() && !isConnectionManagement(p->kind)) {
    const double corrupt = effectiveRate(corruptWindows_, 0.0, now);
    if (corrupt > 0.0 && corruptRng_.chance(corrupt)) {
      ++framesCorrupted_;
      p->corrupted = true;  // delivered; the receiving NIC detects and drops
    }
  }
  sim::Duration prop = params_.propagation;
  if (!latencyWindows_.empty()) {
    std::erase_if(latencyWindows_,
                  [now](const LatencyWindow& w) { return w.end <= now; });
    for (const LatencyWindow& w : latencyWindows_) {
      if (w.start <= now && now < w.end) prop = params_.propagation + w.extra;
    }
  }
  if (spans_ != nullptr && p->kind != PacketKind::Ack &&
      !isConnectionManagement(p->kind)) {
    spans_->emit(obs::Stage::Wire, p->src, p->srcVi, now, done + prop, wire);
  }
  // The packet's box rides inside the event callback, which fits EventFn's
  // inline buffer, so delivery allocates nothing. A link whose receive
  // side lives in another PDES domain routes the delivery through the
  // cross-domain mailbox instead of its own engine; the arrival time
  // done + prop >= now + serialize(header) + propagation, so the
  // hop-lookahead bound is always paid.
  if (remote_) {
    remote_(done + prop,
            [this, p = std::move(p)]() mutable { sink_(std::move(p)); });
  } else {
    engine_.postAt(done + prop,
                   [this, p = std::move(p)]() mutable { sink_(std::move(p)); });
  }
}

}  // namespace vibe::fabric
