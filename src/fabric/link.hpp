// Point-to-point unidirectional link model.
//
// A link serializes frames at its bandwidth (FIFO through a Resource),
// then delivers each frame after a fixed propagation delay. Bernoulli loss
// can be injected for reliability testing; drops are counted. For
// fault-injection scenarios, time-bounded overrides can be scheduled:
// loss-rate windows (bursts, flaps, partitions), corruption windows
// (frames delivered with the corrupted flag set), and latency windows
// (extra propagation delay). All window decisions are evaluated at
// send() entry time, so they compose deterministically with the FIFO
// serialization model.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "fabric/packet.hpp"
#include "obs/span.hpp"
#include "simcore/engine.hpp"
#include "simcore/prng.hpp"
#include "simcore/resource.hpp"
#include "simcore/time.hpp"

namespace vibe::fabric {

struct LinkParams {
  double bandwidthMBps = 125.0;       // 1 Gb/s default
  sim::Duration propagation = 0;      // cable + PHY latency
  std::uint32_t headerBytes = 32;     // per-frame header/CRC on the wire
  double lossRate = 0.0;              // Bernoulli drop probability
  std::uint64_t seed = 1;             // loss PRNG seed
};

class Link {
 public:
  using Deliver = std::function<void(PacketPtr)>;

  Link(sim::Engine& engine, std::string name, const LinkParams& params)
      : engine_(engine),
        name_(std::move(name)),
        params_(params),
        tx_(name_ + ".tx"),
        rng_(params.seed, name_),
        corruptRng_(params.seed, name_ + "/corrupt") {}

  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  /// Sets the receive-side sink. Must be called before send().
  void connect(Deliver sink) { sink_ = std::move(sink); }

  /// Cross-domain delivery hook (conservative PDES): when set, the final
  /// delivery event is scheduled through `post(arrivalTime, fn)` — the
  /// topology wires this to ShardedEngine::sendAt — instead of the owning
  /// engine. Everything else (serialization FIFO, fault windows, stats)
  /// still runs in the sending domain. Setup-time only; nullptr clears.
  using RemotePost = std::function<void(sim::SimTime, sim::EventFn)>;
  void setRemoteDelivery(RemotePost post) { remote_ = std::move(post); }

  /// Queues a frame for transmission. Delivery happens at
  /// serialization-complete + propagation, unless the frame is dropped.
  void send(PacketPtr p);

  /// Attaches a span profiler: every delivered data-path frame emits a
  /// Wire span covering serialization + propagation (acks and connection
  /// management are excluded so stage attribution reflects the message
  /// path). Detach with nullptr; no-cost when detached.
  void setSpanProfiler(obs::SpanProfiler* spans) { spans_ = spans; }

  /// Changes the base loss rate mid-run (failure-injection tests).
  ///
  /// Timing semantics: the loss decision for a frame is made when send()
  /// is called for it, so the new rate applies only to frames sent after
  /// this call. Frames already serializing or propagating are unaffected —
  /// exactly like unplugging a cable cannot retroactively drop a frame
  /// that already left the NIC.
  void setLossRate(double rate) { params_.lossRate = rate; }

  /// Schedules a loss-rate override for virtual times [start, end).
  /// While a window covers the send() entry time, its rate replaces the
  /// base lossRate (rate=1.0 models a link-down flap or partition leg;
  /// rate=0.0 forces a loss-free window over a lossy base). Overlapping
  /// windows: the most recently scheduled one wins. Expired windows are
  /// pruned lazily. Like setLossRate, only frames sent inside the window
  /// are affected.
  void scheduleLossWindow(sim::SimTime start, sim::SimTime end, double rate);

  /// Schedules a corruption window for [start, end): frames sent while it
  /// covers now() are delivered with `Packet::corrupted` set with
  /// probability `rate`. Corruption draws from an independent PRNG stream,
  /// so scheduling it does not perturb the loss sequence. Connection-
  /// management frames are exempt (they ride the reliable dialog channel,
  /// same as the loss exemption).
  void scheduleCorruptWindow(sim::SimTime start, sim::SimTime end,
                             double rate);

  /// Schedules extra one-way latency for frames sent during [start, end)
  /// (a congestion / rerouting spike). Applies to every frame, including
  /// connection management: the extra delay models the wire itself.
  void scheduleLatencyWindow(sim::SimTime start, sim::SimTime end,
                             sim::Duration extra);

  /// Frames accepted but not yet fully serialized at `now` — the output
  /// buffer occupancy a switch consults before enqueueing (tail drop).
  /// Includes the frame currently on the wire.
  std::uint32_t queuedFrames(sim::SimTime now);

  const std::string& name() const { return name_; }
  double bandwidthMBps() const { return params_.bandwidthMBps; }
  std::uint32_t headerBytes() const { return params_.headerBytes; }
  std::uint64_t framesSent() const { return framesSent_; }
  std::uint64_t framesDropped() const { return framesDropped_; }
  /// Frames delivered with the corrupted flag set (the receiver counts
  /// and discards them; see Packet::corrupted).
  std::uint64_t framesCorrupted() const { return framesCorrupted_; }
  /// Cumulative serialization busy time (wire utilization numerator).
  sim::Duration busyTime() const { return tx_.busyTime(); }

 private:
  struct RateWindow {
    sim::SimTime start = 0;
    sim::SimTime end = 0;
    double rate = 0.0;
  };
  struct LatencyWindow {
    sim::SimTime start = 0;
    sim::SimTime end = 0;
    sim::Duration extra = 0;
  };

  /// Effective rate at `now`: the latest-scheduled window covering `now`,
  /// else `base`. Prunes windows that can no longer apply.
  static double effectiveRate(std::vector<RateWindow>& windows, double base,
                              sim::SimTime now);

  sim::Engine& engine_;
  std::string name_;
  LinkParams params_;
  sim::Resource tx_;
  sim::Xoshiro256 rng_;
  sim::Xoshiro256 corruptRng_;
  Deliver sink_;
  RemotePost remote_;
  obs::SpanProfiler* spans_ = nullptr;
  std::uint64_t framesSent_ = 0;
  std::uint64_t framesDropped_ = 0;
  std::uint64_t framesCorrupted_ = 0;
  // Scheduled in order; later entries override earlier ones on overlap.
  std::vector<RateWindow> lossWindows_;
  std::vector<RateWindow> corruptWindows_;
  std::vector<LatencyWindow> latencyWindows_;
  // Serialization-complete times of in-flight frames, ascending (FIFO
  // wire). Pruned lazily; size after pruning = buffer occupancy.
  std::deque<sim::SimTime> serEnds_;
};

}  // namespace vibe::fabric
