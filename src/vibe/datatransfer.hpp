// The data-transfer micro-benchmark core (paper §3.2).
//
// One parameterized ping-pong (latency + CPU utilization) and one
// parameterized streaming test (bandwidth) implement the whole family:
// every §3.2 micro-benchmark is the base configuration with exactly one
// knob changed — reap mode (polling/blocking/CQ/notify), buffer reuse
// percentage (address translation), number of active VIs, data-segment
// count, RDMA, reliability level, sender pipeline depth, max transfer size.
#pragma once

#include <cstdint>

#include "nic/work.hpp"
#include "vibe/cluster.hpp"

namespace vibe::suite {

/// How completions are discovered.
enum class ReapMode : std::uint8_t {
  Poll,     // spin on VipRecvDone/VipSendDone
  Block,    // VipRecvWait/VipSendWait
  PollCq,   // spin on VipCQDone, then the work queue Done
  BlockCq,  // VipCQWait
  Notify,   // asynchronous VipRecvNotify handler
};

struct TransferConfig {
  std::uint64_t msgBytes = 4;
  int iterations = 100;  // measured round trips / burst messages
  int warmup = 20;
  ReapMode reap = ReapMode::Poll;

  // Address-translation knobs (Fig. 5): a pool of `bufferPool` distinct
  // page-aligned buffers; (100 - reusePercent)% of iterations rotate to a
  // fresh pool buffer, the rest use buffer 0.
  int bufferPool = 1;
  int reusePercent = 100;

  int extraVis = 0;      // additional VIs created on both sides (Fig. 6)
  int dataSegments = 1;  // gather/scatter segment count per descriptor
  nic::Reliability reliability = nic::Reliability::ReliableDelivery;
  bool useRdmaWrite = false;  // RDMA write + immediate instead of send/recv
  std::uint32_t maxTransferSize = 0;  // 0 = provider default

  // Bandwidth-only knobs.
  int burst = 120;        // messages per streaming burst
  int pipelineDepth = 0;  // max outstanding sends; 0 = post the whole burst

  // Ping-pong only: reap the send completion before waiting for the reply
  // and record its latency. This exposes the reliability-level semantics:
  // Unreliable completes at local transmit, ReliableDelivery at the remote
  // NIC's receipt ack, ReliableReception at the memory-placement ack.
  bool measureSendCompletion = false;

  // Ping-pong only: node 0's peer. The default reproduces the classic
  // node0 <-> node1 run; hierarchical topologies use other peers to
  // measure same-edge vs same-pod vs cross-pod paths.
  std::uint32_t pingDst = 1;
};

struct TransferResult {
  double latencyUsec = 0;    // one-way: round-trip / 2 (ping-pong only)
  double latencyP50Usec = 0;  // per-iteration one-way percentiles
  double latencyP99Usec = 0;
  double latencyMaxUsec = 0;
  double bandwidthMBps = 0;  // streaming only
  double senderCpuPct = 0;
  double receiverCpuPct = 0;
  /// Mean post-to-completion time of the send descriptor, when
  /// measureSendCompletion is set.
  double sendCompletionUsec = 0;
  bool supported = true;  // false if the profile lacks the feature (RDMA)
};

/// Standard ping-pong between node 0 and node pingDst (1 by default) of a
/// fresh cluster.
TransferResult runPingPong(const ClusterConfig& cluster,
                           const TransferConfig& config);

/// Streaming bandwidth: node 0 blasts `burst` messages at node 1, then
/// waits for the receiver's acknowledgment message (paper §3.2.1).
TransferResult runBandwidth(const ClusterConfig& cluster,
                            const TransferConfig& config);

}  // namespace vibe::suite
