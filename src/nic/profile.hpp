// NicProfile: the complete cost/feature model of one VIA implementation.
//
// Every mechanism the VIBe suite probes is an explicit knob here. The three
// shipped profiles (profiles.hpp) model the paper's systems:
//   - M-VIA 1.0 on Gigabit Ethernet  (host-kernel emulation, copies)
//   - Berkeley VIA 2.2 on Myrinet    (NIC firmware, host-resident tables)
//   - cLAN VIA 1.3 on Giganet        (hardware VIA)
// Costs are virtual-time durations; bandwidths in MB/s (10^6 bytes/s).
#pragma once

#include <cstdint>
#include <string>

#include "simcore/time.hpp"

namespace vibe::nic {

/// How posted send descriptors reach the NIC's processing engine.
enum class DescriptorPickup : std::uint8_t {
  Immediate,      // hardware doorbell (cLAN): fixed pickup latency
  FirmwarePoll,   // firmware scans per-VI doorbells (BVIA): latency grows
                  // with the number of active VIs
  HostInline,     // the doorbell is a kernel trap that performs the send
                  // processing on the host CPU (M-VIA)
};

/// Where virtual-to-physical translation happens (CANPC'00 taxonomy).
enum class TranslationMode : std::uint8_t {
  NicSram,          // tables in NIC memory, NIC translates (cLAN)
  NicTlbHostTable,  // tables in host memory, NIC translates through a
                    // software-managed translation cache (BVIA)
  HostCopy,         // kernel copies through pre-pinned bounce buffers; user
                    // page translation is off the fast path (M-VIA)
};

struct NicProfile {
  std::string name = "generic";

  // --- host-side library costs (charged to the calling process) ---
  sim::Duration viplCallOverhead = sim::usec(0.2);  // user-library entry
  sim::Duration postSendBase = sim::usec(0.3);      // build + queue descriptor
  sim::Duration postSendPerSeg = sim::usec(0.05);
  sim::Duration postRecvBase = sim::usec(0.25);
  sim::Duration postRecvPerSeg = sim::usec(0.05);
  sim::Duration doorbellCost = sim::usec(0.2);      // MMIO store / kernel trap
  sim::Duration pollCost = sim::usec(0.1);          // one Done() check
  sim::Duration blockingWakeupCost = sim::usec(4);  // schedule-in after wait

  // --- host kernel data path (M-VIA style; 0/false elsewhere) ---
  // (pickup == HostInline runs the send path in the doorbell trap.)
  double hostCopyMBps = 0.0;              // user<->kernel copy bandwidth
  sim::Duration hostPerFragCost = 0;      // kernel per-fragment overhead (tx)
  bool hostRxProcessing = false;          // RX needs kernel ISR + copy
  sim::Duration hostRxPerFragCost = 0;    // ISR work per fragment
  sim::Duration hostRxPerMsgCost = 0;     // per-message kernel RX overhead

  // --- NIC processing engine ---
  DescriptorPickup pickup = DescriptorPickup::Immediate;
  sim::Duration nicPickupLatency = sim::usec(1);  // Immediate mode
  sim::Duration firmwareBasePoll = sim::usec(1);  // FirmwarePoll loop overhead
  sim::Duration firmwarePollPerVi = sim::usec(1); // ... per active VI scanned
  sim::Duration nicPerMsgCost = sim::usec(1);     // per message on the NIC
  sim::Duration nicPerFragCost = sim::usec(0.5);  // per fragment on the NIC
  sim::Duration nicPerSegCost = sim::usec(0.3);   // per gather/scatter segment
  sim::Duration rxMatchCost = sim::usec(0.5);     // match msg to posted recv
  sim::Duration completionWriteCost = sim::usec(0.5);  // status writeback
  sim::Duration interruptCost = sim::usec(7);     // IRQ + ISR + wakeup path

  // --- address translation ---
  TranslationMode translation = TranslationMode::NicSram;
  /// Host-side translation performed by the library at post time (the
  /// "host translates" quadrant of the CANPC'00 design-choice taxonomy);
  /// charged per page of every posted segment. 0 for NIC-side schemes.
  sim::Duration hostTranslationPerPage = 0;
  sim::Duration translationPerPage = sim::usec(0.05);  // NicSram table walk
  sim::Duration tlbHitCost = sim::usec(0.05);
  sim::Duration tlbMissCost = sim::usec(2.0);  // PTE fetch across PCI
  std::size_t tlbEntries = 64;

  // --- DMA engine (PCI bus, shared between directions) ---
  double dmaMBps = 110.0;                    // 32-bit/33 MHz PCI realistic
  sim::Duration dmaStartupCost = sim::usec(0.5);

  // --- wire ---
  std::uint32_t mtu = 4096;           // fragment payload limit
  std::uint32_t maxTransferSize = 32u << 20;  // VI MaxTransferSize attribute
  double linkMBps = 125.0;
  sim::Duration linkPropagation = sim::usec(0.5);
  std::uint32_t linkHeaderBytes = 32;
  sim::Duration switchLatency = sim::usec(0.5);

  // --- reliability engine ---
  sim::Duration ackProcessingCost = sim::usec(0.5);
  sim::Duration rtoBase = sim::msec(1);  // go-back-N retransmit timeout
  std::uint32_t sendWindowFrags = 64;    // in-flight fragments (RD/RR)
  /// Consecutive no-progress retransmission timeouts tolerated before the
  /// connection is declared dead and torn down with ConnectionLost. With
  /// rtoBase=1ms, rtoBackoffCap=8 and the 2x backoff this is ~119ms of
  /// total silence — far beyond anything Bernoulli loss produces, so only
  /// a genuine partition (or an injected one) trips it.
  std::uint32_t rtoRetryBudget = 16;
  /// Ceiling on the exponential RTO backoff multiplier: successive
  /// no-progress timeouts double the multiplier (1, 2, 4, ...) up to this
  /// cap, so worst-case silence before ConnectionLost is roughly
  /// rtoBase * (sum of the doubling ramp + (budget - ramp) * cap).
  /// Recovery benches sweep this; must be >= 1 (validateProfile).
  std::uint32_t rtoBackoffCap = 8;
  bool supportsRdmaWrite = true;
  bool supportsRdmaRead = false;

  // --- non-data-transfer operation costs (Table 1) ---
  sim::Duration createViCost = sim::usec(10);
  sim::Duration destroyViCost = sim::usec(0.2);
  sim::Duration connectLocalCost = sim::usec(100);   // requester-side setup
  sim::Duration connectRemoteCost = sim::usec(100);  // acceptor-side setup
  sim::Duration teardownCost = sim::usec(5);
  sim::Duration createCqCost = sim::usec(20);
  sim::Duration destroyCqCost = sim::usec(10);
  sim::Duration cqCheckCost = sim::usec(0.1);   // one CQDone() check
  sim::Duration cqPostCost = 0;                 // extra latency adding to a CQ

  // --- memory registration cost model (Fig. 1 / Fig. 2) ---
  sim::Duration memRegBase = sim::usec(5);
  sim::Duration memRegPerPage = sim::usec(0.3);
  sim::Duration memDeregBase = sim::usec(2);
  sim::Duration memDeregPerPage = sim::usec(0.05);

  /// Kernel copy time for `bytes` at hostCopyMBps (0 when no copy path).
  sim::Duration hostCopyTime(std::uint64_t bytes) const {
    if (hostCopyMBps <= 0.0) return 0;
    return sim::transferTime(bytes, hostCopyMBps);
  }
  sim::Duration dmaTime(std::uint64_t bytes) const {
    return dmaStartupCost + sim::transferTime(bytes, dmaMBps);
  }
};

}  // namespace vibe::nic
