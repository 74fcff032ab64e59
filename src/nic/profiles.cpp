#include "nic/profiles.hpp"

#include <stdexcept>

namespace vibe::nic {

using sim::msec;
using sim::usec;

NicProfile mviaProfile() {
  NicProfile p;
  p.name = "M-VIA (GigE)";

  // Host library + kernel-trap doorbell.
  p.viplCallOverhead = usec(0.25);
  p.postSendBase = usec(0.6);
  p.postSendPerSeg = usec(0.15);
  p.postRecvBase = usec(0.5);
  p.postRecvPerSeg = usec(0.15);
  p.doorbellCost = usec(2.5);  // int 0x80 + kernel entry
  p.pollCost = usec(0.08);
  p.blockingWakeupCost = usec(6);

  // Kernel-emulated data path: copy + per-frame protocol work on the host.
  p.hostCopyMBps = 230.0;  // PII-300 SDRAM memcpy
  p.hostPerFragCost = usec(5.5);
  p.hostRxProcessing = true;
  p.hostRxPerFragCost = usec(14.0);  // per-frame interrupt + driver + enqueue
  p.hostRxPerMsgCost = usec(1.0);

  p.pickup = DescriptorPickup::HostInline;
  p.nicPerMsgCost = usec(0.3);  // dumb Ethernet NIC: DMA descriptor only
  p.nicPerFragCost = usec(0.4);
  p.nicPerSegCost = 0;  // gather flattened by the kernel copy
  p.rxMatchCost = usec(0.3);
  p.completionWriteCost = usec(0.3);
  p.interruptCost = usec(9);

  p.translation = TranslationMode::HostCopy;
  p.translationPerPage = 0;  // bounce buffers are pre-translated

  p.dmaMBps = 110.0;
  p.dmaStartupCost = usec(0.6);
  p.mtu = 1500;  // Ethernet frame
  p.maxTransferSize = 65535;
  p.linkMBps = 125.0;  // 1 Gb/s
  p.linkPropagation = usec(0.6);
  p.linkHeaderBytes = 38;  // Ethernet + VIA encapsulation
  p.switchLatency = usec(2.0);  // store-and-forward GigE switch floor

  p.ackProcessingCost = usec(1.0);
  p.rtoBase = msec(2);
  p.sendWindowFrags = 32;
  p.supportsRdmaWrite = true;
  p.supportsRdmaRead = false;

  // Table 1 anchors.
  p.createViCost = usec(92);   // kernel object + queue allocation
  p.destroyViCost = usec(0.19);
  p.connectLocalCost = usec(4000);  // socket-based connection dialog
  p.connectRemoteCost = usec(2400);
  p.teardownCost = usec(3);
  p.createCqCost = usec(16);
  p.destroyCqCost = usec(8.4);
  p.cqCheckCost = usec(0.1);
  p.cqPostCost = 0;  // negligible (paper 4.3.3)

  // Fig. 1 / Fig. 2 anchors: cheap call, pinning cost per page.
  p.memRegBase = usec(4);
  p.memRegPerPage = usec(2.6);
  p.memDeregBase = usec(6);
  p.memDeregPerPage = usec(0.0006);

  return p;
}

NicProfile bviaProfile() {
  NicProfile p;
  p.name = "Berkeley VIA (Myrinet)";

  p.viplCallOverhead = usec(0.2);
  p.postSendBase = usec(0.5);
  p.postSendPerSeg = usec(0.1);
  p.postRecvBase = usec(0.4);
  p.postRecvPerSeg = usec(0.1);
  p.doorbellCost = usec(0.3);  // MMIO write into LANai memory
  p.pollCost = usec(0.08);
  p.blockingWakeupCost = usec(8);

  p.hostCopyMBps = 0;
  p.hostRxProcessing = false;

  // 37 MHz LANai firmware: slow per-message work, doorbell discovery scans
  // every active VI (Fig. 6 mechanism).
  p.pickup = DescriptorPickup::FirmwarePoll;
  p.firmwareBasePoll = usec(4.0);
  p.firmwarePollPerVi = usec(2.5);
  p.nicPerMsgCost = usec(13.0);
  p.nicPerFragCost = usec(4.5);
  p.nicPerSegCost = usec(1.2);
  p.rxMatchCost = usec(7.0);
  p.completionWriteCost = usec(4.0);
  p.interruptCost = usec(11);

  // Translation tables in host memory, NIC-side software cache (Fig. 5).
  p.translation = TranslationMode::NicTlbHostTable;
  p.tlbHitCost = usec(0.15);
  p.tlbMissCost = usec(22);  // miss interrupts the host: kernel walks the
                              // page table and installs the entry in NIC
                              // memory (BVIA software-managed cache)
  p.tlbEntries = 64;

  p.dmaMBps = 122.0;
  p.dmaStartupCost = usec(1.0);
  p.mtu = 2048;  // firmware staging buffers: DMA/wire pipeline per 2 KiB
  p.maxTransferSize = 32u << 20;
  p.linkMBps = 160.0;  // Myrinet 1.28 Gb/s
  p.linkPropagation = usec(0.4);
  p.linkHeaderBytes = 16;
  p.switchLatency = usec(0.5);  // cut-through Myrinet crossbar

  p.ackProcessingCost = usec(1.5);
  p.rtoBase = msec(2);
  p.sendWindowFrags = 32;
  p.supportsRdmaWrite = false;  // BVIA 2.2 implements send/recv only
  p.supportsRdmaRead = false;

  p.createViCost = usec(27);
  p.destroyViCost = usec(0.19);
  p.connectLocalCost = usec(260);
  p.connectRemoteCost = usec(210);
  p.teardownCost = usec(9);
  p.createCqCost = usec(205);  // CQ allocated in NIC memory
  p.destroyCqCost = usec(35);
  p.cqCheckCost = usec(0.12);
  p.cqPostCost = usec(2.5);  // firmware writes a second completion record

  p.memRegBase = usec(15);   // host<->firmware dialog to install the pages
  p.memRegPerPage = usec(0.9);
  p.memDeregBase = usec(14);
  p.memDeregPerPage = usec(0.0004);

  return p;
}

NicProfile clanProfile() {
  NicProfile p;
  p.name = "cLAN VIA (Giganet)";

  p.viplCallOverhead = usec(0.15);
  p.postSendBase = usec(0.35);
  p.postSendPerSeg = usec(0.08);
  p.postRecvBase = usec(0.3);
  p.postRecvPerSeg = usec(0.08);
  p.doorbellCost = usec(0.15);
  p.pollCost = usec(0.08);
  p.blockingWakeupCost = usec(6);

  p.hostCopyMBps = 0;
  p.hostRxProcessing = false;

  // Hardware VIA: immediate doorbells, fast fixed-function engine.
  p.pickup = DescriptorPickup::Immediate;
  p.nicPickupLatency = usec(0.6);
  p.nicPerMsgCost = usec(0.9);
  p.nicPerFragCost = usec(0.5);
  p.nicPerSegCost = usec(0.3);
  p.rxMatchCost = usec(0.6);
  p.completionWriteCost = usec(0.5);
  p.interruptCost = usec(7);

  p.translation = TranslationMode::NicSram;
  p.translationPerPage = usec(0.06);

  p.dmaMBps = 112.0;
  p.dmaStartupCost = usec(0.5);
  p.mtu = 2048;  // hardware-internal framing: DMA and wire pipeline per 2 KiB
  p.maxTransferSize = 65536;
  p.linkMBps = 156.0;  // 1.25 Gb/s cLAN link
  p.linkPropagation = usec(0.3);
  p.linkHeaderBytes = 8;
  p.switchLatency = usec(0.7);

  p.ackProcessingCost = usec(0.6);
  p.rtoBase = msec(1);
  p.sendWindowFrags = 64;
  p.supportsRdmaWrite = true;
  p.supportsRdmaRead = false;  // cLAN implements RDMA write only

  p.createViCost = usec(2.8);
  p.destroyViCost = usec(0.11);
  p.connectLocalCost = usec(1450);  // hardware connection state install
  p.connectRemoteCost = usec(990);
  p.teardownCost = usec(154);
  p.createCqCost = usec(53);
  p.destroyCqCost = usec(15);
  p.cqCheckCost = usec(0.1);
  p.cqPostCost = 0;

  p.memRegBase = usec(6);
  p.memRegPerPage = usec(1.5);
  p.memDeregBase = usec(7);
  p.memDeregPerPage = usec(0.0005);

  return p;
}

NicProfile firmviaProfile() {
  NicProfile p;
  p.name = "FirmVIA (IBM SP)";

  p.viplCallOverhead = usec(0.2);
  p.postSendBase = usec(0.4);
  p.postSendPerSeg = usec(0.1);
  p.postRecvBase = usec(0.35);
  p.postRecvPerSeg = usec(0.1);
  p.doorbellCost = usec(0.25);  // MMIO into adapter memory
  p.pollCost = usec(0.08);
  p.blockingWakeupCost = usec(7);

  p.hostCopyMBps = 0;
  p.hostRxProcessing = false;

  // Adapter firmware on a much faster microprocessor than LANai 4: polls
  // per-VI doorbells like BVIA but with far cheaper scans.
  p.pickup = DescriptorPickup::FirmwarePoll;
  p.firmwareBasePoll = usec(1.0);
  p.firmwarePollPerVi = usec(0.35);
  p.nicPerMsgCost = usec(3.5);
  p.nicPerFragCost = usec(1.2);
  p.nicPerSegCost = usec(0.5);
  p.rxMatchCost = usec(2.0);
  p.completionWriteCost = usec(1.0);
  p.interruptCost = usec(9);

  // Translation tables pinned in adapter memory: reuse-insensitive.
  p.translation = TranslationMode::NicSram;
  p.translationPerPage = usec(0.08);

  p.dmaMBps = 115.0;
  p.dmaStartupCost = usec(0.6);
  p.mtu = 2048;
  p.maxTransferSize = 65536;
  p.linkMBps = 150.0;  // SP switch link
  p.linkPropagation = usec(0.5);
  p.linkHeaderBytes = 16;
  p.switchLatency = usec(0.6);

  p.ackProcessingCost = usec(0.8);
  p.rtoBase = msec(1);
  p.sendWindowFrags = 64;
  p.supportsRdmaWrite = false;  // send/recv model only
  p.supportsRdmaRead = false;

  p.createViCost = usec(15);
  p.destroyViCost = usec(0.2);
  p.connectLocalCost = usec(380);
  p.connectRemoteCost = usec(300);
  p.teardownCost = usec(12);
  p.createCqCost = usec(60);
  p.destroyCqCost = usec(18);
  p.cqCheckCost = usec(0.1);
  p.cqPostCost = usec(0.8);

  p.memRegBase = usec(10);
  p.memRegPerPage = usec(1.1);
  p.memDeregBase = usec(9);
  p.memDeregPerPage = usec(0.0005);

  return p;
}

NicProfile ibaProfile() {
  NicProfile p;
  p.name = "InfiniBand HCA (4X)";

  p.viplCallOverhead = usec(0.08);
  p.postSendBase = usec(0.15);
  p.postSendPerSeg = usec(0.03);
  p.postRecvBase = usec(0.12);
  p.postRecvPerSeg = usec(0.03);
  p.doorbellCost = usec(0.08);
  p.pollCost = usec(0.04);
  p.blockingWakeupCost = usec(4);

  p.pickup = DescriptorPickup::Immediate;
  p.nicPickupLatency = usec(0.25);
  p.nicPerMsgCost = usec(0.35);
  p.nicPerFragCost = usec(0.15);
  p.nicPerSegCost = usec(0.1);
  p.rxMatchCost = usec(0.25);
  p.completionWriteCost = usec(0.2);
  p.interruptCost = usec(5);

  p.translation = TranslationMode::NicSram;
  p.translationPerPage = usec(0.02);

  // PCI-X 64-bit/133 MHz: ~1 GB/s; keep DMA just above the wire.
  p.dmaMBps = 900.0;
  p.dmaStartupCost = usec(0.2);
  p.mtu = 2048;  // IBA MTU
  p.maxTransferSize = 1u << 31;
  p.linkMBps = 1000.0;  // 4X SDR data rate (8 Gb/s signalling, 8b/10b)
  p.linkPropagation = usec(0.15);
  p.linkHeaderBytes = 30;  // LRH+BTH+ICRC/VCRC
  p.switchLatency = usec(0.2);

  p.ackProcessingCost = usec(0.2);
  p.rtoBase = msec(1);
  p.sendWindowFrags = 128;
  p.supportsRdmaWrite = true;
  p.supportsRdmaRead = true;  // IBA requires RDMA read on RC

  p.createViCost = usec(5);   // QP allocation through the kernel, cheap HCA
  p.destroyViCost = usec(0.3);
  p.connectLocalCost = usec(220);  // CM MAD dialogue
  p.connectRemoteCost = usec(180);
  p.teardownCost = usec(25);
  p.createCqCost = usec(12);
  p.destroyCqCost = usec(6);
  p.cqCheckCost = usec(0.04);
  p.cqPostCost = 0;

  p.memRegBase = usec(12);    // kernel pinning path
  p.memRegPerPage = usec(0.35);
  p.memDeregBase = usec(8);
  p.memDeregPerPage = usec(0.0005);

  return p;
}

void validateProfile(const NicProfile& p) {
  auto fail = [&](const std::string& what) {
    throw std::invalid_argument("profile '" + p.name + "': " + what);
  };
  if (p.rtoBackoffCap < 1) fail("rtoBackoffCap must be >= 1");
  if (p.rtoRetryBudget < 1) fail("rtoRetryBudget must be >= 1");
  if (p.rtoBase <= 0) fail("rtoBase must be positive");
  if (p.sendWindowFrags < 1) fail("sendWindowFrags must be >= 1");
  if (p.mtu < 1) fail("mtu must be >= 1");
  if (p.maxTransferSize < p.mtu) fail("maxTransferSize must be >= mtu");
  if (p.linkMBps <= 0.0) fail("linkMBps must be positive");
  if (p.dmaMBps <= 0.0) fail("dmaMBps must be positive");
}

NicProfile profileByName(const std::string& name) {
  NicProfile p;
  if (name == "mvia") p = mviaProfile();
  else if (name == "bvia") p = bviaProfile();
  else if (name == "clan") p = clanProfile();
  else if (name == "firmvia") p = firmviaProfile();
  else if (name == "iba") p = ibaProfile();
  else throw std::invalid_argument("unknown NIC profile: " + name);
  validateProfile(p);
  return p;
}

}  // namespace vibe::nic
