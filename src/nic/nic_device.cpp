#include "nic/nic_device.hpp"

#include <algorithm>
#include <cassert>
#include <memory>
#include <span>
#include <utility>

namespace vibe::nic {

namespace {

std::uint32_t fragCountFor(std::uint64_t bytes, std::uint32_t mtu) {
  if (bytes == 0) return 1;  // immediate-only / zero-byte messages
  return static_cast<std::uint32_t>((bytes + mtu - 1) / mtu);
}

/// Where fragment `i` of a message lies in it: every fragment but the
/// last carries one MTU.
struct FragmentRange {
  std::uint64_t offset;
  std::size_t bytes;
};

FragmentRange fragmentRange(const fabric::Packet& head, std::uint32_t i,
                            std::uint32_t mtu) {
  const std::uint64_t offset = std::uint64_t{i} * mtu;
  return {offset, static_cast<std::size_t>(
                      std::min<std::uint64_t>(mtu, head.msgBytes - offset))};
}

/// Copies message bytes [offset, offset + out.size()) out of the
/// descriptor's segments.
void gatherRead(const mem::HostMemory& memory,
                const std::vector<SegmentView>& segments, std::uint64_t offset,
                std::span<std::byte> out) {
  std::uint64_t segStart = 0;
  std::uint64_t outPos = 0;
  for (const auto& seg : segments) {
    if (outPos >= out.size()) break;
    const std::uint64_t segEnd = segStart + seg.length;
    if (offset < segEnd) {
      const std::uint64_t inSeg = offset - segStart;
      const std::uint64_t chunk =
          std::min<std::uint64_t>(seg.length - inSeg, out.size() - outPos);
      memory.read(seg.addr + inSeg, out.subspan(outPos, chunk));
      outPos += chunk;
      offset += chunk;
    }
    segStart = segEnd;
  }
}

/// Scatters `data` (which starts at message offset `offset`) into the
/// descriptor's segments.
void scatterWrite(mem::HostMemory& memory,
                  const std::vector<SegmentView>& segments,
                  std::uint64_t offset, std::span<const std::byte> data) {
  std::uint64_t segStart = 0;
  std::uint64_t dataPos = 0;
  for (const auto& seg : segments) {
    const std::uint64_t segEnd = segStart + seg.length;
    if (offset < segEnd && dataPos < data.size()) {
      const std::uint64_t inSeg = offset - segStart;
      const std::uint64_t room = seg.length - inSeg;
      const std::uint64_t chunk =
          std::min<std::uint64_t>(room, data.size() - dataPos);
      memory.write(seg.addr + inSeg, data.subspan(dataPos, chunk));
      dataPos += chunk;
      offset += chunk;
    }
    segStart = segEnd;
    if (dataPos >= data.size()) break;
  }
}

}  // namespace

const char* toString(Reliability r) {
  switch (r) {
    case Reliability::Unreliable: return "Unreliable";
    case Reliability::ReliableDelivery: return "ReliableDelivery";
    case Reliability::ReliableReception: return "ReliableReception";
  }
  return "Unknown";
}

const char* toString(WorkStatus s) {
  switch (s) {
    case WorkStatus::Ok: return "Ok";
    case WorkStatus::LengthError: return "LengthError";
    case WorkStatus::ProtectionError: return "ProtectionError";
    case WorkStatus::PartialMessage: return "PartialMessage";
    case WorkStatus::ConnectionLost: return "ConnectionLost";
    case WorkStatus::Aborted: return "Aborted";
    case WorkStatus::NoDescriptor: return "NoDescriptor";
  }
  return "Unknown";
}

NicDevice::NicDevice(sim::Engine& engine, fabric::Topology& net, NodeId node,
                     const NicProfile& profile, mem::MemoryRegistry& registry,
                     mem::HostMemory& memory)
    : engine_(engine),
      net_(net),
      node_(node),
      profile_(profile),
      registry_(registry),
      memory_(memory),
      tlb_(profile.tlbEntries),
      nicProc_("nic" + std::to_string(node) + ".proc"),
      dma_("nic" + std::to_string(node) + ".dma"),
      hostKernel_("nic" + std::to_string(node) + ".kernel") {
  net_.setReceiver(node_, [this](PacketPtr p) { handleRx(std::move(p)); });
}

NicDevice::Endpoint& NicDevice::ep(ViEndpointId id) {
  auto it = endpoints_.find(id);
  if (it == endpoints_.end() || !it->second->active) {
    throw sim::SimError("NicDevice: unknown endpoint " + std::to_string(id));
  }
  return *it->second;
}

NicDevice::Endpoint* NicDevice::epIfActive(ViEndpointId id) {
  auto it = endpoints_.find(id);
  return (it != endpoints_.end() && it->second->active) ? it->second.get()
                                                        : nullptr;
}

void NicDevice::chargeCaller(sim::Duration d) {
  if (d <= 0) return;
  if (sim::Process* p = engine_.currentProcess()) {
    p->advance(d);
  } else {
    // No process context (resumed from an event, e.g. window reopened by an
    // ack): the work still serializes on the host kernel.
    hostKernel_.acquire(engine_.now(), d);
  }
}

void NicDevice::postCompletion(ViEndpointId id, Completion c, sim::SimTime at) {
  sim::trace(tracer_, at, sim::TraceCategory::Completion, node_, [&] {
    return std::string(c.isSend ? "send" : "recv") + " completion vi=" +
           std::to_string(id) + " status=" + toString(c.status);
  });
  engine_.postAt(at, [this, id, c = std::move(c)]() mutable {
    if (handlers_.completion) handlers_.completion(id, std::move(c));
  });
}

std::size_t NicDevice::txBacklog() const {
  std::size_t n = 0;
  for (const auto& [id, e] : endpoints_) {
    if (e->active) n += e->sendQ.size() + e->unacked.size();
  }
  return n;
}

std::size_t NicDevice::rxBacklog() const {
  std::size_t n = 0;
  for (const auto& [id, e] : endpoints_) {
    if (e->active) n += e->recvQ.size();
  }
  return n;
}

ViEndpointId NicDevice::createEndpoint(mem::PtagId ptag) {
  const ViEndpointId id = nextEndpoint_++;
  auto e = std::make_unique<Endpoint>();
  e->active = true;
  e->ptag = ptag;
  endpoints_.emplace(id, std::move(e));
  ++activeEndpoints_;
  return id;
}

void NicDevice::destroyEndpoint(ViEndpointId id) {
  Endpoint& e = ep(id);
  sim::trace(tracer_, engine_.now(), sim::TraceCategory::Connection, node_,
             [&] { return "destroy vi=" + std::to_string(id); });
  flushEndpoint(id, e, WorkStatus::Aborted);
  e.active = false;
  e.connected = false;
  --activeEndpoints_;
}

void NicDevice::configureConnection(ViEndpointId id, NodeId remoteNode,
                                    ViEndpointId remoteVi, Reliability rel,
                                    std::uint32_t mtu, std::uint32_t epoch) {
  Endpoint& e = ep(id);
  e.connected = true;
  e.broken = false;
  e.remoteNode = remoteNode;
  e.remoteVi = remoteVi;
  e.rel = rel;
  e.mtu = std::min(mtu, profile_.mtu);
  e.txMsgSeq = 0;
  e.txFragSeq = 0;
  e.ackedFragSeq = 0;
  e.placedFragSeq = 0;
  e.rxNextFragSeq = 1;
  e.rxPlacedFragSeq = 0;
  e.rtoBackoff = 1;
  e.rtoStrikes = 0;
  sim::trace(tracer_, engine_.now(), sim::TraceCategory::Connection, node_,
             [&] {
               return "configure vi=" + std::to_string(id) + " remote=" +
                      std::to_string(remoteNode) + "/" +
                      std::to_string(remoteVi) + " rel=" + toString(rel) +
                      " epoch=" + std::to_string(epoch);
             });
}

void NicDevice::teardownConnection(ViEndpointId id) {
  Endpoint& e = ep(id);
  // Trace before the flush so the Aborted completions it generates appear
  // after the teardown mark in the stream (invariant checkers rely on it).
  sim::trace(tracer_, engine_.now(), sim::TraceCategory::Connection, node_,
             [&] { return "teardown vi=" + std::to_string(id); });
  flushEndpoint(id, e, WorkStatus::Aborted);
  e.connected = false;
}

void NicDevice::flushEndpoint(ViEndpointId id, Endpoint& e,
                              WorkStatus status) {
  cancelRto(e);
  const sim::SimTime now = engine_.now();
  auto flushOne = [&](std::uint64_t cookie, bool isSend) {
    postCompletion(id, {.cookie = cookie, .isSend = isSend, .status = status},
                   now);
  };
  for (const auto& wr : e.sendQ) flushOne(wr.cookie, true);
  e.sendQ.clear();
  for (const auto& pc : e.awaitingAck) flushOne(pc.cookie, true);
  e.awaitingAck.clear();
  e.unacked.clear();
  for (const auto& wr : e.recvQ) flushOne(wr.cookie, false);
  e.recvQ.clear();
  for (const auto& [token, wr] : e.pendingReads) flushOne(wr.cookie, true);
  e.pendingReads.clear();
  if (e.reasm) e.reasm->discard = true;
  e.reasm.reset();
}

void NicDevice::breakConnection(ViEndpointId id, Endpoint& e, WorkStatus why) {
  if (e.broken) return;
  e.broken = true;
  ++stats_.protocolErrors;
  sim::trace(tracer_, engine_.now(), sim::TraceCategory::Connection, node_,
             [&] {
               return "break vi=" + std::to_string(id) + " why=" +
                      toString(why);
             });
  flushEndpoint(id, e, why);
  if (handlers_.connectionError) {
    engine_.post(0, [this, id, why] { handlers_.connectionError(id, why); });
  }
}

// ---------------------------------------------------------------------------
// Send path
// ---------------------------------------------------------------------------

sim::Duration NicDevice::translationCost(const std::vector<SegmentView>& segs) {
  sim::Duration total = 0;
  for (const auto& seg : segs) total += translationCostRange(seg.addr, seg.length);
  return total;
}

sim::Duration NicDevice::translationCostRange(mem::VirtAddr va,
                                              std::uint64_t len) {
  const std::uint32_t pages = mem::pagesSpanned(va, len);
  switch (profile_.translation) {
    case TranslationMode::HostCopy:
      return 0;  // bounce buffers are pre-translated
    case TranslationMode::NicSram:
      return profile_.translationPerPage * pages;
    case TranslationMode::NicTlbHostTable: {
      sim::Duration total = 0;
      const std::uint64_t first = mem::pageOf(va);
      for (std::uint32_t i = 0; i < pages; ++i) {
        if (tlb_.lookup(first + i)) {
          total += profile_.tlbHitCost;
        } else {
          total += profile_.tlbMissCost;
          // Servicing the miss fetches the entry across the PCI bus, so it
          // also occupies the DMA engine — at low buffer reuse this is what
          // collapses streaming bandwidth, not just latency (Fig. 5).
          dma_.acquire(engine_.now(), profile_.tlbMissCost);
          tlb_.insert(first + i);
          sim::trace(tracer_, engine_.now(), sim::TraceCategory::Translation,
                     node_, [&] {
                       return "tlb miss page=" + std::to_string(first + i);
                     });
        }
      }
      return total;
    }
  }
  return 0;
}

void NicDevice::postSend(ViEndpointId id, WorkRequest&& wr) {
  Endpoint& e = ep(id);
  if (!e.open()) {
    failSend(id, e, wr.cookie);
    return;
  }
  ++stats_.sendsPosted;
  sim::trace(tracer_, engine_.now(), sim::TraceCategory::Doorbell, node_,
             [&] {
               return "post send vi=" + std::to_string(id) + " bytes=" +
                      std::to_string(wr.totalBytes());
             });
  e.sendQ.push_back(std::move(wr));
  tryProcessSendQueue(id);
}

void NicDevice::postRecv(ViEndpointId id, WorkRequest&& wr) {
  Endpoint& e = ep(id);
  ++stats_.recvsPosted;
  e.recvQ.push_back(std::move(wr));
}

void NicDevice::tryProcessSendQueue(ViEndpointId id) {
  Endpoint* e = epIfActive(id);
  if (e == nullptr || e->txBusy) return;
  while (!e->sendQ.empty() && e->open()) {
    const bool reliable = e->rel != Reliability::Unreliable;
    if (reliable && e->unacked.size() >= profile_.sendWindowFrags) {
      break;  // window closed; acks reopen the queue via drainAcked()
    }
    WorkRequest wr = std::move(e->sendQ.front());
    e->sendQ.pop_front();
    if (wr.op == WorkOp::RdmaRead) {
      auto req = std::make_unique<Packet>(
          packetTo(fabric::PacketKind::RdmaReadReq, id, *e));
      req->remoteAddr = wr.remoteAddr;
      req->remoteHandle = wr.remoteHandle;
      req->msgBytes = wr.totalBytes();
      req->conn.token = e->nextReadToken++;
      req->fragSeq = ++e->txFragSeq;
      req->postedAt = wr.postedAt;
      e->pendingReads.emplace(req->conn.token, std::move(wr));
      launch(*e, std::move(req),
             nicProc_.acquire(engine_.now(), profile_.nicPerMsgCost +
                                                 profile_.nicPerFragCost),
             /*probe=*/false);
      if (reliable) armRto(id, *e);
      continue;
    }
    if (profile_.pickup == DescriptorPickup::HostInline) {
      processSendWrHostInline(id, *e, std::move(wr));
      // advance() may have run events that mutated the endpoint table.
      e = epIfActive(id);
      if (e == nullptr) return;
    } else {
      processSendWr(id, *e, std::move(wr));
    }
  }
}

void NicDevice::processSendWr(ViEndpointId id, Endpoint& e, WorkRequest wr) {
  // Discovery latency: how the NIC learns about the rung doorbell.
  sim::Duration discovery = 0;
  switch (profile_.pickup) {
    case DescriptorPickup::Immediate:
      discovery = profile_.nicPickupLatency;
      break;
    case DescriptorPickup::FirmwarePoll:
      // One firmware scan over every active VI finds the doorbell; this is
      // the Fig. 6 mechanism (latency grows with the number of VIs).
      discovery = profile_.firmwareBasePoll +
                  profile_.firmwarePollPerVi *
                      static_cast<sim::Duration>(activeEndpoints_);
      break;
    case DescriptorPickup::HostInline:
      break;  // handled in processSendWrHostInline
  }
  if (spans_ != nullptr && discovery > 0) {
    // Doorbell discovery occupies the head of the first fragment's NIC
    // service; it is attributed here and excluded from that fragment's
    // NicTx span, so the stages tile.
    spans_->emit(obs::Stage::Doorbell, node_, id, engine_.now(),
                 engine_.now() + discovery, wr.totalBytes());
  }
  const sim::Duration firstExtra =
      discovery + profile_.nicPerMsgCost +
      profile_.nicPerSegCost * static_cast<sim::Duration>(wr.segments.size()) +
      translationCost(wr.segments);
  const Packet head = messageHeader(id, e, wr);
  sim::SimTime lastDma = engine_.now();
  for (std::uint32_t i = 0; i < head.fragCount; ++i) {
    // Each fragment reads its bytes from host memory as the NIC builds
    // it; nothing runs between fragments, so this equals a snapshot of
    // the whole message at pickup.
    const FragmentRange r = fragmentRange(head, i, e.mtu);
    PacketPtr p = fragment(
        head, i, e,
        fabric::Payload::build(r.bytes, [&](std::span<std::byte> out) {
          gatherRead(memory_, wr.segments, r.offset, out);
        }));
    const sim::Duration service =
        profile_.nicPerFragCost + (i == 0 ? firstExtra : 0);
    const sim::SimTime tProc = nicProc_.acquire(engine_.now(), service);
    lastDma = dma_.acquire(tProc, profile_.dmaTime(p->payload.size()));
    if (spans_ != nullptr) {
      // The NIC service interval starts at tProc - service; the first
      // fragment's head is doorbell discovery, already attributed to the
      // Doorbell stage, so the NicTx span starts after it.
      const sim::SimTime segStart = tProc - service + (i == 0 ? discovery : 0);
      spans_->emit(obs::Stage::NicTx, node_, id, segStart, lastDma,
                   p->payload.size());
    }
    sim::trace(tracer_, lastDma, sim::TraceCategory::Wire, node_, [&] {
      return "frag " + std::to_string(i + 1) + "/" +
             std::to_string(head.fragCount) + " seq=" +
             std::to_string(p->fragSeq) + " vi=" + std::to_string(id);
    });
    launch(e, std::move(p), lastDma, /*probe=*/i + 1 == head.fragCount);
  }
  // Unreliable: complete when the last fragment leaves host memory.
  finishSend(id, e, wr.cookie, lastDma + profile_.completionWriteCost);
}

void NicDevice::processSendWrHostInline(ViEndpointId id, Endpoint& e,
                                        WorkRequest wr) {
  // M-VIA: the doorbell trap runs the whole send path in the kernel —
  // fragment, copy into pre-pinned kernel buffers, hand frames to a dumb
  // Ethernet NIC. The caller is blocked (and its CPU busy) throughout.
  e.txBusy = true;
  // The kernel copies the whole message at the trap, into one block that
  // its fragments share: fragments sent after the caller's CPU time was
  // charged still carry the bytes it posted.
  const fabric::Payload msg = fabric::Payload::build(
      wr.totalBytes(), [&](std::span<std::byte> out) {
        gatherRead(memory_, wr.segments, 0, out);
      });
  const Packet head = messageHeader(id, e, wr);
  for (std::uint32_t i = 0; i < head.fragCount; ++i) {
    const sim::SimTime tKernelStart = engine_.now();
    const FragmentRange r = fragmentRange(head, i, e.mtu);
    chargeCaller(profile_.hostPerFragCost + profile_.hostCopyTime(r.bytes));
    if (!e.open()) {
      // The charge ran a teardown or break: stop sending into it.
      e.txBusy = false;
      failSend(id, e, wr.cookie);
      return;
    }
    PacketPtr p = fragment(head, i, e, msg.slice(r.offset, r.bytes));
    const sim::SimTime tNic = nicProc_.acquire(
        engine_.now(),
        profile_.nicPerFragCost + (i == 0 ? profile_.nicPerMsgCost : 0));
    const sim::SimTime tDma =
        dma_.acquire(tNic, profile_.dmaTime(p->payload.size()));
    if (spans_ != nullptr) {
      // Host-inline tx: kernel copy + NIC handoff + DMA, one span per frag.
      spans_->emit(obs::Stage::NicTx, node_, id, tKernelStart, tDma,
                   p->payload.size());
    }
    // Events run between these fragments: each is the probe until the next.
    launch(e, std::move(p), tDma, /*probe=*/true);
  }
  e.txBusy = false;
  // Unreliable: the send is complete once the kernel owns the data.
  finishSend(id, e, wr.cookie, engine_.now() + profile_.completionWriteCost);
}

// ---------------------------------------------------------------------------
// The fragment builder
// ---------------------------------------------------------------------------

Packet NicDevice::packetTo(fabric::PacketKind kind, ViEndpointId id,
                           const Endpoint& e) const {
  Packet p;
  p.kind = kind;
  p.src = node_;
  p.dst = e.remoteNode;
  p.srcVi = id;
  p.dstVi = e.remoteVi;
  return p;
}

Packet NicDevice::messageHeader(fabric::PacketKind kind, ViEndpointId id,
                                Endpoint& e, std::uint64_t bytes) {
  Packet head = packetTo(kind, id, e);
  head.msgSeq = e.txMsgSeq++;
  head.fragCount = fragCountFor(bytes, e.mtu);
  head.msgBytes = bytes;
  return head;
}

Packet NicDevice::messageHeader(ViEndpointId id, Endpoint& e,
                                const WorkRequest& wr) {
  Packet head = messageHeader(wr.op == WorkOp::RdmaWrite
                                  ? fabric::PacketKind::RdmaWrite
                                  : fabric::PacketKind::Data,
                              id, e, wr.totalBytes());
  head.hasImmediate = wr.hasImmediate;
  head.immediate = wr.immediate;
  head.remoteAddr = wr.remoteAddr;
  head.remoteHandle = wr.remoteHandle;
  head.postedAt = wr.postedAt;
  return head;
}

PacketPtr NicDevice::fragment(const Packet& head, std::uint32_t i, Endpoint& e,
                              fabric::Payload payload) {
  const FragmentRange r = fragmentRange(head, i, e.mtu);
  assert(payload.size() == r.bytes);
  auto p = std::make_unique<Packet>(head);
  p->fragIndex = i;
  p->offset = r.offset;
  p->fragSeq = ++e.txFragSeq;
  p->payload = std::move(payload);
  return p;
}

void NicDevice::launch(Endpoint& e, PacketPtr p, sim::SimTime at, bool probe) {
  if (e.rel != Reliability::Unreliable) {
    e.unacked.push_back(*p);
    if (probe) e.lastFrag = *p;
  }
  ++stats_.fragsTx;
  stats_.bytesTx += p->payload.size();
  transmit(std::move(p), at);
}

void NicDevice::transmit(PacketPtr p, sim::SimTime at) {
  engine_.postAt(
      at, [this, p = std::move(p)]() mutable { net_.send(std::move(p)); });
}

void NicDevice::failSend(ViEndpointId id, const Endpoint& e,
                         std::uint64_t cookie) {
  const WorkStatus why =
      e.broken ? WorkStatus::ConnectionLost : WorkStatus::Aborted;
  postCompletion(id, {.cookie = cookie, .status = why}, engine_.now());
}

void NicDevice::finishSend(ViEndpointId id, Endpoint& e, std::uint64_t cookie,
                           sim::SimTime done) {
  if (e.rel == Reliability::Unreliable) {
    postCompletion(id, {.cookie = cookie}, done);
    return;
  }
  e.awaitingAck.push_back(
      {e.txFragSeq, cookie, e.rel == Reliability::ReliableReception});
  armRto(id, e);
}

// ---------------------------------------------------------------------------
// Receive path
// ---------------------------------------------------------------------------

void NicDevice::handleRx(PacketPtr p) {
  if (p->corrupted) {
    // CRC failure: the frame is discarded before any protocol processing,
    // exactly like a wire loss except that the receiving NIC observed it.
    // The reliability layer recovers through the normal RTO path.
    ++stats_.rxCorrupted;
    sim::trace(tracer_, engine_.now(), sim::TraceCategory::Rx, node_, [&] {
      return "corrupt frame dropped seq=" + std::to_string(p->fragSeq) +
             " vi=" + std::to_string(p->dstVi);
    });
    return;
  }
  switch (p->kind) {
    case fabric::PacketKind::ConnRequest:
    case fabric::PacketKind::ConnAccept:
    case fabric::PacketKind::ConnReject:
    case fabric::PacketKind::Disconnect:
      if (handlers_.control) handlers_.control(std::move(*p));
      return;
    case fabric::PacketKind::Ack:
      handleAck(*p);
      return;
    case fabric::PacketKind::RdmaReadReq:
    case fabric::PacketKind::Data:
    case fabric::PacketKind::RdmaWrite:
    case fabric::PacketKind::RdmaReadResp:
      handleData(std::move(p));
      return;
  }
}

void NicDevice::handleData(PacketPtr p) {
  Endpoint* eptr = epIfActive(p->dstVi);
  if (eptr == nullptr || !eptr->open()) {
    ++stats_.rxDroppedBadEndpoint;
    return;
  }
  Endpoint& e = *eptr;
  const ViEndpointId id = p->dstVi;
  ++stats_.fragsRx;
  stats_.bytesRx += p->payload.size();
  sim::trace(tracer_, engine_.now(), sim::TraceCategory::Rx, node_, [&] {
    return "frag seq=" + std::to_string(p->fragSeq) + " msg=" +
           std::to_string(p->msgSeq) + " vi=" + std::to_string(id);
  });

  if (e.rel != Reliability::Unreliable) {
    if (p->fragSeq < e.rxNextFragSeq) {
      sendAck(id, e);  // duplicate from a retransmission burst
      return;
    }
    if (p->fragSeq > e.rxNextFragSeq) {
      ++stats_.rxOutOfOrderDropped;  // gap: go-back-N, dup-ack
      sendAck(id, e);
      return;
    }
    ++e.rxNextFragSeq;
  }

  if (p->kind == fabric::PacketKind::RdmaReadReq) {
    handleRdmaRead(*p);
    return;
  }
  acceptFragment(id, e, std::move(p));
}

void NicDevice::acceptFragment(ViEndpointId id, Endpoint& e, PacketPtr p) {
  if (e.reasm && (p->msgSeq != e.reasm->msgSeq || p->kind != e.reasm->kind)) {
    // A new message started while the previous was incomplete: the old one
    // lost its tail (only possible on unreliable connections).
    Reassembly& old = *e.reasm;
    if (old.haveDescriptor && !old.discard &&
        old.kind == fabric::PacketKind::Data) {
      postCompletion(id,
                     {.cookie = old.desc.cookie,
                      .isSend = false,
                      .status = WorkStatus::PartialMessage},
                     engine_.now());
    }
    old.discard = true;  // pending placement events become no-ops
    e.reasm.reset();
  }

  if (!e.reasm) {
    if (p->fragIndex != 0) {
      // Tail of a message whose head was lost; swallow silently.
      ++stats_.rxOutOfOrderDropped;
      return;
    }
    e.reasm = beginMessage(id, e, *p);
    if (!e.reasm) return;  // connection broke (reliable NoDescriptor)
  } else if (p->fragIndex != e.reasm->fragsSeen) {
    // Mid-message loss on an unreliable connection: poison the assembly.
    e.reasm->discard = true;
    e.reasm->errorStatus = WorkStatus::PartialMessage;
  }

  std::shared_ptr<Reassembly> r = e.reasm;
  r->fragsSeen = std::max(r->fragsSeen, p->fragIndex + 1);
  r->lastFragSeq = p->fragSeq;
  const bool last = r->fragsSeen == r->fragCount;
  if (last) {
    e.reasm.reset();  // arrival side done; placements continue
    if (e.rel != Reliability::Unreliable && !r->discard) {
      // Receipt acknowledgment at NIC arrival: this is what completes
      // ReliableDelivery sends. ReliableReception additionally waits for
      // the placement ack issued in finishMessage().
      sendAck(id, e);
    }
  }

  if (r->discard) {
    if (last) finishMessage(id, std::move(r), engine_.now());
    return;
  }

  // Schedule placement through the RX pipeline.
  const bool first = p->fragIndex == 0;
  const std::uint64_t fragBytes = p->payload.size();
  const sim::SimTime rxStart = engine_.now();
  sim::SimTime placeTime;
  if (profile_.hostRxProcessing) {
    // M-VIA: DMA into the kernel ring, then ISR + copy on the host CPU.
    const sim::SimTime tDma =
        dma_.acquire(engine_.now(), profile_.dmaTime(fragBytes));
    const sim::Duration service = profile_.hostRxPerFragCost +
                                  profile_.hostCopyTime(fragBytes) +
                                  (first ? profile_.hostRxPerMsgCost : 0);
    placeTime = hostKernel_.acquire(tDma, service);
    r->hostCpu += service;
    if (spans_ != nullptr) {
      spans_->emit(obs::Stage::Rx, node_, id, rxStart, tDma, fragBytes);
      spans_->emit(obs::Stage::Reassembly, node_, id, tDma, placeTime,
                   fragBytes);
    }
  } else {
    sim::Duration firstExtra = 0;
    if (first) {
      if (p->kind == fabric::PacketKind::RdmaWrite) {
        // RDMA writes carry their target address: no descriptor matching.
        firstExtra += translationCostRange(p->remoteAddr, p->msgBytes);
      } else {
        firstExtra += profile_.rxMatchCost + translationCost(r->desc.segments);
      }
    }
    const sim::SimTime tProc =
        nicProc_.acquire(engine_.now(), profile_.nicPerFragCost + firstExtra);
    placeTime = dma_.acquire(tProc, profile_.dmaTime(fragBytes));
    if (spans_ != nullptr) {
      spans_->emit(obs::Stage::Rx, node_, id, rxStart, tProc, fragBytes);
      spans_->emit(obs::Stage::Reassembly, node_, id, tProc, placeTime,
                   fragBytes);
    }
  }

  engine_.postAt(placeTime,
                 [this, p = std::move(p), r, placeTime, id, last]() mutable {
                   if (r->discard) return;
                   placeFragment(id, *r, *p);
                   if (last) finishMessage(id, r, placeTime);
                 });
}

std::shared_ptr<NicDevice::Reassembly> NicDevice::beginMessage(
    ViEndpointId id, Endpoint& e, const Packet& first) {
  auto r = std::make_shared<Reassembly>();
  r->kind = first.kind;
  r->msgSeq = first.msgSeq;
  r->fragCount = first.fragCount;
  r->msgBytes = first.msgBytes;
  r->hasImmediate = first.hasImmediate;
  r->immediate = first.immediate;
  r->postedAt = first.postedAt;

  switch (first.kind) {
    case fabric::PacketKind::Data: {
      if (e.recvQ.empty()) {
        ++stats_.rxDroppedNoDescriptor;
        r->discard = true;
        r->errorStatus = WorkStatus::NoDescriptor;
        if (e.rel != Reliability::Unreliable) {
          // Reliable connections treat a missing descriptor as fatal.
          sendAck(id, e, WorkStatus::NoDescriptor);
          breakConnection(id, e, WorkStatus::NoDescriptor);
          return nullptr;
        }
        break;
      }
      r->desc = std::move(e.recvQ.front());
      e.recvQ.pop_front();
      r->haveDescriptor = true;
      if (first.msgBytes > r->desc.totalBytes()) {
        r->discard = true;
        r->errorStatus = WorkStatus::LengthError;
      }
      break;
    }
    case fabric::PacketKind::RdmaWrite: {
      const mem::MemStatus ok = registry_.validate(
          first.remoteHandle, first.remoteAddr, first.msgBytes, e.ptag,
          mem::Access::RdmaWriteTarget);
      if (ok != mem::MemStatus::Ok) {
        r->discard = true;
        r->errorStatus = WorkStatus::ProtectionError;
      }
      break;
    }
    case fabric::PacketKind::RdmaReadResp: {
      auto it = e.pendingReads.find(first.conn.token);
      if (it == e.pendingReads.end()) {
        r->discard = true;
        r->errorStatus = WorkStatus::ProtectionError;
        break;
      }
      r->desc = std::move(it->second);
      e.pendingReads.erase(it);
      r->haveDescriptor = true;
      // End-to-end attribution for reads starts at the read request's
      // post, not the (internal) response work request's.
      r->postedAt = r->desc.postedAt;
      break;
    }
    default:
      r->discard = true;
      break;
  }
  return r;
}

void NicDevice::placeFragment(ViEndpointId id, Reassembly& r,
                              const Packet& p) {
  if (p.kind == fabric::PacketKind::RdmaWrite) {
    memory_.write(p.remoteAddr + p.offset, p.payload.bytes());
  } else {
    scatterWrite(memory_, r.desc.segments, p.offset, p.payload.bytes());
  }
  if (Endpoint* e = epIfActive(id)) {
    e->rxPlacedFragSeq = std::max(e->rxPlacedFragSeq, p.fragSeq);
  }
}

void NicDevice::finishMessage(ViEndpointId id,
                              std::shared_ptr<Reassembly> rp,
                              sim::SimTime at) {
  Endpoint* eptr = epIfActive(id);
  Reassembly& r = *rp;
  const bool isReadResp = r.kind == fabric::PacketKind::RdmaReadResp;
  if (eptr != nullptr && !eptr->open() && !r.discard) {
    // The connection went away while this message's tail was still in the
    // placement pipeline (its Reassembly had already left the endpoint, so
    // the flush could not poison it). Completing Ok through a dead
    // connection would violate the no-completion-after-disconnect
    // invariant; surface the descriptor as Aborted like the flush did for
    // its queued siblings.
    r.discard = true;
    r.errorStatus = WorkStatus::Aborted;
  }

  // RDMA write with immediate data consumes a receive descriptor.
  bool consumeRecv = r.kind == fabric::PacketKind::Data;
  if (r.kind == fabric::PacketKind::RdmaWrite && r.hasImmediate &&
      eptr != nullptr) {
    if (!eptr->recvQ.empty()) {
      r.desc = std::move(eptr->recvQ.front());
      eptr->recvQ.pop_front();
      r.haveDescriptor = true;
      consumeRecv = true;
    } else if (!r.discard) {
      r.discard = true;
      r.errorStatus = WorkStatus::NoDescriptor;
      ++stats_.rxDroppedNoDescriptor;
    }
  }

  if (eptr != nullptr && !r.discard) {
    // Delivery mark: on a reliable connection msgSeq is consecutive per VI
    // (the invariant checker verifies exactly-once in-order delivery).
    sim::trace(tracer_, at, sim::TraceCategory::Rx, node_, [&] {
      return "deliver vi=" + std::to_string(id) + " msg=" +
             std::to_string(r.msgSeq) + " rel=" + toString(eptr->rel);
    });
  }

  if ((consumeRecv && r.haveDescriptor) || isReadResp) {
    if (spans_ != nullptr) {
      spans_->emit(obs::Stage::Completion, node_, id, at,
                   at + profile_.completionWriteCost, r.msgBytes);
      if (!r.discard && r.postedAt > 0) {
        // Full message path: sender's descriptor post to receiver-side
        // completion writeback (the quantity stage spans should sum to).
        spans_->emit(obs::Stage::EndToEnd, node_, id, r.postedAt,
                     at + profile_.completionWriteCost, r.msgBytes);
      }
    }
    Completion c;
    c.cookie = r.desc.cookie;
    c.isSend = isReadResp;
    c.status = r.discard ? r.errorStatus : WorkStatus::Ok;
    c.bytes = r.msgBytes;
    c.hasImmediate = r.hasImmediate;
    c.immediate = r.immediate;
    c.hostCpuCost = r.hostCpu;
    postCompletion(id, std::move(c), at + profile_.completionWriteCost);
  }

  if (eptr == nullptr || !eptr->open() ||
      eptr->rel == Reliability::Unreliable) {
    return;  // no reliability dialog on a dead or unreliable connection
  }
  if (!isReadResp) {
    const WorkStatus err = r.discard ? r.errorStatus : WorkStatus::Ok;
    if (err != WorkStatus::Ok && err != WorkStatus::Aborted) {
      sendAck(id, *eptr, err);
      breakConnection(id, *eptr, err);
    } else if (err == WorkStatus::Ok &&
               eptr->rel == Reliability::ReliableReception) {
      // Placement acknowledgment: completes ReliableReception sends.
      sendAck(id, *eptr);
    }
  } else {
    sendAck(id, *eptr);  // acknowledge the read-response stream
  }
}

void NicDevice::sendAck(ViEndpointId id, Endpoint& e, WorkStatus error) {
  auto ack = std::make_unique<Packet>(packetTo(fabric::PacketKind::Ack, id, e));
  ack->ackSeq = e.rxNextFragSeq - 1;
  ack->ackPlacedSeq = e.rxPlacedFragSeq;
  ack->rxError = static_cast<std::uint8_t>(error);
  transmit(std::move(ack),
           nicProc_.acquire(engine_.now(), profile_.ackProcessingCost));
  ++stats_.acksTx;
}

void NicDevice::handleAck(const Packet& p) {
  Endpoint* eptr = epIfActive(p.dstVi);
  if (eptr == nullptr || !eptr->connected) {
    ++stats_.rxDroppedBadEndpoint;
    return;
  }
  Endpoint& e = *eptr;
  ++stats_.acksRx;
  if (p.rxError != 0) {
    breakConnection(p.dstVi, e, static_cast<WorkStatus>(p.rxError));
    return;
  }
  const bool progressed =
      p.ackSeq > e.ackedFragSeq || p.ackPlacedSeq > e.placedFragSeq;
  e.ackedFragSeq = std::max(e.ackedFragSeq, p.ackSeq);
  e.placedFragSeq = std::max(e.placedFragSeq, p.ackPlacedSeq);
  if (progressed) {
    e.rtoBackoff = 1;
    e.rtoStrikes = 0;
    sim::trace(tracer_, engine_.now(), sim::TraceCategory::Reliability, node_,
               [&] {
                 return "ack progress vi=" + std::to_string(p.dstVi) +
                        " acked=" + std::to_string(e.ackedFragSeq) +
                        " placed=" + std::to_string(e.placedFragSeq);
               });
    drainAcked(p.dstVi, e);
  }
}

void NicDevice::drainAcked(ViEndpointId id, Endpoint& e) {
  while (!e.unacked.empty() && e.unacked.front().fragSeq <= e.ackedFragSeq) {
    e.unacked.pop_front();
  }
  while (!e.awaitingAck.empty()) {
    const PendingSendCompletion& pc = e.awaitingAck.front();
    const std::uint64_t reached =
        pc.needsPlacedAck ? e.placedFragSeq : e.ackedFragSeq;
    if (reached < pc.lastFragSeq) break;
    postCompletion(id, {.cookie = pc.cookie},
                   engine_.now() + profile_.ackProcessingCost +
                       profile_.completionWriteCost);
    e.awaitingAck.pop_front();
  }
  if (e.unacked.empty() && e.awaitingAck.empty()) {
    cancelRto(e);
  } else {
    armRto(id, e);
  }
  tryProcessSendQueue(id);
}

// ---------------------------------------------------------------------------
// RDMA read target side
// ---------------------------------------------------------------------------

void NicDevice::handleRdmaRead(const Packet& p) {
  Endpoint* eptr = epIfActive(p.dstVi);
  if (eptr == nullptr) return;
  Endpoint& e = *eptr;
  if (e.rel != Reliability::Unreliable) {
    sendAck(p.dstVi, e);  // acknowledge receipt of the request itself
  }
  const mem::MemStatus ok =
      registry_.validate(p.remoteHandle, p.remoteAddr, p.msgBytes, e.ptag,
                         mem::Access::RdmaReadSource);
  if (ok != mem::MemStatus::Ok) {
    sendAck(p.dstVi, e, WorkStatus::ProtectionError);
    breakConnection(p.dstVi, e, WorkStatus::ProtectionError);
    return;
  }
  // Stream the response through the send pipeline; it completes nothing
  // locally. Each fragment reads its bytes from the registered region as
  // the NIC builds it.
  Packet head = messageHeader(fabric::PacketKind::RdmaReadResp, p.dstVi, e,
                              p.msgBytes);
  head.conn.token = p.conn.token;
  const sim::Duration firstExtra =
      profile_.nicPerMsgCost + translationCostRange(p.remoteAddr, p.msgBytes);
  for (std::uint32_t i = 0; i < head.fragCount; ++i) {
    const FragmentRange r = fragmentRange(head, i, e.mtu);
    PacketPtr out = fragment(
        head, i, e,
        fabric::Payload::build(r.bytes, [&](std::span<std::byte> bytes) {
          memory_.read(p.remoteAddr + r.offset, bytes);
        }));
    const sim::SimTime tProc = nicProc_.acquire(
        engine_.now(), profile_.nicPerFragCost + (i == 0 ? firstExtra : 0));
    const sim::SimTime tDma =
        dma_.acquire(tProc, profile_.dmaTime(out->payload.size()));
    launch(e, std::move(out), tDma, /*probe=*/i + 1 == head.fragCount);
  }
  if (e.rel != Reliability::Unreliable) armRto(p.dstVi, e);
}

// ---------------------------------------------------------------------------
// Reliability timers
// ---------------------------------------------------------------------------

void NicDevice::armRto(ViEndpointId id, Endpoint& e) {
  cancelRto(e);
  const sim::Duration delay = profile_.rtoBase * e.rtoBackoff;
  e.rtoEvent = engine_.post(delay, [this, id] { onRto(id); });
}

void NicDevice::cancelRto(Endpoint& e) {
  if (e.rtoEvent != 0) {
    engine_.cancel(e.rtoEvent);
    e.rtoEvent = 0;
  }
}

void NicDevice::onRto(ViEndpointId id) {
  Endpoint* eptr = epIfActive(id);
  if (eptr == nullptr) return;
  Endpoint& e = *eptr;
  e.rtoEvent = 0;
  if (e.broken) return;
  const bool hasWork = !e.unacked.empty() || !e.awaitingAck.empty();
  if (hasWork && ++e.rtoStrikes > profile_.rtoRetryBudget) {
    // Retry budget exhausted: the peer has been silent through every
    // backoff level. Declare the connection dead instead of retrying
    // forever — outstanding work completes with ConnectionLost and the
    // provider's error callback fires, so callers never hang on a
    // partition that outlasts the budget.
    sim::trace(tracer_, engine_.now(), sim::TraceCategory::Reliability, node_,
               [&] {
                 return "retry budget exhausted vi=" + std::to_string(id) +
                        " strikes=" + std::to_string(e.rtoStrikes - 1);
               });
    breakConnection(id, e, WorkStatus::ConnectionLost);
    return;
  }
  if (e.unacked.empty()) {
    if (!e.awaitingAck.empty() && e.lastFrag) {
      // Everything was receipt-acked but a placement ack went missing:
      // probe by resending the last fragment; the duplicate triggers a
      // dup-ack carrying the receiver's current placement sequence.
      sim::trace(tracer_, engine_.now(), sim::TraceCategory::Reliability,
                 node_, [&] {
                   return "RTO vi=" + std::to_string(id) + " probe retransmit";
                 });
      transmit(std::make_unique<Packet>(*e.lastFrag),
               dma_.acquire(engine_.now(),
                            profile_.dmaTime(e.lastFrag->payload.size())));
      ++stats_.retransmits;
      armRto(id, e);
    }
    return;
  }
  // Go-back-N: replay the whole unacked window through the tx pipeline.
  sim::trace(tracer_, engine_.now(), sim::TraceCategory::Reliability, node_,
             [&] {
               return "RTO vi=" + std::to_string(id) + " retransmit " +
                      std::to_string(e.unacked.size()) + " frags";
             });
  for (const Packet& stored : e.unacked) {
    const sim::SimTime tProc =
        nicProc_.acquire(engine_.now(), profile_.nicPerFragCost);
    transmit(std::make_unique<Packet>(stored),
             dma_.acquire(tProc, profile_.dmaTime(stored.payload.size())));
    ++stats_.retransmits;
  }
  e.rtoBackoff = std::min<std::uint32_t>(e.rtoBackoff * 2, profile_.rtoBackoffCap);
  armRto(id, e);
}

// ---------------------------------------------------------------------------
// Control path
// ---------------------------------------------------------------------------

void NicDevice::sendControl(Packet&& p) {
  p.src = node_;
  net_.send(std::make_unique<Packet>(std::move(p)));
}

}  // namespace vibe::nic
