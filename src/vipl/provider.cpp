#include "vipl/provider.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

namespace vibe::vipl {

namespace {

// Reject reasons carried in ConnReject packets (Packet::rxError).
constexpr std::uint8_t kRejectNoMatch = 1;
constexpr std::uint8_t kRejectReliability = 2;
constexpr std::uint8_t kRejectByApplication = 3;

// How long an unclaimed connection request waits for a connectWait before
// being rejected with "no match" (the server may still be setting up).
constexpr sim::Duration kConnRequestGrace = sim::msec(500);

VipResult fromMemStatus(mem::MemStatus s) {
  switch (s) {
    case mem::MemStatus::Ok: return VipResult::VIP_SUCCESS;
    case mem::MemStatus::InvalidPtag: return VipResult::VIP_INVALID_PTAG;
    case mem::MemStatus::PtagInUse: return VipResult::VIP_ERROR_RESOURCE;
    case mem::MemStatus::ZeroLength: return VipResult::VIP_INVALID_PARAMETER;
    case mem::MemStatus::InvalidHandle:
    case mem::MemStatus::ProtectionMismatch:
    case mem::MemStatus::OutOfRange:
    case mem::MemStatus::AccessDenied:
      return VipResult::VIP_PROTECTION_ERROR;
  }
  return VipResult::VIP_INVALID_PARAMETER;
}

}  // namespace

const char* toString(VipResult r) {
  switch (r) {
    case VipResult::VIP_SUCCESS: return "VIP_SUCCESS";
    case VipResult::VIP_NOT_DONE: return "VIP_NOT_DONE";
    case VipResult::VIP_INVALID_PARAMETER: return "VIP_INVALID_PARAMETER";
    case VipResult::VIP_ERROR_RESOURCE: return "VIP_ERROR_RESOURCE";
    case VipResult::VIP_TIMEOUT: return "VIP_TIMEOUT";
    case VipResult::VIP_REJECT: return "VIP_REJECT";
    case VipResult::VIP_INVALID_RELIABILITY_LEVEL:
      return "VIP_INVALID_RELIABILITY_LEVEL";
    case VipResult::VIP_INVALID_MTU: return "VIP_INVALID_MTU";
    case VipResult::VIP_INVALID_PTAG: return "VIP_INVALID_PTAG";
    case VipResult::VIP_INVALID_RDMAREAD: return "VIP_INVALID_RDMAREAD";
    case VipResult::VIP_DESCRIPTOR_ERROR: return "VIP_DESCRIPTOR_ERROR";
    case VipResult::VIP_INVALID_STATE: return "VIP_INVALID_STATE";
    case VipResult::VIP_NO_MATCH: return "VIP_NO_MATCH";
    case VipResult::VIP_NOT_REACHABLE: return "VIP_NOT_REACHABLE";
    case VipResult::VIP_ERROR_NOT_SUPPORTED: return "VIP_ERROR_NOT_SUPPORTED";
    case VipResult::VIP_PROTECTION_ERROR: return "VIP_PROTECTION_ERROR";
    case VipResult::VIP_ERROR_NAMESERVICE: return "VIP_ERROR_NAMESERVICE";
  }
  return "VIP_UNKNOWN";
}

const char* toString(ViState s) {
  switch (s) {
    case ViState::Idle: return "Idle";
    case ViState::PendingConnect: return "PendingConnect";
    case ViState::Connected: return "Connected";
    case ViState::Disconnected: return "Disconnected";
    case ViState::Error: return "Error";
  }
  return "Unknown";
}

VipDescriptor VipDescriptor::send(mem::VirtAddr addr, mem::MemHandle handle,
                                  std::uint32_t length) {
  VipDescriptor d;
  d.cs.control = VIP_CONTROL_OP_SENDRECV;
  d.ds.push_back({addr, handle, length});
  d.cs.segCount = 1;
  d.cs.length = length;
  return d;
}

VipDescriptor VipDescriptor::recv(mem::VirtAddr addr, mem::MemHandle handle,
                                  std::uint32_t length) {
  return send(addr, handle, length);  // same layout; queue determines role
}

VipDescriptor VipDescriptor::sendImmediate(std::uint32_t immediate) {
  VipDescriptor d;
  d.cs.control = VIP_CONTROL_OP_SENDRECV | VIP_CONTROL_IMMEDIATE;
  d.cs.immediateData = immediate;
  d.cs.segCount = 0;
  return d;
}

VipDescriptor VipDescriptor::rdmaWrite(mem::VirtAddr localAddr,
                                       mem::MemHandle localHandle,
                                       std::uint32_t length,
                                       mem::VirtAddr remoteAddr,
                                       mem::MemHandle remoteHandle) {
  VipDescriptor d;
  d.cs.control = VIP_CONTROL_OP_RDMAWRITE;
  d.ds.push_back({localAddr, localHandle, length});
  d.cs.segCount = 1;
  d.cs.length = length;
  d.as = {remoteAddr, remoteHandle};
  return d;
}

VipDescriptor VipDescriptor::rdmaRead(mem::VirtAddr localAddr,
                                      mem::MemHandle localHandle,
                                      std::uint32_t length,
                                      mem::VirtAddr remoteAddr,
                                      mem::MemHandle remoteHandle) {
  VipDescriptor d = rdmaWrite(localAddr, localHandle, length, remoteAddr,
                              remoteHandle);
  d.cs.control = VIP_CONTROL_OP_RDMAREAD;
  return d;
}

Provider::Provider(sim::Engine& engine, fabric::Topology& net,
                   fabric::NodeId node, const nic::NicProfile& profile,
                   std::shared_ptr<NameService> ns, std::string hostName)
    : engine_(engine),
      node_(node),
      profile_(profile),
      ns_(std::move(ns)),
      hostName_(std::move(hostName)),
      device_(engine, net, node, profile, registry_, memory_) {
  if (ns_) ns_->registerHost(hostName_, node_);
  nic::NicDevice::Handlers h;
  h.completion = [this](nic::ViEndpointId ep, nic::Completion&& c) {
    onCompletion(ep, std::move(c));
  };
  h.control = [this](fabric::Packet&& p) { onControl(std::move(p)); };
  h.connectionError = [this](nic::ViEndpointId ep, nic::WorkStatus why) {
    onConnectionError(ep, why);
  };
  device_.setHandlers(std::move(h));
}

Provider::~Provider() = default;

void Provider::charge(sim::Duration d) {
  if (d <= 0) return;
  if (sim::Process* p = engine_.currentProcess()) p->advance(d);
}

void Provider::chargeKernelCpu(sim::Duration d) {
  if (d <= 0) return;
  if (sim::Process* p = engine_.currentProcess()) p->chargeCpu(d);
}

void Provider::blockingWakeup() {
  // The interrupt/dispatch delay passes while the process still sleeps
  // (idle); only the scheduler wake-up and syscall return burn its CPU.
  if (sim::Process* p = engine_.currentProcess()) {
    p->advance(profile_.interruptCost, sim::CpuUse::Idle);
    p->advance(profile_.blockingWakeupCost, sim::CpuUse::Busy);
  }
}

// ---------------------------------------------------------------------------
// NIC / ptag / memory
// ---------------------------------------------------------------------------

VipResult Provider::queryNic(VipNicAttributes& out) {
  charge(profile_.viplCallOverhead);
  out.name = profile_.name;
  out.maxSegmentsPerDesc = 252;
  out.maxTransferSize = profile_.maxTransferSize;
  out.mtu = profile_.mtu;
  out.reliableDeliverySupport = true;
  out.reliableReceptionSupport = true;
  out.rdmaWriteSupport = profile_.supportsRdmaWrite;
  out.rdmaReadSupport = profile_.supportsRdmaRead;
  out.translationCacheEntries = profile_.tlbEntries;
  return VipResult::VIP_SUCCESS;
}

mem::PtagId Provider::createPtag() {
  charge(profile_.viplCallOverhead);
  return registry_.createPtag();
}

VipResult Provider::destroyPtag(mem::PtagId ptag) {
  charge(profile_.viplCallOverhead);
  return fromMemStatus(registry_.destroyPtag(ptag));
}

VipResult Provider::registerMem(mem::VirtAddr va, std::uint64_t len,
                                const VipMemAttributes& attrs,
                                mem::MemHandle& out) {
  const std::uint32_t pages = mem::pagesSpanned(va, len);
  charge(profile_.viplCallOverhead + profile_.memRegBase +
         profile_.memRegPerPage * pages);
  mem::MemAttrs ma;
  ma.ptag = attrs.ptag;
  ma.enableRdmaWrite = attrs.enableRdmaWrite;
  ma.enableRdmaRead = attrs.enableRdmaRead;
  return fromMemStatus(registry_.registerMem(va, len, ma, out));
}

VipResult Provider::deregisterMem(mem::MemHandle handle) {
  const mem::MemRegion* region = registry_.find(handle);
  if (region == nullptr) return VipResult::VIP_PROTECTION_ERROR;
  const std::uint32_t pages = mem::pagesSpanned(region->start, region->length);
  charge(profile_.viplCallOverhead + profile_.memDeregBase +
         profile_.memDeregPerPage * pages);
  // The NIC's translation cache must forget these pages.
  device_.tlb().invalidateRange(mem::pageOf(region->start),
                                mem::pageOf(region->start + region->length - 1));
  return fromMemStatus(registry_.deregisterMem(handle));
}

// ---------------------------------------------------------------------------
// VI / CQ lifecycle
// ---------------------------------------------------------------------------

VipResult Provider::createVi(const VipViAttributes& attrs, Cq* sendCq,
                             Cq* recvCq, Vi*& out) {
  out = nullptr;
  charge(profile_.viplCallOverhead + profile_.createViCost);
  if (!registry_.ptagValid(attrs.ptag)) return VipResult::VIP_INVALID_PTAG;
  if (attrs.enableRdmaRead && !profile_.supportsRdmaRead) {
    return VipResult::VIP_INVALID_RDMAREAD;
  }
  VipViAttributes clamped = attrs;
  clamped.maxTransferSize =
      std::min(clamped.maxTransferSize, profile_.maxTransferSize);
  const nic::ViEndpointId ep = device_.createEndpoint(attrs.ptag);
  auto vi = std::unique_ptr<Vi>(
      new Vi(*this, engine_, ep, clamped, sendCq, recvCq));
  out = vi.get();
  byEndpoint_[ep] = out;
  vis_.push_back(std::move(vi));
  return VipResult::VIP_SUCCESS;
}

VipResult Provider::destroyVi(Vi* vi) {
  charge(profile_.viplCallOverhead + profile_.destroyViCost);
  if (vi == nullptr) return VipResult::VIP_INVALID_PARAMETER;
  if (vi->state_ == ViState::Connected) return VipResult::VIP_INVALID_STATE;
  device_.destroyEndpoint(vi->ep_);
  byEndpoint_.erase(vi->ep_);
  // Descriptors still in flight must not dangle into the destroyed VI.
  std::erase_if(pending_, [vi](const auto& kv) { return kv.second.vi == vi; });
  std::erase_if(vis_, [vi](const auto& p) { return p.get() == vi; });
  return VipResult::VIP_SUCCESS;
}

void Provider::flushViPending(Vi* vi) noexcept {
  if (vi == nullptr) return;
  std::erase_if(pending_, [vi](const auto& kv) { return kv.second.vi == vi; });
}

void Provider::quiesce() noexcept { pending_.clear(); }

VipResult Provider::queryVi(Vi* vi, ViState& state, VipViAttributes& attrs,
                            bool& sendQueueEmpty, bool& recvQueueEmpty) {
  charge(profile_.viplCallOverhead);
  if (vi == nullptr) return VipResult::VIP_INVALID_PARAMETER;
  state = vi->state_;
  attrs = vi->attrs_;
  sendQueueEmpty = vi->sendDone_.empty();
  recvQueueEmpty = vi->recvDone_.empty();
  return VipResult::VIP_SUCCESS;
}

VipResult Provider::setViAttributes(Vi* vi, const VipViAttributes& attrs) {
  charge(profile_.viplCallOverhead);
  if (vi == nullptr) return VipResult::VIP_INVALID_PARAMETER;
  if (vi->state_ == ViState::Connected ||
      vi->state_ == ViState::PendingConnect) {
    return VipResult::VIP_INVALID_STATE;
  }
  if (!registry_.ptagValid(attrs.ptag)) return VipResult::VIP_INVALID_PTAG;
  if (attrs.enableRdmaRead && !profile_.supportsRdmaRead) {
    return VipResult::VIP_INVALID_RDMAREAD;
  }
  VipViAttributes clamped = attrs;
  clamped.maxTransferSize =
      std::min(clamped.maxTransferSize, profile_.maxTransferSize);
  vi->attrs_ = clamped;
  return VipResult::VIP_SUCCESS;
}

VipResult Provider::createCq(std::size_t entries, Cq*& out) {
  out = nullptr;
  charge(profile_.viplCallOverhead + profile_.createCqCost);
  if (entries == 0) return VipResult::VIP_INVALID_PARAMETER;
  auto cq = std::unique_ptr<Cq>(new Cq(engine_, entries));
  out = cq.get();
  cqs_.push_back(std::move(cq));
  return VipResult::VIP_SUCCESS;
}

VipResult Provider::destroyCq(Cq* cq) {
  charge(profile_.viplCallOverhead + profile_.destroyCqCost);
  if (cq == nullptr) return VipResult::VIP_INVALID_PARAMETER;
  for (const auto& vi : vis_) {
    if (vi->sendCq_ == cq || vi->recvCq_ == cq) {
      return VipResult::VIP_ERROR_RESOURCE;
    }
  }
  std::erase_if(cqs_, [cq](const auto& p) { return p.get() == cq; });
  return VipResult::VIP_SUCCESS;
}

VipResult Provider::resizeCq(Cq* cq, std::size_t entries) {
  charge(profile_.viplCallOverhead + profile_.createCqCost / 2);
  if (cq == nullptr || entries == 0) return VipResult::VIP_INVALID_PARAMETER;
  if (entries < cq->entries_.size()) return VipResult::VIP_ERROR_RESOURCE;
  cq->capacity_ = entries;
  return VipResult::VIP_SUCCESS;
}

// ---------------------------------------------------------------------------
// Connection management
// ---------------------------------------------------------------------------

VipResult Provider::connectWait(const VipNetAddress& local,
                                sim::Duration timeout, PendingConn& out) {
  charge(profile_.viplCallOverhead);
  sim::Process* proc = engine_.currentProcess();
  if (proc == nullptr) return VipResult::VIP_INVALID_STATE;
  Listener& listener = listeners_[local.discriminator];
  if (!listener.signal) {
    listener.signal = std::make_unique<sim::Signal>(engine_);
  }
  ++listener.waiters;
  while (listener.queue.empty()) {
    if (!proc->awaitFor(*listener.signal, timeout)) {
      --listener.waiters;
      return VipResult::VIP_TIMEOUT;
    }
  }
  --listener.waiters;
  out = listener.queue.front().first;
  engine_.cancel(listener.queue.front().second);  // claimed: no grace reject
  listener.queue.pop_front();
  return VipResult::VIP_SUCCESS;
}

VipResult Provider::connectAccept(const PendingConn& conn, Vi* vi) {
  charge(profile_.viplCallOverhead + profile_.connectRemoteCost);
  if (vi == nullptr) return VipResult::VIP_INVALID_PARAMETER;

  auto reject = [&](std::uint8_t reason) {
    fabric::Packet p;
    p.kind = fabric::PacketKind::ConnReject;
    p.dst = conn.remoteNode;
    p.dstVi = conn.remoteVi;
    p.conn.token = conn.token;
    p.rxError = reason;
    device_.sendControl(std::move(p));
  };

  if (vi->state_ != ViState::Idle) {
    reject(kRejectByApplication);
    return VipResult::VIP_INVALID_STATE;
  }
  if (vi->attrs_.reliabilityLevel != conn.remoteAttrs.reliabilityLevel) {
    reject(kRejectReliability);
    return VipResult::VIP_INVALID_RELIABILITY_LEVEL;
  }
  const std::uint32_t mts = std::min(vi->attrs_.maxTransferSize,
                                     conn.remoteAttrs.maxTransferSize);
  ++vi->epoch_;
  device_.configureConnection(vi->ep_, conn.remoteNode, conn.remoteVi,
                              vi->attrs_.reliabilityLevel, profile_.mtu,
                              vi->epoch_);
  vi->negotiatedMts_ = mts;
  vi->remoteNode_ = conn.remoteNode;
  vi->remoteVi_ = conn.remoteVi;
  vi->remoteEpoch_ = conn.epoch;
  vi->state_ = ViState::Connected;

  fabric::Packet p;
  p.kind = fabric::PacketKind::ConnAccept;
  p.dst = conn.remoteNode;
  p.dstVi = conn.remoteVi;
  p.srcVi = vi->ep_;
  p.conn.token = conn.token;
  p.conn.mtu = mts;
  p.conn.reliability =
      static_cast<std::uint8_t>(vi->attrs_.reliabilityLevel);
  p.conn.epoch = vi->epoch_;
  device_.sendControl(std::move(p));
  return VipResult::VIP_SUCCESS;
}

VipResult Provider::connectReject(const PendingConn& conn) {
  charge(profile_.viplCallOverhead);
  fabric::Packet p;
  p.kind = fabric::PacketKind::ConnReject;
  p.dst = conn.remoteNode;
  p.dstVi = conn.remoteVi;
  p.conn.token = conn.token;
  p.rxError = kRejectByApplication;
  device_.sendControl(std::move(p));
  return VipResult::VIP_SUCCESS;
}

VipResult Provider::connectRequest(Vi* vi, const VipNetAddress& remote,
                                   sim::Duration timeout,
                                   VipViAttributes* remoteAttrs) {
  charge(profile_.viplCallOverhead + profile_.connectLocalCost);
  sim::Process* proc = engine_.currentProcess();
  if (vi == nullptr || proc == nullptr) return VipResult::VIP_INVALID_PARAMETER;
  if (vi->state_ != ViState::Idle) return VipResult::VIP_INVALID_STATE;
  if (remote.host == node_) return VipResult::VIP_NOT_REACHABLE;

  const std::uint32_t token = nextConnToken_++;
  PendingConnect st;
  st.signal = std::make_unique<sim::Signal>(engine_);
  sim::Signal& signal = *st.signal;
  pendingConnects_.emplace(token, std::move(st));
  vi->state_ = ViState::PendingConnect;

  fabric::Packet p;
  p.kind = fabric::PacketKind::ConnRequest;
  p.dst = remote.host;
  p.srcVi = vi->ep_;
  p.conn.discriminator = remote.discriminator;
  p.conn.token = token;
  p.conn.mtu = vi->attrs_.maxTransferSize;
  p.conn.reliability = static_cast<std::uint8_t>(vi->attrs_.reliabilityLevel);
  p.conn.epoch = vi->epoch_ + 1;  // the incarnation this connect would start
  device_.sendControl(std::move(p));

  const bool fired = proc->awaitFor(signal, timeout);
  auto it = pendingConnects_.find(token);
  assert(it != pendingConnects_.end());
  PendingConnect result = std::move(it->second);
  pendingConnects_.erase(it);

  if (!fired || !result.responded) {
    vi->state_ = ViState::Idle;
    return VipResult::VIP_TIMEOUT;
  }
  if (!result.accepted) {
    vi->state_ = ViState::Idle;
    switch (result.rejectReason) {
      case kRejectNoMatch: return VipResult::VIP_NO_MATCH;
      case kRejectReliability: return VipResult::VIP_INVALID_RELIABILITY_LEVEL;
      default: return VipResult::VIP_REJECT;
    }
  }
  ++vi->epoch_;
  device_.configureConnection(vi->ep_, result.remoteNode, result.remoteVi,
                              vi->attrs_.reliabilityLevel, profile_.mtu,
                              vi->epoch_);
  vi->negotiatedMts_ = result.mts;
  vi->remoteNode_ = result.remoteNode;
  vi->remoteVi_ = result.remoteVi;
  vi->remoteEpoch_ = result.epoch;
  vi->state_ = ViState::Connected;
  if (remoteAttrs != nullptr) *remoteAttrs = result.remoteAttrs;
  return VipResult::VIP_SUCCESS;
}

VipResult Provider::disconnect(Vi* vi) {
  charge(profile_.viplCallOverhead + profile_.teardownCost);
  if (vi == nullptr) return VipResult::VIP_INVALID_PARAMETER;
  if (vi->state_ != ViState::Connected) return VipResult::VIP_INVALID_STATE;
  fabric::Packet p;
  p.kind = fabric::PacketKind::Disconnect;
  p.dst = vi->remoteNode_;
  p.dstVi = vi->remoteVi_;
  p.srcVi = vi->ep_;
  device_.sendControl(std::move(p));
  device_.teardownConnection(vi->ep_);
  vi->state_ = ViState::Idle;  // a disconnected VI may reconnect
  return VipResult::VIP_SUCCESS;
}

VipResult Provider::resetVi(Vi* vi) {
  charge(profile_.viplCallOverhead + profile_.teardownCost);
  if (vi == nullptr) return VipResult::VIP_INVALID_PARAMETER;
  if (vi->state_ != ViState::Error && vi->state_ != ViState::Disconnected &&
      vi->state_ != ViState::Connected) {
    return VipResult::VIP_INVALID_STATE;
  }
  // Abandon in-flight descriptors first so the Aborted completions the
  // teardown flush generates find no pending entry and become no-ops.
  flushViPending(vi);
  device_.teardownConnection(vi->ep_);
  vi->sendDone_.clear();
  vi->recvDone_.clear();
  vi->recvNotify_.clear();
  vi->negotiatedMts_ = 0;
  vi->remoteNode_ = 0;
  vi->remoteVi_ = 0;
  vi->state_ = ViState::Idle;
  return VipResult::VIP_SUCCESS;
}

// ---------------------------------------------------------------------------
// Data transfer
// ---------------------------------------------------------------------------

VipResult Provider::validateSegments(
    const Vi& vi, const std::vector<VipDataSegment>& ds) const {
  for (const auto& seg : ds) {
    const mem::MemStatus s = registry_.validate(seg.handle, seg.data,
                                                seg.length, vi.attrs_.ptag,
                                                mem::Access::Local);
    if (s != mem::MemStatus::Ok) return VipResult::VIP_PROTECTION_ERROR;
  }
  return VipResult::VIP_SUCCESS;
}

nic::WorkRequest Provider::buildWorkRequest(const VipDescriptor& desc,
                                            std::uint64_t cookie) const {
  nic::WorkRequest wr;
  switch (desc.op()) {
    case VIP_CONTROL_OP_RDMAWRITE: wr.op = nic::WorkOp::RdmaWrite; break;
    case VIP_CONTROL_OP_RDMAREAD: wr.op = nic::WorkOp::RdmaRead; break;
    default: wr.op = nic::WorkOp::Send; break;
  }
  wr.segments.reserve(desc.ds.size());
  for (const auto& seg : desc.ds) {
    wr.segments.push_back({seg.data, seg.handle, seg.length});
  }
  wr.hasImmediate = desc.hasImmediate();
  wr.immediate = desc.cs.immediateData;
  wr.remoteAddr = desc.as.data;
  wr.remoteHandle = desc.as.handle;
  wr.cookie = cookie;
  return wr;
}

namespace {
std::uint32_t pagesOfSegments(const std::vector<VipDataSegment>& ds) {
  std::uint32_t pages = 0;
  for (const auto& seg : ds) pages += mem::pagesSpanned(seg.data, seg.length);
  return pages;
}
}  // namespace

VipResult Provider::postSend(Vi* vi, VipDescriptor* desc) {
  if (vi == nullptr || desc == nullptr) return VipResult::VIP_INVALID_PARAMETER;
  const sim::SimTime postStart = engine_.now();
  charge(profile_.viplCallOverhead + profile_.postSendBase +
         profile_.postSendPerSeg * static_cast<sim::Duration>(desc->ds.size()) +
         profile_.hostTranslationPerPage * pagesOfSegments(desc->ds));
  if (vi->state_ != ViState::Connected) return VipResult::VIP_INVALID_STATE;
  if (desc->ds.size() > 252) return VipResult::VIP_INVALID_PARAMETER;
  const std::uint16_t op = desc->op();
  if (op == VIP_CONTROL_OP_RDMAWRITE && !profile_.supportsRdmaWrite) {
    return VipResult::VIP_ERROR_NOT_SUPPORTED;
  }
  if (op == VIP_CONTROL_OP_RDMAREAD) {
    if (!profile_.supportsRdmaRead || !vi->attrs_.enableRdmaRead) {
      return VipResult::VIP_ERROR_NOT_SUPPORTED;
    }
    if (vi->attrs_.reliabilityLevel == nic::Reliability::Unreliable) {
      // Spec: RDMA read requires a reliable connection.
      return VipResult::VIP_INVALID_RDMAREAD;
    }
  }
  if (desc->totalBytes() > vi->negotiatedMts_) {
    return VipResult::VIP_INVALID_MTU;
  }
  if (const VipResult vr = validateSegments(*vi, desc->ds);
      vr != VipResult::VIP_SUCCESS) {
    return vr;
  }
  desc->cs.status = VipDescStatus{};
  desc->kernelCpuTime = 0;
  const std::uint64_t cookie = nextCookie_++;
  pending_.emplace(cookie, PendingWr{desc, vi, /*isSend=*/true});
  charge(profile_.doorbellCost);
  nic::WorkRequest wr = buildWorkRequest(*desc, cookie);
  wr.postedAt = postStart;
  if (spans_ != nullptr) {
    // Post stage: VIPL call overhead + descriptor build + doorbell write.
    spans_->emit(obs::Stage::Post, node_, vi->ep_, postStart, engine_.now(),
                 wr.totalBytes());
  }
  device_.postSend(vi->ep_, std::move(wr));
  return VipResult::VIP_SUCCESS;
}

VipResult Provider::postRecv(Vi* vi, VipDescriptor* desc) {
  if (vi == nullptr || desc == nullptr) return VipResult::VIP_INVALID_PARAMETER;
  charge(profile_.viplCallOverhead + profile_.postRecvBase +
         profile_.postRecvPerSeg * static_cast<sim::Duration>(desc->ds.size()) +
         profile_.hostTranslationPerPage * pagesOfSegments(desc->ds));
  if (vi->state_ == ViState::Error) return VipResult::VIP_INVALID_STATE;
  if (desc->ds.size() > 252) return VipResult::VIP_INVALID_PARAMETER;
  if (const VipResult vr = validateSegments(*vi, desc->ds);
      vr != VipResult::VIP_SUCCESS) {
    return vr;
  }
  desc->cs.status = VipDescStatus{};
  desc->kernelCpuTime = 0;
  const std::uint64_t cookie = nextCookie_++;
  pending_.emplace(cookie, PendingWr{desc, vi, /*isSend=*/false});
  charge(profile_.doorbellCost);
  device_.postRecv(vi->ep_, buildWorkRequest(*desc, cookie));
  return VipResult::VIP_SUCCESS;
}

VipResult Provider::sendDone(Vi* vi, VipDescriptor*& out) {
  out = nullptr;
  charge(profile_.pollCost);
  if (vi == nullptr) return VipResult::VIP_INVALID_PARAMETER;
  if (vi->sendDone_.empty()) return VipResult::VIP_NOT_DONE;
  out = vi->sendDone_.front();
  vi->sendDone_.pop_front();
  return out->cs.status.ok() ? VipResult::VIP_SUCCESS
                             : VipResult::VIP_DESCRIPTOR_ERROR;
}

VipResult Provider::recvDone(Vi* vi, VipDescriptor*& out) {
  out = nullptr;
  charge(profile_.pollCost);
  if (vi == nullptr) return VipResult::VIP_INVALID_PARAMETER;
  if (vi->recvDone_.empty()) return VipResult::VIP_NOT_DONE;
  out = vi->recvDone_.front();
  vi->recvDone_.pop_front();
  return out->cs.status.ok() ? VipResult::VIP_SUCCESS
                             : VipResult::VIP_DESCRIPTOR_ERROR;
}

VipResult Provider::sendWait(Vi* vi, sim::Duration timeout,
                             VipDescriptor*& out) {
  out = nullptr;
  charge(profile_.viplCallOverhead);
  if (vi == nullptr) return VipResult::VIP_INVALID_PARAMETER;
  sim::Process* proc = engine_.currentProcess();
  bool blocked = false;
  while (vi->sendDone_.empty()) {
    if (proc == nullptr) return VipResult::VIP_NOT_DONE;
    if (!proc->awaitFor(vi->sendSignal_, timeout)) return VipResult::VIP_TIMEOUT;
    blocked = true;
  }
  out = vi->sendDone_.front();
  vi->sendDone_.pop_front();
  if (blocked) {
    blockingWakeup();
    chargeKernelCpu(out->kernelCpuTime);
  }
  return out->cs.status.ok() ? VipResult::VIP_SUCCESS
                             : VipResult::VIP_DESCRIPTOR_ERROR;
}

VipResult Provider::recvWait(Vi* vi, sim::Duration timeout,
                             VipDescriptor*& out) {
  out = nullptr;
  charge(profile_.viplCallOverhead);
  if (vi == nullptr) return VipResult::VIP_INVALID_PARAMETER;
  sim::Process* proc = engine_.currentProcess();
  bool blocked = false;
  while (vi->recvDone_.empty()) {
    if (proc == nullptr) return VipResult::VIP_NOT_DONE;
    if (!proc->awaitFor(vi->recvSignal_, timeout)) return VipResult::VIP_TIMEOUT;
    blocked = true;
  }
  out = vi->recvDone_.front();
  vi->recvDone_.pop_front();
  if (blocked) {
    blockingWakeup();
    chargeKernelCpu(out->kernelCpuTime);
  }
  return out->cs.status.ok() ? VipResult::VIP_SUCCESS
                             : VipResult::VIP_DESCRIPTOR_ERROR;
}

VipResult Provider::recvNotify(Vi* vi,
                               std::function<void(VipDescriptor*)> handler) {
  charge(profile_.viplCallOverhead);
  if (vi == nullptr || !handler) return VipResult::VIP_INVALID_PARAMETER;
  vi->recvNotify_.push_back(std::move(handler));
  return VipResult::VIP_SUCCESS;
}

VipResult Provider::cqDone(Cq* cq, Vi*& vi, bool& isRecv) {
  vi = nullptr;
  charge(profile_.cqCheckCost);
  if (cq == nullptr) return VipResult::VIP_INVALID_PARAMETER;
  if (cq->overflowed_) {
    cq->overflowed_ = false;
    return VipResult::VIP_ERROR_RESOURCE;
  }
  if (cq->entries_.empty()) return VipResult::VIP_NOT_DONE;
  vi = cq->entries_.front().vi;
  isRecv = cq->entries_.front().isRecv;
  cq->entries_.pop_front();
  return VipResult::VIP_SUCCESS;
}

VipResult Provider::cqWait(Cq* cq, sim::Duration timeout, Vi*& vi,
                           bool& isRecv) {
  vi = nullptr;
  charge(profile_.viplCallOverhead);
  if (cq == nullptr) return VipResult::VIP_INVALID_PARAMETER;
  sim::Process* proc = engine_.currentProcess();
  bool blocked = false;
  while (cq->entries_.empty() && !cq->overflowed_) {
    if (proc == nullptr) return VipResult::VIP_NOT_DONE;
    if (!proc->awaitFor(cq->signal_, timeout)) return VipResult::VIP_TIMEOUT;
    blocked = true;
  }
  if (blocked) blockingWakeup();
  return cqDone(cq, vi, isRecv);
}

VipResult Provider::pollSend(Vi* vi, VipDescriptor*& out) {
  out = nullptr;
  charge(profile_.pollCost);
  if (vi == nullptr) return VipResult::VIP_INVALID_PARAMETER;
  sim::Process* proc = engine_.currentProcess();
  while (vi->sendDone_.empty()) {
    if (proc == nullptr) return VipResult::VIP_NOT_DONE;
    proc->awaitBusy(vi->sendSignal_);
    charge(profile_.pollCost);
  }
  out = vi->sendDone_.front();
  vi->sendDone_.pop_front();
  return out->cs.status.ok() ? VipResult::VIP_SUCCESS
                             : VipResult::VIP_DESCRIPTOR_ERROR;
}

VipResult Provider::pollRecv(Vi* vi, VipDescriptor*& out) {
  out = nullptr;
  charge(profile_.pollCost);
  if (vi == nullptr) return VipResult::VIP_INVALID_PARAMETER;
  sim::Process* proc = engine_.currentProcess();
  while (vi->recvDone_.empty()) {
    if (proc == nullptr) return VipResult::VIP_NOT_DONE;
    proc->awaitBusy(vi->recvSignal_);
    charge(profile_.pollCost);
  }
  out = vi->recvDone_.front();
  vi->recvDone_.pop_front();
  return out->cs.status.ok() ? VipResult::VIP_SUCCESS
                             : VipResult::VIP_DESCRIPTOR_ERROR;
}

VipResult Provider::pollCq(Cq* cq, Vi*& vi, bool& isRecv) {
  vi = nullptr;
  charge(profile_.cqCheckCost);
  if (cq == nullptr) return VipResult::VIP_INVALID_PARAMETER;
  sim::Process* proc = engine_.currentProcess();
  while (cq->entries_.empty() && !cq->overflowed_) {
    if (proc == nullptr) return VipResult::VIP_NOT_DONE;
    proc->awaitBusy(cq->signal_);
    charge(profile_.cqCheckCost);
  }
  return cqDone(cq, vi, isRecv);
}

VipResult Provider::nsGetHostByName(const std::string& name,
                                    fabric::NodeId& out) {
  charge(profile_.viplCallOverhead);
  if (!ns_) return VipResult::VIP_ERROR_NAMESERVICE;
  const auto node = ns_->lookup(name);
  if (!node) return VipResult::VIP_ERROR_NAMESERVICE;
  out = *node;
  return VipResult::VIP_SUCCESS;
}

// ---------------------------------------------------------------------------
// Completion / control plumbing (engine-event context)
// ---------------------------------------------------------------------------

void Provider::onCompletion(nic::ViEndpointId ep, nic::Completion&& c) {
  auto epIt = byEndpoint_.find(ep);
  if (epIt == byEndpoint_.end()) return;  // VI destroyed while in flight
  auto it = pending_.find(c.cookie);
  if (it == pending_.end()) return;  // already flushed/reaped
  const PendingWr pw = it->second;
  pending_.erase(it);

  VipDescriptor* desc = pw.desc;
  desc->cs.status.done = true;
  desc->cs.status.error = c.status;
  desc->kernelCpuTime = c.hostCpuCost;
  if (pw.isSend) {
    desc->cs.length = static_cast<std::uint32_t>(desc->totalBytes());
  } else {
    desc->cs.length = static_cast<std::uint32_t>(c.bytes);
    if (c.hasImmediate) {
      desc->cs.immediateData = c.immediate;
      desc->cs.control |= VIP_CONTROL_IMMEDIATE;
    }
  }

  Vi* vi = pw.vi;
  Cq* cq = pw.isSend ? vi->sendCq_ : vi->recvCq_;
  const sim::Duration delay = cq != nullptr ? profile_.cqPostCost : 0;
  if (delay > 0) {
    const bool isSend = pw.isSend;
    engine_.post(delay,
                 [this, vi, desc, isSend] { deliverCompletion(vi, desc, isSend); });
  } else {
    deliverCompletion(vi, desc, pw.isSend);
  }
}

void Provider::deliverCompletion(Vi* vi, VipDescriptor* desc, bool isSend) {
  if (!isSend && !vi->recvNotify_.empty()) {
    // VipRecvNotify: the completion is consumed by the async handler.
    auto handler = std::move(vi->recvNotify_.front());
    vi->recvNotify_.pop_front();
    engine_.post(profile_.interruptCost,
                 [handler = std::move(handler), desc] { handler(desc); });
    return;
  }
  if (isSend) {
    vi->sendDone_.push_back(desc);
  } else {
    vi->recvDone_.push_back(desc);
  }
  Cq* cq = isSend ? vi->sendCq_ : vi->recvCq_;
  if (cq != nullptr) {
    if (cq->entries_.size() >= cq->capacity_) {
      cq->overflowed_ = true;
    } else {
      cq->entries_.push_back({vi, !isSend});
    }
    cq->signal_.notifyAll();
  }
  (isSend ? vi->sendSignal_ : vi->recvSignal_).notifyAll();
}

void Provider::onControl(fabric::Packet&& p) {
  switch (p.kind) {
    case fabric::PacketKind::ConnRequest:
      onConnRequest(std::move(p));
      return;
    case fabric::PacketKind::ConnAccept:
    case fabric::PacketKind::ConnReject:
      onConnResponse(std::move(p));
      return;
    case fabric::PacketKind::Disconnect:
      onDisconnect(std::move(p));
      return;
    default:
      return;
  }
}

void Provider::onConnRequest(fabric::Packet&& p) {
  PendingConn pc;
  pc.remoteNode = p.src;
  pc.remoteVi = p.srcVi;
  pc.remoteAttrs.reliabilityLevel =
      static_cast<nic::Reliability>(p.conn.reliability);
  pc.remoteAttrs.maxTransferSize = p.conn.mtu;
  pc.discriminator = p.conn.discriminator;
  pc.token = p.conn.token;
  pc.epoch = p.conn.epoch;

  // A request may arrive before the application reaches connectWait (e.g.
  // the server is still preposting buffers): queue it for a grace period
  // and reject with "no match" only if nobody claims it in time.
  Listener& listener = listeners_[p.conn.discriminator];
  if (!listener.signal) listener.signal = std::make_unique<sim::Signal>(engine_);

  const std::uint64_t disc = p.conn.discriminator;
  const std::uint32_t token = p.conn.token;
  const fabric::NodeId fromNode = p.src;
  const sim::EventId grace =
      engine_.post(kConnRequestGrace, [this, disc, token, fromNode] {
        auto lit = listeners_.find(disc);
        if (lit == listeners_.end()) return;
        auto& queue = lit->second.queue;
        for (auto qit = queue.begin(); qit != queue.end(); ++qit) {
          if (qit->first.token != token || qit->first.remoteNode != fromNode) {
            continue;
          }
          fabric::Packet r;
          r.kind = fabric::PacketKind::ConnReject;
          r.dst = qit->first.remoteNode;
          r.dstVi = qit->first.remoteVi;
          r.conn.token = token;
          r.rxError = kRejectNoMatch;
          device_.sendControl(std::move(r));
          queue.erase(qit);
          return;
        }
      });
  listener.queue.emplace_back(pc, grace);
  listener.signal->notifyAll();
}

void Provider::onConnResponse(fabric::Packet&& p) {
  auto it = pendingConnects_.find(p.conn.token);
  if (it == pendingConnects_.end()) {
    // The requester timed out before the answer arrived; if the remote
    // accepted, tell it the connection is dead.
    if (p.kind == fabric::PacketKind::ConnAccept) {
      fabric::Packet d;
      d.kind = fabric::PacketKind::Disconnect;
      d.dst = p.src;
      d.dstVi = p.srcVi;
      device_.sendControl(std::move(d));
    }
    return;
  }
  PendingConnect& st = it->second;
  st.responded = true;
  st.accepted = p.kind == fabric::PacketKind::ConnAccept;
  st.rejectReason = p.rxError;
  st.remoteNode = p.src;
  st.remoteVi = p.srcVi;
  st.mts = p.conn.mtu;
  st.epoch = p.conn.epoch;
  st.remoteAttrs.reliabilityLevel =
      static_cast<nic::Reliability>(p.conn.reliability);
  st.remoteAttrs.maxTransferSize = p.conn.mtu;
  st.signal->notifyAll();
}

void Provider::onDisconnect(fabric::Packet&& p) {
  auto it = byEndpoint_.find(p.dstVi);
  if (it == byEndpoint_.end()) return;
  Vi* vi = it->second;
  if (vi->state_ != ViState::Connected &&
      vi->state_ != ViState::PendingConnect) {
    return;
  }
  device_.teardownConnection(vi->ep_);
  vi->state_ = ViState::Disconnected;
  scheduleErrorCallback(vi->ep_, nic::WorkStatus::ConnectionLost);
}

void Provider::onConnectionError(nic::ViEndpointId ep, nic::WorkStatus why) {
  auto it = byEndpoint_.find(ep);
  if (it == byEndpoint_.end()) return;
  Vi* vi = it->second;
  vi->state_ = ViState::Error;
  scheduleErrorCallback(ep, why);
}

void Provider::scheduleErrorCallback(nic::ViEndpointId ep,
                                     nic::WorkStatus why) {
  if (!errorCallback_) return;  // no observer: post nothing, stay byte-equal
  engine_.post(0, [this, ep, why] {
    auto it = byEndpoint_.find(ep);
    if (it == byEndpoint_.end()) return;  // VI destroyed before delivery
    if (errorCallback_) errorCallback_(it->second, why);
  });
}

}  // namespace vibe::vipl
