// Flat, spec-named VIPL surface.
//
// Applications and the VIBe micro-benchmarks can program against the exact
// function names of the VIA Provider Library specification; each call
// forwards to the Provider object for the NIC handle. This keeps benchmark
// code readable side-by-side with the paper and with historical VIA code.
#pragma once

#include <stdexcept>
#include <string>

#include "vipl/provider.hpp"

namespace vibe::vipl {

/// The result check of every layer above VIPL. Each layer declares one,
/// e.g. `constexpr vipl::ResultCheck require{"rpc: "};`, and a call that
/// does not return VIP_SUCCESS throws std::runtime_error with the text
/// "<prefix><what> -> <VipResult name>".
struct ResultCheck {
  const char* prefix;

  void operator()(VipResult r, const char* what) const {
    if (r != VipResult::VIP_SUCCESS) fail(r, what);
  }

 private:
  // Out of line and cold: a check costs its call site one compare.
  [[noreturn, gnu::cold, gnu::noinline]] void fail(VipResult r,
                                                    const char* what) const {
    throw std::runtime_error(std::string(prefix) + what + " -> " +
                             vipl::toString(r));
  }
};

// --- NIC ---
inline VipResult VipQueryNic(Provider& nic, VipNicAttributes& attrs) {
  return nic.queryNic(attrs);
}

// --- protection tags ---
inline mem::PtagId VipCreatePtag(Provider& nic) { return nic.createPtag(); }
inline VipResult VipDestroyPtag(Provider& nic, mem::PtagId ptag) {
  return nic.destroyPtag(ptag);
}

// --- memory ---
inline VipResult VipRegisterMem(Provider& nic, mem::VirtAddr va,
                                std::uint64_t len,
                                const VipMemAttributes& attrs,
                                mem::MemHandle& handle) {
  return nic.registerMem(va, len, attrs, handle);
}
inline VipResult VipDeregisterMem(Provider& nic, mem::MemHandle handle) {
  return nic.deregisterMem(handle);
}

// --- VI lifecycle ---
inline VipResult VipCreateVi(Provider& nic, const VipViAttributes& attrs,
                             Cq* sendCq, Cq* recvCq, Vi*& vi) {
  return nic.createVi(attrs, sendCq, recvCq, vi);
}
inline VipResult VipDestroyVi(Provider& nic, Vi* vi) {
  return nic.destroyVi(vi);
}
inline VipResult VipQueryVi(Provider& nic, Vi* vi, ViState& state,
                            VipViAttributes& attrs, bool& sendQueueEmpty,
                            bool& recvQueueEmpty) {
  return nic.queryVi(vi, state, attrs, sendQueueEmpty, recvQueueEmpty);
}
inline VipResult VipSetViAttributes(Provider& nic, Vi* vi,
                                    const VipViAttributes& attrs) {
  return nic.setViAttributes(vi, attrs);
}

// --- completion queues ---
inline VipResult VipCreateCQ(Provider& nic, std::size_t entries, Cq*& cq) {
  return nic.createCq(entries, cq);
}
inline VipResult VipDestroyCQ(Provider& nic, Cq* cq) {
  return nic.destroyCq(cq);
}
inline VipResult VipResizeCQ(Provider& nic, Cq* cq, std::size_t entries) {
  return nic.resizeCq(cq, entries);
}
inline VipResult VipCQDone(Provider& nic, Cq* cq, Vi*& vi, bool& isRecv) {
  return nic.cqDone(cq, vi, isRecv);
}
inline VipResult VipCQWait(Provider& nic, Cq* cq, sim::Duration timeout,
                           Vi*& vi, bool& isRecv) {
  return nic.cqWait(cq, timeout, vi, isRecv);
}

// --- connection management ---
inline VipResult VipConnectWait(Provider& nic, const VipNetAddress& local,
                                sim::Duration timeout, PendingConn& conn) {
  return nic.connectWait(local, timeout, conn);
}
inline VipResult VipConnectAccept(Provider& nic, const PendingConn& conn,
                                  Vi* vi) {
  return nic.connectAccept(conn, vi);
}
inline VipResult VipConnectReject(Provider& nic, const PendingConn& conn) {
  return nic.connectReject(conn);
}
inline VipResult VipConnectRequest(Provider& nic, Vi* vi,
                                   const VipNetAddress& remote,
                                   sim::Duration timeout,
                                   VipViAttributes* remoteAttrs = nullptr) {
  return nic.connectRequest(vi, remote, timeout, remoteAttrs);
}
inline VipResult VipDisconnect(Provider& nic, Vi* vi) {
  return nic.disconnect(vi);
}
/// Extension beyond VIPL 1.0: returns an Error/Disconnected/Connected VI
/// to Idle so it can be reconnected; in-flight descriptors are abandoned
/// and a live connection is torn down (see Provider::resetVi).
inline VipResult VipResetVi(Provider& nic, Vi* vi) { return nic.resetVi(vi); }

// --- data transfer ---
inline VipResult VipPostSend(Provider& nic, Vi* vi, VipDescriptor* desc) {
  return nic.postSend(vi, desc);
}
inline VipResult VipPostRecv(Provider& nic, Vi* vi, VipDescriptor* desc) {
  return nic.postRecv(vi, desc);
}
inline VipResult VipSendDone(Provider& nic, Vi* vi, VipDescriptor*& desc) {
  return nic.sendDone(vi, desc);
}
inline VipResult VipRecvDone(Provider& nic, Vi* vi, VipDescriptor*& desc) {
  return nic.recvDone(vi, desc);
}
inline VipResult VipSendWait(Provider& nic, Vi* vi, sim::Duration timeout,
                             VipDescriptor*& desc) {
  return nic.sendWait(vi, timeout, desc);
}
inline VipResult VipRecvWait(Provider& nic, Vi* vi, sim::Duration timeout,
                             VipDescriptor*& desc) {
  return nic.recvWait(vi, timeout, desc);
}
inline VipResult VipRecvNotify(Provider& nic, Vi* vi,
                               std::function<void(VipDescriptor*)> handler) {
  return nic.recvNotify(vi, std::move(handler));
}

// --- name service ---
inline VipResult VipNSGetHostByName(Provider& nic, const std::string& name,
                                    fabric::NodeId& addr) {
  return nic.nsGetHostByName(name, addr);
}

// --- error handling ---
inline void VipErrorCallback(Provider& nic,
                             std::function<void(Vi*, nic::WorkStatus)> cb) {
  nic.setErrorCallback(std::move(cb));
}

}  // namespace vibe::vipl
