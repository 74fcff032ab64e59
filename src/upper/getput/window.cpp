#include "upper/getput/window.hpp"

#include <algorithm>
#include <stdexcept>

#include "upper/wire.hpp"
#include "vipl/vipl.hpp"

namespace vibe::upper::getput {

namespace {

using vipl::VipDescriptor;
using wire::append;
using wire::consume;

constexpr int kPutTag = msg::Communicator::kServiceTagBase + 1;
constexpr int kGetReqTag = msg::Communicator::kServiceTagBase + 2;
constexpr int kGetRespTag = msg::Communicator::kServiceTagBase + 3;
constexpr int kHandleTag = msg::Communicator::kServiceTagBase + 4;

constexpr vipl::ResultCheck require{"getput::Window: "};

}  // namespace

std::unique_ptr<Window> Window::create(msg::Communicator& comm,
                                       const WindowConfig& config) {
  auto w = std::unique_ptr<Window>(new Window(comm, config));
  w->exchangeHandles();
  return w;
}

Window::Window(msg::Communicator& comm, const WindowConfig& config)
    : comm_(comm), config_(config), nic_(&comm.provider()) {
  vipl::VipMemAttributes ma;
  ma.ptag = comm_.ptag();
  ma.enableRdmaWrite = true;
  ma.enableRdmaRead = true;
  localBase_ = nic_->memory().alloc(config_.windowBytes, mem::kPageSize);
  require(nic_->registerMem(localBase_, config_.windowBytes, ma,
                            localHandle_),
          "register window");
  stagingVa_ = nic_->memory().alloc(kStagingBytes, mem::kPageSize);
  mem::MemHandle stagingHandle = 0;
  require(nic_->registerMem(stagingVa_, kStagingBytes, ma, stagingHandle),
          "register staging");
  stagingHandle_ = stagingHandle;
  for (const int tag : {kPutTag, kGetReqTag, kGetRespTag, kHandleTag}) {
    comm_.addServiceHandler(
        tag, [this](std::uint32_t src, int t, std::vector<std::byte> payload) {
          onService(src, t, std::move(payload));
        });
  }
  remoteBase_.assign(comm_.size(), 0);
  remoteHandle_.assign(comm_.size(), 0);
}

Window::~Window() = default;

void Window::exchangeHandles() {
  // Everyone sends (base, handle) to everyone; FIFO channels make this a
  // safe all-to-all without extra synchronization.
  std::vector<std::byte> mine;
  append(mine, localBase_);
  append(mine, localHandle_);
  for (std::uint32_t p = 0; p < comm_.size(); ++p) {
    if (p == comm_.rank()) continue;
    comm_.send(p, kHandleTag, mine);
  }
  remoteBase_[comm_.rank()] = localBase_;
  remoteHandle_[comm_.rank()] = localHandle_;
  std::uint32_t received = 0;
  while (received < comm_.size() - 1) {
    bool progressed = false;
    for (std::uint32_t p = 0; p < comm_.size(); ++p) {
      if (p == comm_.rank() || remoteBase_[p] != 0) continue;
      comm_.progressBlocking(p);
      progressed = true;
      break;
    }
    if (!progressed) break;
    received = 0;
    for (std::uint32_t p = 0; p < comm_.size(); ++p) {
      if (p != comm_.rank() && remoteBase_[p] != 0) ++received;
    }
  }
  comm_.barrier();
}

void Window::onService(std::uint32_t src, int tag,
                       std::vector<std::byte> payload) {
  std::span<const std::byte> in(payload);
  switch (tag) {
    case kHandleTag: {
      remoteBase_[src] = consume<mem::VirtAddr>(in);
      remoteHandle_[src] = consume<mem::MemHandle>(in);
      return;
    }
    case kPutTag: {
      const auto offset = consume<std::uint64_t>(in);
      if (offset + in.size() > config_.windowBytes) {
        throw std::out_of_range("Window: put outside window");
      }
      nic_->memory().write(localBase_ + offset, in);
      return;
    }
    case kGetReqTag: {
      const auto offset = consume<std::uint64_t>(in);
      const auto len = consume<std::uint64_t>(in);
      const auto token = consume<std::uint32_t>(in);
      if (offset + len > config_.windowBytes) {
        throw std::out_of_range("Window: get outside window");
      }
      std::vector<std::byte> reply;
      append(reply, token);
      std::vector<std::byte> data(len);
      nic_->memory().read(localBase_ + offset, data);
      reply.insert(reply.end(), data.begin(), data.end());
      comm_.send(src, kGetRespTag, reply);
      return;
    }
    case kGetRespTag: {
      const auto token = consume<std::uint32_t>(in);
      getReplies_[token].assign(in.begin(), in.end());
      return;
    }
    default:
      throw std::logic_error("Window: unknown service tag");
  }
}

void Window::put(std::uint32_t target, std::uint64_t offset,
                 std::span<const std::byte> data) {
  if (offset + data.size() > config_.windowBytes) {
    throw std::out_of_range("Window: put outside window");
  }
  if (target == comm_.rank()) {
    writeLocal(offset, data);
    return;
  }
  // Recovery-mode communicators expose no raw peer VI (peerVi() is null):
  // a raw RDMA write would bypass the session's replay framing, so the
  // one-sided op rides the exactly-once service-message path instead.
  vipl::Vi* vi =
      nic_->profile().supportsRdmaWrite ? comm_.peerVi(target) : nullptr;
  if (vi == nullptr) {
    // Active-message fallback (BVIA model: no RDMA): the target applies
    // the write in its progress engine.
    std::vector<std::byte> payload;
    append(payload, offset);
    payload.insert(payload.end(), data.begin(), data.end());
    comm_.send(target, kPutTag, payload);
    ++emulatedPuts_;
    return;
  }
  // RDMA write path: truly one-sided. Chunk at the staging size.
  std::uint64_t done = 0;
  while (done < data.size()) {
    const std::uint64_t chunk =
        std::min<std::uint64_t>(kStagingBytes, data.size() - done);
    nic_->memory().write(stagingVa_, data.subspan(done, chunk));
    VipDescriptor d = VipDescriptor::rdmaWrite(
        stagingVa_, stagingHandle_, static_cast<std::uint32_t>(chunk),
        remoteBase_[target] + offset + done, remoteHandle_[target]);
    require(nic_->postSend(vi, &d), "post RDMA put");
    VipDescriptor* reaped = nullptr;
    require(nic_->pollSend(vi, reaped), "RDMA put completion");
    done += chunk;
  }
  ++rdmaPuts_;
}

std::vector<std::byte> Window::get(std::uint32_t target, std::uint64_t offset,
                                   std::uint64_t len) {
  if (offset + len > config_.windowBytes) {
    throw std::out_of_range("Window: get outside window");
  }
  if (target == comm_.rank()) return readLocal(offset, len);

  // As in put(): null peerVi (recovery-mode communicator) forces the
  // request/reply fallback.
  vipl::Vi* vi =
      nic_->profile().supportsRdmaRead ? comm_.peerVi(target) : nullptr;
  if (vi != nullptr) {
    std::vector<std::byte> out(len);
    std::uint64_t done = 0;
    while (done < len) {
      const std::uint64_t chunk =
          std::min<std::uint64_t>(kStagingBytes, len - done);
      VipDescriptor d = VipDescriptor::rdmaRead(
          stagingVa_, stagingHandle_, static_cast<std::uint32_t>(chunk),
          remoteBase_[target] + offset + done, remoteHandle_[target]);
      require(nic_->postSend(vi, &d), "post RDMA get");
      VipDescriptor* reaped = nullptr;
      require(nic_->pollSend(vi, reaped), "RDMA get completion");
      nic_->memory().read(stagingVa_,
                          std::span<std::byte>(out.data() + done, chunk));
      done += chunk;
    }
    ++rdmaGets_;
    return out;
  }

  // Request/reply fallback served by the target's progress engine.
  const std::uint32_t token = nextToken_++;
  std::vector<std::byte> request;
  append(request, offset);
  append(request, len);
  append(request, token);
  comm_.send(target, kGetReqTag, request);
  // Progress-all while waiting: the target may be blocked in a get of its
  // own; serving its requests here breaks request cycles.
  while (getReplies_.find(token) == getReplies_.end()) {
    comm_.progressOrWait();
  }
  std::vector<std::byte> out = std::move(getReplies_[token]);
  getReplies_.erase(token);
  ++emulatedGets_;
  return out;
}

void Window::progress() { comm_.progress(); }

void Window::fence() {
  // All local operations are synchronous. The barrier progresses every
  // channel while waiting, so emulated puts/gets from any rank are served
  // during it; the trailing progress() drains anything that arrived on
  // the barrier's last hop.
  comm_.barrier(/*serveAll=*/true);
  comm_.progress();
}

void Window::writeLocal(std::uint64_t offset,
                        std::span<const std::byte> data) {
  if (offset + data.size() > config_.windowBytes) {
    throw std::out_of_range("Window: local write outside window");
  }
  nic_->memory().write(localBase_ + offset, data);
}

std::vector<std::byte> Window::readLocal(std::uint64_t offset,
                                         std::uint64_t len) const {
  if (offset + len > config_.windowBytes) {
    throw std::out_of_range("Window: local read outside window");
  }
  std::vector<std::byte> out(len);
  nic_->memory().read(localBase_ + offset, out);
  return out;
}

}  // namespace vibe::upper::getput
