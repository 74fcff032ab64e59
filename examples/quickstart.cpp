// Quickstart: the smallest complete VIPL program.
//
// Builds a two-host simulated SAN with the cLAN hardware-VIA model,
// connects a VI pair, exchanges a greeting, and runs a short ping-pong —
// the canonical first VIA program, written against the spec-named API.
//
//   $ ./quickstart
#include <cstdio>
#include <cstring>
#include <string>

#include "nic/profiles.hpp"
#include "vibe/cluster.hpp"
#include "vipl/vipl.hpp"

using namespace vibe;
using vipl::PendingConn;
using vipl::Vi;
using vipl::VipDescriptor;
using vipl::VipResult;

namespace {

constexpr std::uint64_t kService = 42;  // connection discriminator
constexpr std::uint32_t kBufBytes = 4096;

void check(VipResult r, const char* what) {
  if (r != VipResult::VIP_SUCCESS) {
    std::fprintf(stderr, "%s failed: %s\n", what, vipl::toString(r));
    std::exit(1);
  }
}

}  // namespace

int main() {
  suite::ClusterConfig config;
  config.profile = nic::clanProfile();  // try mviaProfile() / bviaProfile()
  config.nodes = 2;
  suite::Cluster cluster(config);

  auto client = [&](suite::NodeEnv& env) {
    vipl::Provider& nic = env.nic;

    // 1. Protection tag + registered buffer.
    const mem::PtagId ptag = vipl::VipCreatePtag(nic);
    const mem::VirtAddr buf = nic.memory().alloc(kBufBytes, mem::kPageSize);
    mem::MemHandle handle = 0;
    check(vipl::VipRegisterMem(nic, buf, kBufBytes, {ptag, false, false},
                               handle),
          "VipRegisterMem");

    // 2. Create a VI and connect to the server by name.
    vipl::VipViAttributes attrs;
    attrs.ptag = ptag;
    attrs.reliabilityLevel = nic::Reliability::ReliableDelivery;
    Vi* vi = nullptr;
    check(vipl::VipCreateVi(nic, attrs, nullptr, nullptr, vi), "VipCreateVi");
    fabric::NodeId server = 0;
    check(vipl::VipNSGetHostByName(nic, "node1", server),
          "VipNSGetHostByName");
    check(vipl::VipConnectRequest(nic, vi, {server, kService}, sim::kSecond),
          "VipConnectRequest");

    // 3. Send a greeting; the reply arrives in the same buffer.
    const std::string hello = "hello, VIA!";
    nic.memory().write(buf, std::as_bytes(std::span(hello)));
    VipDescriptor recvD = VipDescriptor::recv(buf, handle, kBufBytes);
    check(vipl::VipPostRecv(nic, vi, &recvD), "VipPostRecv");
    VipDescriptor sendD = VipDescriptor::send(
        buf, handle, static_cast<std::uint32_t>(hello.size()));
    check(vipl::VipPostSend(nic, vi, &sendD), "VipPostSend");
    VipDescriptor* done = nullptr;
    check(nic.pollSend(vi, done), "send completion");
    check(nic.pollRecv(vi, done), "reply");
    std::string reply(done->cs.length, '\0');
    nic.memory().read(buf, std::as_writable_bytes(std::span(reply)));
    std::printf("client got: \"%s\" (%u bytes) at t=%.1f us\n", reply.c_str(),
                done->cs.length, sim::toUsec(env.now()));

    // 4. A quick ping-pong latency measurement.
    constexpr int kIters = 200;
    const sim::SimTime t0 = env.now();
    for (int i = 0; i < kIters; ++i) {
      VipDescriptor r = VipDescriptor::recv(buf, handle, 4);
      check(vipl::VipPostRecv(nic, vi, &r), "post recv");
      VipDescriptor s = VipDescriptor::send(buf, handle, 4);
      check(vipl::VipPostSend(nic, vi, &s), "post send");
      check(nic.pollRecv(vi, done), "pong");
      check(nic.pollSend(vi, done), "ping completion");
    }
    std::printf("4-byte one-way latency on %s: %.2f us\n",
                nic.profile().name.c_str(),
                sim::toUsec(env.now() - t0) / (2.0 * kIters));
    check(vipl::VipDisconnect(nic, vi), "VipDisconnect");
  };

  auto server = [&](suite::NodeEnv& env) {
    vipl::Provider& nic = env.nic;
    const mem::PtagId ptag = vipl::VipCreatePtag(nic);
    const mem::VirtAddr buf = nic.memory().alloc(kBufBytes, mem::kPageSize);
    mem::MemHandle handle = 0;
    check(vipl::VipRegisterMem(nic, buf, kBufBytes, {ptag, false, false},
                               handle),
          "VipRegisterMem");
    vipl::VipViAttributes attrs;
    attrs.ptag = ptag;
    attrs.reliabilityLevel = nic::Reliability::ReliableDelivery;
    Vi* vi = nullptr;
    check(vipl::VipCreateVi(nic, attrs, nullptr, nullptr, vi), "VipCreateVi");

    VipDescriptor first = VipDescriptor::recv(buf, handle, kBufBytes);
    check(vipl::VipPostRecv(nic, vi, &first), "prepost");
    PendingConn conn;
    check(vipl::VipConnectWait(nic, {env.nodeId, kService}, sim::kSecond,
                               conn),
          "VipConnectWait");
    check(vipl::VipConnectAccept(nic, conn, vi), "VipConnectAccept");

    // Greeting: upper-case it and send it back.
    VipDescriptor* done = nullptr;
    check(nic.pollRecv(vi, done), "greeting");
    std::string text(done->cs.length, '\0');
    nic.memory().read(buf, std::as_writable_bytes(std::span(text)));
    for (char& c : text) c = static_cast<char>(std::toupper(c));
    nic.memory().write(buf, std::as_bytes(std::span(text)));
    VipDescriptor reply = VipDescriptor::send(
        buf, handle, static_cast<std::uint32_t>(text.size()));
    check(vipl::VipPostSend(nic, vi, &reply), "reply");
    check(nic.pollSend(vi, done), "reply completion");

    // Ping-pong responder.
    for (int i = 0; i < 200; ++i) {
      VipDescriptor r = VipDescriptor::recv(buf, handle, 4);
      check(vipl::VipPostRecv(nic, vi, &r), "post recv");
      check(nic.pollRecv(vi, done), "ping");
      VipDescriptor s = VipDescriptor::send(buf, handle, 4);
      check(vipl::VipPostSend(nic, vi, &s), "post pong");
      check(nic.pollSend(vi, done), "pong completion");
    }
  };

  cluster.run({client, server});
  std::printf("quickstart finished cleanly after %.1f simulated us\n",
              sim::toUsec(cluster.now()));
  return 0;
}
