// Wire-level packet format for the simulated SAN.
//
// The fabric moves real bytes: DATA/RDMA fragments carry their payload so
// end-to-end tests can verify data integrity through fragmentation, loss,
// and retransmission. Control packets (connection management, ACKs) carry
// metadata only and are modelled as small fixed-size frames.
//
// Ownership: a frame travels as one PacketPtr box, made by its sender and
// moved from hop to hop (host uplink, switches, links, the receiving NIC)
// until the last hop drops it, so each hop's event carries a pointer, not
// the packet. The payload bytes are written once, when the sender builds
// the Payload, and are immutable afterwards: copies of the header (the
// retransmit buffer, the probe frame, a resend) share them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>

namespace vibe::fabric {

/// Identifies a host on the fabric.
using NodeId = std::uint32_t;

/// Fabric-visible identifier of a VI endpoint on a node.
using ViEndpointId = std::uint32_t;

enum class PacketKind : std::uint8_t {
  Data,          // send/recv model fragment
  RdmaWrite,     // RDMA-write fragment (carries remote address)
  RdmaReadReq,   // RDMA-read request (no payload)
  RdmaReadResp,  // RDMA-read response fragment (carries payload)
  Ack,           // reliability acknowledgment (cumulative, per VI)
  ConnRequest,   // connection management handshake
  ConnAccept,
  ConnReject,
  Disconnect,
};

/// Returns true for packet kinds that carry user payload bytes.
constexpr bool carriesPayload(PacketKind k) {
  return k == PacketKind::Data || k == PacketKind::RdmaWrite ||
         k == PacketKind::RdmaReadResp;
}

/// Connection-management dialog frames. Real VIA implementations run this
/// dialog over a separate reliable channel (M-VIA used kernel sockets, cLAN
/// a managed hardware exchange), so the loss injector leaves them alone;
/// only the data path experiences drops.
constexpr bool isConnectionManagement(PacketKind k) {
  return k == PacketKind::ConnRequest || k == PacketKind::ConnAccept ||
         k == PacketKind::ConnReject || k == PacketKind::Disconnect;
}

/// A frame's payload: one immutable byte block shared by every copy of
/// the frame's header. Copying a Payload copies a reference, not bytes.
class Payload {
 public:
  Payload() = default;

  /// Allocates `n` bytes uninitialized and has `fill(std::span<std::byte>)`
  /// write them; `fill` must write every byte. The block is read-only
  /// afterwards.
  template <typename Fill>
  static Payload build(std::size_t n, Fill&& fill) {
    Payload p;
    if (n == 0) return p;
    auto block = std::make_shared_for_overwrite<std::byte[]>(n);
    fill(std::span<std::byte>(block.get(), n));
    p.block_ = std::move(block);
    p.size_ = n;
    return p;
  }

  std::size_t size() const { return size_; }
  std::span<const std::byte> bytes() const { return {block_.get(), size_}; }

 private:
  std::shared_ptr<const std::byte[]> block_;
  std::size_t size_ = 0;
};

/// Connection-management metadata exchanged during the VIA dialog.
struct ConnInfo {
  std::uint64_t discriminator = 0;  // service discriminator (VipConnectWait)
  std::uint8_t reliability = 0;     // vipl reliability level (negotiated)
  std::uint32_t mtu = 0;            // proposed/accepted maximum transfer size
  std::uint32_t token = 0;          // matches request to accept/reject
  std::uint32_t epoch = 0;          // side's connection incarnation counter
                                    // (0 on the first connect; reconnects of
                                    // the same VI bump it — session layers
                                    // use it to fence stale traffic)
};

struct Packet {
  PacketKind kind = PacketKind::Data;
  NodeId src = 0;
  NodeId dst = 0;
  ViEndpointId srcVi = 0;
  ViEndpointId dstVi = 0;

  // Message framing (send/recv and RDMA data path).
  std::uint64_t fragSeq = 0;    // per-VI fragment sequence (reliability)
  std::uint64_t msgSeq = 0;     // message sequence number within the VI
  std::uint32_t fragIndex = 0;  // fragment index within the message
  std::uint32_t fragCount = 1;  // total fragments of the message
  std::uint64_t msgBytes = 0;   // total user bytes in the whole message
  std::uint64_t offset = 0;     // byte offset of this fragment

  // Immediate data travels in the control segment of the send descriptor.
  bool hasImmediate = false;
  std::uint32_t immediate = 0;

  // RDMA addressing (remote virtual address + memory handle).
  std::uint64_t remoteAddr = 0;
  std::uint32_t remoteHandle = 0;

  // Reliability: cumulative acknowledgments (fragment sequences). ackSeq
  // acknowledges NIC receipt; ackPlacedSeq acknowledges placement into
  // target memory (ReliableReception). rxError carries a remote protocol
  // error back to the sender (maps onto nic::WorkStatus).
  std::uint64_t ackSeq = 0;
  std::uint64_t ackPlacedSeq = 0;
  std::uint8_t rxError = 0;

  ConnInfo conn;

  // Observability stamp: virtual time the originating descriptor was
  // posted (copied from the work request into every fragment; pure data,
  // never consulted by the protocol).
  std::int64_t postedAt = 0;

  // Fault injection: the frame was damaged in flight. The payload bytes are
  // left intact (the simulator does not scramble memory); the flag models a
  // CRC failure that the receiving NIC detects and drops, exactly like a
  // loss except that the receiver sees and counts the mangled frame. The
  // flag belongs to one header copy: the sender's retransmit copy of a
  // frame corrupted in flight stays clean.
  bool corrupted = false;

  Payload payload;

  /// Bytes occupying the wire: payload plus a fixed per-frame header.
  std::uint64_t wireBytes(std::uint32_t headerBytes) const {
    return payload.size() + headerBytes;
  }
};

/// A frame in flight: one box per frame, moved from hop to hop.
using PacketPtr = std::unique_ptr<Packet>;

}  // namespace vibe::fabric
