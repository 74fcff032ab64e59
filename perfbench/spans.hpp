// Host wall-clock spans recorded by the benchmark around its calls into
// each simulator layer, plus the arithmetic that turns them into per-layer
// numbers (parent assignment and self time).
//
// Recording is per thread: every thread that records gets its own timeline
// the first time it does, so the hot path is two clock reads and a
// push_back with no lock. Timelines outlive their threads (each simulated
// process is an OS thread that exits with its episode) and are collected
// once recording has stopped.
#pragma once

#include <cstdint>
#include <vector>

namespace perfbench {

/// The layer boundaries the benchmark times.
enum class SpanKind : std::uint8_t {
  ClusterBuild,  // vibe: suite::Cluster constructor
  Register,      // mem: VipRegisterMem
  Connect,       // vipl: VipConnectRequest, or the connecting RpcClient ctor
  Accept,        // upper/rpc: RpcServer::acceptClients
  Post,          // vipl: VipPostSend / VipPostRecv
  Reap,          // vipl: pollSend / pollRecv
  Call,          // upper/rpc: RpcClient::call
};

const char* spanName(SpanKind kind);

struct Span {
  SpanKind kind = SpanKind::Post;
  std::uint32_t thread = 0;  // timeline (recording thread) index
  std::uint64_t op = 0;      // 0 = set-up; otherwise the 1-based op id
  std::int64_t start = 0;    // steady_clock ns
  std::int64_t end = 0;
  std::int32_t parent = -1;  // index into the same vector; -1 = root
};

/// steady_clock now, in ns.
std::int64_t nowNs();

/// Turns recording on or off. Call only while no simulation runs, so
/// threads started afterwards see the new value.
void setSpanRecording(bool on);
bool spanRecording();

/// Appends one span to the calling thread's timeline.
void recordSpan(SpanKind kind, std::uint64_t op, std::int64_t start,
                std::int64_t end);

/// Moves every recorded span out of every timeline. Call only when no
/// thread is recording.
std::vector<Span> collectSpans();

/// Times one call into a layer; records nothing while recording is off.
class SpanScope {
 public:
  SpanScope(SpanKind kind, std::uint64_t op)
      : kind_(kind), op_(op), start_(spanRecording() ? nowNs() : -1) {}
  ~SpanScope() {
    if (start_ >= 0) recordSpan(kind_, op_, start_, nowNs());
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  SpanKind kind_;
  std::uint64_t op_;
  std::int64_t start_;
};

/// How a span's parent is found.
///   Global     the latest-started span of any thread still open when the
///              span starts. Right for the serial engine, where exactly one
///              thread runs simulation code at a time: while one program
///              is parked in a reap, the peer program's spans are its
///              children.
///   PerThread  the latest-started open span of the same thread, for the
///              sharded engine, whose programs run concurrently.
enum class Nesting : std::uint8_t { Global, PerThread };

/// Sorts `spans` by (start, longer first, thread) and fills each parent.
void assignParents(std::vector<Span>& spans, Nesting nesting);

/// Self time of each span: its duration minus the part of its interval
/// that its children cover. Needs assignParents() first.
std::vector<std::int64_t> selfTimes(const std::vector<Span>& spans);

}  // namespace perfbench
