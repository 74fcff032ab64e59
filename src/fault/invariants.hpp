// InvariantChecker: a Tracer consumer that verifies reliability-protocol
// invariants from the trace stream of a chaos run.
//
// Checked online, per (node, VI), in stream order:
//   1. Exactly-once in-order delivery — on reliable connections, delivered
//      message sequence numbers are strictly consecutive from 0 (reset by
//      each connection configure); a duplicate or a gap is a violation.
//   2. No completion after disconnect — once a VI's connection is torn
//      down, broken, or destroyed, no further Ok-status completion may
//      appear for it (error flushes — Aborted/ConnectionLost — are the
//      expected terminal completions).
//   3. Bounded retry — the engine may fire at most rtoRetryBudget
//      consecutive retransmission timeouts without ack progress; a "retry
//      budget exhausted" mark must be followed by the connection break.
// Per (node, session) from the session layer's records, across epochs:
//   4. Cross-epoch exactly-once — session-delivered sequence numbers are
//      strictly consecutive from 1 per sending peer regardless of how many
//      reconnects happened in between; a "gap" record or a "dedup" of a
//      sequence the session never delivered is a violation. Keyed by the
//      records' src= peer too: one node may hold several sessions under
//      one sid (every recoverable stream socket uses the same).
//   5. Bounded downtime — when an MTTR bound is configured, any recovery
//      episode ("up" record) that took longer is a violation.
// And at finalize(), against the NIC statistics:
//   6. Retransmission count consistency — the retransmissions recorded in
//      the trace stream sum to exactly NicStats::retransmits per node.
//   7. No session is left mid-outage (Recovering/Down) unless the test
//      opted in with setAllowDownAtExit.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "simcore/trace.hpp"
#include "vibe/cluster.hpp"

namespace vibe::fault {

class InvariantChecker {
 public:
  explicit InvariantChecker(std::uint32_t rtoRetryBudget = 16)
      : budget_(rtoRetryBudget) {}

  /// Registers this checker as `tracer`'s sink and enables the categories
  /// it consumes (Rx, Completion, Reliability, Connection, Session). The
  /// tracer must outlive the checker's use.
  void attach(sim::Tracer& tracer);

  /// Bounded-downtime check: any recovery episode longer than `usec`
  /// microseconds is a violation. 0 (the default) disables the check.
  void setMttrBoundUsec(std::uint64_t usec) { mttrBoundUsec_ = usec; }

  /// By default a session still down at finalize() is a violation; tests
  /// that deliberately end mid-outage (or drive the circuit breaker to
  /// Down on purpose) opt out here.
  void setAllowDownAtExit(bool allow) { allowDownAtExit_ = allow; }

  /// Invoked once, on the FIRST violation, with its description — the
  /// flight-recorder trigger (obs::FlightRecorder::violationHook), so a
  /// failing chaos run dumps its telemetry rings at the moment things
  /// went wrong rather than at teardown. Null by default.
  void setViolationHook(std::function<void(const std::string&)> hook) {
    violationHook_ = std::move(hook);
  }

  /// Consumes one record; normally called through the tracer sink.
  void onRecord(const sim::TraceRecord& rec);

  /// End-of-run checks against per-node NIC statistics.
  void finalize(suite::Cluster& cluster);

  bool ok() const { return violations_.empty(); }
  const std::vector<std::string>& violations() const { return violations_; }
  /// All violations joined into one printable block (empty when ok).
  std::string report() const;

  /// Reliable in-order deliveries observed (test-assertion helper).
  std::uint64_t reliableDeliveries() const { return reliableDeliveries_; }
  /// Retransmissions observed in the trace stream for `node`.
  std::uint64_t tracedRetransmits(std::uint32_t node) const;
  /// Session-layer accounting observed in the trace stream.
  std::uint64_t sessionDeliveries() const { return sessionDeliveries_; }
  std::uint64_t sessionReplays() const { return sessionReplays_; }
  std::uint64_t sessionRecoveries() const { return sessionRecoveries_; }

 private:
  struct ViState {
    bool reliable = false;
    bool closed = false;
    std::uint64_t nextMsgSeq = 0;
    std::uint32_t consecutiveRto = 0;
    bool expectBreak = false;
  };

  struct SessionAcct {
    bool down = false;    // saw "down"/"halt" without a later "up"
    bool halted = false;  // circuit breaker tripped
  };

  static std::uint64_t key(std::uint32_t node, std::uint64_t vi) {
    return (static_cast<std::uint64_t>(node) << 32) | vi;
  }
  void violation(const sim::TraceRecord& rec, std::string what);
  void onSessionRecord(const sim::TraceRecord& rec);

  std::uint32_t budget_;
  std::unordered_map<std::uint64_t, ViState> vis_;
  std::unordered_map<std::uint64_t, SessionAcct> sessions_;
  /// Receiver watermark (last in-order seq) per (node, sid, src peer).
  std::map<std::tuple<std::uint32_t, std::uint64_t, std::uint64_t>,
           std::uint64_t>
      delivered_;
  std::unordered_map<std::uint32_t, std::uint64_t> retransmitsByNode_;
  std::vector<std::string> violations_;
  std::uint64_t reliableDeliveries_ = 0;
  std::uint64_t sessionDeliveries_ = 0;
  std::uint64_t sessionReplays_ = 0;
  std::uint64_t sessionRecoveries_ = 0;
  std::uint64_t mttrBoundUsec_ = 0;
  bool allowDownAtExit_ = false;
  std::function<void(const std::string&)> violationHook_;
};

}  // namespace vibe::fault
