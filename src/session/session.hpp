// Session recovery layer: automatic reconnect with exactly-once replay.
//
// VIA connections are fail-fast by design: a retry-budget exhaustion or an
// injected fault breaks the connection, flushes every posted descriptor
// with Aborted/ConnectionLost, and leaves the VI in Error. A Session wraps
// one VI pair endpoint and turns that into a recoverable stream:
//
//   * Every application message carries a session header (sid, connection
//     epoch, message sequence number). Sent payloads are retained in a
//     replay buffer until the peer has provably placed them.
//   * When the connection breaks, the session re-establishes it under a
//     ReconnectPolicy — exponential backoff with deterministic seed-derived
//     jitter, a per-round attempt budget, and a circuit breaker that
//     degrades the session to Down after maxRounds failed rounds.
//   * After every (re)connect the two sides exchange Hello frames carrying
//     their connection epoch and cumulative-delivered watermark. The sender
//     trims its replay buffer to the watermark and resubmits the rest; the
//     receiver drops anything at or below its watermark (duplicates) and
//     anything from a stale epoch. Net effect: exactly-once, in-order
//     delivery across any number of reconnects.
//
// Sessions force ReliableReception: under ReliableDelivery a message can be
// acknowledged at NIC receipt yet lost before placement when the connection
// breaks in between, so an Ok send completion would not imply delivery and
// the replay trim would drop a message forever. With RR, Ok == placed.
//
// The receive path is an interrupt-driven ring: ringDepth descriptors are
// preposted and re-armed from a VipRecvNotify handler that copies the
// payload out, reposts the descriptor, and wakes any blocked reader — the
// ring can never starve because the application was slow to repost.
//
// Everything here is zero-cost when unused: no Session, no extra events,
// no extra trace records, and all benchmark output stays byte-identical.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "simcore/prng.hpp"
#include "vipl/vipl.hpp"

namespace vibe::session {

/// Backoff/retry schedule for re-establishing a broken connection.
struct ReconnectPolicy {
  sim::Duration backoffBase = sim::msec(1);   // first retry delay
  sim::Duration backoffCap = sim::msec(32);   // exponential growth ceiling
  double jitterFrac = 0.2;                    // +/- fraction of each delay
  std::uint32_t attemptsPerRound = 4;         // connect tries per round
  std::uint32_t maxRounds = 8;                // circuit breaker: then Down
  sim::Duration connectTimeout = sim::msec(20);   // per connect dialog
  sim::Duration helloTimeout = sim::msec(50);     // per watermark exchange
  /// While Established, the passive side polls for a peer-initiated
  /// reconnect (half-open detection) at most this often.
  sim::Duration acceptPollInterval = sim::usec(200);
  /// While Established and otherwise idle, the initiator re-sends its Hello
  /// watermark at most this often; if the passive side silently lost its
  /// endpoint, the probe trips the RTO budget and surfaces the break. 0
  /// disables probing.
  sim::Duration probeInterval = sim::msec(5);
  /// Run seed; jitter derives from (seed, sid) so runs are reproducible.
  std::uint64_t seed = 0;
};

enum class SessionState : std::uint8_t {
  Idle,         // constructed, establish() not yet called
  Connecting,   // first establishment in progress
  Established,  // connected, stream flowing
  Recovering,   // connection lost, reconnect loop running
  Down,         // circuit breaker tripped: recovery abandoned
};

const char* toString(SessionState s);

/// Recovery and stream accounting, exposed for benchmarks and tests.
struct SessionStats {
  std::uint64_t reconnects = 0;       // successful re-establishments
  std::uint64_t connectAttempts = 0;  // connect dialogs tried (incl. failed)
  std::uint64_t replayed = 0;         // messages resubmitted after reconnect
  std::uint64_t deduped = 0;          // duplicate deliveries suppressed
  std::uint64_t staleDropped = 0;     // frames from a previous epoch dropped
  std::uint64_t sent = 0;             // messages accepted by send()
  std::uint64_t delivered = 0;        // messages handed to the application
  sim::Duration totalDowntime = 0;    // sum of all recovery episodes
  sim::Duration lastMttr = 0;         // most recent recovery episode
  std::uint64_t reopens = 0;          // deliberate reopen() revivals tried
};

struct SessionConfig {
  /// Caller-assigned session id; must be deterministic (it seeds the
  /// jitter PRNG and keys trace records) and unique per stream direction
  /// pair on a node.
  std::uint32_t sid = 0;
  fabric::NodeId remoteNode = 0;
  std::uint64_t discriminator = 0;
  /// Exactly one side of a session pair is the initiator (issues
  /// connectRequest); the other accepts.
  bool initiator = true;
  std::uint32_t maxMessageBytes = 16u << 10;
  std::uint32_t ringDepth = 16;  // preposted receive descriptors
  ReconnectPolicy policy;
  /// Optional observability hooks (both may be null).
  obs::MetricsRegistry* metrics = nullptr;
  obs::SpanProfiler* spans = nullptr;
};

class Session {
 public:
  Session(vipl::Provider& nic, SessionConfig cfg);
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Connects (blocking, with the full retry schedule). False => Down.
  bool establish();

  /// Deliberate revival of a Down session: resets the tripped circuit
  /// breaker and re-runs the full connect schedule. On the passive side
  /// this first peeks (non-blocking) for a pending connect request and
  /// returns false immediately when the peer is not redialing, so a
  /// server loop can call it periodically without stalling. Returns true
  /// when the session is Established again (trivially so if it already
  /// is); false when it was never Down, the peer is not dialing, or the
  /// retry schedule failed again (back to Down). The replay buffer and
  /// watermarks survive, so the revived stream stays exactly-once.
  bool reopen();

  /// Queues one message for exactly-once delivery. Never blocks: during an
  /// outage messages accumulate in the replay buffer and flow after
  /// recovery. False when the session is Down/Idle or the message exceeds
  /// maxMessageBytes.
  bool send(std::span<const std::byte> msg);
  bool send(const void* data, std::size_t len) {
    return send({static_cast<const std::byte*>(data), len});
  }

  /// Blocking receive of the next in-order message. Runs recovery inline
  /// if the connection drops while waiting. False on timeout or Down.
  bool recv(std::vector<std::byte>& out, sim::Duration timeout);

  /// Non-blocking: makes progress (including inline recovery if the
  /// connection is found broken) and pops one delivered message if any.
  bool poll(std::vector<std::byte>& out);

  /// Blocks until every sent message is confirmed placed at the peer.
  /// False on timeout or Down.
  bool flush(sim::Duration timeout);

  /// Drives completions, half-open detection, replay posting, and — when
  /// the connection is found broken — the blocking recovery loop.
  void progress();

  SessionState state() const { return state_; }
  const SessionStats& stats() const { return stats_; }
  std::uint32_t sid() const { return cfg_.sid; }
  /// Current connection incarnation (the wrapped VI's epoch).
  std::uint32_t epoch() const { return vi_->epoch(); }
  bool down() const { return state_ == SessionState::Down; }
  vipl::Vi* vi() const { return vi_; }
  std::size_t unconfirmed() const { return replay_.size(); }

 private:
  struct Outbound {
    std::uint64_t seq = 0;
    std::vector<std::byte> payload;
    bool everPosted = false;  // replays count only messages already tried
  };
  struct SendSlot {
    bool busy = false;
    std::uint64_t seq = 0;
    vipl::VipDescriptor desc;
  };

  // -- establishment / recovery --
  bool connectLoop();       // full backoff schedule; trips breaker on fail
  bool establishOnce();     // one connect dialog + hello exchange
  bool prepareEndpoint();   // reset VI if needed, prepost + arm the ring
  bool helloExchange();     // swap epoch/watermark, trim + requeue replay
  /// The one Hello post (exchange and idle probe): announces this side's
  /// epoch and cumulative-delivered watermark. False if the post failed.
  bool postHello();
  bool claimRequest(sim::Duration timeout, vipl::PendingConn& out);
  void markBroken();        // Established -> Recovering bookkeeping
  void onEstablished(std::uint32_t attempts);
  void maybeAcceptPoll();   // passive side: detect peer-initiated reconnect
  sim::Duration backoffDelay(std::uint32_t attempt);

  // -- datapath --
  void pump();                     // post queued outbound into free slots
  void drainSendCompletions();
  void handleSendCompletion(vipl::VipDescriptor* d);
  void onRecvInterrupt(vipl::VipDescriptor* d, std::uint64_t gen);
  void armNotify();

  // -- plumbing --
  sim::Process& self() const;
  /// Records a Session trace line; the printf-style text is formatted
  /// only for an attached tracer with the Session category enabled.
  template <typename... Args>
  void traceRec(const char* format, Args... args) const;
  mem::VirtAddr sendSlotVa(std::size_t i) const;
  mem::VirtAddr helloVa() const;
  mem::VirtAddr ringVa(std::size_t i) const;
  obs::Counter* counter(const char* name) const;

  vipl::Provider& nic_;
  SessionConfig cfg_;
  sim::Engine& engine_;
  mem::PtagId ptag_ = 0;
  mem::VirtAddr arena_ = 0;
  mem::MemHandle handle_ = 0;
  std::uint32_t slotBytes_ = 0;
  vipl::Vi* vi_ = nullptr;
  sim::Signal recvSignal_;
  sim::Xoshiro256 jitter_;

  SessionState state_ = SessionState::Idle;
  SessionStats stats_;
  std::string scope_;  // metrics prefix, "node<N>/session<sid>"

  // Sender side: unconfirmed messages, oldest first. The first
  // postedCount_ entries are in flight in send slots.
  std::deque<Outbound> replay_;
  std::size_t postedCount_ = 0;
  std::uint64_t nextSeq_ = 1;
  std::vector<SendSlot> slots_;
  vipl::VipDescriptor helloDesc_;

  // Receiver side.
  std::vector<vipl::VipDescriptor> ring_;
  std::deque<std::vector<std::byte>> inbox_;
  std::uint64_t rxDelivered_ = 0;   // highest in-order seq delivered
  std::uint32_t peerEpoch_ = 0;     // from the latest Hello
  std::uint64_t peerDelivered_ = 0; // peer's watermark from latest Hello
  bool helloSeen_ = false;

  // Recovery bookkeeping.
  sim::SimTime downAt_ = 0;
  bool wasEstablished_ = false;
  std::uint64_t epochGen_ = 0;  // bumped per prepareEndpoint; fences stale
                                // notify-handler events across resets
  sim::SimTime lastAcceptPoll_ = 0;
  sim::SimTime lastProbe_ = 0;
  bool probeInFlight_ = false;
  std::optional<vipl::PendingConn> claimed_;  // from maybeAcceptPoll
  std::shared_ptr<int> alive_;  // notify handlers hold a weak_ptr to this
};

}  // namespace vibe::session
