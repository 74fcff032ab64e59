#include "fault/invariants.hpp"

#include <cstdlib>
#include <sstream>

namespace vibe::fault {

namespace {

constexpr std::size_t kMaxViolations = 64;  // keep pathological runs readable

/// Returns the unsigned integer following `key` in `msg`, or false.
bool findValue(const std::string& msg, const char* keyEq, std::uint64_t& out) {
  const std::size_t pos = msg.find(keyEq);
  if (pos == std::string::npos) return false;
  const char* p = msg.c_str() + pos + std::string_view(keyEq).size();
  char* end = nullptr;
  out = std::strtoull(p, &end, 10);
  return end != p;
}

/// Returns the word following `key` in `msg` (up to the next space).
bool findWord(const std::string& msg, const char* keyEq, std::string& out) {
  const std::size_t pos = msg.find(keyEq);
  if (pos == std::string::npos) return false;
  const std::size_t from = pos + std::string_view(keyEq).size();
  const std::size_t to = msg.find(' ', from);
  out = msg.substr(from, to == std::string::npos ? to : to - from);
  return !out.empty();
}

bool startsWith(const std::string& s, std::string_view prefix) {
  return s.compare(0, prefix.size(), prefix) == 0;
}

}  // namespace

void InvariantChecker::attach(sim::Tracer& tracer) {
  tracer.enable(sim::TraceCategory::Rx);
  tracer.enable(sim::TraceCategory::Completion);
  tracer.enable(sim::TraceCategory::Reliability);
  tracer.enable(sim::TraceCategory::Connection);
  tracer.enable(sim::TraceCategory::Session);
  tracer.setSink([this](const sim::TraceRecord& rec) { onRecord(rec); });
}

void InvariantChecker::violation(const sim::TraceRecord& rec,
                                 std::string what) {
  if (violations_.size() >= kMaxViolations) return;
  std::ostringstream os;
  os << "t=" << rec.time << "ns n" << rec.component << " ["
     << sim::toString(rec.category) << "] " << what << " (record: \""
     << rec.message << "\")";
  violations_.push_back(os.str());
  if (violations_.size() == 1 && violationHook_) {
    violationHook_(violations_.front());
  }
}

void InvariantChecker::onRecord(const sim::TraceRecord& rec) {
  const std::string& m = rec.message;
  std::uint64_t vi = 0;

  switch (rec.category) {
    case sim::TraceCategory::Connection: {
      if (!findValue(m, "vi=", vi)) return;
      ViState& s = vis_[key(rec.component, vi)];
      if (startsWith(m, "configure ")) {
        std::string rel;
        findWord(m, "rel=", rel);
        s.reliable = rel != "Unreliable";
        s.closed = false;
        s.nextMsgSeq = 0;
        s.consecutiveRto = 0;
        s.expectBreak = false;
      } else if (startsWith(m, "teardown ") || startsWith(m, "destroy ")) {
        s.closed = true;
        s.expectBreak = false;  // a clean close supersedes the break path
      } else if (startsWith(m, "break ")) {
        s.closed = true;
        s.expectBreak = false;
      }
      return;
    }

    case sim::TraceCategory::Rx: {
      if (!startsWith(m, "deliver ")) return;
      if (!findValue(m, "vi=", vi)) return;
      ViState& s = vis_[key(rec.component, vi)];
      std::string rel;
      findWord(m, "rel=", rel);
      const bool reliable = rel != "Unreliable";
      s.reliable = reliable;
      if (s.closed) {
        violation(rec, "delivery on a closed connection");
        return;
      }
      if (!reliable) return;
      ++reliableDeliveries_;
      std::uint64_t msg = 0;
      if (!findValue(m, "msg=", msg)) {
        violation(rec, "unparseable deliver record");
        return;
      }
      if (msg != s.nextMsgSeq) {
        violation(rec, "out-of-order or duplicated delivery: expected msg=" +
                           std::to_string(s.nextMsgSeq));
        // Resynchronize so one gap is one violation, not a cascade.
      }
      s.nextMsgSeq = msg + 1;
      return;
    }

    case sim::TraceCategory::Completion: {
      if (!findValue(m, "vi=", vi)) return;
      std::string status;
      if (!findWord(m, "status=", status)) return;
      ViState& s = vis_[key(rec.component, vi)];
      if (s.closed && status == "Ok") {
        violation(rec, "Ok completion after the connection closed");
      }
      return;
    }

    case sim::TraceCategory::Reliability: {
      if (!findValue(m, "vi=", vi)) return;
      ViState& s = vis_[key(rec.component, vi)];
      if (startsWith(m, "ack progress ")) {
        s.consecutiveRto = 0;
      } else if (startsWith(m, "RTO ")) {
        ++s.consecutiveRto;
        if (s.consecutiveRto > budget_) {
          violation(rec, "retry budget " + std::to_string(budget_) +
                             " exceeded without teardown");
        }
        std::uint64_t frags = 1;  // probe retransmits resend one fragment
        const std::size_t pos = m.find(" retransmit ");
        if (pos != std::string::npos) {
          char* end = nullptr;
          const char* p = m.c_str() + pos + 12;
          const std::uint64_t n = std::strtoull(p, &end, 10);
          if (end != p) frags = n;
        }
        retransmitsByNode_[rec.component] += frags;
      } else if (startsWith(m, "retry budget exhausted ")) {
        s.expectBreak = true;
      }
      return;
    }

    case sim::TraceCategory::Session:
      onSessionRecord(rec);
      return;

    default:
      return;
  }
}

void InvariantChecker::onSessionRecord(const sim::TraceRecord& rec) {
  const std::string& m = rec.message;
  std::uint64_t sid = 0;
  if (!findValue(m, "sid=", sid)) return;
  SessionAcct& s = sessions_[key(rec.component, sid)];
  auto watermark = [&]() -> std::uint64_t& {
    std::uint64_t src = 0;
    findValue(m, "src=", src);
    return delivered_[{rec.component, sid, src}];
  };

  if (startsWith(m, "deliver ")) {
    std::uint64_t seq = 0;
    if (!findValue(m, "seq=", seq)) {
      violation(rec, "unparseable session deliver record");
      return;
    }
    ++sessionDeliveries_;
    std::uint64_t& delivered = watermark();
    if (seq != delivered + 1) {
      violation(rec, "session delivery not consecutive: expected seq=" +
                         std::to_string(delivered + 1));
      // Resynchronize so one gap is one violation, not a cascade.
    }
    delivered = seq;
  } else if (startsWith(m, "dedup ")) {
    // A duplicate can only be a replay of something already delivered; a
    // dedup above the watermark means a message was thrown away unseen.
    std::uint64_t seq = 0;
    if (findValue(m, "seq=", seq) && seq > watermark()) {
      violation(rec, "session deduped an undelivered seq: watermark=" +
                         std::to_string(watermark()));
    }
  } else if (startsWith(m, "gap ")) {
    violation(rec, "session delivery gap (lost message)");
  } else if (startsWith(m, "replay ")) {
    std::uint64_t n = 0;
    if (findValue(m, "n=", n)) sessionReplays_ += n;
  } else if (startsWith(m, "down ")) {
    s.down = true;
  } else if (startsWith(m, "up ")) {
    s.down = false;
    ++sessionRecoveries_;
    std::uint64_t mttr = 0;
    if (mttrBoundUsec_ != 0 && findValue(m, "mttr_us=", mttr) &&
        mttr > mttrBoundUsec_) {
      violation(rec, "recovery took " + std::to_string(mttr) +
                         "us, bound is " + std::to_string(mttrBoundUsec_) +
                         "us");
    }
  } else if (startsWith(m, "halt ")) {
    s.down = true;
    s.halted = true;
  }
}

void InvariantChecker::finalize(suite::Cluster& cluster) {
  for (const auto& [k, s] : vis_) {
    if (s.expectBreak) {
      violations_.push_back(
          "n" + std::to_string(k >> 32) + " vi=" +
          std::to_string(k & 0xffffffffu) +
          ": retry budget exhausted but the connection never broke");
    }
  }
  if (!allowDownAtExit_) {
    for (const auto& [k, s] : sessions_) {
      if (!s.down) continue;
      violations_.push_back(
          "n" + std::to_string(k >> 32) + " sid=" +
          std::to_string(k & 0xffffffffu) +
          (s.halted ? ": circuit breaker tripped (session Down) at exit"
                    : ": session still recovering at exit"));
    }
  }
  for (std::uint32_t n = 0; n < cluster.nodeCount(); ++n) {
    const std::uint64_t traced = tracedRetransmits(n);
    const std::uint64_t counted = cluster.node(n).device().stats().retransmits;
    if (traced != counted) {
      violations_.push_back(
          "n" + std::to_string(n) + ": traced retransmissions (" +
          std::to_string(traced) + ") != NicStats::retransmits (" +
          std::to_string(counted) + ")");
    }
  }
}

std::string InvariantChecker::report() const {
  std::ostringstream os;
  for (const std::string& v : violations_) os << v << '\n';
  return os.str();
}

std::uint64_t InvariantChecker::tracedRetransmits(std::uint32_t node) const {
  auto it = retransmitsByNode_.find(node);
  return it == retransmitsByNode_.end() ? 0 : it->second;
}

}  // namespace vibe::fault
