#include "serve/admission.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

namespace vibe::serve {

const char* toString(AdmitPolicy p) {
  switch (p) {
    case AdmitPolicy::RejectNew: return "reject_new";
    case AdmitPolicy::DropOldest: return "drop_oldest";
  }
  return "?";
}

AdmissionQueue::AdmissionQueue(const PolicyConfig& cfg) : cfg_(cfg) {}

void AdmissionQueue::setMetrics(obs::MetricsRegistry* metrics,
                                std::string scope) {
  metrics_ = metrics;
  scope_ = std::move(scope);
}

void AdmissionQueue::bump(std::uint64_t AdmissionStats::* field,
                          const char* name) {
  ++(stats_.*field);
  if (metrics_ != nullptr) {
    metrics_->counter(obs::scoped(scope_, name)).add();
  }
}

void AdmissionQueue::onShed(const char* reason, sim::SimTime now) {
  if (shedding_) return;
  shedding_ = true;
  sim::trace(tracer_, now, sim::TraceCategory::User, component_, [&] {
    return std::string("serve shed ") + reason +
           " depth=" + std::to_string(q_.size());
  });
}

void AdmissionQueue::maybeRecover(sim::SimTime now) {
  if (!shedding_ || !q_.empty()) return;
  shedding_ = false;
  sim::trace(tracer_, now, sim::TraceCategory::User, component_,
             [] { return std::string("serve recover"); });
}

void AdmissionQueue::refill(sim::SimTime now) {
  if (!primed_) {
    // The bucket starts full so a burst at t=0 is honoured up to `burst`.
    tokens_ = cfg_.bucket.burst;
    lastRefill_ = now;
    primed_ = true;
    return;
  }
  const double dt = static_cast<double>(now - lastRefill_);
  lastRefill_ = now;
  tokens_ = std::min(cfg_.bucket.burst,
                     tokens_ + dt * cfg_.bucket.ratePerSec / 1e9);
}

Verdict AdmissionQueue::offer(Request r, sim::SimTime now,
                              std::vector<Request>& evicted) {
  bump(&AdmissionStats::offered, "serve.offered");
  if (cfg_.bucket.ratePerSec > 0.0) {
    refill(now);
    if (tokens_ < 1.0) {
      bump(&AdmissionStats::rejectedRate, "serve.rejected_rate");
      onShed("rate", now);
      return Verdict::RejectedRate;
    }
    tokens_ -= 1.0;
  }
  if (cfg_.backlogLimit > 0 && q_.size() >= cfg_.backlogLimit) {
    if (cfg_.admit == AdmitPolicy::RejectNew) {
      bump(&AdmissionStats::rejectedBacklog, "serve.rejected_backlog");
      onShed("backlog", now);
      return Verdict::RejectedBacklog;
    }
    while (q_.size() >= cfg_.backlogLimit) {
      bump(&AdmissionStats::evicted, "serve.evicted");
      evicted.push_back(std::move(q_.front()));
      q_.pop_front();
    }
    onShed("evict", now);
  }
  r.enqueued = now;
  q_.push_back(std::move(r));
  bump(&AdmissionStats::admitted, "serve.admitted");
  return Verdict::Admitted;
}

sim::SimTime AdmissionQueue::controlLaw(sim::SimTime t) const {
  return t + static_cast<sim::Duration>(
                 static_cast<double>(cfg_.codel.interval) /
                 std::sqrt(static_cast<double>(dropCount_)));
}

bool AdmissionQueue::codelDrop(sim::Duration sojourn, sim::SimTime now) {
  if (cfg_.codel.target <= 0) return false;
  if (sojourn < cfg_.codel.target) {
    firstAbove_ = 0;
    dropping_ = false;
    return false;
  }
  if (firstAbove_ == 0) {
    // Sojourn just crossed target: arm the interval timer; only a
    // sustained excursion triggers drops.
    firstAbove_ = now + cfg_.codel.interval;
    return false;
  }
  if (now < firstAbove_) return false;
  if (!dropping_) {
    dropping_ = true;
    // Resume near the prior drop rate if the last episode was recent
    // (standard CoDel recovery), else restart the control law.
    dropCount_ = dropCount_ > 2 ? dropCount_ - 2 : 1;
    dropNext_ = controlLaw(now);
    return true;
  }
  if (now >= dropNext_) {
    ++dropCount_;
    dropNext_ = controlLaw(dropNext_);
    return true;
  }
  return false;
}

Dequeue AdmissionQueue::next(sim::SimTime now, Request& out) {
  if (q_.empty()) {
    firstAbove_ = 0;
    dropping_ = false;
    maybeRecover(now);
    return Dequeue::Empty;
  }
  Request& head = q_.front();
  if (cfg_.deadlineShed && head.deadline > 0 && now > head.deadline) {
    out = std::move(head);
    q_.pop_front();
    bump(&AdmissionStats::shedDeadline, "serve.shed_deadline");
    onShed("deadline", now);
    return Dequeue::ShedDeadline;
  }
  const sim::Duration sojourn = now - head.enqueued;
  if (codelDrop(sojourn, now)) {
    out = std::move(head);
    q_.pop_front();
    bump(&AdmissionStats::shedCodel, "serve.shed_codel");
    onShed("codel", now);
    return Dequeue::ShedCodel;
  }
  out = std::move(head);
  q_.pop_front();
  bump(&AdmissionStats::served, "serve.served");
  if (metrics_ != nullptr) {
    metrics_->histogram(obs::scoped(scope_, "serve.queue_delay_ns"))
        .add(sojourn);
  }
  maybeRecover(now);
  return Dequeue::Serve;
}

}  // namespace vibe::serve
