#include "sim/faults.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

#include "util/error.hpp"

namespace netpart::sim {

namespace {

void check_ref(const Network& net, ProcessorRef ref, const char* what) {
  NP_REQUIRE(ref.cluster >= 0 && ref.cluster < net.num_clusters(),
             std::string(what) + " names an unknown cluster");
  NP_REQUIRE(ref.index >= 0 &&
                 ref.index < net.cluster(ref.cluster).size(),
             std::string(what) + " names an unknown processor");
}

void check_segment(const Network& net, SegmentId seg, const char* what) {
  NP_REQUIRE(seg >= 0 && seg < net.num_segments(),
             std::string(what) + " names an unknown segment");
}

void check_window(SimTime from, SimTime until, const char* what) {
  NP_REQUIRE(from >= SimTime::zero() && from < until,
             std::string(what) + " window must satisfy 0 <= from < until");
}

SimTime uniform_time(Rng& rng, SimTime lo, SimTime hi) {
  if (hi <= lo) return lo;
  return SimTime::nanos(rng.next_int(lo.as_nanos(), hi.as_nanos()));
}

double uniform_factor(Rng& rng, double hi) {
  const double lo = 1.5;
  return lo + rng.next_double() * (std::max(hi, lo) - lo);
}

}  // namespace

// ------------------------------------------------------------- FaultPlan

bool FaultPlan::empty() const {
  return crashes.empty() && slowdowns.empty() && flaps.empty() &&
         degrades.empty() && churn.empty();
}

bool FaultPlan::crashed_by(ProcessorRef ref, SimTime at) const {
  for (const HostCrash& c : crashes) {
    if (c.host == ref && c.at <= at) return true;
  }
  return false;
}

double FaultPlan::slowdown_at(ProcessorRef ref, SimTime at) const {
  double factor = 1.0;
  for (const HostSlowdown& s : slowdowns) {
    if (s.host == ref && s.from <= at && at < s.until) factor *= s.factor;
  }
  return factor;
}

double FaultPlan::degradation_at(SegmentId segment, SimTime at) const {
  double factor = 1.0;
  for (const SegmentDegrade& d : degrades) {
    if (d.segment == segment && d.from <= at && at < d.until) {
      factor *= d.factor;
    }
  }
  return factor;
}

bool FaultPlan::channel_down_at(SegmentId segment, SimTime at) const {
  for (const ChannelFlap& f : flaps) {
    if (f.segment == segment && f.from <= at && at < f.until) return true;
  }
  return false;
}

bool FaultPlan::disturbs(SimTime from, SimTime until) const {
  const auto hit = [&](SimTime t) { return from < t && t <= until; };
  for (const HostCrash& c : crashes) {
    if (hit(c.at)) return true;
  }
  for (const HostSlowdown& s : slowdowns) {
    if (hit(s.from) || (s.until != SimTime::max() && hit(s.until))) {
      return true;
    }
  }
  for (const ChannelFlap& f : flaps) {
    if (hit(f.from) || hit(f.until)) return true;
  }
  for (const SegmentDegrade& d : degrades) {
    if (hit(d.from) || hit(d.until)) return true;
  }
  for (const ChurnEvent& e : churn) {
    if (hit(e.at)) return true;
  }
  return false;
}

std::vector<ChurnEvent> FaultPlan::churn_events() const {
  std::vector<ChurnEvent> events = churn;
  for (const HostCrash& c : crashes) {
    events.push_back(ChurnEvent{c.at, c.host, ChurnEvent::Kind::Revoke});
  }
  return events;
}

void FaultPlan::validate(const Network& net) const {
  for (const HostCrash& c : crashes) {
    check_ref(net, c.host, "crash");
    NP_REQUIRE(c.at >= SimTime::zero(), "crash time must be non-negative");
  }
  for (const HostSlowdown& s : slowdowns) {
    check_ref(net, s.host, "slowdown");
    check_window(s.from, s.until, "slowdown");
    NP_REQUIRE(s.factor >= 1.0, "slowdown factor must be >= 1");
  }
  for (const ChannelFlap& f : flaps) {
    check_segment(net, f.segment, "flap");
    check_window(f.from, f.until, "flap");
  }
  for (const SegmentDegrade& d : degrades) {
    check_segment(net, d.segment, "degrade");
    check_window(d.from, d.until, "degrade");
    NP_REQUIRE(d.factor >= 1.0, "degradation factor must be >= 1");
  }
  for (const ChurnEvent& e : churn) {
    check_ref(net, e.ref, "churn");
    NP_REQUIRE(e.at >= SimTime::zero(), "churn time must be non-negative");
  }
}

std::string FaultPlan::describe() const {
  std::vector<std::pair<SimTime, std::string>> lines;
  const auto add = [&](SimTime at, const std::ostringstream& os) {
    lines.emplace_back(at, os.str());
  };
  const auto until_str = [](SimTime until) {
    std::ostringstream os;
    if (until == SimTime::max()) {
      os << " until forever";
    } else {
      os << " until " << until.as_millis() << "ms";
    }
    return os.str();
  };
  for (const HostCrash& c : crashes) {
    std::ostringstream os;
    os << c.at.as_millis() << "ms crash (" << c.host.cluster << ','
       << c.host.index << ")";
    add(c.at, os);
  }
  for (const HostSlowdown& s : slowdowns) {
    std::ostringstream os;
    os << s.from.as_millis() << "ms slow (" << s.host.cluster << ','
       << s.host.index << ") x" << s.factor << until_str(s.until);
    add(s.from, os);
  }
  for (const ChannelFlap& f : flaps) {
    std::ostringstream os;
    os << f.from.as_millis() << "ms flap seg=" << f.segment
       << until_str(f.until);
    add(f.from, os);
  }
  for (const SegmentDegrade& d : degrades) {
    std::ostringstream os;
    os << d.from.as_millis() << "ms degrade seg=" << d.segment << " x"
       << d.factor << until_str(d.until);
    add(d.from, os);
  }
  for (const ChurnEvent& e : churn) {
    std::ostringstream os;
    os << e.at.as_millis() << "ms "
       << (e.kind == ChurnEvent::Kind::Revoke ? "revoke" : "restore")
       << " (" << e.ref.cluster << ',' << e.ref.index << ")";
    add(e.at, os);
  }
  std::sort(lines.begin(), lines.end());
  std::ostringstream os;
  for (const auto& [at, line] : lines) os << line << "\n";
  return os.str();
}

// -------------------------------------------------------------- ChaosRng

FaultPlan ChaosRng::make_plan(const Network& net,
                              const ChaosOptions& options) {
  FaultPlan plan;

  // Candidate pool for fail-stop faults: everything but the spared host.
  std::vector<ProcessorRef> pool;
  for (ClusterId c = 0; c < net.num_clusters(); ++c) {
    for (ProcessorIndex i = 0; i < net.cluster(c).size(); ++i) {
      const ProcessorRef ref{c, i};
      if (ref == options.spared) continue;
      pool.push_back(ref);
    }
  }
  const auto draw_from_pool = [&]() {
    const auto idx = static_cast<std::size_t>(
        rng_.next_int(0, static_cast<std::int64_t>(pool.size()) - 1));
    const ProcessorRef ref = pool[idx];
    pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(idx));
    return ref;
  };
  const auto control_time = [&]() {
    return uniform_time(rng_, SimTime::zero(), options.control_horizon);
  };

  // Fail-stop faults: leave at least one non-spared processor untouched so
  // the partitioner always has something to choose beyond the spared host.
  const int fail_stop_budget =
      std::max(0, static_cast<int>(pool.size()) - 1);
  const int n_crashes = std::min(options.crashes, fail_stop_budget);
  for (int i = 0; i < n_crashes; ++i) {
    plan.crashes.push_back(FaultPlan::HostCrash{control_time(),
                                                draw_from_pool()});
  }
  const int n_revocations =
      std::min(options.revocations,
               std::max(0, static_cast<int>(pool.size()) - 1));
  for (int i = 0; i < n_revocations; ++i) {
    const SimTime at = control_time();
    const ProcessorRef ref = draw_from_pool();
    plan.churn.push_back(ChurnEvent{at, ref, ChurnEvent::Kind::Revoke});
    // Occasionally hand the processor back later in the control window.
    if (rng_.next_bool(0.25)) {
      plan.churn.push_back(
          ChurnEvent{uniform_time(rng_, at, options.control_horizon), ref,
                     ChurnEvent::Kind::Restore});
    }
  }

  // Performance faults may hit any host (a slow spared host is survivable).
  const auto any_host = [&]() {
    const ClusterId c = static_cast<ClusterId>(
        rng_.next_int(0, net.num_clusters() - 1));
    const ProcessorIndex i = static_cast<ProcessorIndex>(
        rng_.next_int(0, net.cluster(c).size() - 1));
    return ProcessorRef{c, i};
  };
  for (int i = 0; i < options.slowdowns; ++i) {
    FaultPlan::HostSlowdown s;
    s.host = any_host();
    s.from = uniform_time(rng_, SimTime::zero(), options.horizon);
    const SimTime dur = uniform_time(rng_, options.horizon * 0.125,
                                     options.horizon * 0.5);
    s.until = options.open_ended_slowdowns ? SimTime::max()
                                           : s.from + dur;
    s.factor = uniform_factor(rng_, options.max_slowdown);
    plan.slowdowns.push_back(s);
  }
  for (int i = 0; i < options.flaps; ++i) {
    FaultPlan::ChannelFlap f;
    f.segment = static_cast<SegmentId>(
        rng_.next_int(0, net.num_segments() - 1));
    f.from = uniform_time(rng_, SimTime::zero(), options.horizon);
    f.until = f.from + uniform_time(rng_, options.max_flap * 0.25,
                                    options.max_flap);
    plan.flaps.push_back(f);
  }
  for (int i = 0; i < options.degrades; ++i) {
    FaultPlan::SegmentDegrade d;
    d.segment = static_cast<SegmentId>(
        rng_.next_int(0, net.num_segments() - 1));
    d.from = uniform_time(rng_, SimTime::zero(), options.horizon);
    d.until = d.from + uniform_time(rng_, options.horizon * 0.125,
                                    options.horizon * 0.5);
    d.factor = uniform_factor(rng_, options.max_degrade);
    plan.degrades.push_back(d);
  }

  plan.validate(net);
  return plan;
}

// --------------------------------------------------------- FaultInjector

FaultInjector::FaultInjector(NetSim& net, const FaultPlan& plan,
                             SimTime origin)
    : net_(net), plan_(plan), origin_(origin) {
  plan_.validate(net_.network());
}

SimTime FaultInjector::local(SimTime at) const {
  const SimTime now = net_.engine().now();
  if (at <= origin_) return now;
  return now + (at - origin_);
}

void FaultInjector::arm() {
  NP_REQUIRE(!armed_, "fault injector already armed");
  armed_ = true;
  Engine& engine = net_.engine();

  // Absolute plan time of the currently-executing engine event.
  const auto abs_now = [this]() {
    return origin_ + net_.engine().now();
  };

  for (const FaultPlan::HostCrash& c : plan_.crashes) {
    engine.schedule_at(local(c.at), [this, ref = c.host] {
      Host& host = net_.host(ref);
      if (!host.alive()) return;  // two crashes on one host: first wins
      host.crash();
      net_.instant("host-crash", net_.engine().now(), ref, ref);
    });
  }

  // Slowdown / degradation / flap boundaries recompute the combined state
  // from the plan, which makes overlapping windows compose exactly and
  // keeps the transitions idempotent.
  const auto host_boundary = [this, abs_now](ProcessorRef ref) {
    Host& host = net_.host(ref);
    const double factor = plan_.slowdown_at(ref, abs_now());
    if (factor == host.slowdown()) return;
    host.set_slowdown(factor);
    net_.instant(factor > 1.0 ? "host-slow" : "host-restore",
                 net_.engine().now(), ref, ref, 0, -1, factor);
  };
  for (const FaultPlan::HostSlowdown& s : plan_.slowdowns) {
    if (s.until != SimTime::max() && s.until <= origin_) continue;
    engine.schedule_at(local(s.from),
                       [host_boundary, ref = s.host] { host_boundary(ref); });
    if (s.until != SimTime::max()) {
      engine.schedule_at(local(s.until), [host_boundary, ref = s.host] {
        host_boundary(ref);
      });
    }
  }

  const auto flap_boundary = [this, abs_now](SegmentId seg) {
    Channel& channel = net_.channel(seg);
    const bool down = plan_.channel_down_at(seg, abs_now());
    if (down == channel.down()) return;
    channel.set_down(down);
    net_.instant(down ? "chan-down" : "chan-up", net_.engine().now(),
                 ProcessorRef{}, ProcessorRef{}, 0, seg);
  };
  for (const FaultPlan::ChannelFlap& f : plan_.flaps) {
    if (f.until <= origin_) continue;
    engine.schedule_at(local(f.from), [flap_boundary, seg = f.segment] {
      flap_boundary(seg);
    });
    engine.schedule_at(local(f.until), [flap_boundary, seg = f.segment] {
      flap_boundary(seg);
    });
  }

  const auto degrade_boundary = [this, abs_now](SegmentId seg) {
    Channel& channel = net_.channel(seg);
    const double factor = plan_.degradation_at(seg, abs_now());
    if (factor == channel.degradation()) return;
    channel.set_degradation(factor);
    net_.instant(factor > 1.0 ? "seg-degrade" : "seg-restore",
                 net_.engine().now(), ProcessorRef{}, ProcessorRef{}, 0, seg,
                 factor);
  };
  for (const FaultPlan::SegmentDegrade& d : plan_.degrades) {
    if (d.until <= origin_) continue;
    engine.schedule_at(local(d.from), [degrade_boundary, seg = d.segment] {
      degrade_boundary(seg);
    });
    engine.schedule_at(local(d.until), [degrade_boundary, seg = d.segment] {
      degrade_boundary(seg);
    });
  }

  // Churn is control-plane only: trace it so the stream shows why the
  // availability layer changed its mind, but flip no data-plane state.
  for (const ChurnEvent& e : plan_.churn) {
    if (e.at <= origin_) continue;
    engine.schedule_at(local(e.at), [this, e] {
      net_.instant(e.kind == ChurnEvent::Kind::Revoke ? "proc-revoke"
                                                      : "proc-restore",
                   net_.engine().now(), e.ref, e.ref);
    });
  }
}

}  // namespace netpart::sim
