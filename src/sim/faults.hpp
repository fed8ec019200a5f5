// Deterministic fault injection.
//
// The runtime partitioner exists because workstation networks are dynamic:
// hosts come and go, other users move in, segments saturate.  This module
// makes that churn a first-class, *reproducible* simulation input.  A
// FaultPlan is a fixed schedule of failures; the FaultInjector replays it
// against a NetSim by scheduling engine events that flip host/channel fault
// state and record each transition as an instant through
// NetSim::instant(), so every fault lands on the same telemetry timeline
// as the message lifecycle.  ChaosRng turns a single seed into a randomised
// plan -- the same seed always yields the same plan, and a plan always
// yields the same event stream, which is what lets the chaos test tier
// shrink any failing run to one integer.
//
// What can fail:
//   * crash     -- a host dies at time t and never returns; traffic touching
//                  it is silently dropped (datagram semantics),
//   * slowdown  -- a host's service rate is divided by f over [from, until),
//   * flap      -- a segment drops every fragment over [from, until)
//                  (a partition the retransmission layer must ride out),
//   * degrade   -- a segment's effective bandwidth is divided by f,
//   * churn     -- a processor is revoked from / restored to the
//                  availability pool (consumed by net/availability.hpp,
//                  no data-plane effect).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/availability.hpp"
#include "net/ids.hpp"
#include "net/network.hpp"
#include "sim/netsim.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

namespace netpart::sim {

/// A fixed, seed-independent schedule of faults.  Times are absolute
/// pipeline times: an execution phase that starts later passes its start
/// time as the injector origin and the plan applies from there.
struct FaultPlan {
  struct HostCrash {
    SimTime at;
    ProcessorRef host;
  };
  struct HostSlowdown {
    SimTime from;
    SimTime until;  ///< SimTime::max() = never recovers
    ProcessorRef host;
    double factor = 2.0;  ///< service time multiplier, >= 1
  };
  struct ChannelFlap {
    SimTime from;
    SimTime until;
    SegmentId segment = -1;
  };
  struct SegmentDegrade {
    SimTime from;
    SimTime until;
    SegmentId segment = -1;
    double factor = 2.0;  ///< occupancy multiplier, >= 1
  };

  std::vector<HostCrash> crashes;
  std::vector<HostSlowdown> slowdowns;
  std::vector<ChannelFlap> flaps;
  std::vector<SegmentDegrade> degrades;
  std::vector<ChurnEvent> churn;

  bool empty() const;

  /// True when `ref` has crashed at or before `at`.
  bool crashed_by(ProcessorRef ref, SimTime at) const;

  /// Combined service-time multiplier on `ref` at `at` (product of the
  /// active slowdown windows; 1.0 when unperturbed).
  double slowdown_at(ProcessorRef ref, SimTime at) const;

  /// Combined occupancy multiplier on `segment` at `at`.
  double degradation_at(SegmentId segment, SimTime at) const;

  /// True when any flap window covers `segment` at `at`.
  bool channel_down_at(SegmentId segment, SimTime at) const;

  /// True when any fault boundary (crash, window start or end, churn event)
  /// lands in (from, until].  The adaptive executor polls this between
  /// chunks: a disturbed window forces a repartition.
  bool disturbs(SimTime from, SimTime until) const;

  /// Churn events plus every crash re-expressed as a permanent revocation
  /// -- the stream net/availability consumes.
  std::vector<ChurnEvent> churn_events() const;

  /// Check every reference against `net`; throws InvalidArgument on bad
  /// hosts/segments, inverted windows, or factors below 1.
  void validate(const Network& net) const;

  /// Stable human/diff-friendly rendering (one fault per line, sorted by
  /// time).  Two plans are identical iff their renderings match.
  std::string describe() const;
};

/// Options for randomised plan generation.
struct ChaosOptions {
  int crashes = 1;      ///< hosts to crash (distinct, never `spared`)
  int slowdowns = 2;    ///< slow-host windows
  int flaps = 1;        ///< channel partition windows
  int degrades = 1;     ///< bandwidth degradation windows
  int revocations = 1;  ///< availability revocations (never `spared`)

  /// Crash and churn times are drawn from [0, control_horizon]: the fail-
  /// stop faults land while the control plane (availability protocol) runs,
  /// so the partitioner sees the post-fault network.
  SimTime control_horizon = SimTime::zero();
  /// Performance-fault windows start within [0, horizon).
  SimTime horizon = SimTime::seconds(2);
  /// Maximum flap duration; keep below rto * max_retransmit_rounds or the
  /// reliable layer legitimately gives up mid-run.
  SimTime max_flap = SimTime::millis(400);
  /// Slowdown / degradation factors are drawn from [1.5, max_*].
  double max_slowdown = 4.0;
  double max_degrade = 4.0;
  /// When set, slowdown windows never close (until = SimTime::max()), which
  /// gives the adaptive executor a stable post-fault optimum to converge to.
  bool open_ended_slowdowns = false;
  /// The processor that is never crashed or revoked (the protocol
  /// initiator / driver host must survive).
  ProcessorRef spared{0, 0};
};

/// Randomised-but-reproducible plan generation: one seed fully determines
/// the plan (and hence, with a seeded simulator, the entire event stream).
class ChaosRng {
 public:
  explicit ChaosRng(std::uint64_t seed) : rng_(seed) {}

  /// Draw a plan for `net`.  Consecutive calls on the same ChaosRng yield
  /// different (but still seed-determined) plans.
  FaultPlan make_plan(const Network& net, const ChaosOptions& options = {});

 private:
  Rng rng_;
};

/// Replays a FaultPlan against one NetSim: schedules engine events at each
/// fault boundary that flip the corresponding Host/Channel fault state and
/// record the transition as a NetSim::instant() ("host-crash",
/// "host-slow"/"host-restore", "chan-down"/"chan-up",
/// "seg-degrade"/"seg-restore", "proc-revoke"/"proc-restore").  Faults at
/// or before `origin` are applied immediately on arm(); later faults fire
/// at engine time (t - origin).  The plan and the simulator must outlive
/// the armed events.
class FaultInjector {
 public:
  FaultInjector(NetSim& net, const FaultPlan& plan,
                SimTime origin = SimTime::zero());

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Schedule the plan.  Idempotent per injector (second call is an error).
  void arm();

  const FaultPlan& plan() const { return plan_; }

 private:
  /// Engine time for absolute plan time `at` (clamped to now for the past).
  SimTime local(SimTime at) const;

  NetSim& net_;
  const FaultPlan& plan_;
  SimTime origin_;
  bool armed_ = false;
};

}  // namespace netpart::sim
