// The cooperative availability protocol, run as real messages.
//
// Before partitioning, the cluster managers determine the available
// processors N_i (Section 5, detailed in the paper's reference [11]).
// gather_availability() gives the result as a direct query; this module
// runs the distributed version on the simulator so its cost can be
// measured: an acknowledged token ring over the managers accumulates the
// per-cluster counts, the last manager returns the full vector to the
// initiator, and the initiator broadcasts it back out.  The paper claims
// this overhead "is also small relative to elapsed time" -- the returned
// elapsed time lets benchmarks and tests check that.
#pragma once

#include <cstdint>

#include "net/availability.hpp"
#include "sim/netsim.hpp"

namespace netpart::mmps {

struct ProtocolResult {
  AvailabilitySnapshot snapshot;
  SimTime elapsed;
  std::uint64_t messages = 0;
  /// True when the ring closed (the initiator received the full vector);
  /// false when the sim-time budget ran out first.
  bool completed = true;
  /// Managers that never acknowledged the token (crashed peers); their
  /// clusters report zero availability.
  std::vector<ClusterId> dead;
};

/// Tuning for the availability protocol.
struct ProtocolOptions {
  /// Per-hop acknowledgement timeout (must cover a round trip including
  /// fragment retransmissions).
  SimTime ack_timeout = SimTime::millis(250);
  /// Token transmissions per successor before declaring it dead.
  int max_attempts = 3;
  /// Overall sim-time bound; the protocol never runs past it.
  SimTime budget = SimTime::seconds(30);
};

/// Run the availability protocol among the managers (processor 0 of each
/// cluster acts as its manager's host).  Every token hop is acknowledged;
/// a successor that does not ack within `ack_timeout` is retried and,
/// after `max_attempts` sends, declared dead and skipped (its count stays
/// zero and it lands in ProtocolResult::dead).  The run ends when the
/// initiator holds the full vector, so the final broadcast and the last
/// hop's ack may still be in flight on return.  The whole run is bounded
/// by `budget` simulated time, so a crashed host can delay but never hang
/// the engine.  The initiator (cluster 0's manager) must be alive.
ProtocolResult run_availability_protocol(
    sim::NetSim& net, const std::vector<ClusterManager>& managers,
    const ProtocolOptions& options = {});

}  // namespace netpart::mmps
