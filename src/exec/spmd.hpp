// The simulated SPMD runtime: the one lifecycle of every simulated run.
//
// The Table 2 executor, the adaptive executor's PDU migration and the five
// functional applications each run one rank per placed processor as an
// event-driven state machine on the simulated network.  SpmdRuntime owns
// what every such run needs: the engine, the network simulator with its
// telemetry and optional fault plan, MMPS, each rank's flop time, the two
// ways a rank yields (charge its host for computation; wait until its sends
// are initiated), raw transfers with a budget-bounded drain, and the run
// loop.  Callers keep only their schedule or protocol.
//
// Lifecycle and determinism: telemetry is installed and the plan armed at
// construction, before anything sends; run() starts the ranks in rank
// order at the current time; every yield is an engine event at a
// Host::reserve/busy_until time and the seed is the caller's, so a run is
// a pure function of its inputs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "mmps/system.hpp"
#include "net/network.hpp"
#include "sim/engine.hpp"
#include "sim/faults.hpp"
#include "sim/netsim.hpp"
#include "topo/placement.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace netpart {

/// Thrown when a simulated run cannot finish: a fault plan (crash,
/// permanent partition with give_up_after_max_rounds) or the sim-time
/// budget left some rank's work, or some transfer, undelivered.
class ExecutionStalled : public Error {
 public:
  explicit ExecutionStalled(const std::string& what) : Error(what) {}
};

class SpmdRuntime {
 public:
  using Step = std::function<void()>;

  /// `faults` (optional) holds absolute pipeline times; `origin` is where
  /// local time 0 sits on that clock, for the plan and for the simulator
  /// telemetry recorded into `telemetry` (nullptr = none).  Placement,
  /// plan and registry must outlive the runtime.
  SpmdRuntime(const Network& network, const Placement& placement,
              const sim::NetSimParams& params, Rng rng,
              const sim::FaultPlan* faults = nullptr,
              SimTime origin = SimTime::zero(),
              obs::TelemetryRegistry* telemetry = nullptr);

  SpmdRuntime(const SpmdRuntime&) = delete;
  SpmdRuntime& operator=(const SpmdRuntime&) = delete;

  int ranks() const { return static_cast<int>(placement_.size()); }
  ProcessorRef proc(int rank) const {
    return placement_[static_cast<std::size_t>(rank)];
  }
  SimTime now() const { return engine_.now(); }
  /// Milliseconds one flop takes on `rank`'s processor.
  double flop_ms(int rank) const {
    return net_.network().cluster(proc(rank).cluster).type().flop_time
        .as_millis();
  }

  /// MMPS between ranks (tags are the app's).
  void send(int from, int to, std::int32_t tag,
            std::vector<std::byte> payload);
  void recv(int at, int from, std::int32_t tag, mmps::RecvHandler handler);

  /// `bytes` from `from` to `to` as one raw simulator message (no MMPS
  /// framing); `on_delivered` (optional) fires on delivery.
  void transfer(int from, int to, std::int64_t bytes,
                sim::DeliveryCallback on_delivered = {});
  /// Step the engine until every transfer issued so far is delivered and
  /// return the time then; later fault events stay queued.  Throws
  /// ExecutionStalled ("<what> could not complete") if the queue empties
  /// or `budget` passes first.
  SimTime drain_transfers(SimTime budget, const std::string& what);

  /// Charge `rank`'s host `ms` of computation from now (queued behind any
  /// work it already has), then run `then`.
  void compute(int rank, double ms, Step then);
  /// Run `then` once `rank`'s host has initiated the sends it issued.
  void after_sends(int rank, Step then);
  SimTime busy_until(int rank) const;
  /// The calling rank finished; elapsed is the latest such time.
  void finish();

  /// Start every rank at the current time and run until `budget`; returns
  /// the latest finish() time.  Throws ExecutionStalled if a rank has not
  /// finished by then; checks that every MMPS message was claimed.
  SimTime run(const std::function<void(int rank)>& start, SimTime budget);

  SimTime host_busy(int rank) const;
  SimTime channel_busy(SegmentId segment);
  std::uint64_t messages_delivered() const {
    return net_.messages_delivered();
  }
  std::uint64_t retransmissions() const { return net_.retransmissions(); }

 private:
  const Placement& placement_;
  sim::Engine engine_;
  sim::NetSim net_;
  mmps::System mmps_;
  std::optional<sim::FaultInjector> injector_;
  int in_flight_ = 0;  ///< transfers not yet delivered
  int finished_ = 0;
  SimTime finish_;
};

}  // namespace netpart
