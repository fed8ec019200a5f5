// SPMD execution on the simulated network.
//
// The executor instantiates one task per selected processor, gives each its
// slice of the partition vector, and interprets the per-iteration schedule
// of compute / send / receive steps on the simulated SPMD runtime
// (exec/spmd.hpp).  The
// measured elapsed time is the Table 2 instrument: unlike the estimator it
// observes real contention, router hops, coercion, retransmissions, and the
// pipeline effects of overlap -- nothing is assumed synchronous.
#pragma once

#include <cstdint>
#include <vector>

#include "dp/partition_vector.hpp"
#include "dp/phases.hpp"
#include "exec/load.hpp"
#include "exec/spmd.hpp"
#include "sim/netsim.hpp"
#include "topo/placement.hpp"

namespace netpart {

struct ExecutionOptions {
  sim::NetSimParams sim_params;
  std::uint64_t seed = 7;
  /// Multiplicative gaussian jitter on compute-phase durations (stddev as a
  /// fraction of the duration); 0 keeps runs exactly deterministic.
  double compute_jitter = 0.0;
  /// Time-varying background load; nullptr = unloaded processors.  Must
  /// outlive the execution.
  const LoadSchedule* load = nullptr;
  /// Offset added to simulation time when querying the load schedule (the
  /// adaptive executor runs in chunks that each restart at sim time 0).
  SimTime load_time_origin;
  /// When > 0, measure the initial data distribution: rank 0 scatters
  /// A_i * pdu_bytes to every other rank before iteration 0, reported as
  /// ExecutionResult::startup (the paper's T_startup, which its timings
  /// exclude and ours then also excludes from `elapsed`).
  std::int64_t pdu_bytes = 0;
  /// Fault schedule injected into this run's simulator; nullptr = benign.
  /// Plan times are absolute pipeline times -- load_time_origin maps them
  /// onto this run's local clock, exactly as for the load schedule.  Must
  /// outlive the execution.
  const sim::FaultPlan* faults = nullptr;
  /// Sim-time bound on this run's local clock; if any rank has not
  /// finished by then, execute() throws ExecutionStalled instead of
  /// running (or hanging) forever.
  SimTime budget = SimTime::max();
  /// Registry that receives this run's simulator telemetry (msg spans,
  /// lifecycle and fault instants, sim.* counters; see sim/netsim.hpp),
  /// stamped on the pipeline clock: load_time_origin + local time.
  /// nullptr = no simulator telemetry.  Must outlive the execution.
  obs::TelemetryRegistry* telemetry = nullptr;
};

struct ExecutionResult {
  /// Elapsed time for all iterations (initial data distribution excluded,
  /// matching the paper's timings).
  SimTime elapsed;
  /// T_startup: time of the initial scatter (zero unless
  /// ExecutionOptions::pdu_bytes was set).
  SimTime startup;
  /// Per-rank completion times.
  std::vector<SimTime> rank_finish;
  /// Per-rank host busy time (load-balance diagnostics).
  std::vector<SimTime> rank_busy;
  /// Per-rank time spent purely in computation phases; rank_busy minus
  /// this is messaging overhead, and elapsed minus rank_compute is that
  /// rank's communication exposure + waiting.
  std::vector<SimTime> rank_compute;
  /// Time each iteration completed on the last rank (cycle-time series:
  /// differences approximate the estimator's T_c).
  std::vector<SimTime> iteration_finish;
  /// Channel busy time per network segment (utilisation = busy / elapsed
  /// identifies bandwidth-bound configurations).
  std::vector<SimTime> segment_busy;
  std::uint64_t messages_delivered = 0;
  std::uint64_t retransmissions = 0;

  double elapsed_ms() const { return elapsed.as_millis(); }
};

/// Execute `spec` over the given placement and partition.  The partition
/// vector must be rank-aligned with the placement and cover the PDU domain.
ExecutionResult execute(const Network& network, const ComputationSpec& spec,
                        const Placement& placement,
                        const PartitionVector& partition,
                        const ExecutionOptions& options = {});

/// Convenience: average elapsed over `runs` executions with different seeds
/// (the paper reports averages over multiple runs).
double average_elapsed_ms(const Network& network, const ComputationSpec& spec,
                          const Placement& placement,
                          const PartitionVector& partition,
                          const ExecutionOptions& options, int runs);

}  // namespace netpart
