// Runtime cost estimation (Eqs. 3-6 of the paper).
//
// For a candidate processor configuration the estimator computes the
// load-balanced partition vector (Eq. 3) and the per-cycle elapsed time
//
//   T_c = T_comp + T_comm - T_overlap                  (Eq. 6)
//   T_comp[p_i] = S_i * computational_complexity * A_i (Eq. 4)
//   T_comm      = from the fitted cost functions       (Eqs. 1, 2, 5)
//   T_overlap   = min(T_comp, T_comm) when the dominant phases overlap
//
// using only the program callbacks and the offline-calibrated cost model --
// no network activity happens at estimation time.
//
// Two evaluators:
//
//   * estimate() -- the reference: materialises the full Eq. 3 partition
//     vector and scans it rank by rank.  One heap-allocating call per
//     evaluation; kept for results (the caller gets the PartitionVector)
//     and as ground truth.
//   * the closed-form kernel -- Eq. 3 per *cluster* (a balanced partition
//     hands a homogeneous cluster only the floor/ceiling of its ideal
//     share), so no per-rank vector exists and a steady-state evaluation
//     allocates nothing.  It scores a list of active groups: shares, the
//     largest-remainder rank kernel, starvation repair, the Eq. 4 fold and
//     the Eq. 2/5 fold over per-cluster tables bound into the scratch.
//     Bitwise identical to estimate() -- the property tier asserts this.
//
// Two entry points reach the kernel:
//
//   * estimate_into() gathers a configuration's active groups and their
//     rank-major weight-sum prefixes.  Binary search probes run here.
//   * estimate_delta() patches a cached baseline's groups (bind_delta) by
//     one +/-1 move -- the exhaustive sweep's Gray-code walk, the Linear-
//     search prefill, the hill climb and the adaptive repartition scorer
//     run on it -- reusing the baseline's validation, gather and weight-sum
//     prefix.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "calib/cost_model.hpp"
#include "core/decompose.hpp"
#include "dp/phases.hpp"
#include "net/network.hpp"
#include "topo/placement.hpp"

namespace netpart {

/// Cost breakdown for one processor configuration.
struct CycleEstimate {
  ProcessorConfig config;
  PartitionVector partition;  ///< rank-major in the estimator's cluster order
  double t_comp_ms = 0.0;
  double t_comm_ms = 0.0;
  double t_overlap_ms = 0.0;
  double t_c_ms = 0.0;        ///< objective: estimated elapsed time per cycle
  double t_elapsed_ms = 0.0;  ///< iterations * t_c (startup excluded)
};

/// estimate_into()'s result: the cost breakdown without the materialised
/// partition vector (searches only compare t_c; the winner is materialised
/// once, via estimate(), for the returned PartitionResult).
struct FastEstimate {
  double t_comp_ms = 0.0;
  double t_comm_ms = 0.0;
  double t_overlap_ms = 0.0;
  double t_c_ms = 0.0;
  double t_elapsed_ms = 0.0;
};

/// Cached baseline for CycleEstimator::estimate_delta(): one evaluated
/// configuration plus the gather a single +/-1 rescoring can reuse.  A
/// move changes the Eq. 3 weight sum, hence every group's ideal share --
/// so the kernel reruns -- but the validation scan, the active-group
/// gather, and the weight-sum prefix up to the moved cluster are pure
/// functions of the baseline and are served from this cache.  Bound to
/// one (estimator, baseline) pair via bind_delta(); rebind after the
/// estimator or the baseline changes by any path other than commit_delta().
struct DeltaScratch {
  /// Estimator the baseline belongs to (CycleEstimator::binding_id();
  /// 0 = unbound).
  std::uint64_t bound_id = 0;

  ProcessorConfig config;  ///< the cached baseline configuration
  int total_p = 0;         ///< config_total(config)

  // Active groups of the baseline in placement (rank-major) order.
  std::vector<double> group_w;
  std::vector<int> group_p;
  std::vector<ClusterId> group_c;

  /// Eq. 3 weight-sum partials: prefix_w[g] is the sum over the ranks of
  /// groups 0..g-1 in the exact rank-major repeated-add order (float
  /// addition is not associative; resuming the chain at the moved group
  /// from this partial reproduces the from-scratch sum bitwise).
  /// prefix_w[groups] is the full baseline sum.
  std::vector<double> prefix_w;

  /// The move the scratch's kernel staging describes (-1 = none):
  /// commit_delta of exactly this move adopts the staged groups and
  /// partials instead of regathering -- a probe-then-commit chain pays for
  /// one gather per step.  estimate_into() restages, so it clears this.
  ClusterId staged_cluster = -1;
  int staged_delta = 0;
};

/// Reusable buffers for CycleEstimator::estimate_into() /
/// estimate_delta() and the search drivers.  Strictly one owner thread at
/// a time -- never share a scratch across threads (the svc service keeps
/// one per compute slot, handed to one caller at a time; the work-stealing
/// exhaustive sweep one per worker).  Buffers grow to the network's
/// cluster count on first use and are then reused: steady-state
/// evaluations, and rebinding to another estimator of no more clusters,
/// perform zero heap allocations.
struct EstimatorScratch {
  /// Fast-path evaluations recorded through this scratch.  Search drivers
  /// read the delta across a search and merge it into the estimator's
  /// evaluations() plus the batched `estimator.evaluations` counter.
  std::uint64_t evaluations = 0;

  /// Of `evaluations`, how many were estimate_delta() probes the closed
  /// form served (a probe that needs starvation repair counts as a plain
  /// evaluation).  Drivers fold the delta into the `estimator.delta_evals`
  /// telemetry counter.
  std::uint64_t delta_evaluations = 0;

  /// Estimator the per-cluster tables belong to
  /// (CycleEstimator::binding_id(); 0 = unbound).  Address comparison is
  /// not enough: a stack-constructed estimator can reuse the address of a
  /// dead one (the service builds one estimator per cold request).
  std::uint64_t bound_id = 0;

  // Per-cluster constants (indexed by ClusterId), rebuilt only when the
  // scratch changes estimator.
  std::vector<double> inv_s;       ///< Eq. 3 weight 1/S_i (flop seconds)
  std::vector<double> comp_ms;     ///< Eq. 4 prefix s_ms * ops_per_pdu
  std::vector<int> capacity;       ///< cluster sizes (validation)
  std::vector<char> has_fit;       ///< dominant-topology comm fit present
  std::vector<Eq1Fit> fit;         ///< by-value Eq. 1 fits (where has_fit)
  std::vector<double> router_i, router_s;  ///< per ordered pair, K*K
  std::vector<double> coerce_i, coerce_s;  ///< zero when no coercion fit
  std::vector<char> has_router;

  /// Direct-mapped memo for the dominant communication phase's
  /// bytes_per_message callback (a std::function, the one indirect call
  /// per group the tables cannot hoist), keyed by A_i.  Spec callbacks are
  /// fixed for the estimator's lifetime, so caching is exact; cleared on
  /// rebinding.
  static constexpr int kBytesMemoBits = 9;
  std::vector<std::int64_t> memo_key;  ///< A_i + 1; 0 = empty
  std::vector<std::int64_t> memo_val;

  // Kernel staging: the evaluated configuration's active groups in
  // placement order with their weight-sum partials (stage_prefix[groups]
  // is the full sum), then the kernel's per-group shares and maxima.
  // Sized to the cluster count on binding.
  int staged_groups = 0;
  int staged_total = 0;  ///< processors over the staged groups
  std::vector<double> stage_w;
  std::vector<int> stage_p;
  std::vector<ClusterId> stage_c;
  std::vector<double> stage_prefix;
  std::vector<std::int64_t> stage_base;
  std::vector<double> stage_frac;
  std::vector<std::int64_t> stage_rb;
  std::vector<std::int64_t> stage_max_a;
  std::vector<double> stage_bytes;
  /// The staged configuration, rebuilt for starvation repair (the rare
  /// case the closed form cannot serve materialises Eq. 3 from it).
  ProcessorConfig repair_config;

  std::vector<double> objective_cache;  ///< ClusterObjective memo (NaN=empty)

  /// Delta-evaluation baseline cache (see DeltaScratch).  Embedded so the
  /// searches, the hill climb and the adaptive repartition scorer reuse
  /// warm buffers and tables through the scratch they already hold.
  DeltaScratch delta;

  /// Candidate staging for the general partitioner's start-set assembly.
  /// Reused across searches.
  std::vector<ProcessorConfig> start_configs;
};

class CycleEstimator {
 public:
  /// All referenced objects must outlive the estimator.  Dominant phases
  /// and the communication-fit inventory are resolved here, once: the
  /// spec's callbacks must be deterministic for the estimator's lifetime
  /// (they always were in practice -- the searches assume a fixed
  /// objective).
  CycleEstimator(const Network& network, const CostModelDb& db,
                 const ComputationSpec& spec);

  /// Evaluate one configuration (reference path).  Throws InvalidArgument
  /// for configurations that exceed cluster capacities or select nothing.
  CycleEstimate estimate(const ProcessorConfig& config) const;

  /// Allocation-free evaluation of one configuration through `scratch`
  /// (the closed-form kernel over a full gather).  Bitwise identical to
  /// estimate() on every cost field.  Thread-safe for concurrent calls
  /// with distinct scratches; bumps scratch.evaluations instead of this
  /// estimator's counter (callers merge, see merge_evaluations()).  Binds
  /// the scratch's per-cluster tables when it last served a different
  /// estimator.
  FastEstimate estimate_into(const ProcessorConfig& config,
                             EstimatorScratch& scratch) const;

  /// Cache `config` as scratch.delta's baseline and return its estimate
  /// (estimate_into; counts one evaluation).  Subsequent
  /// estimate_delta()/commit_delta() calls are valid until the estimator
  /// or the baseline changes by any other path.
  FastEstimate bind_delta(const ProcessorConfig& config,
                          EstimatorScratch& scratch) const;

  /// Score baseline-with-one-move -- the configuration equal to the bound
  /// baseline except cluster `cluster` gains `delta` processors -- without
  /// touching the baseline.  Bitwise identical to estimate_into() on the
  /// moved configuration (the property tier asserts this across randomised
  /// move sequences): validation, the active-group gather, and the
  /// weight-sum prefix before the moved cluster come from the cache; only
  /// the kernel reruns.  Throws InvalidArgument exactly where
  /// estimate_into would (capacity exceeded, nothing selected, more ranks
  /// than PDUs).  Moves that empty or activate a cluster are supported.
  FastEstimate estimate_delta(ClusterId cluster, int delta,
                              EstimatorScratch& scratch) const;

  /// Apply a move to the cached baseline: the baseline becomes the moved
  /// configuration and the gather cache is refreshed.  No evaluation is
  /// performed (the caller already holds the move's estimate from
  /// estimate_delta).  When the last kernel run on `scratch` was
  /// estimate_delta of this same move, its staged groups and weight-sum
  /// partials become the new cache as they are; otherwise the moved
  /// configuration is regathered.
  void commit_delta(ClusterId cluster, int delta,
                    EstimatorScratch& scratch) const;

  /// Identity for scratch binding (never 0; see EstimatorScratch::bound_id).
  std::uint64_t binding_id() const { return binding_id_; }

  /// Clusters ordered fastest-first; partition vectors and placements are
  /// rank-major in this order.
  const std::vector<ClusterId>& cluster_order() const {
    return cluster_order_;
  }

  /// Number of evaluations so far -- the paper's K*log2 P overhead metric
  /// counts these.  estimate() bumps it directly; fast-path evaluations
  /// arrive batched via merge_evaluations().
  std::uint64_t evaluations() const {
    return evaluations_.load(std::memory_order_relaxed);
  }

  /// Fold `n` scratch-counted fast-path evaluations into evaluations().
  void merge_evaluations(std::uint64_t n) const {
    evaluations_.fetch_add(n, std::memory_order_relaxed);
  }

  const ComputationSpec& spec() const { return spec_; }
  const Network& network() const { return network_; }

 private:
  CycleEstimate estimate_impl(const ProcessorConfig& config) const;
  /// Bind `s` to this estimator: rebuild its per-cluster tables, clear
  /// its bytes memo and size its staging.  Callers skip it when
  /// s.bound_id already names this estimator.
  void bind_tables(EstimatorScratch& s) const;
  /// Stage `config`'s active groups and weight-sum partials in `s`.
  void gather(const ProcessorConfig& config, EstimatorScratch& s) const;
  /// Make `s`'s staged groups its delta baseline's gather cache.
  static void adopt_staged(EstimatorScratch& s);
  /// The closed-form kernel over `s`'s staged groups.  `delta_probe`
  /// counts a closed-form result in s.delta_evaluations.
  FastEstimate evaluate_staged(EstimatorScratch& s, bool delta_probe) const;
  /// Starvation repair for the staged groups (rare, allocating): writes
  /// each group's max A from the materialised Eq. 3 vector and returns
  /// the Eq. 4 T_comp.
  double repair_starved(EstimatorScratch& s) const;
  double comm_cost_ms(const ProcessorConfig& config,
                      const PartitionVector& partition) const;
  /// The reference path's Eq. 1/2/5 evaluation once the per-cluster max
  /// A_i are known.  `clusters`/`sizes`/`max_a` describe the active
  /// clusters in placement order; total_p is config_total(config).
  double comm_cost_from_groups(const ClusterId* clusters, const int* sizes,
                               const std::int64_t* max_a,
                               std::size_t num_groups, int total_p) const;
  /// T_comm[C](b, p) with the singleton-cluster proxy fallback resolved
  /// against the constructor-memoized fitted-cluster list.
  double cluster_cost_ms(ClusterId c, double bytes, double p_param) const;

  const Network& network_;
  const CostModelDb& db_;
  const ComputationSpec& spec_;
  std::vector<ClusterId> cluster_order_;
  std::vector<int> order_pos_;  ///< cluster id -> index in cluster_order_

  // Constructor-resolved invariants of the spec and cost model: the hot
  // path must not re-run phase-dominance scans, callback invocations with
  // fixed results, or the per-call "which clusters have a fit" rescan.
  const ComputationPhaseSpec* dominant_comp_ = nullptr;
  std::int64_t num_pdus_ = 0;
  double ops_per_pdu_ = 0.0;
  const CommunicationPhaseSpec* dominant_comm_ = nullptr;  // null: no comm
  Topology comm_topology_ = Topology::OneD;
  bool comm_bw_limited_ = false;
  bool phases_overlap_ = false;
  std::vector<ClusterId> fitted_clusters_;  ///< has_comm(c, topo), id order
  std::vector<char> has_fit_;               ///< per cluster, dominant topo
  std::uint64_t binding_id_ = 0;            ///< process-unique, never 0

  mutable std::atomic<std::uint64_t> evaluations_{0};
};

}  // namespace netpart
