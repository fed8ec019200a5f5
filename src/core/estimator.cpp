#include "core/estimator.hpp"

#include <algorithm>
#include <cmath>

#include "dp/rank_kernel.hpp"
#include "obs/span.hpp"
#include "obs/telemetry.hpp"
#include "util/error.hpp"

namespace netpart {

namespace {
/// Process-unique identities for scratch binding.  Stack-allocated
/// estimators can reuse addresses, so pointers cannot tell two apart.
std::atomic<std::uint64_t> g_next_binding_id{1};

/// The kernel's memoised bytes_per_message lookup (see
/// EstimatorScratch::memo_key).
inline std::int64_t memoized_bytes(const CommunicationPhaseSpec& comm,
                                   EstimatorScratch& s, std::int64_t a) {
  const auto slot = static_cast<std::size_t>(
      (static_cast<std::uint64_t>(a) * 0x9E3779B97F4A7C15ull) >>
      (64 - EstimatorScratch::kBytesMemoBits));
  if (s.memo_key[slot] == a + 1) return s.memo_val[slot];
  const std::int64_t bytes = comm.bytes_per_message(a);
  s.memo_key[slot] = a + 1;
  s.memo_val[slot] = bytes;
  return bytes;
}

}  // namespace

CycleEstimator::CycleEstimator(const Network& network, const CostModelDb& db,
                               const ComputationSpec& spec)
    : network_(network),
      db_(db),
      spec_(spec),
      cluster_order_(clusters_by_speed(network)) {
  NP_REQUIRE(db.num_clusters() == network.num_clusters(),
             "cost model was calibrated for a different network");
  dominant_comp_ = &spec.dominant_computation();
  num_pdus_ = dominant_comp_->num_pdus();
  ops_per_pdu_ = dominant_comp_->ops_per_pdu();
  phases_overlap_ = spec.dominant_phases_overlap();
  // Checked contracts (previously assumed): a non-positive PDU count makes
  // Eq. 3 meaningless, and a non-finite or negative op count poisons every
  // T_comp the search compares.  npcheck's spec lint flags these at the
  // source (NP-S003/NP-S005); this is the last line of defence for specs
  // built programmatically.
  NP_REQUIRE(num_pdus_ > 0,
             "estimator: dominant computation must have num_PDUs > 0");
  NP_REQUIRE(std::isfinite(ops_per_pdu_) && ops_per_pdu_ >= 0.0,
             "estimator: ops per PDU must be finite and non-negative");
  NP_REQUIRE(spec.iterations() >= 1,
             "estimator: spec iterations must be >= 1");
  if (!spec.communication_phases().empty()) {
    dominant_comm_ = &spec.dominant_communication();
    comm_topology_ = dominant_comm_->topology();
    comm_bw_limited_ = is_bandwidth_limited(comm_topology_);
    has_fit_.resize(static_cast<std::size_t>(network.num_clusters()), 0);
    for (ClusterId c = 0; c < network.num_clusters(); ++c) {
      if (db.has_comm(c, comm_topology_)) {
        has_fit_[static_cast<std::size_t>(c)] = 1;
        fitted_clusters_.push_back(c);
      }
    }
  }
  order_pos_.resize(static_cast<std::size_t>(network.num_clusters()), 0);
  for (std::size_t i = 0; i < cluster_order_.size(); ++i) {
    order_pos_[static_cast<std::size_t>(cluster_order_[i])] =
        static_cast<int>(i);
  }
  binding_id_ = g_next_binding_id.fetch_add(1, std::memory_order_relaxed);
}

CycleEstimate CycleEstimator::estimate(const ProcessorConfig& config) const {
  evaluations_.fetch_add(1, std::memory_order_relaxed);
  if (!obs::TelemetryRegistry::global_enabled()) {
    // Disabled-telemetry cost: the one relaxed load above.  The
    // `estimator.evaluations` counter is batched per search by the
    // partitioners instead of bumped here per evaluation.
    return estimate_impl(config);
  }
  obs::Span span(obs::TelemetryRegistry::global(), "estimator.estimate",
                 "core");
  CycleEstimate out = estimate_impl(config);
  if (span.active()) {
    // The paper's Eq. 1 breakdown: T_c = T_comp + T_comm - T_overlap.
    span.attr("processors", JsonValue(config_total(config)));
    span.attr("t_comp_ms", JsonValue(out.t_comp_ms));
    span.attr("t_comm_ms", JsonValue(out.t_comm_ms));
    span.attr("t_overlap_ms", JsonValue(out.t_overlap_ms));
    span.attr("t_c_ms", JsonValue(out.t_c_ms));
  }
  return out;
}

CycleEstimate CycleEstimator::estimate_impl(
    const ProcessorConfig& config) const {
  validate_config(network_, config);

  PartitionVector partition =
      balanced_partition(network_, config, cluster_order_, num_pdus_);

  // Eq. 4: T_comp = S_i * complexity * A_i.  Load balancing makes the
  // products near-equal; integer rounding leaves a spread, and completion
  // is set by the slowest processor, so take the max.
  double t_comp = 0.0;
  {
    int rank = 0;
    for (ClusterId c : cluster_order_) {
      const ProcessorType& type = network_.cluster(c).type();
      const double s_ms = (dominant_comp_->op_kind == OpKind::FloatingPoint
                               ? type.flop_time
                               : type.int_time)
                              .as_millis();
      const int p = config[static_cast<std::size_t>(c)];
      for (int i = 0; i < p; ++i, ++rank) {
        t_comp = std::max(
            t_comp, s_ms * ops_per_pdu_ *
                        static_cast<double>(partition.at(rank)));
      }
    }
  }

  const double t_comm = comm_cost_ms(config, partition);

  // T_overlap: the portion of T_comm hidden behind T_comp when the
  // implementation overlaps the dominant phases (STEN-2).
  const double t_overlap =
      phases_overlap_ ? std::min(t_comp, t_comm) : 0.0;

  CycleEstimate out{config, std::move(partition), t_comp, t_comm, t_overlap,
                    0.0, 0.0};
  out.t_c_ms = t_comp + t_comm - t_overlap;
  out.t_elapsed_ms = out.t_c_ms * spec_.iterations();
  return out;
}

void CycleEstimator::bind_tables(EstimatorScratch& s) const {
  s.bound_id = 0;  // half-built tables must not pass for bound ones
  const auto k = static_cast<std::size_t>(network_.num_clusters());

  s.inv_s.resize(k);
  s.comp_ms.resize(k);
  s.capacity.resize(k);
  for (ClusterId c = 0; c < network_.num_clusters(); ++c) {
    const auto ci = static_cast<std::size_t>(c);
    const ProcessorType& type = network_.cluster(c).type();
    // The Eq. 3 weight always uses the flop rate, T_comp the dominant op
    // kind's.  estimate() evaluates s_ms * ops_per_pdu * A left to right,
    // so the s_ms * ops_per_pdu prefix is a loop-invariant product the
    // binding can fold without changing a bit of the final T_comp.
    s.inv_s[ci] = 1.0 / type.flop_time.as_seconds();
    s.comp_ms[ci] = (dominant_comp_->op_kind == OpKind::FloatingPoint
                         ? type.flop_time
                         : type.int_time)
                        .as_millis() *
                    ops_per_pdu_;
    s.capacity[ci] = network_.cluster(c).size();
  }

  s.has_fit.assign(k, 0);
  s.fit.assign(k, Eq1Fit{});
  s.router_i.assign(k * k, 0.0);
  s.router_s.assign(k * k, 0.0);
  s.coerce_i.assign(k * k, 0.0);
  s.coerce_s.assign(k * k, 0.0);
  s.has_router.assign(k * k, 0);
  if (dominant_comm_ != nullptr) {
    for (ClusterId c = 0; c < network_.num_clusters(); ++c) {
      const auto ci = static_cast<std::size_t>(c);
      if (has_fit_[ci]) {
        s.has_fit[ci] = 1;
        s.fit[ci] = db_.comm_fit(c, comm_topology_);
      }
    }
    for (ClusterId a = 0; a < network_.num_clusters(); ++a) {
      for (ClusterId b = 0; b < network_.num_clusters(); ++b) {
        if (a == b) continue;
        const std::size_t slot =
            static_cast<std::size_t>(a) * k + static_cast<std::size_t>(b);
        if (const auto rf = db_.router_fit(a, b)) {
          s.has_router[slot] = 1;
          s.router_i[slot] = rf->intercept;
          s.router_s[slot] = rf->slope;
        }
        if (const auto cf = db_.coerce_fit(a, b)) {
          // Absent coercion stays {0, 0}: max(0, 0 + 0*b) reproduces
          // coerce_ms()'s literal 0.0 return bitwise.
          s.coerce_i[slot] = cf->intercept;
          s.coerce_s[slot] = cf->slope;
        }
      }
    }
    // A different estimator means a different spec: memo entries keyed
    // by the old spec's callback are poison, not a warm start.
    s.memo_key.assign(std::size_t{1} << EstimatorScratch::kBytesMemoBits, 0);
    s.memo_val.resize(std::size_t{1} << EstimatorScratch::kBytesMemoBits);
  }

  // At most every cluster is active, so neither a gather nor a patch nor
  // an adopting commit_delta allocates once bound.
  s.stage_w.resize(k);
  s.stage_p.resize(k);
  s.stage_c.resize(k);
  s.stage_prefix.resize(k + 1);
  s.stage_base.resize(k);
  s.stage_frac.resize(k);
  s.stage_rb.resize(k);
  s.stage_max_a.resize(k);
  s.stage_bytes.resize(k);
  s.delta.group_w.reserve(k);
  s.delta.group_p.reserve(k);
  s.delta.group_c.reserve(k);
  s.delta.prefix_w.reserve(k + 1);
  s.bound_id = binding_id_;
}

void CycleEstimator::gather(const ProcessorConfig& config,
                            EstimatorScratch& s) const {
  int groups = 0;
  int total = 0;
  double sum = 0.0;
  for (ClusterId c : cluster_order_) {
    const int p = config[static_cast<std::size_t>(c)];
    if (p == 0) continue;
    const double w = s.inv_s[static_cast<std::size_t>(c)];
    const auto g = static_cast<std::size_t>(groups++);
    s.stage_w[g] = w;
    s.stage_p[g] = p;
    s.stage_c[g] = c;
    s.stage_prefix[g] = sum;
    // Eq. 3 weight sum: rank-major repeated adds, the exact order
    // balanced_partition() sums the per-rank weights in.
    for (int i = 0; i < p; ++i) sum += w;
    total += p;
  }
  s.stage_prefix[static_cast<std::size_t>(groups)] = sum;
  s.staged_groups = groups;
  s.staged_total = total;
}

// Forced inline for the same reason as the kernel below: every step of a
// probe-then-commit chain runs it (~1 ns per exhaustive-sweep step).
[[gnu::always_inline]] inline void CycleEstimator::adopt_staged(
    EstimatorScratch& s) {
  DeltaScratch& d = s.delta;
  const auto groups = static_cast<std::size_t>(s.staged_groups);
  d.group_w.assign(s.stage_w.begin(), s.stage_w.begin() + groups);
  d.group_p.assign(s.stage_p.begin(), s.stage_p.begin() + groups);
  d.group_c.assign(s.stage_c.begin(), s.stage_c.begin() + groups);
  d.prefix_w.assign(s.stage_prefix.begin(),
                    s.stage_prefix.begin() + groups + 1);
  d.total_p = s.staged_total;
  d.staged_cluster = -1;
}

// Forced inline into both entry points: as an out-of-line call the kernel
// cost the delta probe ~8 ns of its ~50 (bench_partition_hotpath, 4-vCPU
// Xeon, gcc 12), the staged operands round-tripping through memory.
[[gnu::always_inline]] inline FastEstimate CycleEstimator::evaluate_staged(
    EstimatorScratch& s, bool delta_probe) const {
  const int groups = s.staged_groups;
  const int total = s.staged_total;
  const double* lw = s.stage_w.data();
  const int* lp = s.stage_p.data();
  const ClusterId* lc = s.stage_c.data();

  // Eq. 3 shares (InvariantDivider: one reciprocal plus two FMAs per group
  // where the toolchain has hardware FMA, bitwise x/d by Markstein's
  // correction -- see dp/rank_kernel.hpp).  Every rank of a group computes
  // the identical ideal share, so floor and fractional part collapse to
  // one value per group.
  const double pdus = static_cast<double>(num_pdus_);
  const InvariantDivider div(s.stage_prefix[static_cast<std::size_t>(groups)]);
  std::int64_t* lb = s.stage_base.data();
  double* lf = s.stage_frac.data();
  std::int64_t used = 0;
  for (int g = 0; g < groups; ++g) {
    const double ideal = div.divide(pdus * lw[g]);
    const auto whole = static_cast<std::int64_t>(ideal);
    lb[g] = whole;
    lf[g] = ideal - static_cast<double>(whole);
    used += whole * lp[g];
  }
  const std::int64_t remainder = num_pdus_ - used;
  NP_ASSERT(remainder >= 0 && remainder <= total);

  // Largest-remainder distribution: the stable per-rank sort (frac
  // descending, original rank order on ties) never interleaves two groups,
  // so group g's ranks are preceded by exactly rb[g] ranks and the first
  // remainder - rb[g] of them (clamped to [0, P_g]) receive an extra PDU.
  largest_remainder_ranks(lf, lp, groups, s.stage_rb.data());
  const std::int64_t* rb = s.stage_rb.data();
  std::int64_t* la = s.stage_max_a.data();
  const double* comp_ms = s.comp_ms.data();
  int starved = 0;
  double t_comp = 0.0;
  for (int g = 0; g < groups; ++g) {
    // extras = clamp(remainder - ranks_before, 0, P_g), but only its sign
    // (an extra exists) and saturation (the group filled up) are consumed,
    // so two comparisons replace the clamp.  Both are data-dependent;
    // branch-free arithmetic keeps them off the branch predictor.
    const std::int64_t dd = remainder - rb[g];
    starved |= static_cast<int>(lb[g] == 0) & static_cast<int>(dd < lp[g]);
    const std::int64_t a = lb[g] + static_cast<std::int64_t>(dd > 0);
    la[g] = a;
    // Eq. 4 per cluster: within a homogeneous cluster the max over ranks
    // of s_ms * ops * A is the value at the cluster's max A
    // (multiplication by a non-negative constant is monotone).
    t_comp = std::max(t_comp, comp_ms[static_cast<std::size_t>(lc[g])] *
                                  static_cast<double>(a));
  }
  if (starved != 0) [[unlikely]] {
    t_comp = repair_starved(s);
  } else if (delta_probe) {
    ++s.delta_evaluations;
  }

  // Eq. 2/5 communication over the bound coefficient tables: the worst
  // synchronous cluster, then the boundary router/coercion penalties
  // (comm_cost_from_groups() is the reference form).
  double t_comm = 0.0;
  if (dominant_comm_ != nullptr && total > 1) {
    const auto k = static_cast<std::size_t>(network_.num_clusters());
    const Topology topo = comm_topology_;
    const bool bw_limited = comm_bw_limited_;
    const char* has_fit = s.has_fit.data();
    const Eq1Fit* fit = s.fit.data();
    double* gb = s.stage_bytes.data();
    double worst = 0.0;
    for (int g = 0; g < groups; ++g) {
      const double bytes =
          static_cast<double>(memoized_bytes(*dominant_comm_, s, la[g]));
      gb[g] = bytes;
      int adj = 0;
      if (groups > 1) {
        switch (topo) {
          case Topology::OneD:
          case Topology::TwoD:
            adj = (g > 0 ? 1 : 0) + (g + 1 < groups ? 1 : 0);
            break;
          case Topology::Ring:
            adj = 2;
            break;
          case Topology::Tree:
          case Topology::Broadcast:
            adj = g == 0 ? groups - 1 : 1;
            break;
        }
      }
      const double p_param =
          (bw_limited ? static_cast<double>(total)
                      : static_cast<double>(lp[g])) +
          static_cast<double>(adj);
      const auto c = static_cast<std::size_t>(lc[g]);
      double cost;
      if (has_fit[c]) {
        // db_.comm_ms over the by-value fit: same p <= 1 early-out, same
        // |Eq. 1| evaluation, without the optional deref or slot checks.
        cost = p_param <= 1.0
                   ? 0.0
                   : std::abs(fit[c].evaluate(bytes, p_param));
      } else {
        cost = cluster_cost_ms(lc[g], bytes, p_param);  // proxy (rare)
      }
      worst = std::max(worst, cost);
    }
    double penalty = 0.0;
    for (int g = 0; g + 1 < groups; ++g) {
      const ClusterId ca = lc[g];
      const ClusterId cb = lc[g + 1];
      // bytes_per_message(max(a, b)) is the bytes of whichever neighbour
      // has the larger max A_i -- already computed (and cast) above.
      const double bytes = la[g] >= la[g + 1] ? gb[g] : gb[g + 1];
      const std::size_t slot =
          static_cast<std::size_t>(ca) * k + static_cast<std::size_t>(cb);
      const double router =
          s.has_router[slot]
              ? std::max(0.0, s.router_i[slot] + s.router_s[slot] * bytes)
              : db_.router_ms(ca, cb, bytes);  // throws like the reference
      const double coerce =
          std::max(0.0, s.coerce_i[slot] + s.coerce_s[slot] * bytes);
      penalty = std::max(penalty, router + coerce);
    }
    t_comm = worst + penalty;
  }

  const double t_overlap = phases_overlap_ ? std::min(t_comp, t_comm) : 0.0;
  FastEstimate out{t_comp, t_comm, t_overlap, 0.0, 0.0};
  out.t_c_ms = t_comp + t_comm - t_overlap;
  out.t_elapsed_ms = out.t_c_ms * spec_.iterations();
  return out;
}

double CycleEstimator::repair_starved(EstimatorScratch& s) const {
  // Extreme speed skew rounds some rank's share to 0, and the closed form
  // cannot reproduce balanced_partition()'s donor-stealing loop.
  // Materialise the real Eq. 3 vector once and take each group's max A
  // from it -- allocating, correctness over speed.  The staged groups stay
  // untouched, so a commit_delta of this probe still adopts them.
  const int groups = s.staged_groups;
  s.repair_config.assign(static_cast<std::size_t>(network_.num_clusters()),
                         0);
  for (int g = 0; g < groups; ++g) {
    s.repair_config[static_cast<std::size_t>(s.stage_c[g])] = s.stage_p[g];
  }
  const PartitionVector partition = balanced_partition(
      network_, s.repair_config, cluster_order_, num_pdus_);
  double t_comp = 0.0;
  int rank = 0;
  for (int g = 0; g < groups; ++g) {
    const auto gi = static_cast<std::size_t>(g);
    std::int64_t max_a = 0;
    for (int i = 0; i < s.stage_p[gi]; ++i, ++rank) {
      max_a = std::max(max_a, partition.at(rank));
    }
    s.stage_max_a[gi] = max_a;
    t_comp = std::max(t_comp, s.comp_ms[static_cast<std::size_t>(
                                  s.stage_c[gi])] *
                                  static_cast<double>(max_a));
  }
  return t_comp;
}

FastEstimate CycleEstimator::estimate_into(const ProcessorConfig& config,
                                           EstimatorScratch& scratch) const {
  ++scratch.evaluations;
  validate_config(network_, config);
  if (scratch.bound_id != binding_id_) bind_tables(scratch);
  gather(config, scratch);
  scratch.delta.staged_cluster = -1;
  NP_REQUIRE(num_pdus_ >= scratch.staged_total,
             "cannot give every selected processor a PDU");
  return evaluate_staged(scratch, /*delta_probe=*/false);
}

FastEstimate CycleEstimator::bind_delta(const ProcessorConfig& config,
                                        EstimatorScratch& scratch) const {
  // estimate_into validates, counts the baseline evaluation, binds the
  // tables and stages the gather the baseline cache adopts.
  const FastEstimate out = estimate_into(config, scratch);
  scratch.delta.bound_id = binding_id_;
  scratch.delta.config = config;
  adopt_staged(scratch);
  return out;
}

FastEstimate CycleEstimator::estimate_delta(ClusterId cluster, int delta,
                                            EstimatorScratch& scratch) const {
  DeltaScratch& d = scratch.delta;
  NP_REQUIRE(d.bound_id == binding_id_,
             "delta scratch is not bound to this estimator "
             "(call bind_delta first)");
  const auto ci = static_cast<std::size_t>(cluster);
  NP_REQUIRE(ci < d.config.size(), "cluster id out of range");
  if (scratch.bound_id != binding_id_) bind_tables(scratch);
  const int moved_p = d.config[ci] + delta;
  NP_REQUIRE(moved_p >= 0 && moved_p <= scratch.capacity[ci],
             "configuration exceeds cluster capacity");
  const int total = d.total_p + delta;
  NP_REQUIRE(total > 0, "configuration must select at least one processor");
  NP_REQUIRE(num_pdus_ >= total,
             "cannot give every selected processor a PDU");

  // Patched gather: groups strictly before the moved cluster in placement
  // order are the baseline's, byte for byte; the Eq. 3 weight-sum chain
  // resumes from the cached partial at the splice point, so the full sum
  // is the exact double a from-scratch gather of the moved configuration
  // produces.  The partials are staged alongside the groups so that
  // commit_delta of this move can adopt both.
  const int base_groups = static_cast<int>(d.group_c.size());
  const int pos = order_pos_[ci];
  int j = 0;
  while (j < base_groups &&
         order_pos_[static_cast<std::size_t>(d.group_c[j])] < pos) {
    ++j;
  }
  const bool was_active = j < base_groups && d.group_c[j] == cluster;
  double* lw = scratch.stage_w.data();
  int* lp = scratch.stage_p.data();
  ClusterId* lc = scratch.stage_c.data();
  double* lpre = scratch.stage_prefix.data();
  for (int g = 0; g < j; ++g) {
    lw[g] = d.group_w[static_cast<std::size_t>(g)];
    lp[g] = d.group_p[static_cast<std::size_t>(g)];
    lc[g] = d.group_c[static_cast<std::size_t>(g)];
    lpre[g] = d.prefix_w[static_cast<std::size_t>(g)];
  }
  int groups = j;
  double sum = d.prefix_w[static_cast<std::size_t>(j)];
  if (moved_p > 0) {
    const double w = scratch.inv_s[ci];
    lw[groups] = w;
    lp[groups] = moved_p;
    lc[groups] = cluster;
    lpre[groups] = sum;
    ++groups;
    for (int i = 0; i < moved_p; ++i) sum += w;
  }
  for (int g = j + (was_active ? 1 : 0); g < base_groups; ++g) {
    const double w = d.group_w[static_cast<std::size_t>(g)];
    const int p = d.group_p[static_cast<std::size_t>(g)];
    lw[groups] = w;
    lp[groups] = p;
    lc[groups] = d.group_c[static_cast<std::size_t>(g)];
    lpre[groups] = sum;
    ++groups;
    for (int i = 0; i < p; ++i) sum += w;
  }
  lpre[groups] = sum;
  scratch.staged_groups = groups;
  scratch.staged_total = total;
  d.staged_cluster = cluster;
  d.staged_delta = delta;

  ++scratch.evaluations;
  return evaluate_staged(scratch, /*delta_probe=*/true);
}

void CycleEstimator::commit_delta(ClusterId cluster, int delta,
                                  EstimatorScratch& scratch) const {
  DeltaScratch& d = scratch.delta;
  NP_REQUIRE(d.bound_id == binding_id_,
             "delta scratch is not bound to this estimator "
             "(call bind_delta first)");
  const auto ci = static_cast<std::size_t>(cluster);
  NP_REQUIRE(ci < d.config.size(), "cluster id out of range");
  if (scratch.bound_id != binding_id_) bind_tables(scratch);
  const int moved_p = d.config[ci] + delta;
  NP_REQUIRE(moved_p >= 0 && moved_p <= scratch.capacity[ci],
             "configuration exceeds cluster capacity");
  d.config[ci] = moved_p;
  // Unless the last probe scored exactly this move (its staged gather is
  // the moved configuration's, down to the weight-sum partials), gather
  // the moved configuration afresh.
  if (d.staged_cluster != cluster || d.staged_delta != delta) {
    gather(d.config, scratch);
  }
  adopt_staged(scratch);
}

double CycleEstimator::cluster_cost_ms(ClusterId c, double bytes,
                                       double p_param) const {
  if (has_fit_[static_cast<std::size_t>(c)]) {
    return db_.comm_ms(c, comm_topology_, bytes, p_param);
  }
  // A singleton cluster has no intra-cluster benchmark (nothing to
  // measure), yet its segment still carries router traffic when it joins
  // a spanning configuration; fall back to the most expensive fitted
  // cluster as a conservative proxy.  The fitted-cluster list is resolved
  // once, in the constructor, instead of rescanning has_comm per call.
  NP_REQUIRE(!fitted_clusters_.empty(),
             "no communication fit for any cluster; run calibration first");
  double proxy = 0.0;
  for (ClusterId other : fitted_clusters_) {
    proxy = std::max(proxy, db_.comm_ms(other, comm_topology_, bytes,
                                        p_param));
  }
  return proxy;
}

double CycleEstimator::comm_cost_from_groups(const ClusterId* clusters,
                                             const int* sizes,
                                             const std::int64_t* max_a,
                                             std::size_t num_groups,
                                             int total_p) const {
  NP_ASSERT(num_groups > 0);
  const CommunicationPhaseSpec& comm = *dominant_comm_;
  const Topology topo = comm_topology_;

  // Router stations: under contiguous placement, messages cross between
  // consecutive active clusters (chain-like topologies) or from the root
  // cluster to every other (tree/broadcast rooted at rank 0).
  const auto adjacency = [&](std::size_t k) -> int {
    if (num_groups == 1) return 0;
    switch (topo) {
      case Topology::OneD:
      case Topology::TwoD:
        return (k > 0 ? 1 : 0) + (k + 1 < num_groups ? 1 : 0);
      case Topology::Ring:
        // Wrap-around closes the chain: every active cluster sits between
        // two boundaries.
        return 2;
      case Topology::Tree:
      case Topology::Broadcast:
        return k == 0 ? static_cast<int>(num_groups) - 1 : 1;
    }
    return 0;
  };

  // Eq. 2 / Section 3: the synchronous cost is the max over clusters; each
  // cluster's cost is evaluated at its processor count plus the routers
  // contending on its segment (the "(b, p+1)" rule).  Bandwidth-limited
  // topologies see the total offered load instead of the private one.
  double worst = 0.0;
  for (std::size_t k = 0; k < num_groups; ++k) {
    const double bytes =
        static_cast<double>(comm.bytes_per_message(max_a[k]));
    const double p_param =
        (comm_bw_limited_ ? static_cast<double>(total_p)
                          : static_cast<double>(sizes[k])) +
        static_cast<double>(adjacency(k));
    worst = std::max(worst, cluster_cost_ms(clusters[k], bytes, p_param));
  }

  // Per-message router and coercion penalties on the boundary exchanges.
  double penalty = 0.0;
  for (std::size_t k = 0; k + 1 < num_groups; ++k) {
    const ClusterId ca = clusters[k];
    const ClusterId cb = clusters[k + 1];
    const double bytes = static_cast<double>(
        comm.bytes_per_message(std::max(max_a[k], max_a[k + 1])));
    penalty = std::max(penalty, db_.router_ms(ca, cb, bytes) +
                                    db_.coerce_ms(ca, cb, bytes));
  }

  return worst + penalty;
}

double CycleEstimator::comm_cost_ms(const ProcessorConfig& config,
                                    const PartitionVector& partition) const {
  if (dominant_comm_ == nullptr) return 0.0;
  const int total_p = config_total(config);
  if (total_p <= 1) return 0.0;

  // Active clusters in placement order, with the max A_i of their ranks
  // (message sizes may depend on the assignment); the Eq. 1/2/5 math is
  // shared with the fast path via comm_cost_from_groups.
  std::vector<ClusterId> clusters;
  std::vector<int> sizes;
  std::vector<std::int64_t> max_a;
  {
    int rank = 0;
    for (ClusterId c : cluster_order_) {
      const int p = config[static_cast<std::size_t>(c)];
      if (p == 0) continue;
      std::int64_t cluster_max = 0;
      for (int i = 0; i < p; ++i, ++rank) {
        cluster_max = std::max(cluster_max, partition.at(rank));
      }
      clusters.push_back(c);
      sizes.push_back(p);
      max_a.push_back(cluster_max);
    }
  }
  NP_ASSERT(!clusters.empty());
  return comm_cost_from_groups(clusters.data(), sizes.data(), max_a.data(),
                               clusters.size(), total_p);
}

}  // namespace netpart
