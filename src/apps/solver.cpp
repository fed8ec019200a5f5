#include "apps/solver.hpp"

#include <algorithm>
#include <cmath>

#include "apps/halo.hpp"
#include "apps/stencil.hpp"
#include "mmps/coercion.hpp"
#include "util/error.hpp"

namespace netpart::apps {

ComputationSpec make_solver_spec(const SolverConfig& config) {
  NP_REQUIRE(config.n >= 3, "solver needs at least a 3x3 grid");
  const int n = config.n;

  ComputationPhaseSpec sweep;
  sweep.name = "sweep";
  sweep.num_pdus = [n] { return static_cast<std::int64_t>(n); };
  // 5 flops per point for the stencil + 1 for the residual accumulation.
  sweep.ops_per_pdu = [n] { return 6.0 * n; };
  sweep.op_kind = OpKind::FloatingPoint;

  CommunicationPhaseSpec borders;
  borders.name = "borders";
  borders.topology = [] { return Topology::OneD; };
  borders.bytes_per_message = [n](std::int64_t) {
    return static_cast<std::int64_t>(4) * n;
  };

  CommunicationPhaseSpec norm;
  norm.name = "norm";
  norm.topology = [] { return Topology::Tree; };
  norm.bytes_per_message = [](std::int64_t) { return std::int64_t{8}; };

  return ComputationSpec("jacobi-solver", {sweep}, {borders, norm},
                         config.iterations);
}

namespace {

/// One Jacobi sweep of `block` (the shared row kernel); returns the
/// residual contribution, the summed change of every inner point.
double sweep_rows(RowBlock& block) {
  block.relax(block.lo, block.hi);
  const int n = block.n;
  double residual = 0.0;
  for (int row = std::max(block.lo, 1); row < std::min(block.hi, n - 1);
       ++row) {
    const int lr = row - block.lo + 1;
    const float* before = block.row(block.cur, lr);
    const float* after = block.row(block.next, lr);
    for (int j = 1; j < n - 1; ++j) {
      residual += std::abs(static_cast<double>(after[j]) -
                           static_cast<double>(before[j]));
    }
  }
  return residual;
}

}  // namespace

std::vector<double> run_sequential_solver(const SolverConfig& config,
                                          std::vector<float>& grid) {
  const int n = config.n;
  grid = make_initial_grid(n);
  // The whole grid as one ghost-row block, so sweep_rows is shared with the
  // distributed path (ghosts stay zero and are never read: rows 0 and n-1
  // are fixed boundary).
  RowBlock block(grid, n, 0, n);
  std::vector<double> residuals;
  for (int it = 0; it < config.iterations; ++it) {
    residuals.push_back(sweep_rows(block));
    block.advance();
  }
  block.gather(grid);
  return residuals;
}

namespace {

/// Per-rank norm-reduction state (the grid lives in the rank's RowBlock).
struct SolverRank {
  int iter = 0;
  double own_residual = 0.0;
  double child_partial[2] = {0.0, 0.0};
  bool child_seen[2] = {false, false};
  int children_expected = 0;
  int children_arrived = 0;
  bool sweep_done = false;
};

class SolverRunner {
 public:
  SolverRunner(const Network& network, const Placement& placement,
               const PartitionVector& partition, const SolverConfig& config,
               const sim::NetSimParams& sim_params)
      : n_(config.n),
        iterations_(config.iterations),
        rt_(network, placement, sim_params, Rng(23)) {
    partition.validate(config.n);
    const std::vector<float> init = make_initial_grid(n_);
    const int p = rt_.ranks();
    for (const auto& [lo, hi] : partition.block_ranges()) {
      blocks_.emplace_back(init, n_, static_cast<int>(lo),
                           static_cast<int>(hi));
    }
    ranks_.resize(placement.size());
    for (int r = 0; r < p; ++r) {
      ranks_[static_cast<std::size_t>(r)].children_expected =
          (2 * r + 1 < p ? 1 : 0) + (2 * r + 2 < p ? 1 : 0);
    }
    residuals_.reserve(static_cast<std::size_t>(iterations_));
  }

  DistributedSolverResult run() {
    DistributedSolverResult result;
    result.elapsed = rt_.run([this](int rank) { start_iteration(rank); },
                             SimTime::max());
    result.messages = rt_.messages_delivered();
    result.residuals = residuals_;
    result.grid.assign(static_cast<std::size_t>(n_) * n_, 0.0f);
    for (const RowBlock& block : blocks_) {
      block.gather(result.grid);
    }
    return result;
  }

 private:
  void start_iteration(int rank) {
    SolverRank& sr = ranks_[static_cast<std::size_t>(rank)];
    if (sr.iter == iterations_) {
      rt_.finish();
      return;
    }
    sr.children_arrived = 0;
    sr.child_seen[0] = sr.child_seen[1] = false;
    sr.sweep_done = false;

    // Norm-phase receives from tree children can arrive any time after
    // the children finish their sweeps; install handlers up front.
    for (int side = 0; side < 2; ++side) {
      const int child = 2 * rank + 1 + side;
      if (child >= rt_.ranks()) continue;
      rt_.recv(rank, child, norm_tag(sr.iter),
               [this, &sr, rank, side](mmps::Message msg) {
                 const auto v = mmps::decode_array<double>(msg.payload);
                 NP_ASSERT(v.size() == 1);
                 sr.child_partial[side] = v[0];
                 sr.child_seen[side] = true;
                 ++sr.children_arrived;
                 maybe_reduce(rank);
               });
    }

    // Halo exchange (tag parity distinguishes the phases).
    halo_.exchange_rows(rank, border_tag(sr.iter),
                        blocks_[static_cast<std::size_t>(rank)]);
    rt_.after_sends(rank, [this, rank] {
      halo_.when_ghosts_in(rank, [this, rank] { do_sweep(rank); });
    });
  }

  void do_sweep(int rank) {
    SolverRank& sr = ranks_[static_cast<std::size_t>(rank)];
    RowBlock& b = blocks_[static_cast<std::size_t>(rank)];
    sr.own_residual = sweep_rows(b);
    b.advance();
    rt_.compute(rank, rt_.flop_ms(rank) * 6.0 * n_ * b.rows(),
                [this, &sr, rank] {
                  sr.sweep_done = true;
                  maybe_reduce(rank);
                });
  }

  /// Combine own residual with children partials (fixed left-then-right
  /// order for determinism) and forward up the tree.
  void maybe_reduce(int rank) {
    SolverRank& sr = ranks_[static_cast<std::size_t>(rank)];
    if (!sr.sweep_done || sr.children_arrived != sr.children_expected) {
      return;
    }
    double combined = sr.own_residual;
    if (sr.child_seen[0]) combined += sr.child_partial[0];
    if (sr.child_seen[1]) combined += sr.child_partial[1];

    if (rank == 0) {
      residuals_.push_back(combined);
    } else {
      const double payload[] = {combined};
      rt_.send(rank, (rank - 1) / 2, norm_tag(sr.iter),
               mmps::encode_array(std::span<const double>(payload)));
    }
    ++sr.iter;
    rt_.after_sends(rank, [this, rank] { start_iteration(rank); });
  }

  static std::int32_t border_tag(int iter) { return 2 * iter; }
  static std::int32_t norm_tag(int iter) { return 2 * iter + 1; }

  int n_;
  int iterations_;
  SpmdRuntime rt_;
  HaloExchange halo_{rt_};
  std::vector<RowBlock> blocks_;
  std::vector<SolverRank> ranks_;
  std::vector<double> residuals_;
};

}  // namespace

DistributedSolverResult run_distributed_solver(
    const Network& network, const Placement& placement,
    const PartitionVector& partition, const SolverConfig& config,
    const sim::NetSimParams& sim_params) {
  SolverRunner runner(network, placement, partition, config, sim_params);
  return runner.run();
}

}  // namespace netpart::apps
