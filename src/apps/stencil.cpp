#include "apps/stencil.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <mutex>
#include <utility>

#include "apps/halo.hpp"
#include "exec/threaded.hpp"
#include "mmps/coercion.hpp"
#include "util/error.hpp"

namespace netpart::apps {

ComputationSpec make_stencil_spec(const StencilConfig& config) {
  NP_REQUIRE(config.n >= 3, "stencil needs at least a 3x3 grid");
  const int n = config.n;

  ComputationPhaseSpec grid;
  grid.name = "grid";
  grid.num_pdus = [n] { return static_cast<std::int64_t>(n); };
  grid.ops_per_pdu = [n] { return 5.0 * n; };
  grid.op_kind = OpKind::FloatingPoint;

  CommunicationPhaseSpec borders;
  borders.name = "borders";
  borders.topology = [] { return Topology::OneD; };
  borders.bytes_per_message = [n](std::int64_t) {
    return static_cast<std::int64_t>(4) * n;  // one row of 4-byte points
  };
  if (config.overlap) {
    borders.overlap_with = "grid";
  }

  return ComputationSpec(config.overlap ? "STEN-2" : "STEN-1", {grid},
                         {borders}, config.iterations);
}

ComputationSpec make_stencil2d_spec(const StencilConfig& config) {
  NP_REQUIRE(config.n >= 3, "stencil needs at least a 3x3 grid");
  const std::int64_t n = config.n;

  ComputationPhaseSpec grid;
  grid.name = "grid";
  grid.num_pdus = [n] { return n * n; };
  grid.ops_per_pdu = [] { return 9.0; };  // 9-point update per cell
  grid.op_kind = OpKind::FloatingPoint;

  CommunicationPhaseSpec borders;
  borders.name = "borders";
  borders.topology = [] { return Topology::TwoD; };
  borders.bytes_per_message = [](std::int64_t a_i) {
    // One side of an approximately square block of a_i cells, 4 bytes per
    // point.
    const auto side = static_cast<std::int64_t>(
        std::sqrt(static_cast<double>(a_i)) + 0.5);
    return 4 * std::max<std::int64_t>(side, 1);
  };
  if (config.overlap) {
    borders.overlap_with = "grid";
  }

  return ComputationSpec(config.overlap ? "STEN2D-2" : "STEN2D-1", {grid},
                         {borders}, config.iterations);
}

std::vector<float> make_initial_grid(int n) {
  NP_REQUIRE(n >= 3, "stencil needs at least a 3x3 grid");
  std::vector<float> grid(static_cast<std::size_t>(n) * n, 0.0f);
  for (int j = 0; j < n; ++j) {
    grid[static_cast<std::size_t>(j)] = 100.0f;  // top boundary row
  }
  return grid;
}

std::vector<float> run_sequential(const StencilConfig& config) {
  std::vector<float> grid = make_initial_grid(config.n);
  // The whole grid as one ghost-row block: the same row kernel as the
  // distributed paths (ghosts stay zero and are never read).
  RowBlock block(grid, config.n, 0, config.n);
  for (int it = 0; it < config.iterations; ++it) {
    block.relax(0, config.n);
    block.advance();
  }
  block.gather(grid);
  return grid;
}

namespace {

class StencilRunner {
 public:
  StencilRunner(const Network& network, const Placement& placement,
                const PartitionVector& partition,
                const StencilConfig& config,
                const sim::NetSimParams& sim_params,
                const sim::FaultPlan* faults, SimTime fault_origin)
      : n_(config.n),
        iterations_(config.iterations),
        overlap_(config.overlap),
        rt_(network, placement, sim_params, Rng(11), faults, fault_origin) {
    partition.validate(config.n);
    const std::vector<float> init = make_initial_grid(n_);
    for (const auto& [lo, hi] : partition.block_ranges()) {
      blocks_.emplace_back(init, n_, static_cast<int>(lo),
                           static_cast<int>(hi));
    }
    iter_.assign(blocks_.size(), 0);
  }

  DistributedStencilResult run() {
    DistributedStencilResult result;
    result.elapsed = rt_.run([this](int rank) { start_iteration(rank); },
                             SimTime::max());
    result.messages = rt_.messages_delivered();
    result.grid.assign(static_cast<std::size_t>(n_) * n_, 0.0f);
    for (const RowBlock& b : blocks_) {
      b.gather(result.grid);
    }
    return result;
  }

 private:
  RowBlock& block(int rank) {
    return blocks_[static_cast<std::size_t>(rank)];
  }

  void start_iteration(int rank) {
    const int iter = iter_[static_cast<std::size_t>(rank)];
    if (iter == iterations_) {
      rt_.finish();
      return;
    }
    RowBlock& b = block(rank);
    halo_.exchange_rows(rank, iter, b);
    const int lo = b.lo;
    const int hi = b.hi;
    rt_.after_sends(rank, [this, rank, lo, hi] {
      if (overlap_) {
        // STEN-2: relax the rows that need no ghosts while the borders
        // are in flight, then the first and last owned rows once the
        // ghosts arrive.
        compute_rows(rank, lo + 1, hi - 1, [this, rank, lo, hi] {
          halo_.when_ghosts_in(rank, [this, rank, lo, hi] {
            compute_border_rows(rank, lo, hi);
          });
        });
      } else {
        // STEN-1: block for the ghosts, then relax the whole block.
        halo_.when_ghosts_in(rank, [this, rank, lo, hi] {
          compute_rows(rank, lo, hi,
                       [this, rank] { finish_iteration(rank); });
        });
      }
    });
  }

  /// STEN-2, interior done and ghosts in: the first and last owned rows.
  void compute_border_rows(int rank, int lo, int hi) {
    compute_rows(rank, lo, std::min(lo + 1, hi), [this, rank, lo, hi] {
      compute_rows(rank, std::max(hi - 1, lo + 1), hi,
                   [this, rank] { finish_iteration(rank); });
    });
  }

  /// Relax owned global rows [glo, ghi) into `next`, charging host time at
  /// 5 flops per point, then invoke the continuation.
  void compute_rows(int rank, int glo, int ghi, SpmdRuntime::Step done) {
    const int updated = block(rank).relax(glo, ghi);
    rt_.compute(rank, rt_.flop_ms(rank) * 5.0 * n_ * updated,
                std::move(done));
  }

  void finish_iteration(int rank) {
    block(rank).advance();
    ++iter_[static_cast<std::size_t>(rank)];
    start_iteration(rank);
  }

  int n_;
  int iterations_;
  bool overlap_;
  SpmdRuntime rt_;
  HaloExchange halo_{rt_};
  std::vector<RowBlock> blocks_;
  std::vector<int> iter_;
};

}  // namespace

DistributedStencilResult run_distributed_stencil(
    const Network& network, const Placement& placement,
    const PartitionVector& partition, const StencilConfig& config,
    const sim::NetSimParams& sim_params, const sim::FaultPlan* faults,
    SimTime fault_origin) {
  StencilRunner runner(network, placement, partition, config, sim_params,
                       faults, fault_origin);
  return runner.run();
}

ThreadedStencilResult run_threaded_stencil(const Network& network,
                                           const Placement& placement,
                                           const PartitionVector& partition,
                                           const StencilConfig& config) {
  NP_REQUIRE(!placement.empty(), "placement must be non-empty");
  partition.validate(config.n);
  const int n = config.n;
  const int p = static_cast<int>(placement.size());
  const auto ranges = partition.block_ranges();

  // Emulated slowdown per rank: extra spin work relative to the fastest
  // machine model in the placement.
  SimTime fastest = SimTime::max();
  for (const ProcessorRef& ref : placement) {
    fastest = std::min(fastest,
                       network.cluster(ref.cluster).type().flop_time);
  }
  std::vector<double> extra_factor;
  for (const ProcessorRef& ref : placement) {
    const double ratio =
        network.cluster(ref.cluster).type().flop_time.as_seconds() /
        fastest.as_seconds();
    extra_factor.push_back(ratio - 1.0);
  }

  const std::vector<float> init = make_initial_grid(n);
  ThreadedStencilResult result;
  result.grid.assign(static_cast<std::size_t>(n) * n, 0.0f);
  std::mutex grid_mutex;

  const auto t0 = std::chrono::steady_clock::now();
  threaded::run_spmd(p, [&](GlobalRank rank, threaded::Comm& comm) {
    const auto [lo, hi] = ranges[static_cast<std::size_t>(rank)];
    RowBlock b(init, n, static_cast<int>(lo), static_cast<int>(hi));

    for (int iter = 0; iter < config.iterations; ++iter) {
      // Exchange borders (STEN-1 structure).
      if (rank > 0) {
        comm.send(rank, rank - 1, iter,
                  mmps::encode_array(
                      std::span<const float>(b.row(b.cur, 1), n)));
      }
      if (rank + 1 < p) {
        comm.send(rank, rank + 1, iter,
                  mmps::encode_array(
                      std::span<const float>(b.row(b.cur, b.rows()), n)));
      }
      if (rank > 0) {
        const auto ghost = mmps::decode_array<float>(
            comm.recv(rank, rank - 1, iter).payload);
        std::copy(ghost.begin(), ghost.end(), b.row(b.cur, 0));
      }
      if (rank + 1 < p) {
        const auto ghost = mmps::decode_array<float>(
            comm.recv(rank, rank + 1, iter).payload);
        std::copy(ghost.begin(), ghost.end(), b.row(b.cur, b.rows() + 1));
      }

      // Compute (the same row kernel as the simulator path).
      const int updated = b.relax(b.lo, b.hi);
      b.advance();

      // Emulate the slower machine models with extra spin work.
      const double extra =
          extra_factor[static_cast<std::size_t>(rank)];
      if (extra > 0.0) {
        threaded::emulate_compute(5.0 * n * updated, extra);
      }
    }

    const std::lock_guard<std::mutex> lock(grid_mutex);
    b.gather(result.grid);
  });
  result.wall_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - t0)
                       .count();
  return result;
}

}  // namespace netpart::apps
