#include "apps/reduce.hpp"

#include "exec/spmd.hpp"
#include "mmps/coercion.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace netpart::apps {

ComputationSpec make_reduce_spec(const ReduceConfig& config) {
  NP_REQUIRE(config.count >= 2, "need at least two values");
  const std::int64_t count = config.count;

  ComputationPhaseSpec local;
  local.name = "local-sum";
  local.num_pdus = [count] { return count; };
  local.ops_per_pdu = [] { return 1.0; };  // one add per value
  local.op_kind = OpKind::FloatingPoint;

  CommunicationPhaseSpec combine;
  combine.name = "combine";
  combine.topology = [] { return Topology::Tree; };
  combine.bytes_per_message = [](std::int64_t) {
    return std::int64_t{8};  // one double partial
  };

  return ComputationSpec("reduce", {local}, {combine}, config.iterations);
}

std::vector<double> make_reduce_input(std::int64_t count,
                                      std::uint64_t seed) {
  std::vector<double> values(static_cast<std::size_t>(count));
  Rng rng(seed);
  for (double& v : values) {
    v = 2.0 * rng.next_double() - 1.0;
  }
  return values;
}

double sequential_sum(const std::vector<double>& values) {
  double acc = 0.0;
  for (double v : values) acc += v;
  return acc;
}

namespace {

struct ReduceRank {
  std::int64_t count = 0;  ///< owned values
  double local = 0.0;      ///< local block sum (computed once per iteration)
  double combined = 0.0;   ///< local + children partials
  int children_expected = 0;
  int children_arrived = 0;
  int iter = 0;
  bool local_done = false;
};

class ReduceRunner {
 public:
  ReduceRunner(const Network& network, const Placement& placement,
               const PartitionVector& partition, const ReduceConfig& config,
               std::uint64_t seed, const sim::NetSimParams& sim_params)
      : iterations_(config.iterations),
        rt_(network, placement, sim_params, Rng(seed ^ 0x7EE5)) {
    partition.validate(config.count);
    const std::vector<double> input =
        make_reduce_input(config.count, seed);
    const auto ranges = partition.block_ranges();
    const int p = rt_.ranks();
    ranks_.resize(placement.size());
    for (int r = 0; r < p; ++r) {
      ReduceRank& rr = ranks_[static_cast<std::size_t>(r)];
      const auto [lo, hi] = ranges[static_cast<std::size_t>(r)];
      double sum = 0.0;
      for (std::int64_t i = lo; i < hi; ++i) {
        sum += input[static_cast<std::size_t>(i)];
      }
      rr.count = hi - lo;
      rr.local = sum;
      rr.children_expected =
          (2 * r + 1 < p ? 1 : 0) + (2 * r + 2 < p ? 1 : 0);
    }
  }

  DistributedReduceResult run() {
    DistributedReduceResult result;
    result.elapsed = rt_.run([this](int rank) { start_iteration(rank); },
                             SimTime::max());
    result.value = root_value_;
    result.messages = rt_.messages_delivered();
    return result;
  }

 private:
  void start_iteration(int rank) {
    ReduceRank& rr = ranks_[static_cast<std::size_t>(rank)];
    if (rr.iter == iterations_) {
      rt_.finish();
      return;
    }
    rr.combined = rr.local;
    rr.children_arrived = 0;
    rr.local_done = false;

    // Children partials may arrive at any time (they are summed in arrival
    // order); post the receives now.
    for (const int child : {2 * rank + 1, 2 * rank + 2}) {
      if (child >= rt_.ranks()) continue;
      rt_.recv(rank, child, rr.iter, [this, &rr, rank](mmps::Message msg) {
        const auto v = mmps::decode_array<double>(msg.payload);
        NP_ASSERT(v.size() == 1);
        rr.combined += v[0];
        ++rr.children_arrived;
        maybe_forward(rank);
      });
    }
    // Local block sum: one add per owned value.
    rt_.compute(rank, rt_.flop_ms(rank) * static_cast<double>(rr.count),
                [this, &rr, rank] {
                  rr.local_done = true;
                  maybe_forward(rank);
                });
  }

  /// Once the local sum and all children partials are in, forward up the
  /// tree (or record the result at the root) and begin the next iteration.
  void maybe_forward(int rank) {
    ReduceRank& rr = ranks_[static_cast<std::size_t>(rank)];
    if (!rr.local_done || rr.children_arrived != rr.children_expected) {
      return;
    }
    if (rank == 0) {
      root_value_ = rr.combined;
    } else {
      const double payload[] = {rr.combined};
      rt_.send(rank, (rank - 1) / 2, rr.iter,
               mmps::encode_array(std::span<const double>(payload)));
    }
    ++rr.iter;
    rt_.after_sends(rank, [this, rank] { start_iteration(rank); });
  }

  int iterations_;
  SpmdRuntime rt_;
  std::vector<ReduceRank> ranks_;
  double root_value_ = 0.0;
};

}  // namespace

DistributedReduceResult run_distributed_reduce(
    const Network& network, const Placement& placement,
    const PartitionVector& partition, const ReduceConfig& config,
    std::uint64_t seed, const sim::NetSimParams& sim_params) {
  ReduceRunner runner(network, placement, partition, config, seed,
                      sim_params);
  return runner.run();
}

}  // namespace netpart::apps
