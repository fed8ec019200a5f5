#include "apps/spmd.hpp"

#include <algorithm>
#include <span>
#include <utility>

#include "mmps/coercion.hpp"
#include "util/error.hpp"

namespace netpart::apps {

SpmdRuntime::SpmdRuntime(const Network& network, const Placement& placement,
                         const sim::NetSimParams& params, Rng rng,
                         const sim::FaultPlan* faults, SimTime fault_origin)
    : placement_(placement),
      net_(engine_, network, params, rng),
      mmps_(net_) {
  NP_REQUIRE(!placement.empty(), "placement must be non-empty");
  if (faults != nullptr && !faults->empty()) {
    injector_.emplace(net_, *faults, fault_origin);
  }
  flop_ms_.reserve(placement.size());
  for (const ProcessorRef& ref : placement) {
    flop_ms_.push_back(
        network.cluster(ref.cluster).type().flop_time.as_millis());
  }
}

void SpmdRuntime::send(int from, int to, std::int32_t tag,
                       std::vector<std::byte> payload) {
  mmps_.send(proc(from), proc(to), tag, std::move(payload));
}

void SpmdRuntime::recv(int at, int from, std::int32_t tag,
                       mmps::RecvHandler handler) {
  mmps_.recv(proc(at), proc(from), tag, std::move(handler));
}

void SpmdRuntime::compute(int rank, double ms, Step then) {
  const SimTime end =
      net_.host(proc(rank)).reserve(engine_.now(), SimTime::millis(ms));
  engine_.schedule_at(end, std::move(then));
}

void SpmdRuntime::after_sends(int rank, Step then) {
  const SimTime ready = net_.host(proc(rank)).busy_until();
  engine_.schedule_at(std::max(ready, engine_.now()), std::move(then));
}

void SpmdRuntime::finish() {
  ++finished_;
  finish_ = std::max(finish_, engine_.now());
}

SpmdRuntime::Outcome SpmdRuntime::run(
    const std::function<void(int rank)>& start) {
  if (injector_.has_value()) {
    injector_->arm();
  }
  for (int r = 0; r < ranks(); ++r) {
    engine_.schedule_at(SimTime::zero(), [&start, r] { start(r); });
  }
  engine_.run();
  NP_ASSERT(finished_ == ranks());
  NP_ASSERT(mmps_.unclaimed() == 0);
  return Outcome{finish_, net_.messages_delivered()};
}

void HaloExchange::exchange(int rank, std::int32_t tag,
                            const Boundary& boundary, const Ghost& ghost) {
  Rank& state = ranks_[static_cast<std::size_t>(rank)];
  NP_ASSERT(!state.waiting);
  state.arrived = 0;
  const int neighbours[] = {rank - 1, rank + 1};
  for (const int nb : neighbours) {
    if (nb < 0 || nb >= rt_.ranks()) continue;
    rt_.recv(rank, nb, tag, [this, rank, nb, ghost](mmps::Message msg) {
      ghost(nb, std::move(msg));
      Rank& st = ranks_[static_cast<std::size_t>(rank)];
      if (++st.arrived == expected(rank) && st.waiting) {
        SpmdRuntime::Step then = std::move(st.waiting);
        st.waiting = nullptr;
        then();
      }
    });
  }
  for (const int nb : neighbours) {
    if (nb < 0 || nb >= rt_.ranks()) continue;
    rt_.send(rank, nb, tag, boundary(nb));
  }
}

void HaloExchange::exchange_rows(int rank, std::int32_t tag,
                                 RowBlock& block) {
  exchange(
      rank, tag,
      [&block, rank](int neighbour) {
        const int local = neighbour < rank ? 1 : block.rows();
        return mmps::encode_array(
            std::span<const float>(block.row(block.cur, local), block.n));
      },
      [&block, rank](int neighbour, mmps::Message msg) {
        const std::vector<float> row = mmps::decode_array<float>(msg.payload);
        NP_ASSERT(static_cast<int>(row.size()) == block.n);
        const int local = neighbour < rank ? 0 : block.rows() + 1;
        std::copy(row.begin(), row.end(), block.row(block.cur, local));
      });
}

void HaloExchange::when_ghosts_in(int rank, SpmdRuntime::Step then) {
  Rank& state = ranks_[static_cast<std::size_t>(rank)];
  if (state.arrived == expected(rank)) {
    then();
    return;
  }
  state.waiting = std::move(then);
}

RowBlock::RowBlock(const std::vector<float>& grid, int cols, int first,
                   int last)
    : n(cols),
      lo(first),
      hi(last),
      cur(static_cast<std::size_t>(last - first + 2) * cols, 0.0f) {
  for (int g = lo; g < hi; ++g) {
    std::copy_n(grid.begin() + static_cast<std::ptrdiff_t>(g) * n, n,
                row(cur, g - lo + 1));
  }
  next = cur;
}

int RowBlock::relax(int first, int last) {
  first = std::max({first, lo, 1});
  last = std::min({last, hi, n - 1});
  for (int g = first; g < last; ++g) {
    const int lr = g - lo + 1;
    const float* above = row(cur, lr - 1);
    const float* here = row(cur, lr);
    const float* below = row(cur, lr + 1);
    float* out = row(next, lr);
    out[0] = here[0];
    out[n - 1] = here[n - 1];
    for (int j = 1; j < n - 1; ++j) {
      out[j] = 0.25f * (above[j] + below[j] + here[j - 1] + here[j + 1]);
    }
  }
  return std::max(0, last - first);
}

void RowBlock::advance() {
  if (lo == 0) {
    std::copy_n(row(cur, 1), n, row(next, 1));
  }
  if (hi == n) {
    std::copy_n(row(cur, rows()), n, row(next, rows()));
  }
  cur.swap(next);
}

void RowBlock::gather(std::vector<float>& grid) const {
  for (int g = lo; g < hi; ++g) {
    std::copy_n(row(cur, g - lo + 1), n,
                grid.begin() + static_cast<std::ptrdiff_t>(g) * n);
  }
}

}  // namespace netpart::apps
