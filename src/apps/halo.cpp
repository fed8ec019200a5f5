#include "apps/halo.hpp"

#include <algorithm>
#include <span>
#include <utility>

#include "mmps/coercion.hpp"
#include "util/error.hpp"

namespace netpart::apps {

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
