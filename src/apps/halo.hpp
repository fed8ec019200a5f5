// Protocol pieces several functional applications share verbatim, built
// on the simulated SPMD runtime (exec/spmd.hpp): the 1-D ghost exchange
// (stencil, particles, solver) and the ghost-row block layout of a
// row-decomposed grid (stencil, solver).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "exec/spmd.hpp"

namespace netpart::apps {

/// A rank's block of global rows [lo, hi) of an n-column grid, stored with
/// a ghost row above and below: local row r holds global row lo + r - 1.
struct RowBlock {
  /// Own global rows [first, last) of the `cols` x `cols` `grid` (copied
  /// in); ghosts start at zero.
  RowBlock(const std::vector<float>& grid, int cols, int first, int last);

  int rows() const { return hi - lo; }
  float* row(std::vector<float>& buf, int local_row) const {
    return buf.data() + static_cast<std::ptrdiff_t>(local_row) * n;
  }
  const float* row(const std::vector<float>& buf, int local_row) const {
    return buf.data() + static_cast<std::ptrdiff_t>(local_row) * n;
  }
  /// The 5-point update of the owned global rows in [first, last): each
  /// inner point of `next` becomes the mean of its four neighbours in
  /// `cur`, and the two boundary columns carry over.  The fixed global
  /// boundary rows are skipped.  Returns the number of rows updated.
  int relax(int first, int last);
  /// End a sweep: the fixed global boundary rows this block owns carry
  /// over unchanged into `next`, which becomes current.
  void advance();
  /// Copy the owned rows into the n x n `grid`.
  void gather(std::vector<float>& grid) const;

  int n = 0;
  int lo = 0;
  int hi = 0;
  std::vector<float> cur;  ///< (rows + 2) x n
  std::vector<float> next;
};

/// The 1-D neighbour exchange: each iteration rank r sends one boundary
/// message to r-1 and to r+1 (where they exist), receives one ghost from
/// each, and continues once both are in.
class HaloExchange {
 public:
  /// Payload `rank` sends to `neighbour` (rank - 1 or rank + 1).
  using Boundary = std::function<std::vector<std::byte>(int neighbour)>;
  /// Store the ghost that arrived from `neighbour`.
  using Ghost = std::function<void(int neighbour, mmps::Message)>;

  explicit HaloExchange(SpmdRuntime& rt)
      : rt_(rt), ranks_(static_cast<std::size_t>(rt.ranks())) {}

  /// Post `rank`'s ghost receives, then send its boundaries (lower
  /// neighbour first), all on `tag`.
  void exchange(int rank, std::int32_t tag, const Boundary& boundary,
                const Ghost& ghost);
  /// The row-decomposed grid's exchange: send the first owned row of
  /// `block` up and the last one down, receive into its ghost rows.
  void exchange_rows(int rank, std::int32_t tag, RowBlock& block);
  /// Run `then` once every ghost of `rank`'s current exchange is in:
  /// now if they already are, else on the last arrival.
  void when_ghosts_in(int rank, SpmdRuntime::Step then);

 private:
  struct Rank {
    int arrived = 0;
    SpmdRuntime::Step waiting;  ///< continuation parked on missing ghosts
  };
  int expected(int rank) const {
    return (rank > 0 ? 1 : 0) + (rank + 1 < rt_.ranks() ? 1 : 0);
  }

  SpmdRuntime& rt_;
  std::vector<Rank> ranks_;
};

}  // namespace netpart::apps
