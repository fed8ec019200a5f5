// The simulated SPMD runtime shared by the functional applications.
//
// Stencil, Gaussian elimination, particles, solver and reduce each run one
// rank per placed processor as an event-driven state machine that moves
// real data through MMPS on the simulated network.  SpmdRuntime owns what
// every such run needs: the engine, the network simulator (with an
// optional fault plan), the MMPS system, each rank's flop time, the two
// ways a rank yields (charge its host for computation; wait until its
// sends are initiated) and the run loop.  The apps keep only their data
// layout and protocol.
//
// Two protocol pieces that several apps share verbatim live here too: the
// 1-D ghost exchange (stencil, particles, solver) and the ghost-row block
// layout of a row-decomposed grid (stencil, solver).
//
// Determinism: ranks start at t=0 in rank order, every yield is an engine
// event at a Host::reserve/busy_until time, and the simulator seed is the
// caller's, so a run's elapsed time, message count and numerics are a pure
// function of its inputs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "mmps/system.hpp"
#include "net/network.hpp"
#include "sim/engine.hpp"
#include "sim/faults.hpp"
#include "sim/netsim.hpp"
#include "topo/placement.hpp"
#include "util/rng.hpp"

namespace netpart::apps {

class SpmdRuntime {
 public:
  using Step = std::function<void()>;

  /// `faults` (optional) is armed at the start of run(); its times are
  /// absolute pipeline times and `fault_origin` is where this run sits on
  /// that clock.  Plan and placement must outlive the runtime.
  SpmdRuntime(const Network& network, const Placement& placement,
              const sim::NetSimParams& params, Rng rng,
              const sim::FaultPlan* faults = nullptr,
              SimTime fault_origin = SimTime::zero());

  SpmdRuntime(const SpmdRuntime&) = delete;
  SpmdRuntime& operator=(const SpmdRuntime&) = delete;

  int ranks() const { return static_cast<int>(placement_.size()); }
  /// Milliseconds one flop takes on `rank`'s processor.
  double flop_ms(int rank) const {
    return flop_ms_[static_cast<std::size_t>(rank)];
  }

  /// MMPS between ranks (tags are the app's).
  void send(int from, int to, std::int32_t tag,
            std::vector<std::byte> payload);
  void recv(int at, int from, std::int32_t tag, mmps::RecvHandler handler);

  /// Charge `rank`'s host `ms` of computation from now (queued behind any
  /// work it already has), then run `then`.
  void compute(int rank, double ms, Step then);
  /// Run `then` once `rank`'s host has initiated the sends it issued.
  void after_sends(int rank, Step then);
  /// The calling rank finished its last iteration; elapsed is the latest
  /// such time.
  void finish();

  struct Outcome {
    SimTime elapsed;
    std::uint64_t messages = 0;
  };
  /// Arm the fault plan, start every rank at t=0 in rank order, drain the
  /// engine, and check that every rank finished and every message was
  /// claimed.
  Outcome run(const std::function<void(int rank)>& start);

 private:
  ProcessorRef proc(int rank) const {
    return placement_[static_cast<std::size_t>(rank)];
  }

  const Placement& placement_;
  sim::Engine engine_;
  sim::NetSim net_;
  mmps::System mmps_;
  std::optional<sim::FaultInjector> injector_;
  std::vector<double> flop_ms_;
  int finished_ = 0;
  SimTime finish_;
};

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
