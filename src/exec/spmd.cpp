#include "exec/spmd.hpp"

#include <algorithm>
#include <utility>

namespace netpart {

SpmdRuntime::SpmdRuntime(const Network& network, const Placement& placement,
                         const sim::NetSimParams& params, Rng rng,
                         const sim::FaultPlan* faults, SimTime origin,
                         obs::TelemetryRegistry* telemetry)
    : placement_(placement),
      net_(engine_, network, params, rng),
      mmps_(net_) {
  NP_REQUIRE(!placement.empty(), "placement must be non-empty");
  net_.set_telemetry(telemetry, origin);
  if (faults != nullptr && !faults->empty()) {
    injector_.emplace(net_, *faults, origin);
    injector_->arm();
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

void SpmdRuntime::transfer(int from, int to, std::int64_t bytes,
                           sim::DeliveryCallback on_delivered) {
  ++in_flight_;
  net_.send(proc(from), proc(to), bytes,
            [this, then = std::move(on_delivered)] {
              --in_flight_;
              if (then) then();
            });
}

SimTime SpmdRuntime::drain_transfers(SimTime budget,
                                     const std::string& what) {
  // One event at a time: run() would also execute fault events scheduled
  // past the last delivery.
  while (in_flight_ > 0 && !engine_.idle() && engine_.now() < budget) {
    engine_.step();
  }
  if (in_flight_ != 0) {
    throw ExecutionStalled(what + " could not complete (" +
                           std::to_string(in_flight_) +
                           " transfers undelivered)");
  }
  return engine_.now();
}

void SpmdRuntime::compute(int rank, double ms, Step then) {
  const SimTime end =
      net_.host(proc(rank)).reserve(engine_.now(), SimTime::millis(ms));
  engine_.schedule_at(end, std::move(then));
}

void SpmdRuntime::after_sends(int rank, Step then) {
  engine_.schedule_at(std::max(busy_until(rank), engine_.now()),
                      std::move(then));
}

SimTime SpmdRuntime::busy_until(int rank) const {
  return net_.host(proc(rank)).busy_until();
}

void SpmdRuntime::finish() {
  ++finished_;
  finish_ = std::max(finish_, engine_.now());
}

SimTime SpmdRuntime::run(const std::function<void(int rank)>& start,
                         SimTime budget) {
  const SimTime at = engine_.now();
  for (int r = 0; r < ranks(); ++r) {
    engine_.schedule_at(at, [&start, r] { start(r); });
  }
  engine_.run_until(budget);
  if (finished_ < ranks()) {
    throw ExecutionStalled(std::to_string(ranks() - finished_) +
                           " rank(s) did not finish within the execution "
                           "budget");
  }
  NP_ASSERT(mmps_.unclaimed() == 0);
  return finish_;
}

SimTime SpmdRuntime::host_busy(int rank) const {
  return net_.host(proc(rank)).total_busy();
}

SimTime SpmdRuntime::channel_busy(SegmentId segment) {
  return net_.channel(segment).total_busy();
}

}  // namespace netpart
