#include "svc/service.hpp"

#include <chrono>
#include <exception>

#include "analysis/race/annotations.hpp"
#include "core/estimator.hpp"
#include "obs/span.hpp"
#include "svc/validate.hpp"
#include "util/error.hpp"

namespace netpart::svc {

namespace {

using Clock = std::chrono::steady_clock;

double us_since(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
      .count();
}

}  // namespace

PartitionService::PartitionService(const Network& net, const CostModelDb& db,
                                   AvailabilityFeed& feed,
                                   SpecResolver resolver,
                                   ServiceOptions options)
    : net_(net),
      db_(db),
      feed_(feed),
      resolver_(std::move(resolver)),
      options_(std::move(options)),
      signature_(network_signature(net)),
      cache_(options_.cache_capacity, options_.cache_shards),
      requests_(metrics_.counter("requests")),
      hits_(metrics_.counter("cache_hits")),
      coalesced_(metrics_.counter("coalesced")),
      shed_(metrics_.counter("shed_overload")),
      failed_(metrics_.counter("failed")),
      cold_computes_(metrics_.counter("cold_computes")),
      epoch_bumps_(metrics_.counter("epoch_bumps")),
      hit_latency_(metrics_.latency("hit")),
      cold_latency_(metrics_.latency("cold")) {
  NP_REQUIRE(options_.workers >= 1, "service needs at least one worker");
  NP_REQUIRE(options_.queue_capacity >= 1,
             "service queue capacity must be positive");
  // npracer contract: the admission state and inflight_ move only under
  // mutex_.
  NP_GUARDED_BY(&free_slots_, &mutex_, "svc.service.free_slots");
  NP_GUARDED_BY(&waiting_, &mutex_, "svc.service.waiting");
  NP_GUARDED_BY(&inflight_, &mutex_, "svc.service.inflight");
  NP_ATOMIC_RELEASE(&seen_epoch_, "svc.service.seen_epoch");
  seen_epoch_.store(feed_.epoch(), std::memory_order_release);
  free_slots_.reserve(static_cast<std::size_t>(options_.workers));
  for (int w = 0; w < options_.workers; ++w) {
    free_slots_.push_back(std::make_unique<EstimatorScratch>());
  }
}

PartitionService::~PartitionService() = default;

void PartitionService::observe_epoch(std::uint64_t epoch) {
  NP_ATOMIC_ACQUIRE(&seen_epoch_, "svc.service.seen_epoch");
  std::uint64_t seen = seen_epoch_.load(std::memory_order_acquire);
  while (epoch > seen) {
    NP_ATOMIC_RMW(&seen_epoch_, "svc.service.seen_epoch");
    if (seen_epoch_.compare_exchange_weak(seen, epoch,
                                          std::memory_order_acq_rel)) {
      cache_.invalidate_before(epoch);
      epoch_bumps_.add();
      break;
    }
  }
}

ServiceReply PartitionService::query(const PartitionRequest& request) {
  const auto t0 = Clock::now();
  obs::Span span(obs::TelemetryRegistry::global(), "svc.request", "svc");
  requests_.add();
  // Admission gate: a request that violates its own contract is rejected
  // here, before it can occupy a cache slot, coalesce other clients onto a
  // doomed key, or reach arithmetic in the cold path that assumes the
  // contract.  validate_request never allocates, so the cached hot path
  // stays allocation-free (the hot-path bench pins this).
  if (const char* violation = validate_request(request)) {
    failed_.add();
    span.attr("outcome", JsonValue("invalid"));
    return ServiceReply{ServiceStatus::Failed, nullptr, false, violation};
  }
  auto [snapshot, epoch] = feed_.read();
  observe_epoch(epoch);
  const std::uint64_t key = request_key(request, signature_, epoch);

  if (auto hit = cache_.lookup(key)) {
    hits_.add();
    hit_latency_.record(us_since(t0));
    span.attr("outcome", JsonValue("hit"));
    return ServiceReply{ServiceStatus::Ok, std::move(hit),
                        /*cache_hit=*/true, {}};
  }

  std::unique_lock lock(mutex_);
  // Explicit acquire/release (not NP_LOCK_SCOPE): this function unlocks
  // early on several paths and waits on slot_freed_, and the annotations
  // must mirror the real lock state or the detector would see critical
  // sections that never happened (and miss the happens-before edges each
  // re-acquisition creates).
  NP_LOCK_ACQUIRE(&mutex_, "svc.service.mutex");
  NP_READ(&inflight_, "svc.service.inflight");
  if (const auto it = inflight_.find(key); it != inflight_.end()) {
    const std::shared_future<ServiceReply> flight = it->second;
    NP_LOCK_RELEASE(&mutex_, "svc.service.mutex");
    lock.unlock();
    coalesced_.add();
    span.attr("outcome", JsonValue("coalesced"));
    return flight.get();
  }
  // Double-checked: another caller may have completed this key between the
  // lock-free miss above and acquiring the lock.
  if (auto hit = cache_.peek(key)) {
    NP_LOCK_RELEASE(&mutex_, "svc.service.mutex");
    lock.unlock();
    hits_.add();
    hit_latency_.record(us_since(t0));
    span.attr("outcome", JsonValue("hit"));
    return ServiceReply{ServiceStatus::Ok, std::move(hit),
                        /*cache_hit=*/true, {}};
  }
  NP_READ(&free_slots_, "svc.service.free_slots");
  NP_READ(&waiting_, "svc.service.waiting");
  if (free_slots_.empty() && waiting_ >= options_.queue_capacity) {
    NP_LOCK_RELEASE(&mutex_, "svc.service.mutex");
    lock.unlock();
    shed_.add();
    span.attr("outcome", JsonValue("shed"));
    return ServiceReply{ServiceStatus::Overloaded, nullptr, false,
                        "compute slots busy, wait queue full"};
  }
  // Admitted: from here on identical requests coalesce onto this one, also
  // while it still waits for a slot.
  std::promise<ServiceReply> promise;
  NP_WRITE(&inflight_, "svc.service.inflight");
  inflight_.emplace(key, promise.get_future().share());
  const auto admitted = Clock::now();
  if (free_slots_.empty()) {
    NP_WRITE(&waiting_, "svc.service.waiting");
    ++waiting_;
    do {
      NP_LOCK_RELEASE(&mutex_, "svc.service.mutex");
      slot_freed_.wait(lock);
      NP_LOCK_ACQUIRE(&mutex_, "svc.service.mutex");
      NP_READ(&free_slots_, "svc.service.free_slots");
    } while (free_slots_.empty());
    NP_WRITE(&waiting_, "svc.service.waiting");
    --waiting_;
  }
  NP_WRITE(&free_slots_, "svc.service.free_slots");
  std::unique_ptr<EstimatorScratch> scratch = std::move(free_slots_.back());
  free_slots_.pop_back();
  NP_LOCK_RELEASE(&mutex_, "svc.service.mutex");
  lock.unlock();
  span.attr("outcome", JsonValue("cold"));

  ServiceReply reply;
  {
    obs::Span execute(obs::TelemetryRegistry::global(), "svc.execute",
                      "svc");
    if (execute.active()) {
      execute.attr("queue_wait_us", JsonValue(us_since(admitted)));
    }
    try {
      PartitionDecision decision =
          options_.cold_override
              ? options_.cold_override(request, snapshot)
              : cold_compute(request, snapshot, *scratch);
      decision.key = key;
      decision.epoch = epoch;
      auto shared =
          std::make_shared<const PartitionDecision>(std::move(decision));
      cache_.insert(shared);
      cold_computes_.add();
      cold_latency_.record(us_since(t0));
      reply = ServiceReply{ServiceStatus::Ok, std::move(shared), false, {}};
      execute.attr("outcome", JsonValue("ok"));
    } catch (const std::exception& e) {
      failed_.add();
      execute.attr("outcome", JsonValue("failed"));
      reply = ServiceReply{ServiceStatus::Failed, nullptr, false, e.what()};
    }
  }
  {
    // After the cache insert above: there is no instant where the key is
    // in neither the cache nor inflight_.
    std::lock_guard relock(mutex_);
    NP_LOCK_SCOPE(&mutex_, "svc.service.mutex");
    NP_WRITE(&inflight_, "svc.service.inflight");
    inflight_.erase(key);
    NP_WRITE(&free_slots_, "svc.service.free_slots");
    free_slots_.push_back(std::move(scratch));  // within reserve()
  }
  slot_freed_.notify_one();
  promise.set_value(reply);
  return reply;
}

std::shared_future<ServiceReply> PartitionService::submit(
    const PartitionRequest& request) {
  std::promise<ServiceReply> promise;
  promise.set_value(query(request));
  return promise.get_future().share();
}

PartitionDecision PartitionService::cold_compute(
    const PartitionRequest& request, const AvailabilitySnapshot& snapshot,
    EstimatorScratch& scratch) const {
  PartitionDecision decision;
  if (request.kind == PartitionRequest::Kind::Repartition) {
    NP_REQUIRE(!request.rate_milli.empty(),
               "repartition request carries no rates");
    std::vector<double> rates;
    rates.reserve(request.rate_milli.size());
    for (std::int32_t r : request.rate_milli) {
      NP_REQUIRE(r >= 1, "quantised rates must be >= 1");
      rates.push_back(static_cast<double>(r));
    }
    decision.partition = proportional_partition(rates, request.n);
    return decision;
  }
  NP_REQUIRE(resolver_ != nullptr,
             "Partition-kind request but no spec resolver registered");
  const ComputationSpec spec = resolver_(request);
  CycleEstimator estimator(net_, db_, spec);
  PartitionResult result =
      partition(estimator, snapshot, request.options, &scratch);
  decision.partition = std::move(result.estimate.partition);
  decision.config = std::move(result.config);
  decision.placement = std::move(result.placement);
  decision.t_c_ms = result.estimate.t_c_ms;
  decision.evaluations = result.evaluations;
  return decision;
}

}  // namespace netpart::svc
