// The concurrent partition service.
//
// The paper invokes the partitioner once per program start; the production
// shape is a long-lived service answering partition queries under traffic.
// This class puts the `O(K log2 P)` search plus cost-model evaluation
// behind:
//
//   * a sharded LRU decision cache keyed by (network signature,
//     availability epoch, canonical request) -- repeated queries are
//     lookups, and an availability change invalidates by construction;
//   * bounded admission -- a cold computation runs on the thread that
//     queried, at most `workers` of them at once; a caller that finds every
//     compute slot busy waits for one, and when `queue_capacity` callers
//     already wait, admission control *sheds* the request with an explicit
//     Overloaded reply instead of letting the backlog grow without bound;
//   * request coalescing -- concurrent identical requests attach to the
//     one in-flight computation (a shared-future per cache key), so a
//     thundering herd on a cold key costs one compute;
//   * a metrics registry -- counters plus hit/cold latency histograms,
//     exportable as JSON.
//
// The service owns no threads.  Threading contract: the Network and
// CostModelDb are read concurrently by the querying threads and must not
// be mutated while the service is alive (drive availability changes
// through the AvailabilityFeed, not by editing the Network).  All public
// methods are thread-safe; the service must outlive every call into it.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "calib/cost_model.hpp"
#include "dp/phases.hpp"
#include "net/availability.hpp"
#include "net/network.hpp"
#include "obs/telemetry.hpp"
#include "svc/cache.hpp"
#include "svc/request.hpp"

namespace netpart {
struct EstimatorScratch;  // core/estimator.hpp
}

namespace netpart::svc {

enum class ServiceStatus {
  Ok,
  /// Shed at admission: every compute slot was busy and `queue_capacity`
  /// callers already waited for one.  The client retries (with backoff) or
  /// falls back to a local decision.
  Overloaded,
  /// The cold path threw; `error` carries the message.  Failures are not
  /// cached -- a retry recomputes.
  Failed,
};

struct ServiceReply {
  ServiceStatus status = ServiceStatus::Failed;
  std::shared_ptr<const PartitionDecision> decision;  ///< set iff Ok
  bool cache_hit = false;
  std::string error;
};

/// Materialises the ComputationSpec a Partition-kind request names.
/// Must be thread-safe (called concurrently from querying threads).
using SpecResolver = std::function<ComputationSpec(const PartitionRequest&)>;

/// Test/chaos hook: replaces the real cold path (resolver + estimator +
/// heuristic).  Exceptions it throws surface as Failed replies to every
/// coalesced waiter -- the fault-injection stress tier drives this.
using ColdPathOverride = std::function<PartitionDecision(
    const PartitionRequest&, const AvailabilitySnapshot&)>;

struct ServiceOptions {
  /// At most this many cold computes run at once (each on the thread that
  /// queried); each compute slot keeps one EstimatorScratch.
  int workers = 4;
  /// At most this many callers wait for a compute slot; beyond this, shed.
  std::size_t queue_capacity = 64;
  std::size_t cache_capacity = 1024;
  int cache_shards = 8;
  ColdPathOverride cold_override;
};

class PartitionService {
 public:
  PartitionService(const Network& net, const CostModelDb& db,
                   AvailabilityFeed& feed, SpecResolver resolver,
                   ServiceOptions options = {});

  ~PartitionService();

  PartitionService(const PartitionService&) = delete;
  PartitionService& operator=(const PartitionService&) = delete;

  /// Answers on the calling thread.  A cache hit, a rejected request and a
  /// shed request return at once; a cold miss waits for a compute slot (if
  /// all `workers` are busy) and then computes here; an identical request
  /// already in flight is waited for instead of recomputed.
  ServiceReply query(const PartitionRequest& request);

  /// query() wrapped in a ready future: the reply is complete before this
  /// returns.
  std::shared_future<ServiceReply> submit(const PartitionRequest& request);

  const Network& network() const { return net_; }
  std::uint64_t signature() const { return signature_; }
  const AvailabilityFeed& feed() const { return feed_; }
  DecisionCache& cache() { return cache_; }
  obs::TelemetryRegistry& metrics() { return metrics_; }

 private:
  PartitionDecision cold_compute(const PartitionRequest& request,
                                 const AvailabilitySnapshot& snapshot,
                                 EstimatorScratch& scratch) const;
  /// Purge stale cache entries the first time a new epoch is observed.
  void observe_epoch(std::uint64_t epoch);

  const Network& net_;
  const CostModelDb& db_;
  AvailabilityFeed& feed_;
  SpecResolver resolver_;
  ServiceOptions options_;
  std::uint64_t signature_;

  DecisionCache cache_;
  /// Private: its counters are per-service state.  Spans still go to
  /// obs::TelemetryRegistry::global().
  obs::TelemetryRegistry metrics_;
  obs::Counter& requests_;
  obs::Counter& hits_;
  obs::Counter& coalesced_;
  obs::Counter& shed_;
  obs::Counter& failed_;
  obs::Counter& cold_computes_;
  obs::Counter& epoch_bumps_;
  obs::LatencyHistogram& hit_latency_;
  obs::LatencyHistogram& cold_latency_;

  std::atomic<std::uint64_t> seen_epoch_{0};

  std::mutex mutex_;
  std::condition_variable slot_freed_;
  /// The idle compute slots.  A slot is its EstimatorScratch, reused across
  /// every cold compute the slot runs, so after warm-up a cold compute
  /// allocates nothing in the estimator.  A caller pops a slot to compute
  /// and pushes it back after: `workers - free_slots_.size()` computes run.
  std::vector<std::unique_ptr<EstimatorScratch>> free_slots_;
  std::size_t waiting_ = 0;  ///< callers blocked on slot_freed_
  std::unordered_map<std::uint64_t, std::shared_future<ServiceReply>>
      inflight_;
};

}  // namespace netpart::svc
