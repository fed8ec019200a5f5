// Partition-service concurrency tests (DESIGN.md §8).
//
// The service's promises are concurrency promises, so the tests are
// thread-shaped: N clients hammer mixed hot/cold request streams and the
// assertions are about what must NOT multiply (cold computes per unique
// key), what must NOT survive (decisions across an epoch bump), and what
// must NOT block (a caller that finds admission full), and where each cold
// compute runs (on the querying thread, at most `workers` at once).  The
// chaos-seeded cases reuse the deterministic fault machinery from
// sim/faults.hpp: each seed yields one reproducible schedule of cold-path
// faults and availability churn.
//
// This file is part of the TSan tier (scripts/tier1.sh --tsan): every test
// here must stay free of reported races.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "apps/stencil.hpp"
#include "calib/calibrate.hpp"
#include "core/decompose.hpp"
#include "exec/adaptive.hpp"
#include "exec/executor.hpp"
#include "exec/load.hpp"
#include "net/presets.hpp"
#include "sim/faults.hpp"
#include "svc/client.hpp"
#include "svc/service.hpp"

namespace netpart {
namespace {

ComputationSpec resolve_stencil(const svc::PartitionRequest& request) {
  return apps::make_stencil_spec(apps::StencilConfig{
      .n = static_cast<int>(request.n), .iterations = request.iterations});
}

svc::PartitionRequest stencil_request(std::int64_t n) {
  svc::PartitionRequest request;
  request.spec = "stencil";
  request.n = n;
  request.iterations = 10;
  return request;
}

/// Calibrated paper testbed shared by every test (calibration is the slow
/// part; the tests only need *a* valid cost model).
struct Testbed {
  Network net = presets::paper_testbed();
  CostModelDb db;
  Testbed() : db(net.num_clusters()) {
    CalibrationParams params;
    params.topologies = {Topology::OneD};
    db = calibrate(net, params).db;
  }
};

const Testbed& testbed() {
  static const Testbed kBed;
  return kBed;
}

AvailabilityFeed make_feed(const Network& net) {
  return AvailabilityFeed(net,
                          make_managers(net, AvailabilityPolicy{}));
}

/// Thread-safe per-key invocation counter for cold_override hooks.
class ColdCounter {
 public:
  void bump(std::int64_t n) {
    std::lock_guard lock(mutex_);
    ++counts_[n];
  }
  std::map<std::int64_t, int> snapshot() const {
    std::lock_guard lock(mutex_);
    return counts_;
  }
  int total() const {
    std::lock_guard lock(mutex_);
    int sum = 0;
    for (const auto& [n, c] : counts_) sum += c;
    return sum;
  }

 private:
  mutable std::mutex mutex_;
  std::map<std::int64_t, int> counts_;
};

TEST(ServiceTest, ColdThenHitReturnsSameDecision) {
  const Testbed& bed = testbed();
  AvailabilityFeed feed = make_feed(bed.net);
  svc::PartitionService service(bed.net, bed.db, feed, resolve_stencil);

  const svc::ServiceReply cold = service.query(stencil_request(600));
  ASSERT_EQ(cold.status, svc::ServiceStatus::Ok) << cold.error;
  EXPECT_FALSE(cold.cache_hit);
  ASSERT_NE(cold.decision, nullptr);
  EXPECT_EQ(cold.decision->partition.total(), 600);
  EXPECT_EQ(cold.decision->epoch, feed.epoch());

  const svc::ServiceReply hit = service.query(stencil_request(600));
  ASSERT_EQ(hit.status, svc::ServiceStatus::Ok);
  EXPECT_TRUE(hit.cache_hit);
  // Literally the same decision object, not a recomputation.
  EXPECT_EQ(hit.decision.get(), cold.decision.get());
  EXPECT_EQ(service.cache().stats().hits, 1u);
}

// (1) Coalescing: clients * rounds requests over a tiny key universe, with
// a deliberately slow cold path to widen the in-flight window.  Every
// request must succeed and each unique key must be computed exactly once.
TEST(ServiceTest, StressColdComputedOncePerKey) {
  const Testbed& bed = testbed();
  AvailabilityFeed feed = make_feed(bed.net);

  ColdCounter colds;
  svc::ServiceOptions options;
  options.workers = 4;
  options.queue_capacity = 1024;
  options.cold_override = [&colds](const svc::PartitionRequest& request,
                                   const AvailabilitySnapshot&) {
    colds.bump(request.n);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    svc::PartitionDecision decision;
    decision.partition = PartitionVector({request.n});
    return decision;
  };
  svc::PartitionService service(bed.net, bed.db, feed, resolve_stencil,
                                options);

  constexpr int kClients = 8;
  constexpr int kRounds = 40;
  constexpr int kUniverse = 5;
  std::atomic<int> ok{0}, other{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int r = 0; r < kRounds; ++r) {
        const std::int64_t n = 100 + (c + r) % kUniverse;
        const svc::ServiceReply reply = service.query(stencil_request(n));
        (reply.status == svc::ServiceStatus::Ok ? ok : other)++;
      }
    });
  }
  for (std::thread& t : clients) t.join();

  EXPECT_EQ(ok.load(), kClients * kRounds);
  EXPECT_EQ(other.load(), 0);
  const auto counts = colds.snapshot();
  EXPECT_EQ(counts.size(), static_cast<std::size_t>(kUniverse));
  for (const auto& [n, count] : counts) {
    EXPECT_EQ(count, 1) << "key n=" << n << " computed " << count
                        << " times despite coalescing";
  }
  const auto stats = service.cache().stats();
  EXPECT_EQ(stats.hits + service.metrics().counter("coalesced").value() +
                static_cast<std::uint64_t>(kUniverse),
            static_cast<std::uint64_t>(kClients * kRounds));
}

// (2) Epoch bump: a cached decision must not survive an availability
// change -- the next query recomputes under the new epoch and the stale
// entry is reclaimed.
TEST(ServiceTest, EpochBumpInvalidatesCachedDecisions) {
  const Testbed& bed = testbed();
  AvailabilityFeed feed = make_feed(bed.net);
  svc::PartitionService service(bed.net, bed.db, feed, resolve_stencil);

  const svc::ServiceReply first = service.query(stencil_request(300));
  ASSERT_EQ(first.status, svc::ServiceStatus::Ok) << first.error;
  const std::uint64_t epoch_before = feed.epoch();

  // Revoke one processor: counts change, epoch must bump.
  AvailabilitySnapshot next = feed.read().first;
  ASSERT_GT(next.available[0], 1);
  next.available[0] -= 1;
  const std::uint64_t epoch_after = feed.update(std::move(next));
  ASSERT_GT(epoch_after, epoch_before);

  const svc::ServiceReply second = service.query(stencil_request(300));
  ASSERT_EQ(second.status, svc::ServiceStatus::Ok) << second.error;
  EXPECT_FALSE(second.cache_hit) << "stale decision served after bump";
  EXPECT_EQ(second.decision->epoch, epoch_after);
  EXPECT_NE(second.decision.get(), first.decision.get());
  EXPECT_GE(service.cache().stats().invalidated, 1u);
  EXPECT_GE(service.metrics().counter("epoch_bumps").value(), 1u);

  // An identical re-gather must NOT bump: the cache stays warm.
  feed.update(feed.read().first);
  const svc::ServiceReply third = service.query(stencil_request(300));
  EXPECT_TRUE(third.cache_hit);
}

// (3) Overload: one deliberately slow compute slot and two waiters.
// Excess load must shed with Overloaded immediately -- not block, not
// deadlock -- and every admitted caller must still get its reply.
TEST(ServiceTest, OverloadShedsInsteadOfBlocking) {
  const Testbed& bed = testbed();
  AvailabilityFeed feed = make_feed(bed.net);

  svc::ServiceOptions options;
  options.workers = 1;
  options.queue_capacity = 2;
  options.cold_override = [](const svc::PartitionRequest& request,
                             const AvailabilitySnapshot&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    svc::PartitionDecision decision;
    decision.partition = PartitionVector({request.n});
    return decision;
  };
  svc::PartitionService service(bed.net, bed.db, feed, resolve_stencil,
                                options);

  // Submit far more distinct cold keys than admission holds, from many
  // threads at once.  An admitted caller blocks for its own ~5ms compute
  // (after waiting for the one slot), but a caller that finds the slot busy
  // and two callers already waiting is shed at once instead of blocking.
  constexpr int kClients = 8;
  constexpr int kPerClient = 10;
  std::mutex mutex;
  std::vector<std::shared_future<svc::ServiceReply>> futures;
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int r = 0; r < kPerClient; ++r) {
        auto f = service.submit(
            stencil_request(1000 + c * kPerClient + r));
        std::lock_guard lock(mutex);
        futures.push_back(std::move(f));
      }
    });
  }
  for (std::thread& t : clients) t.join();

  int ok = 0, shed = 0, failed = 0;
  for (auto& f : futures) {
    const svc::ServiceReply reply = f.get();  // must all resolve
    switch (reply.status) {
      case svc::ServiceStatus::Ok: ++ok; break;
      case svc::ServiceStatus::Overloaded: ++shed; break;
      case svc::ServiceStatus::Failed: ++failed; break;
    }
  }
  EXPECT_EQ(ok + shed + failed, kClients * kPerClient);
  EXPECT_EQ(failed, 0);
  EXPECT_GT(shed, 0) << "queue of 2 absorbed an 80-request burst";
  EXPECT_GT(ok, 0) << "admission shed everything";
  EXPECT_EQ(service.metrics().counter("shed_overload").value(),
            static_cast<std::uint64_t>(shed));
}

// (4) Where cold computes run: on the thread that queried, never more than
// `workers` at once.  Two callers hold both slots inside a gated cold path;
// two more, beyond `workers` but within `queue_capacity`, must wait for a
// slot -- not be shed -- and then compute on their own threads.
TEST(ServiceTest, ColdComputeRunsOnCallerThreadWithinWorkerLimit) {
  const Testbed& bed = testbed();
  AvailabilityFeed feed = make_feed(bed.net);

  constexpr int kWorkers = 2;
  constexpr int kWaiters = 2;
  constexpr int kClients = kWorkers + kWaiters;
  std::mutex mutex;
  std::condition_variable changed;
  bool released = false;
  int running = 0;
  int peak = 0;
  std::map<std::int64_t, std::thread::id> computed_on;
  svc::ServiceOptions options;
  options.workers = kWorkers;
  options.queue_capacity = kWaiters;
  options.cold_override = [&](const svc::PartitionRequest& request,
                              const AvailabilitySnapshot&) {
    std::unique_lock lock(mutex);
    computed_on[request.n] = std::this_thread::get_id();
    peak = std::max(peak, ++running);
    changed.notify_all();
    changed.wait(lock, [&] { return released; });
    --running;
    svc::PartitionDecision decision;
    decision.partition = PartitionVector({request.n});
    return decision;
  };
  svc::PartitionService service(bed.net, bed.db, feed, resolve_stencil,
                                options);

  std::vector<std::thread::id> queried_on(kClients);
  std::vector<svc::ServiceReply> replies(kClients);
  std::atomic<int> returned{0};
  const auto client = [&](int c) {
    queried_on[static_cast<std::size_t>(c)] = std::this_thread::get_id();
    replies[static_cast<std::size_t>(c)] =
        service.query(stencil_request(500 + c));
    ++returned;
  };
  std::vector<std::thread> clients;
  for (int c = 0; c < kWorkers; ++c) clients.emplace_back(client, c);
  {
    std::unique_lock lock(mutex);
    changed.wait(lock, [&] { return running == kWorkers; });
  }
  for (int c = kWorkers; c < kClients; ++c) clients.emplace_back(client, c);
  // Let the late callers reach the slot wait before releasing the held
  // computes; none of them can return while both slots stay held.
  while (service.metrics().counter("requests").value() <
         static_cast<std::uint64_t>(kClients)) {
    std::this_thread::yield();
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_EQ(returned.load(), 0) << "a caller returned while both slots "
                                   "were held";
  {
    std::lock_guard lock(mutex);
    EXPECT_EQ(running, kWorkers);
    released = true;
  }
  changed.notify_all();
  for (std::thread& t : clients) t.join();

  for (int c = 0; c < kClients; ++c) {
    const svc::ServiceReply& reply = replies[static_cast<std::size_t>(c)];
    EXPECT_EQ(reply.status, svc::ServiceStatus::Ok)
        << "caller " << c << ": " << reply.error;
    EXPECT_EQ(computed_on.at(500 + c), queried_on[static_cast<std::size_t>(c)])
        << "caller " << c << "'s cold compute ran on another thread";
  }
  EXPECT_EQ(peak, kWorkers) << "more cold computes ran at once than workers";
  EXPECT_EQ(service.metrics().counter("shed_overload").value(), 0u);
  EXPECT_EQ(service.metrics().counter("cold_computes").value(),
            static_cast<std::uint64_t>(kClients));
}

// Chaos tier: seeded fault injection on the cold partition path plus
// availability churn from the same plan.  Faults surface as Failed replies
// (shared by every coalesced waiter), are never cached, and the service
// keeps answering across epochs.
TEST(ServiceTest, ChaosSeedsFaultyColdPathStaysConsistent) {
  const Testbed& bed = testbed();

  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    sim::ChaosRng chaos(seed);
    sim::ChaosOptions chaos_options;
    chaos_options.crashes = 1;
    chaos_options.revocations = 2;
    chaos_options.control_horizon = SimTime::seconds(1);
    const sim::FaultPlan plan = chaos.make_plan(bed.net, chaos_options);
    const std::vector<ChurnEvent> churn = plan.churn_events();
    // The plan's churn lands on a private copy of the network: the
    // service keeps reading bed.net while the feed moves to the churned
    // counts.
    Network churned = bed.net;
    apply_churn_to_network(churned, churn, SimTime::max());
    const AvailabilitySnapshot churned_snapshot = gather_availability(
        churned, make_managers(churned, AvailabilityPolicy{}));

    AvailabilityFeed feed = make_feed(bed.net);

    // The fault schedule for the cold path itself: every 7th cold compute
    // throws (seed-rotated so different seeds fault different keys).
    std::atomic<std::uint64_t> cold_calls{0};
    ColdCounter colds;
    svc::ServiceOptions options;
    options.workers = 2;
    options.queue_capacity = 256;
    options.cold_override =
        [&](const svc::PartitionRequest& request,
            const AvailabilitySnapshot& snapshot) {
      colds.bump(request.n);
      const std::uint64_t call =
          cold_calls.fetch_add(1, std::memory_order_relaxed);
      if ((call + seed) % 7 == 0) {
        throw Error("injected cold-path fault");
      }
      // Respect the churned availability like the real path would.
      std::int64_t procs = 0;
      for (int a : snapshot.available) procs += a;
      if (procs <= 0) throw Error("no processors available");
      svc::PartitionDecision decision;
      decision.partition = PartitionVector({request.n});
      return decision;
    };
    svc::PartitionService service(bed.net, bed.db, feed, resolve_stencil,
                                  options);

    std::atomic<int> ok{0}, failed{0}, overloaded{0};
    constexpr int kClients = 6;
    constexpr int kRounds = 30;
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        for (int r = 0; r < kRounds; ++r) {
          // Mid-stream, one client replays the plan's churn into the feed
          // (epoch bumps race with in-flight requests by design).
          if (c == 0 && r == kRounds / 2 && !churn.empty()) {
            feed.update(churned_snapshot);
          }
          const std::int64_t n = 200 + (c * kRounds + r) % 6;
          const svc::ServiceReply reply = service.query(stencil_request(n));
          switch (reply.status) {
            case svc::ServiceStatus::Ok:
              ++ok;
              break;
            case svc::ServiceStatus::Failed:
              ++failed;
              EXPECT_FALSE(reply.error.empty());
              break;
            case svc::ServiceStatus::Overloaded:
              ++overloaded;
              break;
          }
        }
      });
    }
    for (std::thread& t : clients) t.join();

    EXPECT_EQ(ok + failed + overloaded, kClients * kRounds)
        << "seed " << seed;
    EXPECT_GT(ok.load(), 0) << "seed " << seed;
    // Failures are not cached: with faults on the path, cold computes may
    // exceed the unique-key count, but every extra compute is explained by
    // a cold-path failure, an epoch bump (new keys), or a stale-epoch
    // straggler -- a client that read the feed just before a bump may
    // submit an old-epoch key after invalidation reclaimed its entry, and
    // each client can straggle at most once per bump.
    const std::uint64_t bumps =
        service.metrics().counter("epoch_bumps").value();
    const std::uint64_t cold_failures =
        service.metrics().counter("failed").value();
    EXPECT_LE(colds.total(),
              6 * static_cast<int>(1 + bumps) +
                  static_cast<int>(cold_failures) +
                  kClients * static_cast<int>(bumps))
        << "seed " << seed;
    // One failed cold compute fans out to every coalesced waiter, so the
    // counter bounds the Failed replies from below.
    EXPECT_LE(cold_failures, static_cast<std::uint64_t>(failed.load()))
        << "seed " << seed;
    if (failed.load() > 0) {
      EXPECT_GT(cold_failures, 0u) << "seed " << seed;
    }
  }
}

// A fault is transient: after it clears, the same key must recompute
// successfully (failures were not cached) and then hit.
TEST(ServiceTest, FailedDecisionsAreNotCached) {
  const Testbed& bed = testbed();
  AvailabilityFeed feed = make_feed(bed.net);

  std::atomic<bool> faulty{true};
  svc::ServiceOptions options;
  options.cold_override = [&faulty](const svc::PartitionRequest& request,
                                    const AvailabilitySnapshot&) {
    if (faulty.load()) throw Error("injected fault");
    svc::PartitionDecision decision;
    decision.partition = PartitionVector({request.n});
    return decision;
  };
  svc::PartitionService service(bed.net, bed.db, feed, resolve_stencil,
                                options);

  const svc::ServiceReply broken = service.query(stencil_request(42));
  EXPECT_EQ(broken.status, svc::ServiceStatus::Failed);
  EXPECT_NE(broken.error.find("injected fault"), std::string::npos);
  EXPECT_EQ(service.cache().size(), 0u);

  faulty.store(false);
  const svc::ServiceReply healed = service.query(stencil_request(42));
  ASSERT_EQ(healed.status, svc::ServiceStatus::Ok) << healed.error;
  EXPECT_FALSE(healed.cache_hit);
  EXPECT_TRUE(service.query(stencil_request(42)).cache_hit);
}

// The adaptive executor end-to-end with the service as its repartition
// client: same network, same spec, service-backed repartitions must keep
// the run correct and the client must answer from the service (with cache
// hits on recurring imbalance patterns).
TEST(ServiceTest, AdaptiveExecutorUsesServiceClient) {
  const Testbed& bed = testbed();
  AvailabilityFeed feed = make_feed(bed.net);
  svc::PartitionService service(bed.net, bed.db, feed, resolve_stencil);
  svc::AdaptiveServiceClient client(service, "stencil-1200");

  const apps::StencilConfig cfg{.n = 1200, .iterations = 40,
                                .overlap = false};
  const ComputationSpec spec = apps::make_stencil_spec(cfg);
  const ProcessorConfig config{6, 0};
  const Placement placement = contiguous_placement(bed.net, config);
  const PartitionVector initial = balanced_partition(
      bed.net, config, clusters_by_speed(bed.net), cfg.n);

  // A load step mid-run forces repartitions (same shape as bench_adaptive).
  const LoadSchedule load =
      LoadSchedule::step(bed.net, 0, 3, SimTime::seconds(2), 0.5);
  ExecutionOptions exec_options;
  exec_options.load = &load;
  AdaptiveOptions adaptive_options{.check_interval = 5,
                                   .imbalance_threshold = 1.2,
                                   .pdu_bytes = 4 * cfg.n};
  adaptive_options.client = &client;

  const AdaptiveResult result = execute_adaptive(
      bed.net, spec, placement, initial, exec_options, adaptive_options);

  EXPECT_GT(result.repartitions, 0);
  EXPECT_EQ(result.final_partition.total(), cfg.n);
  EXPECT_EQ(client.fallbacks(), 0u);
  // Every repartition went through the service as a Repartition request.
  EXPECT_GE(service.metrics().counter("requests").value(),
            static_cast<std::uint64_t>(result.repartitions));
}

// Direct unit check of the client's quantisation: rates scale to
// quantum=1000 on the fastest rank and the returned vector preserves rank
// count and total.
TEST(ServiceTest, AdaptiveClientQuantisesAndPreservesTotals) {
  const Testbed& bed = testbed();
  AvailabilityFeed feed = make_feed(bed.net);
  svc::PartitionService service(bed.net, bed.db, feed, resolve_stencil);
  svc::AdaptiveServiceClient client(service, "job-a");

  const std::vector<double> rates = {4.0, 2.0, 1.0, 1.0};
  const auto partition = client.repartition(rates, 800);
  ASSERT_TRUE(partition.has_value());
  EXPECT_EQ(partition->num_ranks(), 4);
  EXPECT_EQ(partition->total(), 800);
  // Fastest rank gets the largest share.
  EXPECT_GT(partition->at(0), partition->at(2));

  // Identical observed pattern: answered from the cache.
  (void)client.repartition(rates, 800);
  EXPECT_GE(service.cache().stats().hits, 1u);
}

// Cache keys are pure functions of (request, network signature, epoch):
// identical inputs agree, every field participates, and the epoch makes
// stale keys unreachable by construction.
TEST(RequestKeyTest, DeterministicAndFieldSensitive) {
  const Network net = presets::paper_testbed();
  const std::uint64_t sig = svc::network_signature(net);
  EXPECT_EQ(sig, svc::network_signature(presets::paper_testbed()));
  EXPECT_NE(sig, svc::network_signature(presets::fig1_network()));

  const svc::PartitionRequest base = stencil_request(600);
  const std::uint64_t key = svc::request_key(base, sig, 1);
  EXPECT_EQ(key, svc::request_key(stencil_request(600), sig, 1));
  EXPECT_NE(key, svc::request_key(base, sig, 2));          // epoch
  EXPECT_NE(key, svc::request_key(stencil_request(601), sig, 1));  // n

  svc::PartitionRequest variant = base;
  variant.spec = "gauss";
  EXPECT_NE(key, svc::request_key(variant, sig, 1));

  variant = base;
  variant.iterations = 11;
  EXPECT_NE(key, svc::request_key(variant, sig, 1));

  variant = base;
  variant.options.search = PartitionOptions::Search::Linear;
  EXPECT_NE(key, svc::request_key(variant, sig, 1));

  variant = base;
  variant.kind = svc::PartitionRequest::Kind::Repartition;
  variant.rate_milli = {1000, 500};
  EXPECT_NE(key, svc::request_key(variant, sig, 1));

  // Rate vectors are length-prefixed: a rate moving between requests
  // cannot alias.
  svc::PartitionRequest a = variant;
  a.rate_milli = {1000, 500, 250};
  svc::PartitionRequest b = variant;
  b.rate_milli = {1000, 500};
  EXPECT_NE(svc::request_key(a, sig, 1), svc::request_key(b, sig, 1));
}

}  // namespace
}  // namespace netpart
