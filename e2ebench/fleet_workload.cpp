// fleet_zipf: a 4-node Fleet on the discrete-event simulator under the
// open-loop zipf traffic of fleet::run_workload, with a periodic epoch
// announcement.  The run lasts as long as the wall-clock budget, so costs
// that grow with the fleet's age show up as a falling event rate.
#include <algorithm>
#include <optional>
#include <unordered_map>

#include "fleet/driver.hpp"
#include "fleet/fleet.hpp"
#include "fleet/wire.hpp"
#include "obs/span.hpp"
#include "sim/engine.hpp"
#include "workloads.hpp"

namespace e2e {

using namespace netpart;
using fleet::NodeId;

namespace {

constexpr int kNodes = 4;
constexpr int kDistinctKeys = 32;  // run_workload's defaults
constexpr double kZipf = 1.1;
/// Below the fleet's simulated capacity (a 400 us period saturates it).
constexpr SimTime kArrivalPeriod = SimTime::millis(1);
/// Arrivals per engine batch; an epoch is announced between batches.
constexpr int kBatch = 500;
constexpr int kWarmupBatches = 2;

struct FleetEnv {
  Network net = fleet::make_fleet_network(kNodes);
  sim::Engine engine;
  sim::NetSim sim;
  fleet::Fleet fl;
  fleet::Fleet::ColdPath oracle;
  ZipfStream keys;
  std::uint64_t epoch = 1;
  std::uint64_t arrivals = 0;

  FleetEnv(std::uint64_t seed, bool tracing)
      : sim(engine, net, sim::NetSimParams{}, Rng(seed)),
        fl(sim, options(tracing), fleet::synthetic_cold_path(net)),
        oracle(fleet::synthetic_cold_path(net)),
        keys(seed, 0, kDistinctKeys, kZipf) {
    fl.start();
  }

  static fleet::FleetOptions options(bool tracing) {
    fleet::FleetOptions o;
    o.tracing = tracing;
    return o;
  }
};

struct Served {
  int key = 0;
  bool ok = false;
  std::shared_ptr<const svc::PartitionDecision> decision;
};

struct Checkpoint {
  double wall_s;
  std::uint64_t events;
};

struct FleetPass {
  /// One window: the fleet ages through the run, so its figures are
  /// whole-run figures rather than medians over windows.
  explicit FleetPass(Timeline t) : timeline(std::move(t)) {}
  Timeline timeline;  ///< simulated client latency, by wall completion
  std::vector<Served> served;
  std::vector<Checkpoint> checkpoints;
  std::uint64_t requests = 0, failed = 0;
};

/// One batch of kBatch arrivals at the fixed period, round-robin over the
/// live nodes, stepped until every reply is in.
void run_batch(FleetEnv& env, FleetPass& pass) {
  const std::vector<NodeId> ids = env.fl.node_ids();
  int outstanding = kBatch;
  for (int i = 0; i < kBatch; ++i) {
    const std::uint64_t k = env.arrivals++;
    const int key = env.keys.next();
    env.engine.schedule_after(kArrivalPeriod * i, [&env, &pass, &outstanding,
                                                   &ids, k, key] {
      NodeId entry = -1;
      for (std::size_t j = 0; j < ids.size(); ++j) {
        const NodeId c = ids[(static_cast<std::size_t>(k) + j) % ids.size()];
        if (env.fl.node_alive(c)) {
          entry = c;
          break;
        }
      }
      if (entry < 0) {
        ++pass.failed;
        --outstanding;
        return;
      }
      env.fl.submit(fleet::workload_request(key), entry,
                    [&pass, &outstanding, key](const fleet::FleetReply& r) {
                      --outstanding;
                      if (!r.ok) ++pass.failed;
                      pass.timeline.record(Clock::now(),
                                           r.latency.as_micros());
                      pass.served.push_back(Served{key, r.ok, r.decision});
                    });
    });
  }
  while (outstanding > 0 && env.engine.step()) {
  }
  pass.requests += kBatch;
  const auto at = static_cast<NodeId>(env.epoch % kNodes);
  env.fl.announce_epoch(at, ++env.epoch);
}

FleetPass fleet_loop(FleetEnv& env, double seconds,
                     obs::TelemetryRegistry* trace) {
  const auto t0 = Clock::now();
  FleetPass pass(Timeline(t0, seconds, seconds));
  pass.timeline.stamp_cpu(t0);
  const auto deadline =
      t0 + std::chrono::nanoseconds(static_cast<std::int64_t>(seconds * 1e9));
  const std::uint64_t events0 = env.engine.events_executed();
  pass.checkpoints.push_back({0.0, 0});
  while (Clock::now() < deadline) {
    std::optional<obs::Span> span;
    if (trace != nullptr) span.emplace(*trace, "bench.fleet_batch", "bench");
    run_batch(env, pass);
    span.reset();
    pass.checkpoints.push_back({us_between(t0, Clock::now()) * 1e-6,
                                env.engine.events_executed() - events0});
  }
  pass.timeline.finish();
  return pass;
}

void check_fleet(FleetEnv& env, const FleetPass& pass, Report& report) {
  std::unordered_map<int, svc::PartitionDecision> want;
  std::uint64_t bad = 0;
  for (const Served& s : pass.served) {
    if (!s.ok) continue;
    auto it = want.find(s.key);
    if (it == want.end()) {
      it = want.emplace(s.key, env.oracle(fleet::workload_request(s.key)))
               .first;
    }
    const std::string why = s.decision == nullptr
                                ? std::string("ok reply without a decision")
                                : decision_mismatch(*s.decision, it->second);
    if (!why.empty()) {
      ++bad;
      report.problem("fleet_zipf key " + std::to_string(s.key) + ": " + why);
    }
  }
  report.attempted += pass.requests;
  report.failed += pass.failed + bad;
}

/// Wall nanoseconds per simulated event over the first and the last
/// quarter of the pass's wall time.
std::pair<double, double> head_tail_ns_per_event(const FleetPass& pass) {
  const auto& cp = pass.checkpoints;
  const double end = cp.back().wall_s;
  const auto at = [&cp](double wall) {
    // First checkpoint at or after `wall`.
    return *std::find_if(cp.begin(), cp.end(), [wall](const Checkpoint& c) {
      return c.wall_s >= wall;
    });
  };
  const Checkpoint head_end = at(0.25 * end);
  const Checkpoint tail_start = at(0.75 * end);
  const Checkpoint last = cp.back();
  const auto rate = [](const Checkpoint& a, const Checkpoint& b) {
    return (b.wall_s - a.wall_s) * 1e9 /
           static_cast<double>(std::max<std::uint64_t>(1, b.events - a.events));
  };
  return {rate(cp.front(), head_end), rate(tail_start, last)};
}

}  // namespace

Report run_fleet_zipf(const RunOptions& o) {
  Report report;
  std::unique_ptr<FleetEnv> env;
  const auto make = [&o](bool tracing) {
    auto e = std::make_unique<FleetEnv>(o.seed, tracing);
    FleetPass warm(Timeline(Clock::now(), 1.0, 1.0));
    for (int b = 0; b < kWarmupBatches; ++b) run_batch(*e, warm);
    return e;
  };
  const double setup_s = setup_median(env, [&] {
    return make(false);
  });

  const auto extras = [&report](const FleetPass& pass) {
    const LogHistogram latency = pass.timeline.total();
    report.note("sim_latency_p50_ms", latency.quantile_us(0.5) * 1e-3, "ms");
    report.note("sim_latency_p99_ms", latency.quantile_us(0.99) * 1e-3, "ms");
    report.note("fail_frac",
                static_cast<double>(pass.failed) /
                    static_cast<double>(std::max<std::uint64_t>(1, pass.requests)),
                "ratio");
    report.note("simulated_requests", static_cast<double>(pass.requests),
                "count");
  };

  if (!o.trace) {
    const FleetPass pass = fleet_loop(*env, o.seconds, nullptr);
    check_fleet(*env, pass, report);
    add_end_to_end(report, setup_s, pass.timeline);
    extras(pass);
    const auto [head, tail] = head_tail_ns_per_event(pass);
    report.note("ns_per_event_head", head, "ns");
    report.note("ns_per_event_tail", tail, "ns");
    return report;
  }

  // Untraced half on the set-up fleet: the simulator and wire counters.
  auto& global = obs::TelemetryRegistry::global();
  const std::uint64_t posted0 = counter_value(global, "mmps.recv_posted");
  const std::uint64_t any0 = counter_value(global, "mmps.recv_any_posted");
  const fleet::FleetStats stats0 = env->fl.stats();
  const FleetPass plain = fleet_loop(*env, o.seconds / 2, nullptr);
  check_fleet(*env, plain, report);
  extras(plain);
  const fleet::FleetStats& stats = env->fl.stats();
  const double reqs = static_cast<double>(plain.requests);
  const double events = static_cast<double>(plain.checkpoints.back().events);
  const auto [head, tail] = head_tail_ns_per_event(plain);
  report.add("sim.events_per_req", events / reqs, "count");
  report.add("sim.ns_per_event", plain.timeline.elapsed_s() * 1e9 / events,
             "ns");
  report.add("sim.ns_per_event_tail_over_head", tail / head, "ratio");
  report.add("mmps.recv_posted_per_req",
             static_cast<double>(counter_value(global, "mmps.recv_posted") -
                                 posted0) / reqs,
             "count");
  report.add("mmps.recv_any_posted_per_req",
             static_cast<double>(counter_value(global, "mmps.recv_any_posted") -
                                 any0) / reqs,
             "count");
  const double hits = static_cast<double>(stats.hits - stats0.hits);
  const double misses = static_cast<double>(stats.misses - stats0.misses);
  report.add("fleet.hit_ratio", hits / std::max(1.0, hits + misses), "ratio");
  report.add("fleet.forwards_per_req",
             static_cast<double>(stats.forwards - stats0.forwards) / reqs,
             "count");
  report.add("fleet.failovers",
             static_cast<double>(stats.failovers - stats0.failovers), "count");

  // The wire hop: a forward and a decision, each encoded and decoded.
  obs::TelemetryRegistry reg;
  {
    fleet::ForwardEnvelope fwd;
    fwd.from = 1;
    fwd.routing_key = env->fl.routing_key(fleet::workload_request(3));
    fwd.reply_tag = 17;
    fwd.request = fleet::workload_request(3);
    const svc::PartitionDecision decision =
        env->oracle(fleet::workload_request(3));
    constexpr std::size_t kCalls = std::size_t{1} << 16;
    std::vector<double> ns;
    for (int rep = 0; rep < 5; ++rep) {
      reg.clear_events();
      {
        obs::Span span(reg, "fleet.wire_round_trip", "bench");
        for (std::size_t i = 0; i < kCalls; ++i) {
          keep(fleet::decode_forward(fleet::encode_forward(fwd)).routing_key);
          keep(fleet::decode_decision(fleet::encode_decision(decision)).t_c_ms);
        }
      }
      ns.push_back(reg.spans().front().dur_us * 1e3 /
                   static_cast<double>(kCalls));
    }
    report.add("fleet.wire_ns", median(ns), "ns");
  }

  // Traced half on a fresh fleet of the same age: per-hop attribution from
  // the fleet's own spans (sim clock), joined by trace id.
  env.reset();
  env = make(true);
  const FleetPass traced = fleet_loop(*env, o.seconds / 2, &reg);
  check_fleet(*env, traced, report);
  struct Hops {
    double start = -1, end = -1, fwd_start = -1, serve_start = -1,
           serve_end = -1;
  };
  std::unordered_map<std::uint64_t, Hops> by_trace;
  for (const NodeId id : env->fl.node_ids()) {
    for (const obs::SpanRecord& s : env->fl.node(id).telemetry().spans()) {
      Hops& h = by_trace[s.trace_id];
      if (s.name == "fleet.request") {
        h.start = s.start_us;
        h.end = s.start_us + s.dur_us;
      } else if (s.name == "fleet.forward") {
        h.fwd_start = s.start_us;
      } else if (s.name == "fleet.serve") {
        h.serve_start = s.start_us;
        h.serve_end = s.start_us + s.dur_us;
      }
    }
  }
  std::vector<double> route, forward, compute, reply;
  for (const auto& [id, h] : by_trace) {
    if (h.start < 0 || h.serve_start < 0) continue;
    const double sent = h.fwd_start >= 0 ? h.fwd_start : h.serve_start;
    route.push_back(sent - h.start);
    if (h.fwd_start >= 0) {
      forward.push_back(h.serve_start - h.fwd_start);
      reply.push_back(h.end - h.serve_end);
    }
    compute.push_back(h.serve_end - h.serve_start);
  }
  report.add("fleet.route_us_p50", median(route), "us");
  report.add("fleet.forward_us_p50", median(forward), "us");
  report.add("fleet.compute_us_p50", median(compute), "us");
  report.add("fleet.reply_us_p50", median(reply), "us");
  report.note("hop_traces", static_cast<double>(route.size()), "count");

  report.add("obs.trace_overhead_pct",
             trace_overhead_pct(plain.timeline, traced.timeline), "%");
  report.latency = plain.timeline.total();
  return report;
}

}  // namespace e2e
