// Fault-injection study: what failures cost, and how fast the adaptive
// pipeline recovers.
//
// Part 1 -- recovery latency and quality.  For a handful of chaos seeds, an
// open-ended slowdown schedule lands in the first quarter of an adaptive
// stencil run.  Reported per seed: when the first fault hits, how long the
// executor takes to react (first fault-forced repartition minus onset), the
// static-vs-adaptive elapsed times, and how close the recovered partition
// gets to the oracle re-partition for the effective post-fault speeds.
//
// Part 2 -- the control plane under fail-stop faults.  The fault-tolerant
// availability protocol runs with 0, 1 and 2 crashed managers: each death
// costs ack timeouts, but the ring always terminates and reports the dead.
//
// Emits BENCH_faults.json with both sections plus per-phase telemetry
// counter deltas (adaptive.*, mmps.*, partitioner.*) from the global
// registry.
#include <algorithm>
#include <cstdio>

#include "bench/common.hpp"
#include "core/decompose.hpp"
#include "exec/adaptive.hpp"
#include "mmps/manager_protocol.hpp"
#include "sim/engine.hpp"
#include "sim/faults.hpp"
#include "topo/placement.hpp"
#include "util/table.hpp"

namespace netpart {
namespace {

void recovery_study(const Network& net, JsonValue& root) {
  const apps::StencilConfig cfg{.n = 1200, .iterations = 40,
                                .overlap = false};
  const ComputationSpec spec = apps::make_stencil_spec(cfg);
  const ProcessorConfig config{6, 0};
  const std::vector<ClusterId> order = clusters_by_speed(net);
  const Placement placement = contiguous_placement(net, config, order);
  const PartitionVector initial =
      balanced_partition(net, config, order, cfg.n);
  const AdaptiveOptions adaptive_options{.check_interval = 5,
                                         .imbalance_threshold = 1.25,
                                         .pdu_bytes = 4 * cfg.n};

  ExecutionOptions benign;
  const AdaptiveResult baseline = execute_static_chunked(
      net, spec, placement, initial, benign, adaptive_options);

  Table table({"seed", "onset ms", "react ms", "static ms", "adaptive ms",
               "oracle ratio", "final A"});
  JsonValue seeds = JsonValue::array();
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    sim::ChaosOptions chaos;
    chaos.crashes = 0;
    chaos.revocations = 0;
    chaos.slowdowns = 2;
    chaos.flaps = 0;
    chaos.degrades = 0;
    chaos.horizon = baseline.elapsed * 0.25;
    chaos.max_slowdown = 3.0;
    chaos.open_ended_slowdowns = true;
    const sim::FaultPlan plan = sim::ChaosRng(seed).make_plan(net, chaos);

    SimTime onset = SimTime::max();
    for (const auto& s : plan.slowdowns) onset = std::min(onset, s.from);

    ExecutionOptions faulted;
    faulted.seed = seed;
    faulted.faults = &plan;
    const AdaptiveResult fixed = execute_static_chunked(
        net, spec, placement, initial, faulted, adaptive_options);
    const AdaptiveResult adaptive = execute_adaptive(
        net, spec, placement, initial, faulted, adaptive_options);

    const double ops =
        static_cast<double>(spec.computation_phases()[0].ops_per_pdu());
    std::vector<double> ms_per_pdu;
    ms_per_pdu.reserve(placement.size());
    for (const ProcessorRef& ref : placement) {
      ms_per_pdu.push_back(
          net.cluster(ref.cluster).type().flop_time.as_millis() * ops *
          plan.slowdown_at(ref, SimTime::seconds(1000000)));
    }
    const RecoveryReport report =
        evaluate_recovery(adaptive.final_partition, ms_per_pdu);

    const bool reacted = adaptive.first_fault_response < SimTime::max();
    char react[32];
    if (reacted) {
      std::snprintf(react, sizeof(react), "%.1f",
                    (adaptive.first_fault_response - onset).as_millis());
    } else {
      std::snprintf(react, sizeof(react), "-");
    }
    char ratio[32];
    std::snprintf(ratio, sizeof(ratio), "%.3f", report.ratio);
    table.add_row({std::to_string(seed), bench::ms(onset.as_millis()),
                   react, bench::ms(fixed.elapsed.as_millis()),
                   bench::ms(adaptive.elapsed.as_millis()), ratio,
                   adaptive.final_partition.to_string()});

    JsonValue row = JsonValue::object();
    row.set("seed", static_cast<std::int64_t>(seed));
    row.set("onset_ms", onset.as_millis());
    if (reacted) {
      row.set("react_ms", (adaptive.first_fault_response - onset).as_millis());
    } else {
      row.set("react_ms", JsonValue());
    }
    row.set("static_ms", fixed.elapsed.as_millis());
    row.set("adaptive_ms", adaptive.elapsed.as_millis());
    row.set("oracle_ratio", report.ratio);
    seeds.push(std::move(row));
  }
  root.set("recovery", std::move(seeds));
  std::printf("%s\n", table.render("recovery under open-ended slowdowns "
                                   "(vs fault-free static "
                                   + bench::ms(baseline.elapsed.as_millis())
                                   + " ms)")
                          .c_str());
}

void protocol_study(JsonValue& root) {
  const Network net = presets::fig1_network();  // three clusters
  const std::vector<ClusterManager> managers = make_managers(net, {});

  Table table({"crashed managers", "elapsed ms", "messages", "dead",
               "available"});
  JsonValue rows = JsonValue::array();
  for (int kill = 0; kill <= 2; ++kill) {
    sim::FaultPlan plan;
    for (int c = 1; c <= kill; ++c) {
      plan.crashes.push_back({SimTime::zero(), ProcessorRef{c, 0}});
    }

    sim::Engine engine;
    sim::NetSim sim(engine, net, {}, Rng(1));
    sim::FaultInjector injector(sim, plan);
    injector.arm();
    const mmps::ProtocolResult result =
        mmps::run_availability_protocol(sim, managers);

    std::string dead = "none";
    if (!result.dead.empty()) {
      dead.clear();
      for (ClusterId c : result.dead) {
        if (!dead.empty()) dead += ",";
        dead += std::to_string(c);
      }
    }
    std::string avail;
    for (int n : result.snapshot.available) {
      if (!avail.empty()) avail += " ";
      avail += std::to_string(n);
    }
    table.add_row({std::to_string(kill),
                   bench::ms(result.elapsed.as_millis()),
                   std::to_string(result.messages), dead, avail});

    JsonValue row = JsonValue::object();
    row.set("crashed", kill);
    row.set("elapsed_ms", result.elapsed.as_millis());
    row.set("messages", static_cast<std::int64_t>(result.messages));
    row.set("dead", static_cast<std::int64_t>(result.dead.size()));
    rows.push(std::move(row));
  }
  std::printf("%s\n",
              table.render("fault-tolerant availability protocol "
                           "(ack timeout 250 ms, 3 attempts)")
                  .c_str());
  root.set("protocol", std::move(rows));
}

}  // namespace
}  // namespace netpart

int main(int argc, char** argv) {
  using namespace netpart;
  const Config args = bench::parse_bench_args(argc, argv);
  const std::string json_out =
      args.get_or("json_out", "BENCH_faults.json");
  const Network net = presets::paper_testbed();
  bench::PhaseMetrics phase_metrics;
  JsonValue root = JsonValue::object();
  root.set("bench", "faults");
  recovery_study(net, root);
  phase_metrics.phase("recovery");
  protocol_study(root);
  phase_metrics.phase("protocol");
  root.set("metrics", phase_metrics.to_json());
  bench::write_bench_json(json_out, root);
  std::printf("\nresults -> %s\n", json_out.c_str());
  return 0;
}
