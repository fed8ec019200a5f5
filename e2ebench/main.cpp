// The end-to-end benchmark program.
//
//   e2ebench --workload <svc_hot|svc_churn|sweep|fleet_zipf> --seed <n>
//            --seconds <s> --trace <0|1> [--record <path>]
//
// Prints the host fingerprint and every figure by name and unit, then, as
// the last line, {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics with --trace 0, the per-layer metrics with --trace 1
// (0 for a layer the workload does not run).  --record writes the full
// result record: fingerprint, seed, all figures, and the latency
// distribution.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>

#include "util/error.hpp"
#include "workloads.hpp"

namespace {

using e2e::JsonValue;

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "e2ebench: %s\nusage: e2ebench --workload <svc_hot|svc_churn|"
               "sweep|fleet_zipf> --seed <n> --seconds <s> --trace <0|1> "
               "[--record <path>]\n",
               why.c_str());
  std::exit(2);
}

JsonValue metric_json(double value, const std::string& unit) {
  return JsonValue::object().set("value", value).set("unit", unit);
}

int run(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag.rfind("--", 0) != 0 || i + 1 >= argc) usage("bad argument " + flag);
    args[flag.substr(2)] = argv[++i];
  }
  for (const char* required : {"workload", "seed", "seconds", "trace"}) {
    if (!args.contains(required)) usage(std::string("missing --") + required);
  }
  e2e::RunOptions options;
  const std::string workload = args["workload"];
  try {
    options.seed = std::stoull(args["seed"]);
    options.seconds = std::stod(args["seconds"]);
  } catch (const std::exception&) {
    usage("--seed and --seconds take numbers");
  }
  if (!(options.seconds > 0.0)) usage("--seconds must be positive");
  if (args["trace"] != "0" && args["trace"] != "1") usage("--trace is 0 or 1");
  options.trace = args["trace"] == "1";

  e2e::Report (*body)(const e2e::RunOptions&) = nullptr;
  if (workload == "svc_hot") body = e2e::run_svc_hot;
  if (workload == "svc_churn") body = e2e::run_svc_churn;
  if (workload == "sweep") body = e2e::run_sweep;
  if (workload == "fleet_zipf") body = e2e::run_fleet_zipf;
  if (body == nullptr) usage("unknown workload " + workload);

  const JsonValue host = e2e::host_fingerprint();
  std::printf("e2ebench workload=%s seed=%llu seconds=%g trace=%d\n",
              workload.c_str(), static_cast<unsigned long long>(options.seed),
              options.seconds, options.trace ? 1 : 0);
  std::printf("host %s\n", host.dump().c_str());
  std::fflush(stdout);

  const e2e::Report report = body(options);

  // The contract set, in BENCHMARK.json order.
  std::map<std::string, double> measured;
  for (const e2e::Metric& m : report.metrics) measured[m.name] = m.value;
  JsonValue metrics = JsonValue::object();
  const auto& names = options.trace ? e2e::per_layer_metrics()
                                    : e2e::end_to_end_metrics();
  for (const auto& [name, unit] : names) {
    const auto it = measured.find(name);
    NP_REQUIRE(options.trace || it != measured.end(),
               "end-to-end metric " + name + " was not measured");
    const double value = it == measured.end() ? 0.0 : it->second;
    metrics.set(name, metric_json(value, unit));
    std::printf("metric %-34s %14.6g %s\n", name.c_str(), value, unit.c_str());
  }
  JsonValue extra = JsonValue::object();
  for (const e2e::Metric& m : report.extra) {
    extra.set(m.name, metric_json(m.value, m.unit));
    std::printf("figure %-34s %14.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  const JsonValue distribution = report.latency.distribution_json();
  std::printf("latency_distribution %s\n", distribution.dump().c_str());
  for (const std::string& p : report.problems) {
    std::printf("PROBLEM %s\n", p.c_str());
  }
  if (report.attempted == 0) {
    std::fprintf(stderr, "e2ebench: nothing was attempted\n");
    return 1;
  }

  JsonValue result = JsonValue::object()
                         .set("correct", report.correct)
                         .set("attempted", report.attempted)
                         .set("failed", report.failed)
                         .set("metrics", metrics);
  if (args.contains("record")) {
    JsonValue record = JsonValue::object()
                           .set("workload", workload)
                           .set("seed", options.seed)
                           .set("seconds", options.seconds)
                           .set("trace", options.trace)
                           .set("host", host)
                           .set("result", result)
                           .set("figures", extra)
                           .set("latency_distribution", distribution)
                           .set("window_groups", report.groups);
    std::ofstream out(args["record"]);
    out << record.dump(2) << "\n";
    if (!out) {
      std::fprintf(stderr, "e2ebench: cannot write %s\n",
                   args["record"].c_str());
      return 1;
    }
  }
  std::printf("%s\n", result.dump().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "e2ebench: %s\n", e.what());
    return 1;
  }
}
