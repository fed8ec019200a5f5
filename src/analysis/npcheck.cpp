#include "analysis/npcheck.hpp"

#include <ostream>

#include "analysis/fleet_lint.hpp"
#include "analysis/model_lint.hpp"
#include "analysis/net_lint.hpp"
#include "analysis/spec_lint.hpp"
#include "calib/model_io.hpp"
#include "net/presets.hpp"
#include "util/error.hpp"

namespace netpart::analysis {

namespace {

constexpr const char* kUsage =
    "usage: npcheck [options] [spec files...]\n"
    "  --format=FMT      report format: text (default) | json\n"
    "  --json            shorthand for --format=json\n"
    "  --network NAME    lint a preset: paper|fig1|coercion|metasystem\n"
    "  --model PATH      lint a saved cost model against --network\n"
    "  --fleet SPEC      lint a fleet config (key=value[,...]; keys:\n"
    "                    nodes, replication, vnodes, hot_threshold,\n"
    "                    heartbeat_ms, gossip_ms, suspect_ms, dead_ms,\n"
    "                    forward_timeout_ms)\n"
    "  --strict          treat warnings as errors\n";

}  // namespace

NpcheckResult run_npcheck(const std::vector<std::string>& args,
                          std::ostream& out, std::ostream& err) {
  bool json = false;
  bool strict = false;
  std::string network;
  std::string model;
  std::string fleet;
  bool fleet_given = false;
  std::vector<std::string> specs;

  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    const auto take_value = [&](const char* flag) -> const std::string* {
      if (i + 1 >= args.size()) {
        err << "npcheck: " << flag << " needs a value\n" << kUsage;
        return nullptr;
      }
      return &args[++i];
    };
    if (arg == "--json") {
      json = true;
    } else if (arg == "--format" || arg.rfind("--format=", 0) == 0) {
      std::string value;
      if (arg == "--format") {
        const std::string* v = take_value("--format");
        if (v == nullptr) return NpcheckResult{2, {}};
        value = *v;
      } else {
        value = arg.substr(std::string("--format=").size());
      }
      if (value == "json") {
        json = true;
      } else if (value == "text") {
        json = false;
      } else {
        err << "npcheck: unknown --format value '" << value
            << "' (expected text|json)\n"
            << kUsage;
        return NpcheckResult{2, {}};
      }
    } else if (arg == "--strict") {
      strict = true;
    } else if (arg == "--network") {
      const std::string* v = take_value("--network");
      if (v == nullptr) return NpcheckResult{2, {}};
      network = *v;
    } else if (arg == "--model") {
      const std::string* v = take_value("--model");
      if (v == nullptr) return NpcheckResult{2, {}};
      model = *v;
    } else if (arg == "--fleet") {
      const std::string* v = take_value("--fleet");
      if (v == nullptr) return NpcheckResult{2, {}};
      fleet = *v;
      fleet_given = true;
    } else if (arg == "--help" || arg == "-h") {
      out << kUsage;
      return NpcheckResult{0, {}};
    } else if (!arg.empty() && arg[0] == '-') {
      err << "npcheck: unknown option " << arg << "\n" << kUsage;
      return NpcheckResult{2, {}};
    } else {
      specs.push_back(arg);
    }
  }

  if (specs.empty() && network.empty() && model.empty() && !fleet_given) {
    err << "npcheck: nothing to check\n" << kUsage;
    return NpcheckResult{2, {}};
  }
  if (!model.empty() && network.empty()) {
    err << "npcheck: --model needs --network (the fit domain is the "
           "network's cluster sizes)\n"
        << kUsage;
    return NpcheckResult{2, {}};
  }

  NpcheckResult result;
  for (const std::string& spec : specs) {
    lint_spec_file(spec, result.sink);
  }
  if (fleet_given) {
    try {
      const FleetLintConfig config = parse_fleet_config(fleet);
      lint_fleet_config(config, "<fleet:" + fleet + ">", result.sink);
    } catch (const Error& e) {
      err << "npcheck: " << e.what() << '\n';
      return NpcheckResult{2, std::move(result.sink)};
    }
  }
  if (!network.empty()) {
    try {
      const Network net = presets::by_name(network);
      lint_network(net, "<network:" + network + ">", result.sink);
      if (!model.empty()) {
        try {
          const CostModelDb db = load_cost_model_file(model);
          lint_cost_model(db, net, model, result.sink);
        } catch (const Error& e) {
          result.sink.error("NP-M000", SourceLoc{model, 0, 0}, e.what(),
                            "the model file does not parse; see "
                            "calib/model_io.hpp for the format");
        }
      }
    } catch (const Error& e) {
      err << "npcheck: " << e.what() << '\n';
      return NpcheckResult{2, std::move(result.sink)};
    }
  }

  if (json) {
    out << result.sink.to_json().dump(2);
  } else {
    out << result.sink.render_text();
  }
  const bool failed =
      !result.sink.clean() || (strict && result.sink.warnings() > 0);
  result.exit_code = failed ? 1 : 0;
  return result;
}

}  // namespace netpart::analysis
