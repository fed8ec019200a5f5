// The functional applications by name, as the command-line drivers and
// the partition service's resolver name them.
#pragma once

#include <string>

#include "dp/phases.hpp"

namespace netpart::apps {

/// stencil (STEN-1), sten2 (STEN-2), gauss, particles or reduce at problem
/// size `n` over `iterations` (gauss runs n); else throws ConfigError.
ComputationSpec spec_by_name(const std::string& app, int n, int iterations);

}  // namespace netpart::apps
