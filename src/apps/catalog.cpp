#include "apps/catalog.hpp"

#include "apps/gauss.hpp"
#include "apps/particles.hpp"
#include "apps/reduce.hpp"
#include "apps/stencil.hpp"
#include "util/error.hpp"

namespace netpart::apps {

ComputationSpec spec_by_name(const std::string& app, int n, int iterations) {
  if (app == "stencil" || app == "sten2") {
    return make_stencil_spec(StencilConfig{
        .n = n, .iterations = iterations, .overlap = app == "sten2"});
  }
  if (app == "gauss") return make_gauss_spec(GaussConfig{.n = n});
  if (app == "particles") {
    return make_particle_spec(
        ParticleConfig{.count = n, .iterations = iterations});
  }
  if (app == "reduce") {
    return make_reduce_spec(ReduceConfig{.count = n, .iterations = iterations});
  }
  throw ConfigError("unknown app: " + app);
}

}  // namespace netpart::apps
