// FNV-1a over the raw bytes of numeric result vectors, so a test can pin a
// distributed run's numerics bit for bit with one constant.
#pragma once

#include <cstdint>

#include "util/hash.hpp"

namespace netpart {

template <typename... Vectors>
std::uint64_t byte_hash(const Vectors&... vectors) {
  Fnv1a h;
  (h.bytes(vectors.data(), vectors.size() * sizeof(vectors[0])), ...);
  return h.value();
}

}  // namespace netpart
