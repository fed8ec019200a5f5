// Span identity and cross-hop propagation (see DESIGN.md §13).
//
// A TraceContext names one span globally: `trace_id` groups every span a
// single logical request produced (across fleet nodes too), `span_id`
// names this span, `parent_span_id` links it to the span that caused it
// (0 = root).  Contexts travel two ways:
//
//   * within a thread -- obs::Span pushes its context on a thread-local
//     stack; a nested Span becomes its child automatically.
//   * across nodes -- a fleet hop carries its context in the wire encoding
//     (fleet/wire.hpp), and the receiving node derives its spans' contexts
//     from it (FleetNode::child_of).
//
// Identity is deterministic: ids come from a TraceIdGenerator, a seeded
// SplitMix64 counter stream.  Same seed, same allocation order, same ids --
// sim runs stay replayable and the merged fleet exports golden-testable.
// Zero is reserved as "no id": a context with trace_id 0 is invalid.
#pragma once

#include <atomic>
#include <cstdint>

namespace netpart::obs {

struct TraceContext {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_span_id = 0;

  bool valid() const { return trace_id != 0; }

  friend bool operator==(const TraceContext& a, const TraceContext& b) {
    return a.trace_id == b.trace_id && a.span_id == b.span_id &&
           a.parent_span_id == b.parent_span_id;
  }
};

/// Deterministic id source: the i-th call returns
/// splitmix64(base + i * gamma) where `base` is derived from (seed,
/// stream).  Distinct streams (one per fleet node) give disjoint-looking
/// id sequences from one seed.  Thread-safe (one relaxed fetch_add per
/// id); never returns 0.
class TraceIdGenerator {
 public:
  explicit TraceIdGenerator(std::uint64_t seed = 1, std::uint64_t stream = 0) {
    reset(seed, stream);
  }

  /// Re-seed; the next id restarts the (seed, stream) sequence.
  void reset(std::uint64_t seed, std::uint64_t stream = 0);

  std::uint64_t next();

 private:
  std::uint64_t base_ = 0;
  std::atomic<std::uint64_t> sequence_{0};
};

/// This thread's innermost active context (invalid when no span is open).
/// New spans become its children.
TraceContext current_context();

namespace detail {
/// Raw stack access for obs::Span (push on open, pop on finish).
void push_context(const TraceContext& ctx);
void pop_context();
}  // namespace detail

}  // namespace netpart::obs
