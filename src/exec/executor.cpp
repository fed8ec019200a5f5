#include "exec/executor.hpp"

#include <algorithm>
#include <map>
#include <utility>

#include "exec/schedule.hpp"
#include "util/error.hpp"
#include "util/stats.hpp"

namespace netpart {

namespace {

struct TaskState {
  GlobalRank rank = 0;
  std::size_t step = 0;
  int iteration = 0;
  SimTime compute_time;  ///< accumulated computation-phase time
  /// Messages arrived per (communication phase, iteration), not yet
  /// consumed by a Receive step.
  std::map<std::pair<std::size_t, int>, int> arrived;
  bool waiting = false;
  std::pair<std::size_t, int> wait_key{0, 0};
  int wait_needed = 0;
  SimTime finish;
};

/// The schedule interpreter: steps, compute durations with jitter and
/// load, delivery counts and iteration bookkeeping.  The run itself --
/// engine, simulator, fault arming, scatter drain, budget -- is the
/// runtime's.
class Runner {
 public:
  Runner(const Network& network, const ComputationSpec& spec,
         const Placement& placement, const PartitionVector& partition,
         const ExecutionOptions& options)
      : network_(network),
        spec_(spec),
        partition_(partition),
        options_(options),
        rt_(network, placement, options.sim_params, Rng(options.seed),
            options.faults, options.load_time_origin, options.telemetry),
        jitter_rng_(Rng(options.seed).stream(0xC0FFEE)),
        schedule_(default_schedule(spec)) {
    NP_REQUIRE(partition_.num_ranks() == rt_.ranks(),
               "partition vector must align with the placement");
    partition_.validate(spec_.num_pdus());
    tasks_.resize(placement.size());
    for (std::size_t r = 0; r < tasks_.size(); ++r) {
      tasks_[r].rank = static_cast<GlobalRank>(r);
    }
  }

  ExecutionResult run() {
    // Optional startup scatter: rank 0 distributes every rank's block.
    SimTime start = SimTime::zero();
    if (options_.pdu_bytes > 0 && rt_.ranks() > 1) {
      for (int r = 1; r < rt_.ranks(); ++r) {
        rt_.transfer(0, r, partition_.at(r) * options_.pdu_bytes);
      }
      start = rt_.drain_transfers(options_.budget, "startup scatter");
    }
    const SimTime end = rt_.run(
        [this](int rank) { advance(tasks_[static_cast<std::size_t>(rank)]); },
        options_.budget);

    ExecutionResult result;
    result.startup = start;
    result.elapsed = end - start;
    for (int r = 0; r < rt_.ranks(); ++r) {
      const TaskState& task = tasks_[static_cast<std::size_t>(r)];
      result.rank_finish.push_back(task.finish - start);
      result.rank_busy.push_back(rt_.host_busy(r));
      result.rank_compute.push_back(task.compute_time);
    }
    result.iteration_finish = std::move(iteration_finish_);
    for (SimTime& t : result.iteration_finish) t -= start;
    for (SegmentId s = 0; s < network_.num_segments(); ++s) {
      result.segment_busy.push_back(rt_.channel_busy(s));
    }
    result.messages_delivered = rt_.messages_delivered();
    result.retransmissions = rt_.retransmissions();
    return result;
  }

 private:
  /// Execute the task's schedule until it blocks or finishes.  Called from
  /// engine events at the task's ready time.
  void advance(TaskState& task) {
    const int p = rt_.ranks();
    while (true) {
      if (task.step == schedule_.size()) {
        task.step = 0;
        record_iteration_done(task.iteration);
        ++task.iteration;
        if (task.iteration == spec_.iterations()) {
          task.finish = rt_.now();
          rt_.finish();
          return;
        }
      }
      const Step& step = schedule_[task.step];
      switch (step.kind) {
        case StepKind::Compute: {
          const ComputationPhaseSpec& phase =
              spec_.computation_phases()[step.phase];
          const double duration_ms = compute_ms(task, phase);
          task.compute_time += SimTime::millis(duration_ms);
          ++task.step;
          rt_.compute(task.rank, duration_ms, [this, &task] { advance(task); });
          return;
        }
        case StepKind::Send: {
          const CommunicationPhaseSpec& phase =
              spec_.communication_phases()[step.phase];
          const std::int64_t bytes =
              phase.bytes_per_message(partition_.at(task.rank));
          const auto key = std::make_pair(step.phase, task.iteration);
          for (GlobalRank n :
               send_neighbors(phase.topology(), task.rank, p)) {
            TaskState& receiver = tasks_[static_cast<std::size_t>(n)];
            rt_.transfer(task.rank, n, bytes,
                         [this, &receiver, key] { deliver(receiver, key); });
          }
          ++task.step;
          // The asynchronous sends cost initiation time on the host; the
          // task resumes once its own CPU is free again, inline if it
          // already is.
          if (rt_.busy_until(task.rank) > rt_.now()) {
            rt_.after_sends(task.rank, [this, &task] { advance(task); });
            return;
          }
          break;
        }
        case StepKind::Receive: {
          const CommunicationPhaseSpec& phase =
              spec_.communication_phases()[step.phase];
          const int needed = static_cast<int>(
              recv_neighbors(phase.topology(), task.rank, p).size());
          const auto key = std::make_pair(step.phase, task.iteration);
          const auto it = task.arrived.find(key);
          const int have = it == task.arrived.end() ? 0 : it->second;
          if (have >= needed) {
            if (it != task.arrived.end()) task.arrived.erase(it);
            ++task.step;
            break;
          }
          task.waiting = true;
          task.wait_key = key;
          task.wait_needed = needed;
          return;
        }
      }
    }
  }

  void deliver(TaskState& receiver, std::pair<std::size_t, int> key) {
    const int have = ++receiver.arrived[key];
    if (receiver.waiting && receiver.wait_key == key &&
        have >= receiver.wait_needed) {
      receiver.waiting = false;
      receiver.arrived.erase(key);
      ++receiver.step;
      advance(receiver);
    }
  }

  double compute_ms(TaskState& task, const ComputationPhaseSpec& phase) {
    const ProcessorType& type =
        network_.cluster(rt_.proc(task.rank).cluster).type();
    const SimTime per_op = phase.op_kind == OpKind::FloatingPoint
                               ? type.flop_time
                               : type.int_time;
    double duration_ms = per_op.as_millis() * phase.ops_per_pdu() *
                         static_cast<double>(partition_.at(task.rank));
    if (options_.compute_jitter > 0.0) {
      const double factor =
          1.0 + jitter_rng_.next_gaussian(options_.compute_jitter);
      duration_ms *= std::max(0.5, factor);
    }
    if (options_.load != nullptr) {
      // CPU sharing with background users: a loaded processor delivers a
      // (1 - load) fraction of its cycles to the task.
      duration_ms *= options_.load->slowdown(
          rt_.proc(task.rank), options_.load_time_origin + rt_.now());
    }
    return duration_ms;
  }

  /// Track when the last rank finishes each iteration.
  void record_iteration_done(int iteration) {
    const auto i = static_cast<std::size_t>(iteration);
    if (iteration_done_.size() <= i) {
      iteration_done_.resize(i + 1, 0);
      iteration_finish_.resize(i + 1, SimTime::zero());
    }
    if (++iteration_done_[i] == static_cast<int>(tasks_.size())) {
      iteration_finish_[i] = rt_.now();
    }
  }

  const Network& network_;
  const ComputationSpec& spec_;
  const PartitionVector& partition_;
  ExecutionOptions options_;
  SpmdRuntime rt_;
  Rng jitter_rng_;
  std::vector<Step> schedule_;
  std::vector<TaskState> tasks_;
  std::vector<int> iteration_done_;
  std::vector<SimTime> iteration_finish_;
};

}  // namespace

ExecutionResult execute(const Network& network, const ComputationSpec& spec,
                        const Placement& placement,
                        const PartitionVector& partition,
                        const ExecutionOptions& options) {
  Runner runner(network, spec, placement, partition, options);
  return runner.run();
}

double average_elapsed_ms(const Network& network, const ComputationSpec& spec,
                          const Placement& placement,
                          const PartitionVector& partition,
                          const ExecutionOptions& options, int runs) {
  NP_REQUIRE(runs >= 1, "need at least one run");
  RunningStats stats;
  for (int r = 0; r < runs; ++r) {
    ExecutionOptions opts = options;
    opts.seed = options.seed + static_cast<std::uint64_t>(r);
    stats.add(execute(network, spec, placement, partition, opts)
                  .elapsed.as_millis());
  }
  return stats.mean();
}

}  // namespace netpart
