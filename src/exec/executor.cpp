#include "exec/executor.hpp"

#include <algorithm>
#include <map>
#include <optional>
#include <utility>

#include "exec/schedule.hpp"
#include "sim/faults.hpp"
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
  bool done = false;
  SimTime finish;
};

class Runner {
 public:
  Runner(const Network& network, const ComputationSpec& spec,
         const Placement& placement, const PartitionVector& partition,
         const ExecutionOptions& options)
      : network_(network),
        spec_(spec),
        placement_(placement),
        partition_(partition),
        options_(options),
        net_(engine_, network, options.sim_params, Rng(options.seed)),
        jitter_rng_(Rng(options.seed).stream(0xC0FFEE)),
        schedule_(default_schedule(spec)) {
    net_.set_telemetry(options_.telemetry, options_.load_time_origin);
    NP_REQUIRE(!placement_.empty(), "placement must be non-empty");
    NP_REQUIRE(partition_.num_ranks() ==
                   static_cast<int>(placement_.size()),
               "partition vector must align with the placement");
    partition_.validate(spec_.num_pdus());
    tasks_.resize(placement_.size());
    for (std::size_t r = 0; r < tasks_.size(); ++r) {
      tasks_[r].rank = static_cast<GlobalRank>(r);
    }
  }

  ExecutionResult run() {
    if (options_.faults != nullptr && !options_.faults->empty()) {
      injector_.emplace(net_, *options_.faults, options_.load_time_origin);
      injector_->arm();
    }

    // Optional startup scatter: rank 0 distributes every rank's block.
    // Driven one event at a time: with an armed injector, run() would also
    // execute fault events scheduled past the scatter's completion.
    SimTime start = SimTime::zero();
    if (options_.pdu_bytes > 0 && tasks_.size() > 1) {
      int remaining = static_cast<int>(tasks_.size()) - 1;
      for (std::size_t r = 1; r < tasks_.size(); ++r) {
        net_.send(placement_[0], placement_[r],
                  partition_.at(static_cast<int>(r)) * options_.pdu_bytes,
                  [&remaining] { --remaining; });
      }
      while (remaining > 0 && !engine_.idle() &&
             engine_.now() < options_.budget) {
        engine_.step();
      }
      if (remaining != 0) {
        throw ExecutionStalled("startup scatter could not complete (" +
                               std::to_string(remaining) +
                               " transfers undelivered)");
      }
      start = engine_.now();
    }

    for (TaskState& task : tasks_) {
      engine_.schedule_at(start, [this, &task] { advance(task); });
    }
    engine_.run_until(options_.budget);

    ExecutionResult result;
    result.startup = start;
    result.elapsed = SimTime::zero();
    int unfinished = 0;
    for (const TaskState& task : tasks_) {
      if (!task.done) ++unfinished;
    }
    if (unfinished > 0) {
      throw ExecutionStalled(std::to_string(unfinished) +
                             " rank(s) did not finish within the "
                             "execution budget");
    }
    for (const TaskState& task : tasks_) {
      result.rank_finish.push_back(task.finish - start);
      result.elapsed = std::max(result.elapsed, task.finish - start);
    }
    for (const ProcessorRef& ref : placement_) {
      result.rank_busy.push_back(net_.host(ref).total_busy());
    }
    for (const TaskState& task : tasks_) {
      result.rank_compute.push_back(task.compute_time);
    }
    result.iteration_finish = std::move(iteration_finish_);
    for (SimTime& t : result.iteration_finish) t -= start;
    for (SegmentId s = 0; s < network_.num_segments(); ++s) {
      result.segment_busy.push_back(net_.channel(s).total_busy());
    }
    result.messages_delivered = net_.messages_delivered();
    result.retransmissions = net_.retransmissions();
    return result;
  }

 private:
  /// Execute the task's schedule until it blocks or finishes.  Called from
  /// engine events at the task's ready time.
  void advance(TaskState& task) {
    const int p = static_cast<int>(placement_.size());
    while (true) {
      if (task.step == schedule_.size()) {
        task.step = 0;
        record_iteration_done(task.iteration);
        ++task.iteration;
        if (task.iteration == spec_.iterations()) {
          task.done = true;
          task.finish = engine_.now();
          return;
        }
      }
      const Step& step = schedule_[task.step];
      switch (step.kind) {
        case StepKind::Compute: {
          const ComputationPhaseSpec& phase =
              spec_.computation_phases()[step.phase];
          const SimTime duration = compute_duration(task, phase);
          task.compute_time += duration;
          const SimTime end = net_.host(placement_ref(task.rank))
                                  .reserve(engine_.now(), duration);
          ++task.step;
          engine_.schedule_at(end, [this, &task] { advance(task); });
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
            net_.send(placement_ref(task.rank), placement_ref(n), bytes,
                      [this, &receiver, key] { deliver(receiver, key); });
          }
          ++task.step;
          // The asynchronous sends cost initiation time on the host; the
          // task resumes once its own CPU is free again.
          const SimTime ready =
              net_.host(placement_ref(task.rank)).busy_until();
          if (ready > engine_.now()) {
            engine_.schedule_at(ready, [this, &task] { advance(task); });
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

  SimTime compute_duration(TaskState& task,
                           const ComputationPhaseSpec& phase) {
    const ProcessorType& type =
        network_.cluster(placement_ref(task.rank).cluster).type();
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
          placement_ref(task.rank),
          options_.load_time_origin + engine_.now());
    }
    return SimTime::millis(duration_ms);
  }

  ProcessorRef placement_ref(GlobalRank rank) const {
    return placement_[static_cast<std::size_t>(rank)];
  }

  /// Track when the last rank finishes each iteration.
  void record_iteration_done(int iteration) {
    const auto i = static_cast<std::size_t>(iteration);
    if (iteration_done_.size() <= i) {
      iteration_done_.resize(i + 1, 0);
      iteration_finish_.resize(i + 1, SimTime::zero());
    }
    if (++iteration_done_[i] == static_cast<int>(tasks_.size())) {
      iteration_finish_[i] = engine_.now();
    }
  }

  const Network& network_;
  const ComputationSpec& spec_;
  const Placement& placement_;
  const PartitionVector& partition_;
  ExecutionOptions options_;
  sim::Engine engine_;
  sim::NetSim net_;
  std::optional<sim::FaultInjector> injector_;
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
