#ifndef FSJOIN_MR_METRICS_H_
#define FSJOIN_MR_METRICS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace fsjoin::mr {

/// Where a task attempt ran, as recorded by the runner that ran it.
enum class TaskTransport : uint8_t {
  kInProcess = 0,  ///< inline or thread-pool runner
  kFork = 1,       ///< forked child running the stage's closure
  kExec = 2,       ///< re-execed --worker-task process (factory-named job)
  kRemote = 3,     ///< cluster worker, over the network shuffle
};

/// Per-task cost record, the input to the cluster makespan simulator.
struct TaskMetrics {
  int64_t wall_micros = 0;        ///< measured CPU/wall time of the task body
  uint64_t input_records = 0;
  uint64_t input_bytes = 0;
  uint64_t output_records = 0;
  uint64_t output_bytes = 0;
  /// Reduce tasks only: size of the largest single key group — the working
  /// set a reducer must hold to process one group (an FS-Join fragment).
  /// Drives the cluster simulator's memory/spill model.
  uint64_t max_group_bytes = 0;
  /// Reduce tasks only: key+value bytes this task's shard wrote to spill
  /// run files (0 when the shuffle stayed in memory), and how many runs.
  /// Measured, not inferred; the cluster simulator prefers these over its
  /// max_group_bytes heuristic when present.
  uint64_t spilled_bytes = 0;
  uint32_t spill_runs = 0;
  /// Reduce tasks over the network shuffle only: connections this task
  /// dialed to fetch its input. Fetch connections are pooled per worker,
  /// so this is 0 once the worker holds one to every shuffle server.
  uint32_t shuffle_connects = 0;
  /// Execution attempts of this logical task (1 = ran clean; > 1 means the
  /// scheduler re-executed failed attempts). The counters above describe
  /// the final, successful attempt only — the scheduler merges metrics
  /// exactly once per logical task, so retries never double-count. The
  /// cluster simulator charges per-task overhead once per attempt.
  uint32_t attempts = 1;
  /// How the final, successful attempt ran. Set by the runner in this
  /// process after the attempt, so it is not part of the task-output
  /// codec.
  TaskTransport transport = TaskTransport::kInProcess;
};

/// Everything the engine measures about one MapReduce job. These counters
/// are the ground truth behind the reproduced tables/figures: duplicate
/// ratios, shuffle volume, per-reducer skew and phase times all come from
/// here.
struct JobMetrics {
  std::string job_name;
  /// Resolved overlap-kernel pipeline of the job's reducers (filtering job
  /// only, e.g. "simd[avx2]"; empty for jobs that run no fragment joins).
  /// Logged so A/B benchmark runs are self-describing.
  std::string join_kernel;

  uint64_t map_input_records = 0;
  uint64_t map_input_bytes = 0;
  uint64_t map_output_records = 0;
  uint64_t map_output_bytes = 0;

  uint64_t shuffle_records = 0;
  uint64_t shuffle_bytes = 0;
  /// Key+value bytes spilled to disk during the shuffle (sum over reduce
  /// tasks; 0 when everything fit in the shuffle memory budget) and the
  /// number of run files written.
  uint64_t spilled_bytes = 0;
  uint32_t spill_runs = 0;
  /// Network shuffle only: connections the reduce tasks dialed to fetch
  /// their input (sum over reduce tasks, final attempts).
  uint64_t shuffle_connects = 0;

  uint64_t reduce_output_records = 0;
  uint64_t reduce_output_bytes = 0;

  std::vector<TaskMetrics> map_tasks;
  std::vector<TaskMetrics> reduce_tasks;

  int64_t map_wall_micros = 0;     ///< sum over map tasks
  int64_t reduce_wall_micros = 0;  ///< sum over reduce tasks
  int64_t total_wall_micros = 0;   ///< end-to-end engine time

  /// Records shuffled per input record: > 1 means the algorithm duplicates
  /// data (the paper's central critique of signature-based joins).
  double DuplicationFactor() const;

  /// max / mean of per-reduce-task input bytes; 1.0 = perfectly balanced.
  double ReduceSkew() const;

  /// Multi-line human-readable summary.
  std::string Summary() const;
};

/// Aggregates the counters of several chained jobs (phase times add up,
/// shuffle volumes add up; task vectors are concatenated).
JobMetrics CombineJobMetrics(const std::vector<JobMetrics>& jobs,
                             const std::string& name);

}  // namespace fsjoin::mr

#endif  // FSJOIN_MR_METRICS_H_
