#ifndef FSJOIN_MR_TASK_H_
#define FSJOIN_MR_TASK_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "mr/job.h"
#include "mr/kv.h"
#include "mr/metrics.h"
#include "util/status.h"

namespace fsjoin::mr {

/// The serializable task layer: one engine/flow stage becomes a set of
/// TaskSpec descriptors that a TaskRunner (mr/runner.h) executes and a
/// TaskScheduler (mr/scheduler.h) retries. A spec carries only data — job
/// stage, partition range, input run files, output paths — so it can cross
/// a process boundary; user map/reduce logic is resolved on the far side by
/// a registered task-factory name (closures cannot be serialized).

enum class TaskKind : uint32_t {
  kMap = 0,
  kReduce = 1,
};

const char* TaskKindName(TaskKind kind);

/// One remote map output a reduce task pulls over the network shuffle:
/// the worker holding `endpoint` retained (job, map_task)'s sorted
/// partitions and serves them over its shuffle port (net/frame.h).
struct ShuffleSource {
  std::string job;
  uint32_t map_task = 0;
  /// "host:port" of the holder's shuffle server. The cluster runner fills
  /// this from its location table at dispatch time; the engine leaves it
  /// empty.
  std::string endpoint;
};

/// Serde-encoded descriptor of one task attempt. Everything a worker
/// process needs to re-execute the task lives here; in-process runners
/// additionally receive the stage's TaskBody closure, which may capture
/// state a subprocess would instead reach through `factory`/`input_runs`.
struct TaskSpec {
  /// Job (engine backend) or pipeline stage (flow backend) this task
  /// belongs to; used for diagnostics and output naming only.
  std::string job_name;
  TaskKind kind = TaskKind::kMap;
  /// Task index within its stage: map split number or reduce partition.
  uint32_t task_index = 0;
  /// Reduce partition count of the stage (map tasks route emits by it).
  uint32_t num_partitions = 1;
  /// Map tasks: half-open record range of the stage input this task owns.
  uint64_t input_begin = 0;
  uint64_t input_end = 0;
  /// Input run files (store/run_file.h format). Reduce tasks under an
  /// isolated runner read and merge these; map tasks in --worker-task mode
  /// read their input split from them.
  std::vector<std::string> input_runs;
  /// Path prefix for this task's interchange files. The runner appends
  /// "-a<attempt>" plus ".spec"/".dat"/".res"/".err" suffixes.
  std::string output_base;
  /// Registered task-factory name (empty = closure-only task: runnable
  /// in-process or in a forked child, but not via binary re-exec).
  std::string factory;
  /// Opaque parameter bytes handed to the factory on the worker side
  /// (null = empty). Shared, not copied: every map task of a stage carries
  /// the same payload — the filtering job's holds the whole token ordering
  /// — so the per-task specs and the copies runners keep must not multiply
  /// it. Reduce tasks share the job's reduce payload, which leaves out
  /// what reducers never read (JobConfig::reduce_task_payload).
  std::shared_ptr<const std::string> payload;
  /// Zero-based attempt number, assigned by the scheduler.
  uint32_t attempt = 0;
  /// Map tasks under a distributed runner: keep the sorted per-partition
  /// output resident on the executing worker (served via its shuffle port)
  /// instead of shipping it back; the result then carries only
  /// TaskOutput::partition_stats.
  bool retain_shuffle = false;
  /// Reduce tasks under a distributed runner: the retained map outputs to
  /// pull and merge, in map-task order (the loser tree's source-index
  /// tie-break makes that order part of the result's byte identity).
  std::vector<ShuffleSource> shuffle_sources;

  /// The payload bytes; empty when `payload` is null.
  const std::string& payload_bytes() const;

  void EncodeTo(std::string* dst) const;
  static Result<TaskSpec> Decode(std::string_view data);
};

/// Record/byte counts of one retained shuffle partition.
struct PartitionStat {
  uint64_t records = 0;
  uint64_t bytes = 0;
};

/// Everything one task attempt produces. Exactly one of the data members
/// is populated, by stage type: `partitions` for engine map tasks (one
/// KvBuffer per reduce partition), `buckets` for flow map tasks (one
/// Dataset per destination), `records` for reduce tasks.
struct TaskOutput {
  std::vector<KvBuffer> partitions;
  std::vector<Dataset> buckets;
  Dataset records;
  TaskMetrics metrics;
  /// Captured side-state bytes — TaskSideChannel::capture in a forked
  /// child, TaskFactories::capture in a worker process; merged into the
  /// parent's shared context exactly once by the scheduler.
  std::string side_state;
  /// Map tasks with TaskSpec::retain_shuffle: per-reduce-partition record
  /// and byte counts of the retained output (the data itself stayed on the
  /// worker). Size == num_partitions when set.
  std::vector<PartitionStat> partition_stats;
  /// "host:port" of the shuffle server holding this task's retained
  /// output; filled by the cluster runner from the executing worker.
  std::string shuffle_endpoint;
};

/// The work of one task, shared by every runner: in-process runners call it
/// directly, the subprocess runner calls it in a forked child or re-execed
/// worker. Must be safe to invoke multiple times with the same spec (the
/// scheduler re-runs failed tasks).
using TaskBody = std::function<Status(const TaskSpec&, TaskOutput*)>;

/// User-logic bundle a task-factory name resolves to.
struct TaskFactories {
  MapperFactory mapper;
  ReducerFactory reducer;
  std::shared_ptr<const Partitioner> partitioner;  ///< null = HashPartitioner
  /// Optional: serializes the side state the task's operators accumulated
  /// in the factory's own context — the same bytes the job's
  /// TaskSideChannel::capture produces in a forked child. Worker processes
  /// (--worker-task and --worker-serve) call it once after a successful
  /// task body and ship the bytes in TaskOutput::side_state, which the
  /// coordinator's scheduler merges exactly once per logical task. Null
  /// for jobs without shared mutable context.
  std::function<std::string()> capture;
};

using TaskFactoryFn =
    std::function<Result<TaskFactories>(const std::string& payload)>;

/// Registers `name` in the process-wide task-factory registry (typically
/// from a namespace-scope initializer). Returns false if the name is
/// already taken. A job whose JobConfig::task_factory names a registered
/// factory can run its tasks via binary re-exec (--worker-task mode).
bool RegisterTaskFactory(const std::string& name, TaskFactoryFn fn);
bool HasTaskFactory(const std::string& name);
Result<TaskFactories> ResolveTaskFactory(const std::string& name,
                                         const std::string& payload);

/// Runs one map task over `input[0..count)`: Setup, record-at-a-time Map,
/// Finish — exactly the seed engine's map task — leaving
/// per-reduce-partition arenas in out->partitions and the task counters in
/// out->metrics.
Status ExecuteMapTask(const TaskSpec& spec, const TaskFactories& factories,
                      const KeyValue* input, size_t count, TaskOutput* out);

/// Runs one reduce task whose input lives entirely in spec.input_runs:
/// streams a loser-tree merge of the runs through the reducer (identical
/// grouping to the in-memory path). Zero runs still runs Setup/Finish —
/// Finish may emit.
Status ExecuteReduceTaskFromRuns(const TaskSpec& spec,
                                 const TaskFactories& factories,
                                 TaskOutput* out);

/// Writes a task's results as interchange files under `base`:
///   base.dat — every record of every group, in order, as one CRC32C-framed
///              run file (store/run_file.h);
///   base.res — a one-record run file whose value encodes the group shape,
///              per-group record counts, TaskMetrics and side-channel bytes.
/// Both files are covered by frame CRCs and a checksummed footer, so a
/// child that dies mid-write is detected as corruption, not read as truth.
Status WriteTaskOutputFiles(const std::string& base, const TaskOutput& out);

/// Reads files written by WriteTaskOutputFiles, rebuilding the groups in
/// order. Any corruption class detectable by RunReader surfaces here.
Status ReadTaskOutputFiles(const std::string& base, TaskOutput* out);

/// Encodes a whole TaskOutput as one serde byte string for socket
/// transport (net/frame.h kTaskResult payload) — the wire sibling of
/// WriteTaskOutputFiles, minus the file indirection. Retained-shuffle map
/// results encode only partition_stats + shuffle_endpoint, not the data.
void EncodeTaskOutputWire(const TaskOutput& out, std::string* dst);

/// Decodes EncodeTaskOutputWire bytes; trailing bytes are Corruption.
Status DecodeTaskOutputWire(std::string_view data, TaskOutput* out);

/// Persists/loads a task attempt's terminal Status (base.err) so a worker
/// exit can carry a real error message across the process boundary. The
/// reader's return value reports whether *error was decoded, not whether
/// the task succeeded (it never did — the file only exists on failure).
Status WriteTaskError(const std::string& base, const Status& error);
Status ReadTaskError(const std::string& base, Status* error);

/// Emitter materializing records into a flat dataset (reduce output).
class VectorEmitter : public Emitter {
 public:
  explicit VectorEmitter(Dataset* out) : out_(out) {}

  void Emit(std::string_view key, std::string_view value) override {
    records_ += 1;
    bytes_ += key.size() + value.size();
    out_->push_back(KeyValue{std::string(key), std::string(value)});
  }

  uint64_t records() const { return records_; }
  uint64_t bytes() const { return bytes_; }

 private:
  Dataset* out_;
  uint64_t records_ = 0;
  uint64_t bytes_ = 0;
};

}  // namespace fsjoin::mr

#endif  // FSJOIN_MR_TASK_H_
