#ifndef FSJOIN_MR_JOB_H_
#define FSJOIN_MR_JOB_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "mr/kv.h"
#include "util/hash.h"
#include "util/status.h"

namespace fsjoin::mr {

/// Sink for key/value pairs produced by a mapper or reducer. The engine's
/// emitters append the bytes into an arena (mr/kv.h), so callers may pass
/// views of transient buffers; the bytes are copied out during the call.
class Emitter {
 public:
  virtual ~Emitter() = default;
  virtual void Emit(std::string_view key, std::string_view value) = 0;
};

/// Hadoop-style map task: invoked once per input record of the task's
/// split. Implementations must be independent per instance — the engine
/// creates one mapper per map task, possibly on different threads.
class Mapper {
 public:
  virtual ~Mapper() = default;

  /// Called once before the first Map of a task (the paper's `setup`).
  virtual Status Setup() { return Status::OK(); }

  /// Transforms one input record into zero or more output pairs.
  virtual Status Map(const KeyValue& record, Emitter* out) = 0;

  /// Called after the last Map of a task (may emit trailing pairs).
  virtual Status Finish(Emitter* /*out*/) { return Status::OK(); }
};

/// The values of one key group: non-owning views into the engine's shuffle
/// arena, valid only for the duration of the Reduce call. A reducer that
/// needs a value beyond the call must copy it explicitly.
using ValueList = std::span<const std::string_view>;

/// Hadoop-style reduce task: invoked once per distinct key with every value
/// shuffled for it. Key and values are windows over the sorted shuffle
/// arena — grouping performs no per-value copies.
class Reducer {
 public:
  virtual ~Reducer() = default;

  virtual Status Setup() { return Status::OK(); }

  virtual Status Reduce(std::string_view key, ValueList values,
                        Emitter* out) = 0;

  virtual Status Finish(Emitter* /*out*/) { return Status::OK(); }
};

/// Routes keys to reduce partitions.
class Partitioner {
 public:
  virtual ~Partitioner() = default;
  virtual uint32_t Partition(std::string_view key,
                             uint32_t num_partitions) const = 0;
};

/// Default partitioner: stable byte hash of the whole key.
class HashPartitioner : public Partitioner {
 public:
  uint32_t Partition(std::string_view key,
                     uint32_t num_partitions) const override {
    return static_cast<uint32_t>(Fnv1a64(key) % num_partitions);
  }
};

/// Partitioner for keys that *are* a big-endian partition id prefix (the
/// FS-Join fragment jobs): partition = first 4 bytes mod num_partitions.
/// Falls back to hashing for short keys.
class PrefixIdPartitioner : public Partitioner {
 public:
  uint32_t Partition(std::string_view key,
                     uint32_t num_partitions) const override;
};

using MapperFactory = std::function<std::unique_ptr<Mapper>()>;
using ReducerFactory = std::function<std::unique_ptr<Reducer>()>;

/// Bridge for shared mutable job state (filter counters, candidate counts)
/// across the subprocess runner's fork boundary. A forked child inherits a
/// copy-on-write snapshot of the job's context objects; without help its
/// mutations die with it. A stage that mutates shared context provides:
///   reset   — child, right after fork: zero the inherited counters (they
///             were already merged in the parent) and drop resources whose
///             threads did not survive the fork (e.g. a morsel ThreadPool).
///   capture — child, after the task body: serialize the deltas this task
///             produced into opaque bytes shipped back with the output.
///   merge   — parent, exactly once per logical task (the scheduler's
///             metrics-merge rule): fold the captured bytes into the live
///             context. Retried attempts are merged once, never per try.
/// In-process runners ignore the channel — reducers mutate the shared
/// context directly, as in the seed engine. Tasks of factory-named jobs
/// that run in worker processes capture through TaskFactories::capture
/// (mr/task.h) in the same byte format, so `merge` serves both.
struct TaskSideChannel {
  std::function<void()> reset;
  std::function<std::string()> capture;
  std::function<Status(const std::string&)> merge;
};

/// Static description of one MapReduce job.
struct JobConfig {
  std::string name = "job";
  /// Number of map tasks the input is split into (Hadoop: one per block).
  uint32_t num_map_tasks = 4;
  /// Number of reduce tasks == shuffle partitions (paper: 3 * #nodes).
  uint32_t num_reduce_tasks = 4;
  MapperFactory mapper_factory;
  ReducerFactory reducer_factory;
  /// Key router; HashPartitioner when null.
  std::shared_ptr<const Partitioner> partitioner;
  /// Fork-boundary bridge for shared mutable context (see above). Empty
  /// members are simply skipped — stateless jobs leave this default.
  TaskSideChannel side;
  /// Registered task-factory name (mr/task.h) that rebuilds this job's
  /// mapper/reducer/partitioner in another process. Empty = the
  /// job's logic captures driver state and tasks cannot be re-execed; the
  /// subprocess runner then uses fork-only isolation.
  std::string task_factory;
  /// Opaque parameter bytes for the task factory.
  std::string task_payload;
  /// The factory bytes of reduce tasks, when they need less than the map
  /// tasks do (the filtering reducers never read the ordering, which makes
  /// up almost all of that job's payload); unset = task_payload.
  std::optional<std::string> reduce_task_payload;
};

}  // namespace fsjoin::mr

#endif  // FSJOIN_MR_JOB_H_
