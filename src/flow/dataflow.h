#ifndef FSJOIN_FLOW_DATAFLOW_H_
#define FSJOIN_FLOW_DATAFLOW_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "mr/job.h"
#include "mr/kv.h"
#include "mr/runner.h"
#include "util/status.h"

namespace fsjoin::flow {

/// A Spark-style dataflow executor — the paper's §VII future work ("other
/// Big Data platforms, like Spark") built as a second execution substrate.
///
/// Differences from the Hadoop-style mr::Engine:
///  * consecutive narrow stages (FlatMap) are *fused*: records stream
///    through the whole chain in one pass with no materialization, sort or
///    scheduling barrier between them;
///  * only wide stages (GroupByKey) shuffle, and their outputs stay
///    partitioned in memory for the next chain instead of being written to
///    a DFS and re-split;
///  * one pipeline = one "job": per-stage scheduling overhead is paid once
///    per shuffle, not once per MapReduce job.
///
/// The stage interfaces reuse mr::Mapper / mr::Reducer, so every FS-Join
/// and baseline operator runs unchanged on either engine.
///
/// Usage:
///   Pipeline p("fsjoin", /*threads=*/0, /*partitions=*/30);
///   p.FlatMap("split", mapper_factory)
///    .GroupByKey("join", reducer_factory, partitioner)
///    .GroupByKey("verify", verify_factory);
///   FSJOIN_ASSIGN_OR_RETURN(mr::Dataset out, p.Run(input, &metrics));
class Pipeline {
 public:
  /// \param num_threads    workers for running partitions (0 = inline)
  /// \param num_partitions parallelism of every stage
  Pipeline(std::string name, size_t num_threads, uint32_t num_partitions);

  Pipeline(const Pipeline&) = delete;
  Pipeline& operator=(const Pipeline&) = delete;

  /// Appends a narrow stage; fused with any directly preceding narrow
  /// stages. One mapper instance per partition per run.
  Pipeline& FlatMap(std::string stage_name, mr::MapperFactory factory);

  /// Appends a wide stage: hash-shuffle by key (default HashPartitioner),
  /// sort-group within each partition, apply the reducer. `side` is the
  /// stage's fork-boundary side channel (mr/job.h): when the pipeline runs
  /// on an isolated runner, reducer mutations of shared driver context
  /// cross back via reset/capture/merge.
  Pipeline& GroupByKey(
      std::string stage_name, mr::ReducerFactory factory,
      std::shared_ptr<const mr::Partitioner> partitioner = nullptr,
      mr::TaskSideChannel side = {});

  /// Routes every pass's tasks through `runner` (not owned, must outlive
  /// the pipeline) with `task_retries` re-executions per failed task when
  /// the runner is retryable. Default: an owned thread-pool runner over
  /// the constructor's `num_threads`, no retries — the seed behavior.
  Pipeline& SetRunner(mr::TaskRunner* runner, int task_retries);

  /// External-shuffle knobs (off by default: shuffles stay in memory).
  struct SpillOptions {
    /// Cap on buffered shuffle bucket bytes per Run (0 = unlimited). The
    /// budget chains to store::ProcessMemoryBudget(); when a bucket's
    /// charge trips, that bucket is sorted and written to a run file and
    /// the reduce side streams a merge of runs and surviving in-memory
    /// buckets. Results are byte-identical to the in-memory path (which
    /// bucket spills under concurrency is timing-dependent; the output is
    /// not).
    uint64_t memory_bytes = 0;
    /// Base directory for spill runs; each Run creates and removes its own
    /// unique subdirectory. Empty = system temp directory.
    std::string dir;
  };
  Pipeline& SetSpill(SpillOptions options);

  /// Executes the pipeline over `input`.
  Result<mr::Dataset> Run(const mr::Dataset& input);

  /// Per-wide-stage counters: what crossed this stage's shuffle boundary
  /// and what its reducers produced. One entry per GroupByKey, in stage
  /// order — the fused analogue of one MR job's counters, letting callers
  /// line the fused execution up against a per-job MapReduce history.
  struct WideStageMetrics {
    std::string name;
    uint64_t input_records = 0;  ///< records entering the fused chain
    uint64_t input_bytes = 0;
    uint64_t shuffle_records = 0;
    uint64_t shuffle_bytes = 0;
    uint64_t spilled_bytes = 0;  ///< bucket bytes written to run files
    uint32_t spill_runs = 0;     ///< run files written for this stage
    uint64_t output_records = 0;  ///< reducer output
    uint64_t output_bytes = 0;
  };

  /// Execution counters of the last Run().
  struct Metrics {
    uint64_t input_records = 0;
    uint64_t output_records = 0;
    uint64_t shuffle_records = 0;  ///< records crossing wide boundaries
    uint64_t shuffle_bytes = 0;
    uint64_t spilled_bytes = 0;  ///< shuffle bytes that went through disk
    uint32_t spill_runs = 0;     ///< spill run files written
    uint32_t num_shuffles = 0;
    /// Bytes materialized between stages — the quantity fusion eliminates
    /// relative to the MR engine (which materializes every job's output).
    uint64_t materialized_bytes = 0;
    int64_t wall_micros = 0;
    std::vector<WideStageMetrics> wide_stages;
  };
  const Metrics& metrics() const { return metrics_; }

  const std::string& name() const { return name_; }

 private:
  struct Stage {
    bool wide = false;
    std::string name;
    mr::MapperFactory mapper;
    mr::ReducerFactory reducer;
    std::shared_ptr<const mr::Partitioner> partitioner;
    mr::TaskSideChannel side;
  };

  std::string name_;
  uint32_t num_partitions_;
  std::unique_ptr<mr::TaskRunner> owned_runner_;
  mr::TaskRunner* runner_ = nullptr;
  int task_retries_ = 0;
  std::vector<Stage> stages_;
  SpillOptions spill_;
  Metrics metrics_;
};

}  // namespace fsjoin::flow

#endif  // FSJOIN_FLOW_DATAFLOW_H_
