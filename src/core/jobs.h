#ifndef FSJOIN_CORE_JOBS_H_
#define FSJOIN_CORE_JOBS_H_

#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "core/filters.h"
#include "core/fragment_join.h"
#include "core/fsjoin_config.h"
#include "core/horizontal.h"
#include "mr/job.h"
#include "mr/kv.h"
#include "sim/global_order.h"
#include "sim/join_result.h"
#include "text/corpus.h"
#include "tune/decision.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace fsjoin {

namespace exec {
class ExecutionBackend;
}  // namespace exec

/// ---- Corpus <-> MR dataset ------------------------------------------
/// Input records: key = Fixed32BE(rid), value = varint-coded token vector.

/// Serializes a corpus into the engine's input dataset.
mr::Dataset MakeCorpusDataset(const Corpus& corpus);

/// Parses one input record.
Status DecodeCorpusRecord(const mr::KeyValue& kv, RecordId* rid,
                          std::vector<TokenId>* tokens);

/// ---- Job 1: ordering (token frequency) -------------------------------
/// Token t lives in block t / kOrderingBlockWidth at offset
/// t % kOrderingBlockWidth. Map and reduce records share one layout:
///   key:   Fixed32BE(block)
///   value: (varint gap, varint count) pairs in ascending offset order,
///          where gap = offset - previous offset - 1 (the first pair's
///          previous offset counts as -1).
/// map:    count the split's tokens locally (in-mapper combining), emit
///         one record per block in Finish;
/// reduce: sum a block's records, emit one record per block.
/// Partitioner: block b goes to reducer b % R.

/// Tokens per ordering block (a fixed part of the record layout).
inline constexpr uint32_t kOrderingBlockWidth = 4096;

/// Mapper/reducer/partitioner of the ordering job.
mr::JobConfig MakeOrderingJobConfig(uint32_t num_map_tasks,
                                    uint32_t num_reduce_tasks);

/// Builds the global ordering from the ordering job's output. `vocab_size`
/// is the dictionary size (tokens with no count get frequency 0). A token
/// at or past `vocab_size`, an offset at or past the block width, a token
/// seen twice and truncated bytes are Corruption.
Result<GlobalOrder> BuildGlobalOrderFromJobOutput(const mr::Dataset& output,
                                                  size_t vocab_size);

/// Runs the ordering job on `backend` as plan `plan_name` (one FlatMap
/// "tokenize", one wide stage "ordering"; task counts come from the
/// backend's ExecConfig) and builds the global ordering from its output.
Result<GlobalOrder> RunOrderingPlan(exec::ExecutionBackend* backend,
                                    std::string plan_name,
                                    const mr::Dataset& input,
                                    size_t vocab_size);

/// ---- Job 2: filtering (vertical partition + fragment join) ----------
/// map:    (rid, tokens) -> ((h, v), segment) per horizontal group h and
///         non-empty vertical segment v  — duplicate-free in v.
/// reduce: fragment join -> ((rid_a, rid_b), (overlap, |a|, |b|))

/// Read-only state shared by all filtering tasks plus mutex-guarded filter
/// counters aggregated across reducers. In-process tasks share the driver's
/// instance; tasks in other processes rebuild one from the job's task
/// payload (EncodeFilteringPayload) — the paper's distributed cache for
/// the ordering and pivots.
struct FilteringContext {
  FsJoinConfig config;
  /// Set by the driver. A context decoded from a payload leaves it null
  /// and holds `order_ranks` instead, which each mapper's Setup decodes:
  /// reducers and the partitioner never read the ordering, so reduce tasks
  /// never pay for parsing it.
  std::shared_ptr<const GlobalOrder> order;
  std::string order_ranks;  ///< GlobalOrder::EncodeRanksTo bytes
  std::vector<TokenRank> pivots;
  HorizontalScheme horizontal;

  /// Morsel pool for parallel fragment joins, shared by every filtering
  /// reducer of the run so morsels steal work across fragments (created by
  /// the driver when config.exec.parallel_fragment_join is set; null =
  /// serial joins).
  std::unique_ptr<ThreadPool> join_pool;

  /// --auto state (DESIGN.md §5i), set by the driver; empty/false without
  /// exec.auto_tune. When split_fragment is non-empty (skew-triggered
  /// horizontal splitting), fragment v emits and dedups through the
  /// horizontal scheme iff split_fragment[v] != 0; every other fragment
  /// collapses to length group 0 and joins all its pairs there — each pair
  /// still counted exactly once per fragment, so partial-overlap
  /// conservation is untouched.
  std::vector<uint8_t> split_fragment;
  tune::TuningPolicy policy;
  bool auto_choose_method = false;  ///< per-fragment join-method choice on
  bool auto_choose_kernel = false;  ///< per-fragment kernel choice on
  /// Payload-built contexts only: the test-only filter fault
  /// (core/filters.h) in force where the payload was encoded. The worker
  /// factory installs it, so the verification harness's injected faults
  /// reach tasks in other processes exactly as they reach in-process ones.
  FilterFaultInjection filter_fault;

  std::mutex mu;
  FilterCounters totals;
  /// Capture sink for config.collect_partial_overlaps (mu-guarded; order is
  /// arbitrary — the driver sorts canonically before handing it out).
  std::vector<PartialOverlap> captured_partials;
  /// Decision histogram of the per-fragment choices (mu-guarded, merged
  /// across fork boundaries by the side channel): how many fragments
  /// resolved to each JoinMethod / resolved KernelMode. Zero without
  /// --auto; the driver renders them into JobMetrics::join_kernel.
  uint64_t auto_method_counts[3] = {0, 0, 0};
  uint64_t auto_kernel_counts[4] = {0, 0, 0, 0};
};

/// Filtering job. Its tasks can also run in another process: the config
/// names the registered "core.filtering" task factory and carries
/// EncodeFilteringPayload(*context) for map tasks and
/// EncodeFilteringReducePayload(*context) for reduce tasks, each encoded
/// once here. In-process runners ignore the payloads and read the context
/// directly.
mr::JobConfig MakeFilteringJobConfig(
    const std::shared_ptr<FilteringContext>& context);

/// Task payload of the filtering job: a versioned encoding of exactly the
/// context state its mapper, reducer and partitioner read — the filter
/// configuration (θ, function, fragment count, join method, filter toggles,
/// kernel, auto flags and tuning policy, rs_boundary,
/// collect_partial_overlaps, an active test-only filter fault), the
/// pivots, the horizontal length pivots, split_fragment and the ordering's
/// ranks. Layout in DESIGN.md §5h.
std::string EncodeFilteringPayload(const FilteringContext& context);

/// The reduce tasks' payload: EncodeFilteringPayload with the ranks field
/// left empty. Reducers and the partitioner never read the ordering, and
/// on email it is 257 KB of a payload that is otherwise a few hundred
/// bytes; a mapper built from these bytes fails its Setup.
std::string EncodeFilteringReducePayload(const FilteringContext& context);

/// Rebuilds a filtering context (zeroed counters, no morsel pool, ordering
/// still encoded in order_ranks) from EncodeFilteringPayload bytes.
/// Truncation, trailing bytes and out-of-range fields are Corruption.
Result<std::shared_ptr<FilteringContext>> DecodeFilteringPayload(
    std::string_view payload);

/// Routes (h, v) fragment keys to reducers round-robin so fragment loads
/// are directly visible as per-reducer input sizes.
class FragmentPartitioner : public mr::Partitioner {
 public:
  explicit FragmentPartitioner(uint32_t num_vertical)
      : num_vertical_(num_vertical) {}
  uint32_t Partition(std::string_view key,
                     uint32_t num_partitions) const override;

 private:
  uint32_t num_vertical_;
};

/// ---- Job 3: verification (overlap aggregation) -----------------------
/// map:    identity
/// reduce: sum partial overlaps; emit (pair, similarity) when >= theta.

/// Shared verification counters.
struct VerificationContext {
  FsJoinConfig config;
  std::mutex mu;
  uint64_t candidate_pairs = 0;  ///< distinct pairs aggregated
};

/// Verification job; like the filtering job, it names a registered task
/// factory ("core.verification") and carries its payload.
mr::JobConfig MakeVerificationJobConfig(
    const std::shared_ptr<VerificationContext>& context);

/// Task payload of the verification job: θ and the similarity function,
/// the only context state its reducer reads.
std::string EncodeVerificationPayload(const VerificationContext& context);
Result<std::shared_ptr<VerificationContext>> DecodeVerificationPayload(
    std::string_view payload);

/// Parses the verification job's output into join results.
Result<JoinResultSet> DecodeJoinResults(const mr::Dataset& output);

/// Encodes one partial overlap the way the filtering reducer does (exposed
/// for the baselines, which reuse the verification job).
void EncodePartialOverlap(const PartialOverlap& partial, std::string* key,
                          std::string* value);

}  // namespace fsjoin

#endif  // FSJOIN_CORE_JOBS_H_
