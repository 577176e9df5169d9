#ifndef FSJOIN_EXEC_EXEC_CONFIG_H_
#define FSJOIN_EXEC_EXEC_CONFIG_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "mr/runner.h"
#include "util/status.h"

namespace fsjoin::exec {

/// Which execution substrate runs a logical plan.
enum class BackendKind {
  kMapReduce,  ///< Hadoop-style: one materialized MR job per wide stage
  kFusedFlow,  ///< Spark-style: narrow chains fused, shuffles stay in memory
};

const char* BackendKindName(BackendKind kind);

/// Parses "mr"/"mapreduce" and "flow"/"fused"; InvalidArgument otherwise.
Result<BackendKind> BackendKindFromName(std::string_view name);

/// Which overlap kernel family the fragment-join verification loop uses.
/// All modes produce identical join results and emissions; they differ in
/// speed and (for kSimd) in how a provably-pruned pair is attributed between
/// the empty_overlap and pruned_segi counters (DESIGN.md §5g).
enum class KernelMode {
  kAuto,    ///< kSimd when the CPU/build has vector kernels, else kPacked
  kScalar,  ///< pure scalar reference merge, no bitmap gate — the baseline
            ///< every other mode is verified against
  kPacked,  ///< PR 3 path: word-packed bitmap gate + scalar merge
  kSimd,    ///< bitmap gate + container dispatch + vectorized bounded merge
};

const char* KernelModeName(KernelMode mode);

/// Parses auto|scalar|packed|simd; InvalidArgument otherwise.
Result<KernelMode> KernelModeFromName(std::string_view name);

/// What kAuto means on this build + machine (kSimd or kPacked).
KernelMode ResolveKernelMode(KernelMode mode);

/// Ceiling on num_threads and spawn_local_workers: Validate rejects larger
/// values before any thread or process is started for them.
inline constexpr uint64_t kMaxThreadsOrProcesses = 1024;

/// Engine-shape knobs shared by every algorithm in the repo (FS-Join and
/// the three baselines). Previously duplicated across FsJoinConfig and
/// BaselineConfig; consolidated here so a driver describes *what* to run
/// (the plan) and this struct describes *where and how wide*.
struct ExecConfig {
  BackendKind backend = BackendKind::kMapReduce;

  /// Number of map tasks the input is split into (Hadoop: one per block).
  /// MapReduce backend only; the fused backend splits by partition count.
  uint32_t num_map_tasks = 8;
  /// Number of reduce tasks == shuffle partitions (paper: 3 * #nodes).
  uint32_t num_reduce_tasks = 8;
  /// Worker threads for the in-process engines (0 = run inline).
  size_t num_threads = 0;

  /// Morsel-parallel fragment joins (the filtering phase's reducer body):
  /// when true, every fragment's probe loop is cut into morsels scheduled
  /// onto a work-stealing pool of `num_threads` workers shared across
  /// fragments, so one oversized fragment is consumed by many threads
  /// instead of stalling a reduce wave. Results, counters and metrics are
  /// byte-identical to the serial run (morsel outputs merge in
  /// deterministic order). false preserves the seed behavior exactly.
  bool parallel_fragment_join = false;
  /// Probe segments per morsel when parallel_fragment_join is on. Must be
  /// >= 1 when the flag is set (Validate rejects 0 — it used to silently
  /// fall back to serial execution, hiding the misconfiguration). 64
  /// balances scheduling overhead against steal granularity on skewed
  /// fragments (measured in bench_micro_kernels --json).
  size_t join_morsel_size = 64;

  /// Overlap kernel family for fragment-join verification (taxonomy above).
  /// kAuto resolves per process at job start; the resolved choice is logged
  /// in JobMetrics so A/B runs are self-describing.
  KernelMode kernel = KernelMode::kAuto;

  /// Abort with ResourceExhausted once a run emits more than this many
  /// intermediate records (0 = unlimited). Models the paper's observation
  /// that MassJoin and V-Smart-Join "cannot run successfully" on the large
  /// datasets: their intermediate data outgrows the cluster.
  uint64_t emission_limit = 0;

  /// Per-job cap on buffered shuffle bytes (0 = unlimited, shuffle stays in
  /// memory — the seed behavior). When exceeded, both backends spill
  /// key-sorted run files to disk and reduce through a streaming k-way
  /// merge; result sets and counters other than spilled_bytes/spill_runs
  /// are unchanged. This is the knob that lets a corpus whose intermediate
  /// data outgrows RAM still run to completion.
  uint64_t shuffle_memory_bytes = 0;
  /// Process-wide ceiling shared by all concurrent jobs (0 = leave the
  /// global store::ProcessMemoryBudget() untouched). Applied by
  /// MakeBackend; only consulted by jobs that also set
  /// shuffle_memory_bytes.
  uint64_t process_memory_bytes = 0;
  /// Base directory for spill scratch space; every job creates and removes
  /// its own unique subdirectory underneath. Empty = system temp
  /// directory.
  std::string spill_dir;

  /// Cost-based auto-tuning (DESIGN.md §5i, `fsjoin_cli --auto`): the
  /// FS-Join driver draws a seeded record sample, refines the vertical
  /// pivots and the horizontal t from it, splits skew-heavy fragments, and
  /// lets every filtering reducer pick join method and overlap kernel from
  /// its fragment's shape. Knobs the caller pinned explicitly
  /// (FsJoinConfig::pinned) still win, with the override logged. Results
  /// are byte-identical to every hand-set configuration — tuning moves
  /// wall time only. Ignored by the baseline algorithms.
  bool auto_tune = false;
  /// Record-sampling rate of the tuning pass, in (0, 1]; 0 = the tuner
  /// default (tune::kDefaultSampleRate). Validate rejects a non-zero rate
  /// without auto_tune — the knob would otherwise be a silent no-op.
  double tune_sample_rate = 0.0;

  /// How task attempts execute (mr/runner.h): inline, on a thread pool
  /// (the default — num_threads == 0 still runs inline and deterministic),
  /// each in its own forked/re-execed child process, or on socket-RPC
  /// cluster workers (DESIGN.md §5j).
  mr::RunnerKind runner = mr::RunnerKind::kThreads;
  /// Re-executions allowed per failed task on the subprocess runner.
  int task_retries = 2;

  /// Cluster runner only: comma-separated "host:port" list of pre-started
  /// fsjoin_worker processes to dial. Exactly one of workers /
  /// spawn_local_workers must be set when runner is kCluster; both are
  /// rejected for any other runner (the knob would be a silent no-op).
  std::string workers;
  /// Cluster runner only: fork/exec this many loopback workers from the
  /// current binary instead of dialing `workers`.
  int spawn_local_workers = 0;
  /// Cluster liveness probe interval in milliseconds; a worker missing
  /// net::kMaxMissedHeartbeats consecutive probes is declared dead.
  int heartbeat_ms = 2000;

  /// Checks every knob up front — task counts, morsel size, retry budget,
  /// shuffle memory floor, spill_dir creatability, cluster topology
  /// (worker list well-formedness, exactly-one of --workers /
  /// --spawn-local-workers) — returning a descriptive InvalidArgument
  /// instead of silently misbehaving later.
  Status Validate() const;
};

}  // namespace fsjoin::exec

#endif  // FSJOIN_EXEC_EXEC_CONFIG_H_
