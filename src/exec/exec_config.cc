#include "exec/exec_config.h"

#include <filesystem>
#include <string>
#include <system_error>

#include "mr/engine.h"
#include "util/endpoint.h"
#include "util/simd.h"

namespace fsjoin::exec {

const char* BackendKindName(BackendKind kind) {
  switch (kind) {
    case BackendKind::kMapReduce:
      return "mr";
    case BackendKind::kFusedFlow:
      return "flow";
  }
  return "?";
}

Result<BackendKind> BackendKindFromName(std::string_view name) {
  if (name == "mr" || name == "mapreduce") return BackendKind::kMapReduce;
  if (name == "flow" || name == "fused") return BackendKind::kFusedFlow;
  return Status::InvalidArgument("unknown backend: '" + std::string(name) +
                                 "' (expected mr|flow)");
}

const char* KernelModeName(KernelMode mode) {
  switch (mode) {
    case KernelMode::kAuto:
      return "auto";
    case KernelMode::kScalar:
      return "scalar";
    case KernelMode::kPacked:
      return "packed";
    case KernelMode::kSimd:
      return "simd";
  }
  return "?";
}

Result<KernelMode> KernelModeFromName(std::string_view name) {
  if (name == "auto") return KernelMode::kAuto;
  if (name == "scalar") return KernelMode::kScalar;
  if (name == "packed") return KernelMode::kPacked;
  if (name == "simd") return KernelMode::kSimd;
  return Status::InvalidArgument("unknown kernel: '" + std::string(name) +
                                 "' (expected auto|scalar|packed|simd)");
}

KernelMode ResolveKernelMode(KernelMode mode) {
  if (mode != KernelMode::kAuto) return mode;
  return SimdAvailable() ? KernelMode::kSimd : KernelMode::kPacked;
}

Status ExecConfig::Validate() const {
  if (num_map_tasks == 0 || num_reduce_tasks == 0) {
    return Status::InvalidArgument("task counts must be >= 1");
  }
  if (num_threads > kMaxThreadsOrProcesses) {
    return Status::InvalidArgument(
        "num_threads " + std::to_string(num_threads) + " is above the cap of " +
        std::to_string(kMaxThreadsOrProcesses));
  }
  if (spawn_local_workers > 0 &&
      static_cast<uint64_t>(spawn_local_workers) > kMaxThreadsOrProcesses) {
    return Status::InvalidArgument(
        "spawn_local_workers " + std::to_string(spawn_local_workers) +
        " is above the cap of " + std::to_string(kMaxThreadsOrProcesses));
  }
  if (parallel_fragment_join && join_morsel_size == 0) {
    return Status::InvalidArgument(
        "join_morsel_size must be >= 1 when parallel_fragment_join is set");
  }
  if (task_retries < 0) {
    return Status::InvalidArgument("task_retries must be >= 0, got " +
                                   std::to_string(task_retries));
  }
  if (shuffle_memory_bytes > 0 &&
      shuffle_memory_bytes < mr::kMinShuffleMemoryBytes) {
    return Status::InvalidArgument(
        "shuffle_memory_bytes " + std::to_string(shuffle_memory_bytes) +
        " is smaller than one arena charge (" +
        std::to_string(mr::kMinShuffleMemoryBytes) +
        "); use 0 for an unbounded in-memory shuffle");
  }
  if (!auto_tune && tune_sample_rate != 0.0) {
    return Status::InvalidArgument(
        "tune_sample_rate is set but auto_tune is off (--sample-rate "
        "requires --auto)");
  }
  if (auto_tune && !(tune_sample_rate >= 0.0 && tune_sample_rate <= 1.0)) {
    return Status::InvalidArgument(
        "tune_sample_rate must be in (0, 1] (or 0 for the default), got " +
        std::to_string(tune_sample_rate));
  }
  if (runner == mr::RunnerKind::kCluster) {
    const bool have_dial = !workers.empty();
    const bool have_spawn = spawn_local_workers > 0;
    if (have_dial == have_spawn) {
      return Status::InvalidArgument(
          have_dial
              ? "--workers and --spawn-local-workers are mutually exclusive"
              : "--runner cluster needs a worker topology: pass --workers "
                "host:port,... or --spawn-local-workers N");
    }
    if (have_dial) {
      auto list = ParseEndpointList(workers);
      if (!list.ok()) return list.status();
    }
    if (spawn_local_workers < 0) {
      return Status::InvalidArgument(
          "spawn_local_workers must be >= 0, got " +
          std::to_string(spawn_local_workers));
    }
    if (heartbeat_ms < 50) {
      return Status::InvalidArgument(
          "heartbeat_ms must be >= 50 (got " + std::to_string(heartbeat_ms) +
          "); sub-50ms probes misdiagnose a busy loopback worker as dead");
    }
  } else if (!workers.empty() || spawn_local_workers != 0) {
    return Status::InvalidArgument(
        std::string(!workers.empty() ? "--workers" : "--spawn-local-workers") +
        " requires --runner cluster (current runner: " +
        mr::RunnerKindName(runner) + ")");
  }
  if (!spill_dir.empty()) {
    // Fail configuration, not the first job that tries to spill.
    std::error_code ec;
    std::filesystem::create_directories(spill_dir, ec);
    if (ec) {
      return Status::InvalidArgument("spill_dir '" + spill_dir +
                                     "' is not creatable: " + ec.message());
    }
  }
  return Status::OK();
}

}  // namespace fsjoin::exec
