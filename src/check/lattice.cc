#include "check/lattice.h"

#include "mr/runner.h"
#include "util/random.h"
#include "util/string_util.h"

namespace fsjoin::check {

namespace {

// Menu values. Thetas are rationals representable by small equal-size pairs
// so scenario planting can hit sim == theta exactly (see scenarios.cc).
constexpr double kThetas[] = {0.5, 0.6, 0.7, 0.75, 0.8, 0.9, 1.0};
constexpr SimilarityFunction kFunctions[] = {SimilarityFunction::kJaccard,
                                             SimilarityFunction::kDice,
                                             SimilarityFunction::kCosine};
constexpr uint32_t kVerticals[] = {1, 2, 4, 8, 16};
constexpr uint32_t kHorizontals[] = {0, 1, 2, 3};
constexpr JoinMethod kMethods[] = {JoinMethod::kLoop, JoinMethod::kIndex,
                                   JoinMethod::kPrefix};
constexpr PivotStrategy kPivots[] = {PivotStrategy::kRandom,
                                     PivotStrategy::kEvenInterval,
                                     PivotStrategy::kEvenTf};
constexpr size_t kThreads[] = {0, 2, 4};
constexpr size_t kMorsels[] = {1, 7, 64};
constexpr uint64_t kSpillBudgets[] = {0, 256, 4096};
constexpr uint32_t kTaskCounts[] = {1, 3, 5, 8};
// Kernel families weighted toward the vectorized path (the new code under
// test); kAuto resolves per machine, so scalar/packed/simd are also listed
// explicitly to keep every family in the sweep regardless of CPU.
constexpr exec::KernelMode kKernels[] = {
    exec::KernelMode::kAuto, exec::KernelMode::kSimd, exec::KernelMode::kSimd,
    exec::KernelMode::kPacked, exec::KernelMode::kScalar};
// Runner menu weighted toward the thread-pool default; the subprocess
// runner appears often enough that every sweep crosses a process boundary
// (FS-Join tasks re-exec by factory name, the baselines' tasks fork),
// which is how digest identity across runners gets continuous coverage.
constexpr mr::RunnerKind kRunners[] = {
    mr::RunnerKind::kThreads, mr::RunnerKind::kThreads,
    mr::RunnerKind::kInline, mr::RunnerKind::kSubprocess};
// --auto sample rates: 0.0 resolves to the tuner default, 1.0 makes the
// sample exact (the estimates-equal-counts corner).
constexpr double kSampleRates[] = {0.0, 0.05, 0.25, 1.0};

template <typename T, size_t N>
T Pick(const T (&menu)[N], Rng& rng) {
  return menu[rng.NextBounded(N)];
}

exec::ExecConfig SampleExec(Rng& rng) {
  exec::ExecConfig exec;
  exec.backend = rng.NextBool(0.5) ? exec::BackendKind::kMapReduce
                                   : exec::BackendKind::kFusedFlow;
  exec.num_map_tasks = Pick(kTaskCounts, rng);
  exec.num_reduce_tasks = Pick(kTaskCounts, rng);
  exec.num_threads = Pick(kThreads, rng);
  if (rng.NextBool(0.4)) {
    exec.parallel_fragment_join = true;
    exec.join_morsel_size = Pick(kMorsels, rng);
  }
  exec.shuffle_memory_bytes = Pick(kSpillBudgets, rng);
  exec.kernel = Pick(kKernels, rng);
  exec.runner = Pick(kRunners, rng);
  return exec;
}

}  // namespace

const char* AlgorithmName(Algorithm algorithm) {
  switch (algorithm) {
    case Algorithm::kFsJoin:
      return "fsjoin";
    case Algorithm::kVernica:
      return "vernica";
    case Algorithm::kVSmart:
      return "vsmart";
    case Algorithm::kMassJoin:
      return "massjoin";
  }
  return "?";
}

std::string LatticePoint::Name() const {
  const std::string rs_suffix =
      rs_boundary.has_value() ? StrFormat(", rs=%u", *rs_boundary) : "";
  if (algorithm == Algorithm::kFsJoin) {
    const exec::ExecConfig& e = fsjoin.exec;
    return StrFormat(
        "fsjoin(%s, backend=%s, maps=%u, reduces=%u, threads=%zu, "
        "morsel=%zu, spill=%llu, kernel=%s, runner=%s%s%s)",
        fsjoin.Summary().c_str(), exec::BackendKindName(e.backend),
        e.num_map_tasks, e.num_reduce_tasks, e.num_threads,
        e.parallel_fragment_join ? e.join_morsel_size : size_t{0},
        static_cast<unsigned long long>(e.shuffle_memory_bytes),
        exec::KernelModeName(e.kernel), mr::RunnerKindName(e.runner),
        e.auto_tune ? StrFormat(", rate=%.2f", e.tune_sample_rate).c_str()
                    : "",
        rs_suffix.c_str());
  }
  const exec::ExecConfig& e = baseline.exec;
  return StrFormat(
      "%s(theta=%.2f, fn=%s, backend=%s, maps=%u, reduces=%u, threads=%zu, "
      "spill=%llu, runner=%s%s%s)",
      AlgorithmName(algorithm), baseline.theta,
      SimilarityFunctionName(baseline.function),
      exec::BackendKindName(e.backend), e.num_map_tasks, e.num_reduce_tasks,
      e.num_threads, static_cast<unsigned long long>(e.shuffle_memory_bytes),
      mr::RunnerKindName(e.runner),
      algorithm == Algorithm::kMassJoin
          ? StrFormat(", lg=%u", massjoin_length_group).c_str()
          : "",
      rs_suffix.c_str());
}

std::vector<LatticePoint> SampleLattice(uint64_t seed, size_t count) {
  Rng rng(seed * 0xd1b54a32d192ed03ull + 3);
  // Drawn once per seed: these define the join, not the execution.
  const double theta = Pick(kThetas, rng);
  const SimilarityFunction fn = Pick(kFunctions, rng);

  std::vector<LatticePoint> points;
  points.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    LatticePoint p;
    // First four points: one of each algorithm, so every sweep exercises
    // FS-Join and all three baselines. Later points lean on FS-Join.
    if (i < 4) {
      p.algorithm = static_cast<Algorithm>(i);
    } else {
      p.algorithm = rng.NextBool(0.75)
                        ? Algorithm::kFsJoin
                        : static_cast<Algorithm>(1 + rng.NextBounded(3));
    }

    p.fsjoin.theta = theta;
    p.fsjoin.function = fn;
    p.baseline.theta = theta;
    p.baseline.function = fn;

    if (p.algorithm == Algorithm::kFsJoin) {
      p.fsjoin.exec = SampleExec(rng);
      p.fsjoin.num_vertical_partitions = Pick(kVerticals, rng);
      p.fsjoin.num_horizontal_partitions = Pick(kHorizontals, rng);
      p.fsjoin.join_method = Pick(kMethods, rng);
      p.fsjoin.pivot_strategy = Pick(kPivots, rng);
      p.fsjoin.seed = seed + i;  // PivotStrategy::kRandom input
      // Cost-based auto-tuning (DESIGN.md §5i): about a third of the
      // FS-Join points run under --auto, with random pinned knobs so every
      // explicit-beats-auto combination gets differential coverage. The
      // digest must stay invariant — the tuner may only move work around.
      if (rng.NextBool(0.35)) {
        p.fsjoin.exec.auto_tune = true;
        p.fsjoin.exec.tune_sample_rate = Pick(kSampleRates, rng);
        p.fsjoin.pinned.join_method = rng.NextBool(0.3);
        p.fsjoin.pinned.kernel = rng.NextBool(0.3);
        p.fsjoin.pinned.pivot_strategy = rng.NextBool(0.3);
        p.fsjoin.pinned.horizontal = rng.NextBool(0.3);
      }
      // Filter toggles: mostly all-on (the paper's configuration), with a
      // tail of random subsets to catch inter-filter dependencies.
      if (!rng.NextBool(0.6)) {
        p.fsjoin.use_length_filter = rng.NextBool(0.5);
        p.fsjoin.use_segment_length_filter = rng.NextBool(0.5);
        p.fsjoin.use_segment_intersection_filter = rng.NextBool(0.5);
        p.fsjoin.use_segment_difference_filter = rng.NextBool(0.5);
      }
    } else {
      p.baseline.exec = SampleExec(rng);
      // Morsel-parallel joins are an FS-Join reducer feature.
      p.baseline.exec.parallel_fragment_join = false;
      if (p.algorithm == Algorithm::kMassJoin) {
        p.massjoin_length_group =
            1 + static_cast<uint32_t>(rng.NextBounded(4));
      }
    }
    points.push_back(std::move(p));
  }
  return points;
}

}  // namespace fsjoin::check
