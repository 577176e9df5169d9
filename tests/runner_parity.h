#ifndef FSJOIN_TESTS_RUNNER_PARITY_H_
#define FSJOIN_TESTS_RUNNER_PARITY_H_

// What a process-isolated runner (subprocess, cluster) must reproduce of an
// in-process FS-Join run: besides the result pairs, every piece of side
// state the filtering and verification tasks send back to the driver.

#include <gtest/gtest.h>

#include <optional>
#include <string>

#include "check/invariants.h"
#include "core/fsjoin.h"
#include "mr/metrics.h"

namespace fsjoin::testing {

/// A small FS-Join whose report exercises every side-state channel: filter
/// counters, candidate count, partial-overlap capture and, with
/// `auto_tune`, the per-fragment decision histogram.
inline FsJoinConfig ParityConfig(const exec::ExecConfig& exec, bool auto_tune,
                                 std::optional<RecordId> rs_boundary) {
  FsJoinConfig config;
  config.theta = 0.6;
  config.num_vertical_partitions = 4;
  config.num_horizontal_partitions = 1;
  config.collect_partial_overlaps = true;
  config.rs_boundary = rs_boundary;
  config.exec = exec;
  config.exec.auto_tune = auto_tune;
  return config;
}

inline void ExpectSameFsJoinOutput(const FsJoinOutput& got,
                                   const FsJoinOutput& want) {
  EXPECT_EQ(check::ResultDigest(got.pairs), check::ResultDigest(want.pairs));
  EXPECT_EQ(got.pairs.size(), want.pairs.size());
  const FilterCounters& g = got.report.filters;
  const FilterCounters& w = want.report.filters;
  EXPECT_EQ(g.pairs_considered, w.pairs_considered);
  EXPECT_EQ(g.pruned_role, w.pruned_role);
  EXPECT_EQ(g.pruned_strl, w.pruned_strl);
  EXPECT_EQ(g.pruned_segl, w.pruned_segl);
  EXPECT_EQ(g.pruned_segi, w.pruned_segi);
  EXPECT_EQ(g.pruned_segd, w.pruned_segd);
  EXPECT_EQ(g.empty_overlap, w.empty_overlap);
  EXPECT_EQ(g.emitted, w.emitted);
  EXPECT_EQ(got.report.candidate_pairs, want.report.candidate_pairs);
  // The resolved kernel, or under --auto the decision histogram.
  EXPECT_EQ(got.report.filtering_job.join_kernel,
            want.report.filtering_job.join_kernel);
  ASSERT_EQ(got.partial_overlaps.size(), want.partial_overlaps.size());
  for (size_t i = 0; i < got.partial_overlaps.size(); ++i) {
    const PartialOverlap& x = got.partial_overlaps[i];
    const PartialOverlap& y = want.partial_overlaps[i];
    EXPECT_TRUE(x.a == y.a && x.b == y.b && x.size_a == y.size_a &&
                x.size_b == y.size_b && x.overlap == y.overlap)
        << "partial overlap " << i;
  }
}

/// Every map and reduce task of `job` ran its final attempt as `want`.
inline void ExpectTransport(const mr::JobMetrics& job,
                            mr::TaskTransport want) {
  ASSERT_FALSE(job.map_tasks.empty()) << job.job_name;
  ASSERT_FALSE(job.reduce_tasks.empty()) << job.job_name;
  for (size_t t = 0; t < job.map_tasks.size(); ++t) {
    EXPECT_EQ(job.map_tasks[t].transport, want)
        << job.job_name << " map " << t;
  }
  for (size_t t = 0; t < job.reduce_tasks.size(); ++t) {
    EXPECT_EQ(job.reduce_tasks[t].transport, want)
        << job.job_name << " reduce " << t;
  }
}

}  // namespace fsjoin::testing

#endif  // FSJOIN_TESTS_RUNNER_PARITY_H_
