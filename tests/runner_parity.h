#ifndef FSJOIN_TESTS_RUNNER_PARITY_H_
#define FSJOIN_TESTS_RUNNER_PARITY_H_

// What a process-isolated runner (subprocess, cluster) must reproduce of an
// in-process FS-Join run: besides the result pairs, every piece of side
// state the filtering and verification tasks send back to the driver.

#include <gtest/gtest.h>

#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "check/invariants.h"
#include "core/fsjoin.h"
#include "core/jobs.h"
#include "exec/backend.h"
#include "mr/metrics.h"
#include "test_util.h"

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

/// Corpora at the ordering job's edges: no records, only empty records,
/// a one-token vocabulary, a vocabulary of exactly one block and of one
/// token past it, and random corpora spanning several blocks.
inline std::vector<Corpus> OrderingCorpora() {
  std::vector<Corpus> corpora;
  corpora.push_back(CorpusFromTokenSets({}));
  corpora.push_back(CorpusFromTokenSets({{}, {}, {}}));
  corpora.push_back(CorpusFromTokenSets({{0}, {}, {0}, {0}}));
  for (uint32_t vocab : {kOrderingBlockWidth, kOrderingBlockWidth + 1}) {
    std::vector<std::vector<uint32_t>> sets;
    std::vector<uint32_t> all(vocab);
    std::iota(all.begin(), all.end(), 0u);
    sets.push_back(std::move(all));
    // Skewed repeats, including the last token of the vocabulary.
    for (uint32_t r = 1; r <= 24; ++r) {
      sets.push_back({(r * 37) % (vocab - 1), vocab - 1});
    }
    corpora.push_back(CorpusFromTokenSets(sets));
  }
  corpora.push_back(RandomCorpus(120, 9000, 0.9, 30.0, 3));
  corpora.push_back(RandomCorpus(50, 40, 1.1, 6.0, 4));
  return corpora;
}

/// Runs the ordering plan over every OrderingCorpora() corpus on one
/// backend built from `exec`, and checks each ordering against
/// GlobalOrder::FromCorpus byte for byte (EncodeRanksTo).
inline void ExpectOrderingMatchesFromCorpus(const exec::ExecConfig& exec) {
  std::unique_ptr<exec::ExecutionBackend> backend = exec::MakeBackend(exec);
  const std::vector<Corpus> corpora = OrderingCorpora();
  for (size_t c = 0; c < corpora.size(); ++c) {
    const Corpus& corpus = corpora[c];
    Result<GlobalOrder> got =
        RunOrderingPlan(backend.get(), "ordering", MakeCorpusDataset(corpus),
                        corpus.dictionary.size());
    ASSERT_TRUE(got.ok()) << "corpus " << c << ": "
                          << got.status().ToString();
    std::string got_bytes, want_bytes;
    got->EncodeRanksTo(&got_bytes);
    GlobalOrder::FromCorpus(corpus).EncodeRanksTo(&want_bytes);
    EXPECT_EQ(got_bytes, want_bytes) << "corpus " << c;
    EXPECT_EQ(got->NumTokens(), corpus.dictionary.size()) << "corpus " << c;
  }
}

}  // namespace fsjoin::testing

#endif  // FSJOIN_TESTS_RUNNER_PARITY_H_
