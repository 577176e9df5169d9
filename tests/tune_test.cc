// Cost-based auto-tuning (DESIGN.md §5i): sampling statistics, pivot
// refinement, the per-fragment decision layer, and the --auto end-to-end
// identity — tuned runs must produce byte-identical results to hand-set
// configurations, only faster.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "check/invariants.h"
#include "core/fsjoin.h"
#include "core/pivots.h"
#include "test_util.h"
#include "tune/decision.h"
#include "tune/pivot_refiner.h"
#include "tune/stats.h"
#include "tune/tuner.h"
#include "util/random.h"

namespace fsjoin {
namespace {

using testing::CorpusFromTokenSets;
using testing::RandomCorpus;

// ---- Sampling statistics --------------------------------------------------

TEST(SampleStatsTest, RateOneIsExactDictionary) {
  Corpus corpus = RandomCorpus(400, 900, 0.8, 12.0, 11);
  tune::SampleStats stats = tune::SampleCorpusStats(corpus, 1.0, 99);
  EXPECT_EQ(stats.sampled_records, corpus.NumRecords());
  EXPECT_EQ(stats.sampled_tokens, corpus.TotalTokens());
  ASSERT_EQ(stats.sampled_frequency.size(), corpus.dictionary.size());
  for (TokenId t = 0; t < corpus.dictionary.size(); ++t) {
    EXPECT_EQ(stats.sampled_frequency[t], corpus.dictionary.Frequency(t))
        << "token " << t;
    EXPECT_DOUBLE_EQ(stats.EstimatedFrequency(t),
                     static_cast<double>(corpus.dictionary.Frequency(t)));
  }
}

TEST(SampleStatsTest, SamplesAreNestedAcrossRates) {
  // The per-record uniform is fixed by (seed, rid), so the sample at a low
  // rate is a subset of the sample at any higher rate — the property that
  // makes the convergence below monotone in expectation.
  const uint64_t seed = 1234;
  const double rates[] = {0.05, 0.1, 0.25, 0.5, 0.9, 1.0};
  for (RecordId rid = 0; rid < 5000; ++rid) {
    bool prev = false;
    for (double rate : rates) {
      const bool cur = tune::SampleIncludesRecord(seed, rid, rate);
      EXPECT_FALSE(prev && !cur)
          << "rid " << rid << " dropped when the rate increased to " << rate;
      prev = cur;
    }
    EXPECT_TRUE(tune::SampleIncludesRecord(seed, rid, 1.0));
    EXPECT_FALSE(tune::SampleIncludesRecord(seed, rid, 0.0));
  }
}

TEST(SampleStatsTest, FrequencyEstimatesConvergeToExactCounts) {
  // The satellite property: as rate -> 1 the Horvitz–Thompson estimates
  // converge to the exact dictionary counts. Nested samples make the error
  // sequence decrease essentially monotonically; we assert a weakly
  // decreasing trend with slack for sampling noise, and exactness at 1.0.
  Corpus corpus = RandomCorpus(3000, 1200, 0.9, 14.0, 23);
  const uint64_t seed = 7;
  const double rates[] = {0.1, 0.25, 0.5, 0.75, 1.0};
  std::vector<double> errors;
  for (double rate : rates) {
    tune::SampleStats stats = tune::SampleCorpusStats(corpus, rate, seed);
    double abs_err = 0.0, total = 0.0;
    for (TokenId t = 0; t < corpus.dictionary.size(); ++t) {
      const double exact = static_cast<double>(corpus.dictionary.Frequency(t));
      abs_err += std::fabs(stats.EstimatedFrequency(t) - exact);
      total += exact;
    }
    errors.push_back(abs_err / total);  // relative L1 error
  }
  EXPECT_EQ(errors.back(), 0.0) << "rate 1.0 must be exact";
  // Each halving-ish step may wobble, but the end must beat the start
  // decisively and no step may blow the error up.
  EXPECT_LT(errors[3], errors[0] * 0.75);
  for (size_t i = 1; i < errors.size(); ++i) {
    EXPECT_LT(errors[i], errors[i - 1] + 0.05)
        << "error regressed sharply between rates " << rates[i - 1] << " and "
        << rates[i];
  }
}

TEST(SampleStatsTest, DegenerateCorpora) {
  // Empty corpus.
  {
    Corpus empty;
    tune::SampleStats stats = tune::SampleCorpusStats(empty, 0.5, 1);
    EXPECT_EQ(stats.sampled_records, 0u);
    EXPECT_EQ(stats.sampled_tokens, 0u);
    EXPECT_TRUE(stats.sampled_frequency.empty());
    GlobalOrder order = GlobalOrder::FromCorpus(empty);
    tune::TuneOptions topt;
    tune::TunePlan plan = tune::PlanTuning(empty, order, topt);
    EXPECT_TRUE(plan.pivots.empty());
    EXPECT_EQ(plan.horizontal_t, 0u);
  }
  // Single-token records: one vocabulary entry, every estimate lands on it.
  {
    Corpus corpus = CorpusFromTokenSets({{1}, {1}, {1}, {1}});
    tune::SampleStats stats = tune::SampleCorpusStats(corpus, 1.0, 3);
    ASSERT_EQ(stats.sampled_frequency.size(), 1u);
    EXPECT_EQ(stats.sampled_frequency[0], 4u);
    GlobalOrder order = GlobalOrder::FromCorpus(corpus);
    tune::TuneOptions topt;
    topt.sample_rate = 1.0;
    tune::TunePlan plan = tune::PlanTuning(corpus, order, topt);
    EXPECT_EQ(plan.horizontal_t, 0u);  // one length window only
  }
  // All-duplicate records: tuning must not split what cannot be balanced.
  {
    Corpus corpus = CorpusFromTokenSets(
        {{1, 2, 3}, {1, 2, 3}, {1, 2, 3}, {1, 2, 3}, {1, 2, 3}});
    GlobalOrder order = GlobalOrder::FromCorpus(corpus);
    tune::TuneOptions topt;
    topt.sample_rate = 1.0;
    topt.num_fragments = 8;
    tune::TunePlan plan = tune::PlanTuning(corpus, order, topt);
    EXPECT_LE(plan.pivots.size(), 7u);
    EXPECT_TRUE(std::is_sorted(plan.pivots.begin(), plan.pivots.end()));
    // Identical lengths -> a single window -> horizontal stays off.
    EXPECT_EQ(plan.horizontal_t, 0u);
  }
}

// ---- Pivot refinement -----------------------------------------------------

TEST(PivotRefinerTest, PivotsAreStrictlyIncreasingAndInRange) {
  Corpus corpus = RandomCorpus(800, 600, 1.0, 10.0, 5);
  GlobalOrder order = GlobalOrder::FromCorpus(corpus);
  tune::SampleStats stats = tune::SampleCorpusStats(corpus, 1.0, 7);
  tune::PivotPlan plan = tune::RefinePivots(corpus, order, stats, 16, 3.0);
  EXPECT_LE(plan.pivots.size(), 15u);
  for (size_t i = 0; i < plan.pivots.size(); ++i) {
    EXPECT_LT(plan.pivots[i], order.NumTokens());
    if (i > 0) EXPECT_GT(plan.pivots[i], plan.pivots[i - 1]);
  }
  EXPECT_EQ(plan.est_load.size(), plan.pivots.size() + 1);
  EXPECT_EQ(plan.heavy.size(), plan.est_load.size());
}

TEST(PivotRefinerTest, RefinementBeatsEvenTfOnSkewedData) {
  // On a heavily skewed corpus the tuned boundaries must not be worse than
  // plain Even-TF under the refiner's own objective: total estimated join
  // cost, sum over fragments of segments^2/2 pairs plus a token scan term.
  Corpus corpus = RandomCorpus(2000, 500, 1.2, 16.0, 31);
  GlobalOrder order = GlobalOrder::FromCorpus(corpus);
  tune::SampleStats stats = tune::SampleCorpusStats(corpus, 1.0, 7);
  const uint32_t fragments = 12;
  tune::PivotPlan refined =
      tune::RefinePivots(corpus, order, stats, fragments, 3.0);
  std::vector<TokenRank> even =
      SelectPivots(order, PivotStrategy::kEvenTf, fragments - 1, /*seed=*/7);

  // Exact total cost of a pivot vector, computed from the full corpus.
  auto total_cost = [&](const std::vector<TokenRank>& pivots) {
    const size_t n = pivots.size() + 1;
    std::vector<uint64_t> segs(n, 0), toks(n, 0);
    for (const Record& rec : corpus.records) {
      std::vector<uint8_t> present(n, 0);
      for (TokenId t : rec.tokens) {
        const TokenRank rank = order.RankOf(t);
        const size_t frag =
            std::upper_bound(pivots.begin(), pivots.end(), rank) -
            pivots.begin();
        present[frag] = 1;
        toks[frag]++;
      }
      for (size_t f = 0; f < n; ++f) segs[f] += present[f];
    }
    double cost = 0.0;
    for (size_t f = 0; f < n; ++f) {
      const double s = static_cast<double>(segs[f]);
      cost += 0.5 * s * (s - 1.0) + static_cast<double>(toks[f]);
    }
    return cost;
  };
  EXPECT_LE(total_cost(refined.pivots), total_cost(even) * 1.1)
      << "refined pivots lost to Even-TF by more than 10% on the refiner's "
         "own objective";
}

// ---- Per-fragment decisions ----------------------------------------------

TEST(DecisionTest, ShapeThresholdsSelectExpectedMethods) {
  tune::TuningPolicy policy;  // calibrated defaults
  // Tiny fragment -> loop join, no index/prefix overhead to amortize.
  tune::FragmentShape tiny{/*num_segments=*/8, /*total_tokens=*/64,
                           /*max_segment_len=*/12};
  EXPECT_EQ(tune::ChooseFragmentPlan(tiny, policy).method, JoinMethod::kLoop);
  // Many short segments -> inverted index.
  tune::FragmentShape shorty{2000, 3500, 3};
  EXPECT_EQ(tune::ChooseFragmentPlan(shorty, policy).method,
            JoinMethod::kIndex);
  // Many long segments -> prefix join.
  tune::FragmentShape longy{2000, 60000, 64};
  EXPECT_EQ(tune::ChooseFragmentPlan(longy, policy).method,
            JoinMethod::kPrefix);
}

TEST(DecisionTest, DecisionIsAPureFunctionOfShape) {
  // Determinism across backends/runners hangs on this: equal aggregate
  // shapes give equal plans, regardless of how segments arrived.
  tune::TuningPolicy policy;
  tune::FragmentShape shape{137, 1900, 41};
  tune::FragmentPlan first = tune::ChooseFragmentPlan(shape, policy);
  for (int i = 0; i < 100; ++i) {
    tune::FragmentPlan again = tune::ChooseFragmentPlan(shape, policy);
    EXPECT_EQ(again.method, first.method);
    EXPECT_EQ(again.kernel, first.kernel);
  }
}

// ---- ExecConfig validation (satellite: contradictory knobs) ---------------

TEST(TuneConfigTest, SampleRateWithoutAutoIsRejected) {
  FsJoinConfig config;
  config.exec.tune_sample_rate = 0.3;  // but auto_tune left off
  Corpus corpus = CorpusFromTokenSets({{1, 2}, {1, 2}});
  auto out = FsJoin(config).Run(corpus);
  EXPECT_FALSE(out.ok());
}

TEST(TuneConfigTest, OutOfRangeSampleRateIsRejected) {
  FsJoinConfig config;
  config.exec.auto_tune = true;
  config.exec.tune_sample_rate = 1.5;
  Corpus corpus = CorpusFromTokenSets({{1, 2}, {1, 2}});
  EXPECT_FALSE(FsJoin(config).Run(corpus).ok());
  config.exec.tune_sample_rate = -0.1;
  EXPECT_FALSE(FsJoin(config).Run(corpus).ok());
  config.exec.tune_sample_rate = std::nan("");
  EXPECT_FALSE(FsJoin(config).Run(corpus).ok());
}

// ---- End-to-end: --auto is byte-identical to hand-set configs -------------

TEST(AutoTuneEndToEndTest, AutoMatchesHandSetResultsExactly) {
  Corpus corpus = RandomCorpus(350, 400, 0.9, 11.0, 77);
  FsJoinConfig hand;
  hand.theta = 0.7;
  hand.num_vertical_partitions = 10;
  auto hand_out = FsJoin(hand).Run(corpus);
  ASSERT_TRUE(hand_out.ok()) << hand_out.status().ToString();

  for (double rate : {0.0, 0.25, 1.0}) {
    FsJoinConfig tuned = hand;
    tuned.exec.auto_tune = true;
    tuned.exec.tune_sample_rate = rate;
    auto tuned_out = FsJoin(tuned).Run(corpus);
    ASSERT_TRUE(tuned_out.ok()) << tuned_out.status().ToString();
    EXPECT_EQ(check::ResultDigest(tuned_out->pairs), check::ResultDigest(hand_out->pairs))
        << "--auto changed the result set at sample rate " << rate;
    EXPECT_TRUE(tuned_out->report.tuning.enabled);
    EXPECT_FALSE(tuned_out->report.tuning.lines.empty());
  }
}

TEST(AutoTuneEndToEndTest, AutoIsDeterministicAcrossRuns) {
  Corpus corpus = RandomCorpus(300, 350, 1.0, 12.0, 13);
  FsJoinConfig config;
  config.theta = 0.75;
  config.exec.auto_tune = true;
  auto first = FsJoin(config).Run(corpus);
  ASSERT_TRUE(first.ok());
  for (int i = 0; i < 3; ++i) {
    auto again = FsJoin(config).Run(corpus);
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(check::ResultDigest(again->pairs), check::ResultDigest(first->pairs));
    EXPECT_EQ(again->report.pivots, first->report.pivots);
    EXPECT_EQ(again->report.tuning.lines, first->report.tuning.lines);
  }
}

TEST(AutoTuneEndToEndTest, PinnedKnobsWinAndLogTheOverride) {
  Corpus corpus = RandomCorpus(250, 300, 0.8, 10.0, 41);
  FsJoinConfig config;
  config.theta = 0.7;
  config.exec.auto_tune = true;
  config.exec.tune_sample_rate = 1.0;
  config.join_method = JoinMethod::kLoop;
  config.pinned.join_method = true;
  auto out = FsJoin(config).Run(corpus);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  bool logged = false;
  for (const std::string& line : out->report.tuning.lines) {
    if (line.find("override") != std::string::npos &&
        line.find("method") != std::string::npos) {
      logged = true;
    }
  }
  EXPECT_TRUE(logged) << "pinned join method must log its override";

  // And the pinned method must actually be honored: same digest as a fully
  // hand-set loop-join run.
  FsJoinConfig hand;
  hand.theta = 0.7;
  hand.join_method = JoinMethod::kLoop;
  auto hand_out = FsJoin(hand).Run(corpus);
  ASSERT_TRUE(hand_out.ok());
  EXPECT_EQ(check::ResultDigest(out->pairs), check::ResultDigest(hand_out->pairs));
}

TEST(AutoTuneEndToEndTest, SkewTriggeredSplittingKeepsResultsIdentical) {
  // Community-structured corpus engineered to trip the skew trigger:
  // 10 token communities with distinct sizes (so their tokens occupy
  // disjoint frequency bands -> contiguous rank ranges the DP can split
  // apart), one community much larger than the rest (its fragment's
  // quadratic cost dwarfs the mean -> heavy), and two record-length
  // classes per community (6 and 24; at theta 0.8 jaccard the partner
  // bound of 24 is 20 > 6, so the sampled lengths span >= 2 windows and
  // horizontal splitting is worth turning on).
  Rng rng(99);
  std::vector<std::vector<uint32_t>> sets;
  for (uint32_t community = 0; community < 10; ++community) {
    const uint32_t base = community * 100;
    const uint32_t count = community == 0 ? 400 : 30 + community * 10;
    for (uint32_t r = 0; r < count; ++r) {
      const size_t len = r % 2 == 0 ? 6 : 24;
      std::vector<uint32_t> tokens;
      while (tokens.size() < len) {
        const uint32_t t = base + static_cast<uint32_t>(rng.NextBounded(100));
        if (std::find(tokens.begin(), tokens.end(), t) == tokens.end()) {
          tokens.push_back(t);
        }
      }
      sets.push_back(std::move(tokens));
    }
  }
  Corpus corpus = CorpusFromTokenSets(sets);

  GlobalOrder order = GlobalOrder::FromCorpus(corpus);
  tune::TuneOptions topt;
  topt.sample_rate = 1.0;
  topt.num_fragments = 16;
  tune::TunePlan plan = tune::PlanTuning(corpus, order, topt);
  EXPECT_GE(plan.pivots.size(), 1u)
      << "disjoint communities should split into multiple fragments";
  EXPECT_GE(plan.horizontal_t, 1u)
      << "a heavy fragment plus >= 2 length windows should enable splitting";
  uint32_t heavy = 0;
  for (uint8_t h : plan.split_fragment) heavy += h;
  EXPECT_GE(heavy, 1u);

  // The split path must not change results: digest equality against a
  // hand-set run with no horizontal partitioning and against one with
  // uniform horizontal partitioning.
  FsJoinConfig hand;
  hand.theta = 0.8;
  auto hand_out = FsJoin(hand).Run(corpus);
  ASSERT_TRUE(hand_out.ok());
  hand.num_horizontal_partitions = 2;
  auto hand_h2_out = FsJoin(hand).Run(corpus);
  ASSERT_TRUE(hand_h2_out.ok());
  ASSERT_EQ(check::ResultDigest(hand_out->pairs),
            check::ResultDigest(hand_h2_out->pairs));

  FsJoinConfig tuned;
  tuned.theta = 0.8;
  tuned.num_vertical_partitions = 16;
  tuned.exec.auto_tune = true;
  tuned.exec.tune_sample_rate = 1.0;
  auto tuned_out = FsJoin(tuned).Run(corpus);
  ASSERT_TRUE(tuned_out.ok()) << tuned_out.status().ToString();
  EXPECT_EQ(check::ResultDigest(tuned_out->pairs),
            check::ResultDigest(hand_out->pairs))
      << "skew-triggered splitting changed the result set";
  bool split_logged = false;
  for (const std::string& line : tuned_out->report.tuning.lines) {
    if (line.find("horizontal: t=") != std::string::npos) split_logged = true;
  }
  EXPECT_TRUE(split_logged) << "expected a horizontal split log line";
}

TEST(AutoTuneEndToEndTest, AutoMatchesAcrossBackends) {
  Corpus corpus = RandomCorpus(300, 350, 0.9, 10.0, 53);
  FsJoinConfig config;
  config.theta = 0.7;
  config.exec.auto_tune = true;
  config.exec.tune_sample_rate = 0.5;
  auto mr_out = FsJoin(config).Run(corpus);
  ASSERT_TRUE(mr_out.ok());
  config.exec.backend = exec::BackendKind::kFusedFlow;
  auto flow_out = FsJoin(config).Run(corpus);
  ASSERT_TRUE(flow_out.ok());
  EXPECT_EQ(check::ResultDigest(mr_out->pairs), check::ResultDigest(flow_out->pairs));
}

}  // namespace
}  // namespace fsjoin
