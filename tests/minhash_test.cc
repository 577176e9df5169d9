// MinHash/LSH approximate join (the paper's future-work extension):
// signature properties, the banding probability, and the join's
// precision-1.0 / high-recall behavior against brute force.

#include <gtest/gtest.h>

#include <cmath>

#include "sim/minhash.h"
#include "sim/serial_join.h"
#include "sim/set_ops.h"
#include "test_util.h"
#include "util/random.h"

namespace fsjoin {
namespace {

using ::fsjoin::testing::OrderedView;
using ::fsjoin::testing::RandomCorpus;

TEST(MinHashSignatureTest, DeterministicAndSeedSensitive) {
  std::vector<TokenRank> tokens = {1, 5, 9, 42, 77};
  auto a = MinHashSignature(tokens, 64, 7);
  auto b = MinHashSignature(tokens, 64, 7);
  auto c = MinHashSignature(tokens, 64, 8);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(a.size(), 64u);
}

TEST(MinHashSignatureTest, IdenticalSetsIdenticalSignatures) {
  std::vector<TokenRank> tokens = {3, 14, 15, 92, 65, 35};
  EXPECT_EQ(MinHashSignature(tokens, 32, 1), MinHashSignature(tokens, 32, 1));
  EXPECT_NEAR(EstimateJaccard(MinHashSignature(tokens, 32, 1),
                              MinHashSignature(tokens, 32, 1)),
              1.0, 1e-12);
}

TEST(MinHashSignatureTest, EstimatesJaccardUnbiasedly) {
  // Two sets with known Jaccard 0.5: estimate from a large signature must
  // land near 0.5.
  std::vector<TokenRank> a, b;
  for (TokenRank t = 0; t < 300; ++t) {
    if (t < 200) a.push_back(t);       // a = [0, 200)
    if (t >= 100) b.push_back(t);      // b = [100, 300); overlap 100/300
  }
  double true_jaccard = 100.0 / 300.0;
  auto sa = MinHashSignature(a, 1024, 5);
  auto sb = MinHashSignature(b, 1024, 5);
  EXPECT_NEAR(EstimateJaccard(sa, sb), true_jaccard, 0.05);
}

TEST(MinHashConfigTest, ValidationAndProbability) {
  MinHashJoinConfig config;
  EXPECT_TRUE(config.Validate().ok());
  config.bands = 33;  // does not divide 128
  EXPECT_FALSE(config.Validate().ok());
  config.bands = 32;
  config.theta = 0.0;
  EXPECT_FALSE(config.Validate().ok());
  config.theta = std::nan("");
  EXPECT_FALSE(config.Validate().ok());
  config.theta = 0.8;

  // r = 4, b = 32: the S-curve is ~0 at low sim, ~1 at high sim.
  EXPECT_LT(config.CandidateProbability(0.2), 0.1);
  EXPECT_GT(config.CandidateProbability(0.9), 0.99);
  // Exact formula check at sim = 0.8.
  double expected = 1.0 - std::pow(1.0 - std::pow(0.8, 4.0), 32.0);
  EXPECT_NEAR(config.CandidateProbability(0.8), expected, 1e-12);
}

TEST(MinHashJoinTest, PrecisionIsOneRecallIsHigh) {
  auto records = OrderedView(RandomCorpus(250, 300, 1.0, 12, 3030));
  MinHashJoinConfig config;
  config.theta = 0.8;
  config.num_hashes = 128;
  config.bands = 32;  // r = 4: recall at 0.8 is ~1 - (1-0.41)^32 ~ 1.0
  MinHashJoinStats stats;
  Result<JoinResultSet> approx = MinHashJoin(records, config, &stats);
  ASSERT_TRUE(approx.ok());
  JoinResultSet exact =
      BruteForceJoin(records, SimilarityFunction::kJaccard, config.theta);

  // Precision 1.0: every returned pair is in the exact result.
  size_t found = 0;
  for (const SimilarPair& p : *approx) {
    bool present = std::binary_search(
        exact.begin(), exact.end(), p,
        [](const SimilarPair& x, const SimilarPair& y) {
          if (x.a != y.a) return x.a < y.a;
          return x.b < y.b;
        });
    EXPECT_TRUE(present) << "(" << p.a << "," << p.b << ")";
    if (present) ++found;
  }
  // Recall: with r=4/b=32 the expected recall at theta is > 99%.
  if (!exact.empty()) {
    EXPECT_GE(static_cast<double>(approx->size()) /
                  static_cast<double>(exact.size()),
              0.95);
  }
  EXPECT_EQ(stats.verified_pairs, approx->size());
  EXPECT_GE(stats.candidate_pairs, stats.verified_pairs);
}

TEST(MinHashJoinTest, FewerBandsLowerRecallFewerCandidates) {
  auto records = OrderedView(RandomCorpus(200, 250, 1.0, 10, 3131));
  MinHashJoinConfig many;
  many.theta = 0.8;
  many.num_hashes = 128;
  many.bands = 32;
  MinHashJoinConfig few = many;
  few.bands = 4;  // r = 32: near-exact matches only
  MinHashJoinStats many_stats, few_stats;
  Result<JoinResultSet> a = MinHashJoin(records, many, &many_stats);
  Result<JoinResultSet> b = MinHashJoin(records, few, &few_stats);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_LE(few_stats.candidate_pairs, many_stats.candidate_pairs);
  EXPECT_LE(b->size(), a->size());
}

TEST(MinHashJoinTest, EmptyInputsAndEmptyRecords) {
  MinHashJoinConfig config;
  Result<JoinResultSet> empty = MinHashJoin({}, config);
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());

  std::vector<OrderedRecord> records(3);
  records[0] = {0, {}};
  records[1] = {1, {1, 2, 3}};
  records[2] = {2, {1, 2, 3}};
  Result<JoinResultSet> out = MinHashJoin(records, config);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), 1u);
  EXPECT_EQ((*out)[0].a, 1u);
}

}  // namespace
}  // namespace fsjoin
