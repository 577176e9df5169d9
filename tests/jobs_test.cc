// Unit tests for the MR-facing plumbing of core/: corpus dataset serde,
// the ordering job, the fragment partitioner, partial-overlap encoding,
// verification decoding, config validation and report structure.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "baselines/baseline.h"
#include "baselines/vernica_join.h"
#include "core/fsjoin.h"
#include "core/jobs.h"
#include "mr/engine.h"
#include "test_util.h"
#include "text/generator.h"
#include "util/hash.h"
#include "util/serde.h"

namespace fsjoin {
namespace {

using ::fsjoin::testing::CorpusFromTokenSets;
using ::fsjoin::testing::RandomCorpus;

TEST(CorpusDatasetTest, RoundTrip) {
  Corpus corpus = RandomCorpus(40, 60, 1.0, 8, 1);
  mr::Dataset dataset = MakeCorpusDataset(corpus);
  ASSERT_EQ(dataset.size(), corpus.NumRecords());
  for (size_t i = 0; i < dataset.size(); ++i) {
    RecordId rid = 0;
    std::vector<TokenId> tokens;
    ASSERT_TRUE(DecodeCorpusRecord(dataset[i], &rid, &tokens).ok());
    EXPECT_EQ(rid, corpus.records[i].id);
    EXPECT_EQ(tokens, corpus.records[i].tokens);
  }
  // Keys are bytewise-sortable record ids.
  EXPECT_LT(dataset[0].key, dataset[1].key);
}

TEST(CorpusDatasetTest, DecodeRejectsGarbage) {
  RecordId rid = 0;
  std::vector<TokenId> tokens;
  EXPECT_FALSE(DecodeCorpusRecord({"", ""}, &rid, &tokens).ok());
  EXPECT_FALSE(DecodeCorpusRecord({"abcd", "\xff\xff\xff"}, &rid, &tokens).ok());
}

TEST(OrderingJobTest, ComputesExactFrequencies) {
  Corpus corpus = CorpusFromTokenSets({{0, 1, 2}, {1, 2}, {2}});
  mr::Engine engine(0);
  mr::Dataset output;
  mr::JobMetrics metrics;
  ASSERT_TRUE(engine
                  .Run(MakeOrderingJobConfig(2, 3), MakeCorpusDataset(corpus),
                       &output, &metrics)
                  .ok())
      << "ordering job failed";
  Result<GlobalOrder> order =
      BuildGlobalOrderFromJobOutput(output, corpus.dictionary.size());
  ASSERT_TRUE(order.ok());
  // Frequencies: t0=1, t1=2, t2=3 (token ids match interning order).
  TokenId t0 = corpus.dictionary.Lookup("t0").value();
  TokenId t1 = corpus.dictionary.Lookup("t1").value();
  TokenId t2 = corpus.dictionary.Lookup("t2").value();
  EXPECT_EQ(order->RankOf(t0), 0u);
  EXPECT_EQ(order->RankOf(t1), 1u);
  EXPECT_EQ(order->RankOf(t2), 2u);
  EXPECT_EQ(order->TotalFrequency(), 6u);
  // Combiner must have pre-aggregated (shuffle < map emissions).
  EXPECT_LT(metrics.shuffle_records, 6u);
}

TEST(OrderingJobTest, RejectsOutOfVocabularyTokens) {
  Corpus corpus = CorpusFromTokenSets({{0, 1}});
  mr::Engine engine(0);
  mr::Dataset output;
  mr::JobMetrics metrics;
  ASSERT_TRUE(engine
                  .Run(MakeOrderingJobConfig(1, 1), MakeCorpusDataset(corpus),
                       &output, &metrics)
                  .ok());
  // Pretend the vocabulary is smaller than the data claims.
  EXPECT_FALSE(BuildGlobalOrderFromJobOutput(output, 1).ok());
}

TEST(FragmentPartitionerTest, SpreadsFragmentsRoundRobin) {
  FragmentPartitioner partitioner(/*num_vertical=*/4);
  auto key = [](uint32_t h, uint32_t v) {
    std::string k;
    PutFixed32BE(&k, h);
    PutFixed32BE(&k, v);
    return k;
  };
  // (h, v) -> (h*4 + v) % partitions.
  EXPECT_EQ(partitioner.Partition(key(0, 0), 3), 0u);
  EXPECT_EQ(partitioner.Partition(key(0, 1), 3), 1u);
  EXPECT_EQ(partitioner.Partition(key(0, 3), 3), 0u);
  EXPECT_EQ(partitioner.Partition(key(1, 0), 3), 1u);
  EXPECT_EQ(partitioner.Partition(key(2, 2), 3), 1u);
  // Malformed keys fall back to hashing, never crash.
  (void)partitioner.Partition("xy", 3);
}

TEST(FragmentPartitionerTest, ShortKeysFallBackToStableHash) {
  FragmentPartitioner partitioner(/*num_vertical=*/4);
  // Anything shorter than the 8-byte (h, v) prefix — including a key that
  // decodes h but runs out mid-v — hashes instead of decoding.
  for (std::string_view key : {std::string_view(""), std::string_view("a"),
                               std::string_view("abcd"),
                               std::string_view("abcdefg")}) {
    const uint32_t part = partitioner.Partition(key, 3);
    EXPECT_LT(part, 3u);
    EXPECT_EQ(part, Fnv1a64(key) % 3) << "key size " << key.size();
  }
}

TEST(FragmentPartitionerTest, SinglePartitionAndWrapAround) {
  FragmentPartitioner partitioner(/*num_vertical=*/4);
  auto key = [](uint32_t h, uint32_t v) {
    std::string k;
    PutFixed32BE(&k, h);
    PutFixed32BE(&k, v);
    return k;
  };
  // One partition absorbs everything, on both the decode and hash paths.
  EXPECT_EQ(partitioner.Partition(key(3, 2), 1), 0u);
  EXPECT_EQ(partitioner.Partition("x", 1), 0u);
  // Fragment ids far beyond the partition count wrap via modulo.
  EXPECT_EQ(partitioner.Partition(key(1000000, 3), 7), (1000000u * 4 + 3) % 7);
  EXPECT_EQ(partitioner.Partition(key(0xFFFFFFFFu, 0), 3),
            (0xFFFFFFFFu * 4u) % 3);
}

TEST(PartialOverlapTest, EncodingMatchesVerificationInput) {
  PartialOverlap p{3, 9, 25, 40, 7};
  std::string key, value;
  EncodePartialOverlap(p, &key, &value);
  Decoder key_dec(key);
  uint32_t a = 0, b = 0;
  ASSERT_TRUE(key_dec.GetFixed32BE(&a).ok());
  ASSERT_TRUE(key_dec.GetFixed32BE(&b).ok());
  EXPECT_EQ(a, 3u);
  EXPECT_EQ(b, 9u);
  Decoder value_dec(value);
  uint64_t c = 0, la = 0, lb = 0;
  ASSERT_TRUE(value_dec.GetVarint64(&c).ok());
  ASSERT_TRUE(value_dec.GetVarint64(&la).ok());
  ASSERT_TRUE(value_dec.GetVarint64(&lb).ok());
  EXPECT_EQ(c, 7u);
  EXPECT_EQ(la, 25u);
  EXPECT_EQ(lb, 40u);
}

TEST(VerificationJobTest, AggregatesAcrossFragments) {
  // Two partial overlaps of the same pair (3 + 4 = 7 of sizes 8/9) must be
  // summed: jaccard = 7/10 = 0.7.
  mr::Dataset partials;
  for (uint64_t c : {3u, 4u}) {
    PartialOverlap p{1, 2, 8, 9, c};
    mr::KeyValue kv;
    EncodePartialOverlap(p, &kv.key, &kv.value);
    partials.push_back(std::move(kv));
  }
  auto ctx = std::make_shared<VerificationContext>();
  ctx->config.theta = 0.7;
  ctx->config.function = SimilarityFunction::kJaccard;
  ctx->config.exec.num_map_tasks = 2;
  ctx->config.exec.num_reduce_tasks = 2;
  mr::Engine engine(0);
  mr::Dataset output;
  mr::JobMetrics metrics;
  ASSERT_TRUE(engine
                  .Run(MakeVerificationJobConfig(ctx), partials, &output,
                       &metrics)
                  .ok());
  Result<JoinResultSet> results = DecodeJoinResults(output);
  ASSERT_TRUE(results.ok());
  ASSERT_EQ(results->size(), 1u);
  EXPECT_EQ((*results)[0].a, 1u);
  EXPECT_EQ((*results)[0].b, 2u);
  EXPECT_NEAR((*results)[0].similarity, 0.7, 1e-12);
  EXPECT_EQ(ctx->candidate_pairs, 1u);

  // Below threshold with only one partial: no output.
  ctx = std::make_shared<VerificationContext>();
  ctx->config.theta = 0.7;
  ctx->config.exec.num_map_tasks = 1;
  ctx->config.exec.num_reduce_tasks = 1;
  mr::Dataset one(partials.begin(), partials.begin() + 1);
  ASSERT_TRUE(
      engine.Run(MakeVerificationJobConfig(ctx), one, &output, &metrics).ok());
  EXPECT_TRUE(output.empty());
  EXPECT_EQ(ctx->candidate_pairs, 1u);
}

// ---- Config -----------------------------------------------------------

TEST(FsJoinConfigTest, ValidationCatchesBadParameters) {
  FsJoinConfig config;
  EXPECT_TRUE(config.Validate().ok());
  config.theta = 0.0;
  EXPECT_FALSE(config.Validate().ok());
  config.theta = 1.5;
  EXPECT_FALSE(config.Validate().ok());
  config.theta = 0.8;
  config.num_vertical_partitions = 0;
  EXPECT_FALSE(config.Validate().ok());
  config.num_vertical_partitions = 4;
  config.exec.num_map_tasks = 0;
  EXPECT_FALSE(config.Validate().ok());
  // NaN fails both halves of a naive "theta <= 0 || theta > 1" test; it
  // and the infinities must still be refused with a Status, not an abort.
  const Corpus corpus = CorpusFromTokenSets({{1, 2, 3}, {1, 2, 4}});
  for (double theta : {std::nan(""), std::numeric_limits<double>::infinity(),
                       -std::numeric_limits<double>::infinity()}) {
    FsJoinConfig bad;
    bad.theta = theta;
    EXPECT_EQ(bad.Validate().code(), StatusCode::kInvalidArgument) << theta;
    EXPECT_FALSE(FsJoin(bad).Run(corpus).ok()) << theta;
  }
}

TEST(BaselineConfigTest, NonFiniteThetaIsRejectedNotAborted) {
  const Corpus corpus = CorpusFromTokenSets({{1, 2, 3}, {1, 2, 4}});
  for (double theta : {std::nan(""), std::numeric_limits<double>::infinity(),
                       -std::numeric_limits<double>::infinity()}) {
    BaselineConfig config;
    config.theta = theta;
    EXPECT_EQ(config.Validate().code(), StatusCode::kInvalidArgument) << theta;
    EXPECT_FALSE(RunVernicaJoin(corpus, config).ok()) << theta;
  }
}

TEST(FsJoinConfigTest, SummaryMentionsKeyKnobs) {
  FsJoinConfig config;
  config.theta = 0.85;
  config.join_method = JoinMethod::kLoop;
  config.pivot_strategy = PivotStrategy::kRandom;
  std::string s = config.Summary();
  EXPECT_NE(s.find("0.85"), std::string::npos);
  EXPECT_NE(s.find("loop"), std::string::npos);
  EXPECT_NE(s.find("random"), std::string::npos);
}

TEST(FsJoinConfigTest, InvalidConfigRejectedByRun) {
  FsJoinConfig config;
  config.theta = -1;
  Corpus corpus = CorpusFromTokenSets({{1, 2}});
  Result<FsJoinOutput> out = FsJoin(config).Run(corpus);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kInvalidArgument);
}

// ---- Report structure -----------------------------------------------------

TEST(FsJoinReportTest, JobListsAndSummary) {
  Corpus corpus = RandomCorpus(50, 80, 1.0, 8, 77);
  FsJoinConfig config;
  config.theta = 0.8;
  Result<FsJoinOutput> out = FsJoin(config).Run(corpus);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->report.AllJobs().size(), 3u);
  EXPECT_EQ(out->report.JoinJobs().size(), 2u);
  EXPECT_EQ(out->report.AllJobs()[0].job_name, "ordering");
  EXPECT_EQ(out->report.JoinJobs()[0].job_name, "filtering");
  EXPECT_EQ(out->report.JoinJobs()[1].job_name, "verification");
  std::string summary = out->report.Summary();
  EXPECT_NE(summary.find("candidates"), std::string::npos);
  EXPECT_NE(summary.find("shuffle"), std::string::npos);
}

// ---- R-S edge cases -------------------------------------------------------

TEST(FsJoinRsTest, EmptySidesYieldNoPairs) {
  Corpus empty;
  Corpus some = CorpusFromTokenSets({{1, 2, 3}});
  FsJoinConfig config;
  config.theta = 0.5;
  Result<FsJoinOutput> a = FsJoinRS(empty, some, config);
  ASSERT_TRUE(a.ok());
  EXPECT_TRUE(a->pairs.empty());
  Result<FsJoinOutput> b = FsJoinRS(some, empty, config);
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(b->pairs.empty());
}

TEST(FsJoinRsTest, IdenticalCollectionsMatchEverywhere) {
  Corpus c = CorpusFromTokenSets({{1, 2, 3}, {4, 5, 6}});
  FsJoinConfig config;
  config.theta = 1.0;
  Result<FsJoinOutput> out = FsJoinRS(c, c, config);
  ASSERT_TRUE(out.ok());
  // Each record matches its twin across the boundary (never within).
  ASSERT_EQ(out->pairs.size(), 2u);
  for (const SimilarPair& p : out->pairs) {
    EXPECT_LT(p.a, 2u);
    EXPECT_GE(p.b, 2u);
    EXPECT_EQ(p.b - 2u, p.a);
    EXPECT_NEAR(p.similarity, 1.0, 1e-12);
  }
}

// ---- Metrics regression ---------------------------------------------------

// The zero-copy shuffle must keep JobMetrics accounting byte-identical to
// the seed engine's per-record path, so perf numbers stay comparable across
// revisions. Expected counters were captured from the seed implementation on
// this fixed-seed corpus and configuration; any drift here means the data
// plane changed what it counts, not just how it stores bytes.
TEST(MetricsRegressionTest, CountersMatchSeedEngine) {
  SyntheticCorpusConfig cfg;
  cfg.num_records = 300;
  cfg.vocab_size = 400;
  cfg.zipf_skew = 1.0;
  cfg.avg_len = 12;
  cfg.len_sigma = 0.7;
  cfg.min_len = 1;
  cfg.max_len = 56;
  cfg.near_duplicate_fraction = 0.35;
  cfg.mutation_rate = 0.12;
  cfg.seed = 4242;
  Corpus corpus = GenerateCorpus(cfg);

  FsJoinConfig config;
  config.theta = 0.8;
  config.num_vertical_partitions = 6;
  config.exec.num_map_tasks = 4;
  config.exec.num_reduce_tasks = 5;
  config.num_horizontal_partitions = 2;
  Result<FsJoinOutput> out = FsJoin(config).Run(corpus);
  ASSERT_TRUE(out.ok()) << out.status().ToString();

  auto max_group_bytes = [](const mr::JobMetrics& m) {
    uint64_t max_group = 0;
    for (const mr::TaskMetrics& t : m.reduce_tasks) {
      max_group = std::max(max_group, t.max_group_bytes);
    }
    return max_group;
  };

  const mr::JobMetrics& ord = out->report.ordering_job;
  EXPECT_EQ(ord.map_input_records, 300u);
  EXPECT_EQ(ord.map_input_bytes, 6677u);
  EXPECT_EQ(ord.map_output_records, 992u);
  EXPECT_EQ(ord.map_output_bytes, 4960u);
  EXPECT_EQ(ord.combine_input_records, 4208u);
  EXPECT_EQ(ord.shuffle_records, 992u);
  EXPECT_EQ(ord.shuffle_bytes, 4960u);
  EXPECT_EQ(ord.reduce_output_records, 375u);
  EXPECT_EQ(ord.reduce_output_bytes, 1878u);
  EXPECT_EQ(max_group_bytes(ord), 20u);

  const mr::JobMetrics& fil = out->report.filtering_job;
  EXPECT_EQ(fil.map_input_records, 300u);
  EXPECT_EQ(fil.map_input_bytes, 6677u);
  EXPECT_EQ(fil.map_output_records, 2382u);
  EXPECT_EQ(fil.map_output_bytes, 42332u);
  EXPECT_EQ(fil.combine_input_records, 0u);
  EXPECT_EQ(fil.shuffle_records, 2382u);
  EXPECT_EQ(fil.shuffle_bytes, 42332u);
  EXPECT_EQ(fil.reduce_output_records, 5628u);
  EXPECT_EQ(fil.reduce_output_bytes, 61908u);
  EXPECT_EQ(max_group_bytes(fil), 2120u);

  const mr::JobMetrics& ver = out->report.verification_job;
  EXPECT_EQ(ver.map_input_records, 5628u);
  EXPECT_EQ(ver.map_input_bytes, 61908u);
  EXPECT_EQ(ver.map_output_records, 5628u);
  EXPECT_EQ(ver.map_output_bytes, 61908u);
  EXPECT_EQ(ver.shuffle_records, 5628u);
  EXPECT_EQ(ver.shuffle_bytes, 61908u);
  EXPECT_EQ(ver.reduce_output_records, 71u);
  EXPECT_EQ(ver.reduce_output_bytes, 1136u);
  EXPECT_EQ(max_group_bytes(ver), 66u);

  EXPECT_EQ(out->report.result_pairs, 71u);
  EXPECT_EQ(out->report.candidate_pairs, 4471u);
}

// ---- Emission budget ------------------------------------------------------

TEST(EmissionBudgetTest, EnforcesLimit) {
  EmissionBudget unlimited(0);
  EXPECT_TRUE(unlimited.Consume(1u << 30).ok());
  EmissionBudget budget(100);
  EXPECT_TRUE(budget.Consume(60).ok());
  EXPECT_TRUE(budget.Consume(40).ok());
  Status st = budget.Consume(1);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
  EXPECT_GE(budget.used(), 100u);
}

}  // namespace
}  // namespace fsjoin
