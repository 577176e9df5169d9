// Unit tests for the MR-facing plumbing of core/: corpus dataset serde,
// the ordering job, the fragment partitioner, partial-overlap encoding,
// verification decoding, config validation and report structure.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <string_view>

#include "baselines/baseline.h"
#include "baselines/vernica_join.h"
#include "core/fsjoin.h"
#include "core/jobs.h"
#include "mr/engine.h"
#include "mr/task.h"
#include "runner_parity.h"
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
  // In-mapper combining: each map task ships one record for the one token
  // block, and the reducer packs them into one.
  EXPECT_EQ(metrics.map_output_records, 2u);
  EXPECT_EQ(metrics.shuffle_records, 2u);
  EXPECT_EQ(output.size(), 1u);
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

/// One ordering-job output record: block key plus (gap, count) pairs.
mr::KeyValue BlockRecord(
    uint32_t block, std::initializer_list<std::pair<uint32_t, uint64_t>> pairs) {
  mr::KeyValue kv;
  PutFixed32BE(&kv.key, block);
  for (const auto& [gap, count] : pairs) {
    PutVarint32(&kv.value, gap);
    PutVarint64(&kv.value, count);
  }
  return kv;
}

TEST(OrderingJobTest, BuildGlobalOrderDecodesPackedBlocks) {
  const size_t vocab = kOrderingBlockWidth + 10;
  // Block 0: token 0 (gap 0) x3, token 5 (gap 4) x1; block 1: token
  // 4096 + 9, the last of the vocabulary.
  Result<GlobalOrder> order = BuildGlobalOrderFromJobOutput(
      {BlockRecord(1, {{9, 2}}), BlockRecord(0, {{0, 3}, {4, 1}})}, vocab);
  ASSERT_TRUE(order.ok()) << order.status().ToString();
  EXPECT_EQ(order->NumTokens(), vocab);
  EXPECT_EQ(order->TotalFrequency(), 6u);
  EXPECT_EQ(order->TokenAt(static_cast<TokenRank>(vocab - 1)), 0u);
  EXPECT_EQ(order->TokenAt(static_cast<TokenRank>(vocab - 2)),
            kOrderingBlockWidth + 9);
}

TEST(OrderingJobTest, BuildGlobalOrderRejectsMalformedOutput) {
  const size_t vocab = kOrderingBlockWidth + 10;
  auto expect_corruption = [vocab](const mr::Dataset& output,
                                   const char* what) {
    Result<GlobalOrder> order = BuildGlobalOrderFromJobOutput(output, vocab);
    ASSERT_FALSE(order.ok()) << what;
    EXPECT_EQ(order.status().code(), StatusCode::kCorruption)
        << what << ": " << order.status().ToString();
  };
  // A token at or past the vocabulary, in a known block or past the last.
  expect_corruption({BlockRecord(1, {{10, 1}})}, "token == vocab");
  expect_corruption({BlockRecord(2, {{0, 1}})}, "block past vocab");
  expect_corruption({BlockRecord(0xffffffffu, {})}, "block 2^32-1");
  // An offset at or past the block width, direct or by accumulated gaps.
  expect_corruption({BlockRecord(0, {{kOrderingBlockWidth, 1}})},
                    "offset == width");
  expect_corruption({BlockRecord(0, {{4000, 1}, {95, 1}})},
                    "gaps reach width");
  expect_corruption({BlockRecord(0, {{0xffffffffu, 1}})}, "huge gap");
  // A token seen twice: its block comes back in two records.
  expect_corruption({BlockRecord(0, {{1, 1}}), BlockRecord(0, {{2, 1}})},
                    "block twice");
  // Truncated bytes.
  mr::KeyValue short_key = BlockRecord(0, {{1, 1}});
  short_key.key.pop_back();
  expect_corruption({short_key}, "3-byte key");
  mr::KeyValue long_key = BlockRecord(0, {{1, 1}});
  long_key.key.push_back('x');
  expect_corruption({long_key}, "5-byte key");
  mr::KeyValue no_count = BlockRecord(0, {{1, 1}});
  PutVarint32(&no_count.value, 3);
  expect_corruption({no_count}, "gap without count");
  mr::KeyValue cut_varint = BlockRecord(0, {});
  cut_varint.value = "\x01\x80";
  expect_corruption({cut_varint}, "count varint cut off");
}

// Orderings equal GlobalOrder::FromCorpus on every in-process and
// subprocess runner and both backends (the cluster runner is covered in
// cluster_test).
TEST(OrderingJobTest, PlanMatchesFromCorpusOnEveryRunnerAndBackend) {
  for (exec::BackendKind backend :
       {exec::BackendKind::kMapReduce, exec::BackendKind::kFusedFlow}) {
    for (mr::RunnerKind runner :
         {mr::RunnerKind::kInline, mr::RunnerKind::kThreads,
          mr::RunnerKind::kSubprocess}) {
      SCOPED_TRACE(std::string(exec::BackendKindName(backend)) + " " +
                   mr::RunnerKindName(runner));
      exec::ExecConfig config;
      config.backend = backend;
      config.runner = runner;
      config.num_map_tasks = 5;
      config.num_reduce_tasks = 3;
      config.num_threads = runner == mr::RunnerKind::kThreads ? 4 : 0;
      testing::ExpectOrderingMatchesFromCorpus(config);
    }
  }
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
  // One packed record per (map task, token block): the 375-token
  // vocabulary is one block, so 4 map tasks shuffle 4 records into 1.
  EXPECT_EQ(ord.map_output_records, 4u);
  EXPECT_EQ(ord.map_output_bytes, 2000u);
  EXPECT_EQ(ord.shuffle_records, 4u);
  EXPECT_EQ(ord.shuffle_bytes, 2000u);
  EXPECT_EQ(ord.reduce_output_records, 1u);
  EXPECT_EQ(ord.reduce_output_bytes, 757u);
  EXPECT_EQ(max_group_bytes(ord), 2000u);

  const mr::JobMetrics& fil = out->report.filtering_job;
  EXPECT_EQ(fil.map_input_records, 300u);
  EXPECT_EQ(fil.map_input_bytes, 6677u);
  EXPECT_EQ(fil.map_output_records, 2382u);
  EXPECT_EQ(fil.map_output_bytes, 42332u);
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

// ---- Task payloads ----------------------------------------------------------

/// Order with a long tail of frequency ties, like a real dictionary.
GlobalOrder TailHeavyOrder(size_t n) {
  std::vector<uint64_t> freq(n);
  for (size_t t = 0; t < n; ++t) freq[t] = (t * 7919) % 13 == 0 ? t % 50 : 1;
  return GlobalOrder::FromFrequencies(std::move(freq));
}

TEST(GlobalOrderCodecTest, RanksRoundTrip) {
  for (size_t n : {size_t{0}, size_t{1}, size_t{2}, size_t{1000}}) {
    const GlobalOrder order = TailHeavyOrder(n);
    std::string bytes;
    order.EncodeRanksTo(&bytes);
    auto decoded = GlobalOrder::DecodeRanks(bytes);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    ASSERT_EQ(decoded->NumTokens(), n);
    for (size_t t = 0; t < n; ++t) {
      EXPECT_EQ(decoded->RankOf(static_cast<TokenId>(t)),
                order.RankOf(static_cast<TokenId>(t)));
      EXPECT_EQ(decoded->TokenAt(static_cast<TokenRank>(t)),
                order.TokenAt(static_cast<TokenRank>(t)));
    }
    // Ranks only: a decoded ordering carries no frequencies.
    EXPECT_EQ(decoded->TotalFrequency(), 0u);
  }
  // Equal-frequency runs code as small ascending steps.
  std::string bytes;
  TailHeavyOrder(1000).EncodeRanksTo(&bytes);
  EXPECT_LT(bytes.size(), 1500u);
}

TEST(GlobalOrderCodecTest, DamagedBytesAreCorruption) {
  std::string bytes;
  TailHeavyOrder(300).EncodeRanksTo(&bytes);
  for (size_t keep = 0; keep < bytes.size(); ++keep) {
    auto decoded = GlobalOrder::DecodeRanks(bytes.substr(0, keep));
    ASSERT_FALSE(decoded.ok()) << "prefix of " << keep << " bytes decoded";
    EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption);
  }
  for (int b = 0; b < 256; ++b) {
    std::string extended = bytes;
    extended.push_back(static_cast<char>(b));
    auto decoded = GlobalOrder::DecodeRanks(extended);
    ASSERT_FALSE(decoded.ok()) << "trailing byte " << b << " accepted";
    EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption);
  }
  // Tokens 0, 0 (delta 0): a repeat, not a permutation.
  std::string repeat;
  PutVarint64(&repeat, 2);
  PutVarint64(&repeat, 0);
  PutVarint64(&repeat, 0);
  EXPECT_EQ(GlobalOrder::DecodeRanks(repeat).status().code(),
            StatusCode::kCorruption);
  // Token 2 of a 2-token domain.
  std::string outside;
  PutVarint64(&outside, 2);
  PutVarint64(&outside, 4);  // zigzag(+2)
  PutVarint64(&outside, 1);  // zigzag(-1)
  EXPECT_EQ(GlobalOrder::DecodeRanks(outside).status().code(),
            StatusCode::kCorruption);
}

/// A context with every payload field away from its default.
std::shared_ptr<FilteringContext> SampleFilteringContext() {
  auto ctx = std::make_shared<FilteringContext>();
  FsJoinConfig& cfg = ctx->config;
  cfg.theta = 0.73;
  cfg.function = SimilarityFunction::kCosine;
  cfg.num_vertical_partitions = 5;
  cfg.join_method = JoinMethod::kIndex;
  cfg.aggressive_segment_prefix = true;
  cfg.use_length_filter = false;
  cfg.use_segment_length_filter = true;
  cfg.use_segment_intersection_filter = false;
  cfg.use_segment_difference_filter = true;
  cfg.exec.kernel = exec::KernelMode::kScalar;
  cfg.exec.auto_tune = true;
  cfg.collect_partial_overlaps = true;
  cfg.rs_boundary = 17;
  ctx->auto_choose_method = true;
  ctx->auto_choose_kernel = false;
  ctx->policy.loop_max_segments = 3;
  ctx->policy.index_max_avg_len = 4;
  ctx->policy.simd_min_avg_len = 5;
  ctx->pivots = {2, 5, 9, 9};
  ctx->horizontal =
      HorizontalScheme({4, 9, 30}, SimilarityFunction::kCosine, 0.73);
  ctx->split_fragment = {1, 0, 1, 0, 0};
  ctx->order = std::make_shared<const GlobalOrder>(TailHeavyOrder(200));
  return ctx;
}

TEST(FilteringPayloadTest, RoundTripsEveryField) {
  const std::shared_ptr<FilteringContext> ctx = SampleFilteringContext();
  const std::string bytes = EncodeFilteringPayload(*ctx);
  auto decoded = DecodeFilteringPayload(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  const FilteringContext& got = **decoded;
  const FsJoinConfig& want = ctx->config;
  EXPECT_EQ(got.config.theta, want.theta);
  EXPECT_EQ(got.config.function, want.function);
  EXPECT_EQ(got.config.num_vertical_partitions, want.num_vertical_partitions);
  EXPECT_EQ(got.config.join_method, want.join_method);
  EXPECT_EQ(got.config.aggressive_segment_prefix,
            want.aggressive_segment_prefix);
  EXPECT_EQ(got.config.use_length_filter, want.use_length_filter);
  EXPECT_EQ(got.config.use_segment_length_filter,
            want.use_segment_length_filter);
  EXPECT_EQ(got.config.use_segment_intersection_filter,
            want.use_segment_intersection_filter);
  EXPECT_EQ(got.config.use_segment_difference_filter,
            want.use_segment_difference_filter);
  EXPECT_EQ(got.config.exec.kernel, want.exec.kernel);
  EXPECT_EQ(got.config.exec.auto_tune, want.exec.auto_tune);
  EXPECT_EQ(got.config.collect_partial_overlaps,
            want.collect_partial_overlaps);
  EXPECT_EQ(got.config.rs_boundary, want.rs_boundary);
  EXPECT_EQ(got.auto_choose_method, ctx->auto_choose_method);
  EXPECT_EQ(got.auto_choose_kernel, ctx->auto_choose_kernel);
  EXPECT_EQ(got.policy.loop_max_segments, ctx->policy.loop_max_segments);
  EXPECT_EQ(got.policy.index_max_avg_len, ctx->policy.index_max_avg_len);
  EXPECT_EQ(got.policy.simd_min_avg_len, ctx->policy.simd_min_avg_len);
  EXPECT_EQ(got.pivots, ctx->pivots);
  EXPECT_EQ(got.horizontal.pivots(), ctx->horizontal.pivots());
  for (uint32_t len : {1u, 4u, 8u, 9u, 12u, 29u, 30u, 40u}) {
    EXPECT_EQ(got.horizontal.GroupsOf(len), ctx->horizontal.GroupsOf(len))
        << "len " << len;
  }
  EXPECT_EQ(got.split_fragment, ctx->split_fragment);
  // The ordering stays encoded until a mapper needs it.
  EXPECT_EQ(got.order, nullptr);
  auto order = GlobalOrder::DecodeRanks(got.order_ranks);
  ASSERT_TRUE(order.ok()) << order.status().ToString();
  ASSERT_EQ(order->NumTokens(), ctx->order->NumTokens());
  for (TokenId t = 0; t < order->NumTokens(); ++t) {
    EXPECT_EQ(order->RankOf(t), ctx->order->RankOf(t));
  }
  // Fresh side state, and no morsel pool: payload-built joins are serial.
  EXPECT_EQ(got.join_pool, nullptr);
  EXPECT_EQ(got.totals.pairs_considered, 0u);
  // A decoded context re-encodes to the same bytes.
  EXPECT_EQ(EncodeFilteringPayload(got), bytes);

  // Defaults, and no R-S boundary, survive too.
  FilteringContext plain;
  plain.order = std::make_shared<const GlobalOrder>(TailHeavyOrder(3));
  auto plain_decoded = DecodeFilteringPayload(EncodeFilteringPayload(plain));
  ASSERT_TRUE(plain_decoded.ok()) << plain_decoded.status().ToString();
  EXPECT_FALSE((*plain_decoded)->config.rs_boundary.has_value());
  EXPECT_TRUE((*plain_decoded)->config.use_length_filter);
  EXPECT_EQ((*plain_decoded)->horizontal.NumGroups(), 1u);
}

/// Every truncated prefix and every appended byte is Corruption.
void ExpectStrictDecode(
    const std::string& bytes,
    const std::function<Status(std::string_view)>& decode) {
  ASSERT_TRUE(decode(bytes).ok());
  for (size_t keep = 0; keep < bytes.size(); ++keep) {
    const Status st = decode(std::string_view(bytes).substr(0, keep));
    ASSERT_FALSE(st.ok()) << "prefix of " << keep << " bytes decoded";
    EXPECT_EQ(st.code(), StatusCode::kCorruption) << st.ToString();
  }
  for (int b = 0; b < 256; ++b) {
    std::string extended = bytes;
    extended.push_back(static_cast<char>(b));
    const Status st = decode(extended);
    ASSERT_FALSE(st.ok()) << "trailing byte " << b << " accepted";
    EXPECT_EQ(st.code(), StatusCode::kCorruption) << st.ToString();
  }
}

TEST(FilteringPayloadTest, CarriesAnActiveFilterFault) {
  FilterFaultInjection fault;
  fault.segl_required_bias = 1;
  fault.segi_required_bias = -2;
  std::string bytes;
  {
    ScopedFilterFault scoped(fault);
    bytes = EncodeFilteringPayload(*SampleFilteringContext());
  }
  auto decoded = DecodeFilteringPayload(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ((*decoded)->filter_fault.segl_required_bias, 1);
  EXPECT_EQ((*decoded)->filter_fault.segi_required_bias, -2);
  // No fault in force: none travels.
  auto clean = DecodeFilteringPayload(
      EncodeFilteringPayload(*SampleFilteringContext()));
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  EXPECT_FALSE((*clean)->filter_fault.Active());
}

TEST(FilteringPayloadTest, TruncationAndTrailingBytesAreCorruption) {
  FilterFaultInjection fault;
  fault.segl_required_bias = 3;
  ScopedFilterFault scoped(fault);  // covers the optional fault fields too
  ExpectStrictDecode(EncodeFilteringPayload(*SampleFilteringContext()),
                     [](std::string_view data) {
                       return DecodeFilteringPayload(data).status();
                     });
}

TEST(FilteringPayloadTest, OutOfRangeFieldsAreCorruption) {
  const std::string good = EncodeFilteringPayload(*SampleFilteringContext());
  // First byte is the version.
  std::string future = good;
  future[0] = 2;
  EXPECT_EQ(DecodeFilteringPayload(future).status().code(),
            StatusCode::kCorruption);
  // Unsorted vertical pivots would make the segment split loop forever.
  auto ctx = SampleFilteringContext();
  ctx->pivots = {9, 2};
  EXPECT_EQ(DecodeFilteringPayload(EncodeFilteringPayload(*ctx))
                .status()
                .code(),
            StatusCode::kCorruption);
  // A θ outside (0, 1].
  ctx = SampleFilteringContext();
  ctx->config.theta = 1.5;
  EXPECT_EQ(DecodeFilteringPayload(EncodeFilteringPayload(*ctx))
                .status()
                .code(),
            StatusCode::kCorruption);
}

TEST(FilteringPayloadTest, OnlyMappersDecodeTheOrdering) {
  // Valid framing around ranks that are not a permutation: the factory
  // resolves and reducers run; a mapper's Setup reports the damage.
  FilteringContext ctx;
  ctx.order_ranks = std::string("\x02\x00\x00", 3);
  const std::string payload = EncodeFilteringPayload(ctx);
  auto factories = mr::ResolveTaskFactory("core.filtering", payload);
  ASSERT_TRUE(factories.ok()) << factories.status().ToString();
  ASSERT_TRUE(factories->reducer);
  ASSERT_TRUE(factories->capture);
  EXPECT_TRUE(factories->reducer()->Setup().ok());
  const Status st = factories->mapper()->Setup();
  EXPECT_EQ(st.code(), StatusCode::kCorruption) << st.ToString();
}

TEST(VerificationPayloadTest, RoundTripsAndRejectsDamage) {
  VerificationContext ctx;
  ctx.config.theta = 0.55;
  ctx.config.function = SimilarityFunction::kDice;
  const std::string bytes = EncodeVerificationPayload(ctx);
  auto decoded = DecodeVerificationPayload(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ((*decoded)->config.theta, 0.55);
  EXPECT_EQ((*decoded)->config.function, SimilarityFunction::kDice);
  EXPECT_EQ((*decoded)->candidate_pairs, 0u);
  ExpectStrictDecode(bytes, [](std::string_view data) {
    return DecodeVerificationPayload(data).status();
  });
}

TEST(TaskFactoryTest, FsJoinJobsAreFactoryNamed) {
  auto filtering = std::make_shared<FilteringContext>();
  filtering->order = std::make_shared<const GlobalOrder>(TailHeavyOrder(10));
  const mr::JobConfig fcfg = MakeFilteringJobConfig(filtering);
  EXPECT_EQ(fcfg.task_factory, "core.filtering");
  EXPECT_EQ(fcfg.task_payload, EncodeFilteringPayload(*filtering));
  EXPECT_TRUE(mr::HasTaskFactory(fcfg.task_factory));
  auto verification = std::make_shared<VerificationContext>();
  const mr::JobConfig vcfg = MakeVerificationJobConfig(verification);
  EXPECT_EQ(vcfg.task_factory, "core.verification");
  EXPECT_TRUE(mr::HasTaskFactory(vcfg.task_factory));
  auto resolved = mr::ResolveTaskFactory(vcfg.task_factory, vcfg.task_payload);
  ASSERT_TRUE(resolved.ok()) << resolved.status().ToString();
  EXPECT_TRUE(resolved->capture);
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
