// The logical-plan layer: plan validation, MapReduce lowering (narrow-chain
// fusion into map phases, identity maps, map-only tails, unions), the
// per-wide-stage history contract both backends share, and the headline
// property — FS-Join and every baseline produce identical result sets on
// the MapReduce and fused-dataflow backends.

#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <string>

#include "baselines/massjoin.h"
#include "baselines/vernica_join.h"
#include "baselines/vsmart_join.h"
#include "core/fsjoin.h"
#include "exec/backend.h"
#include "exec/plan.h"
#include "test_util.h"
#include "util/serde.h"

namespace fsjoin::exec {
namespace {

using ::fsjoin::testing::RandomCorpus;

// Reusable word-count operators.
class SplitMapper : public mr::Mapper {
 public:
  Status Map(const mr::KeyValue& record, mr::Emitter* out) override {
    std::string current;
    for (char c : record.value + " ") {
      if (c == ' ') {
        if (!current.empty()) {
          std::string one;
          PutVarint64(&one, 1);
          out->Emit(current, one);
          current.clear();
        }
      } else {
        current.push_back(c);
      }
    }
    return Status::OK();
  }
};

class UpperMapper : public mr::Mapper {
 public:
  Status Map(const mr::KeyValue& record, mr::Emitter* out) override {
    std::string key = record.key;
    for (char& c : key) c = static_cast<char>(std::toupper(c));
    out->Emit(std::move(key), record.value);
    return Status::OK();
  }
};

class SumReducer : public mr::Reducer {
 public:
  Status Reduce(std::string_view key, mr::ValueList values,
                mr::Emitter* out) override {
    uint64_t total = 0;
    for (std::string_view v : values) {
      Decoder dec(v);
      uint64_t x = 0;
      FSJOIN_RETURN_NOT_OK(dec.GetVarint64(&x));
      total += x;
    }
    std::string value;
    PutVarint64(&value, total);
    out->Emit(key, value);
    return Status::OK();
  }
};

mr::Dataset Words() {
  return {{"1", "a b a"}, {"2", "b c"}, {"3", "a a"}, {"4", "d"}};
}

std::map<std::string, uint64_t> Counts(const mr::Dataset& output) {
  std::map<std::string, uint64_t> counts;
  for (const mr::KeyValue& kv : output) {
    Decoder dec(kv.value);
    uint64_t v = 0;
    EXPECT_TRUE(dec.GetVarint64(&v).ok());
    counts[kv.key] += v;
  }
  return counts;
}

ExecConfig SmallExec(BackendKind kind) {
  ExecConfig config;
  config.backend = kind;
  config.num_map_tasks = 3;
  config.num_reduce_tasks = 4;
  return config;
}

// ---- ExecConfig ----------------------------------------------------------

TEST(ExecConfigTest, BackendNames) {
  EXPECT_STREQ(BackendKindName(BackendKind::kMapReduce), "mr");
  EXPECT_STREQ(BackendKindName(BackendKind::kFusedFlow), "flow");
  for (const char* name : {"mr", "mapreduce"}) {
    auto kind = BackendKindFromName(name);
    ASSERT_TRUE(kind.ok());
    EXPECT_EQ(*kind, BackendKind::kMapReduce);
  }
  for (const char* name : {"flow", "fused"}) {
    auto kind = BackendKindFromName(name);
    ASSERT_TRUE(kind.ok());
    EXPECT_EQ(*kind, BackendKind::kFusedFlow);
  }
  EXPECT_FALSE(BackendKindFromName("spark").ok());
}

TEST(ExecConfigTest, ValidateRejectsZeroTaskCounts) {
  ExecConfig config;
  EXPECT_TRUE(config.Validate().ok());
  config.num_map_tasks = 0;
  EXPECT_FALSE(config.Validate().ok());
}

// ---- Plan validation -----------------------------------------------------

// The caps are checked by Validate alone: no config here ever reaches a
// backend, so no thread or process is started for an out-of-range value.
TEST(ExecConfigTest, ValidateCapsThreadsAndSpawnedWorkers) {
  ExecConfig config;
  config.num_threads = kMaxThreadsOrProcesses;
  EXPECT_TRUE(config.Validate().ok());
  config.num_threads = kMaxThreadsOrProcesses + 1;
  EXPECT_EQ(config.Validate().code(), StatusCode::kInvalidArgument);
  config.num_threads = 100000000;
  EXPECT_EQ(config.Validate().code(), StatusCode::kInvalidArgument);

  ExecConfig cluster;
  cluster.runner = mr::RunnerKind::kCluster;
  cluster.spawn_local_workers = static_cast<int>(kMaxThreadsOrProcesses);
  EXPECT_TRUE(cluster.Validate().ok());
  cluster.spawn_local_workers = static_cast<int>(kMaxThreadsOrProcesses) + 1;
  EXPECT_EQ(cluster.Validate().code(), StatusCode::kInvalidArgument);
  cluster.spawn_local_workers = std::numeric_limits<int>::max();
  EXPECT_EQ(cluster.Validate().code(), StatusCode::kInvalidArgument);
}

TEST(PlanTest, ValidationCatchesMissingOperators) {
  Plan ok_plan("ok");
  ok_plan.FlatMap("m", [] { return std::make_unique<SplitMapper>(); })
      .GroupByKey("g", [] { return std::make_unique<SumReducer>(); });
  EXPECT_TRUE(ok_plan.Validate().ok());
  EXPECT_EQ(ok_plan.NumWideStages(), 1u);

  Plan no_mapper("bad");
  no_mapper.FlatMap("m", nullptr);
  EXPECT_FALSE(no_mapper.Validate().ok());

  Plan no_reducer("bad");
  no_reducer.GroupByKey("g", nullptr);
  EXPECT_FALSE(no_reducer.Validate().ok());

  Plan no_dataset("bad");
  no_dataset.UnionWith("u", nullptr);
  EXPECT_FALSE(no_dataset.Validate().ok());
}

// ---- Lowering, both backends ---------------------------------------------

TEST(BackendTest, ChainedNarrowStagesFuseIntoOneJob) {
  for (BackendKind kind : {BackendKind::kMapReduce, BackendKind::kFusedFlow}) {
    auto backend = MakeBackend(SmallExec(kind));
    Plan plan("wordcount");
    plan.FlatMap("split", [] { return std::make_unique<SplitMapper>(); })
        .FlatMap("upper", [] { return std::make_unique<UpperMapper>(); })
        .GroupByKey("sum", [] { return std::make_unique<SumReducer>(); });
    Result<mr::Dataset> out = backend->Execute(plan, Words());
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    auto counts = Counts(*out);
    EXPECT_EQ(counts["A"], 4u);
    EXPECT_EQ(counts["B"], 2u);
    EXPECT_EQ(counts["C"], 1u);
    EXPECT_EQ(counts["D"], 1u);
    // One wide stage -> exactly one history entry, named after the stage,
    // regardless of how many narrow stages preceded it.
    ASSERT_EQ(backend->history().size(), 1u);
    EXPECT_EQ(backend->history()[0].job_name, "sum");
    EXPECT_EQ(backend->history()[0].shuffle_records, 8u);
  }
}

TEST(BackendTest, WideStageWithNoNarrowPrefixGetsIdentityMap) {
  for (BackendKind kind : {BackendKind::kMapReduce, BackendKind::kFusedFlow}) {
    auto backend = MakeBackend(SmallExec(kind));
    Plan plan("presplit");
    plan.GroupByKey("sum", [] { return std::make_unique<SumReducer>(); });
    mr::Dataset input;
    for (const char* word : {"a", "b", "a", "a", "c"}) {
      std::string one;
      PutVarint64(&one, 1);
      input.push_back({word, one});
    }
    Result<mr::Dataset> out = backend->Execute(plan, input);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    auto counts = Counts(*out);
    EXPECT_EQ(counts["a"], 3u);
    EXPECT_EQ(counts["b"], 1u);
    EXPECT_EQ(counts["c"], 1u);
  }
}

TEST(BackendTest, TrailingNarrowStagesRun) {
  for (BackendKind kind : {BackendKind::kMapReduce, BackendKind::kFusedFlow}) {
    auto backend = MakeBackend(SmallExec(kind));
    Plan plan("tailcase");
    plan.FlatMap("split", [] { return std::make_unique<SplitMapper>(); })
        .GroupByKey("sum", [] { return std::make_unique<SumReducer>(); })
        .FlatMap("upper", [] { return std::make_unique<UpperMapper>(); });
    Result<mr::Dataset> out = backend->Execute(plan, Words());
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    auto counts = Counts(*out);
    EXPECT_EQ(counts["A"], 4u);
    EXPECT_EQ(counts["D"], 1u);
    EXPECT_EQ(counts.count("a"), 0u);
  }
}

TEST(BackendTest, UnionSplicesSideDataset) {
  auto side = std::make_shared<const mr::Dataset>(
      mr::Dataset{{"5", "d d"}, {"6", "e"}});
  for (BackendKind kind : {BackendKind::kMapReduce, BackendKind::kFusedFlow}) {
    auto backend = MakeBackend(SmallExec(kind));
    Plan plan("unioned");
    plan.UnionWith("extra", side)
        .FlatMap("split", [] { return std::make_unique<SplitMapper>(); })
        .GroupByKey("sum", [] { return std::make_unique<SumReducer>(); });
    Result<mr::Dataset> out = backend->Execute(plan, Words());
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    auto counts = Counts(*out);
    EXPECT_EQ(counts["a"], 4u);
    EXPECT_EQ(counts["d"], 3u);  // 1 from the input, 2 from the side dataset
    EXPECT_EQ(counts["e"], 1u);
  }
}

TEST(BackendTest, MapReduceRejectsUnionAfterUnflushedFlatMap) {
  auto side = std::make_shared<const mr::Dataset>(mr::Dataset{{"5", "d"}});
  auto backend = MakeBackend(SmallExec(BackendKind::kMapReduce));
  Plan plan("bad-union");
  plan.FlatMap("split", [] { return std::make_unique<SplitMapper>(); })
      .UnionWith("extra", side)
      .GroupByKey("sum", [] { return std::make_unique<SumReducer>(); });
  Result<mr::Dataset> out = backend->Execute(plan, Words());
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kUnimplemented);
}

TEST(BackendTest, HistoryAccumulatesAcrossExecuteCalls) {
  for (BackendKind kind : {BackendKind::kMapReduce, BackendKind::kFusedFlow}) {
    auto backend = MakeBackend(SmallExec(kind));
    Plan plan("repeat");
    plan.FlatMap("split", [] { return std::make_unique<SplitMapper>(); })
        .GroupByKey("sum", [] { return std::make_unique<SumReducer>(); });
    ASSERT_TRUE(backend->Execute(plan, Words()).ok());
    ASSERT_TRUE(backend->Execute(plan, Words()).ok());
    ASSERT_EQ(backend->history().size(), 2u);
    EXPECT_EQ(backend->history()[0].job_name, "sum");
    EXPECT_EQ(backend->history()[1].job_name, "sum");
  }
}

// ---- Backend equivalence: FS-Join and every baseline ---------------------

/// The three corpus shapes stand in for the paper's Email / PubMed / Wiki
/// datasets: short skewed records, mid-length records, long heavy-tailed
/// records.
struct CorpusShape {
  const char* name;
  uint64_t records, vocab;
  double skew, avg_len;
  uint64_t seed;
};

/// gtest lists a parameterized test with the raw bytes of its parameter,
/// `name` pointer included. The names sit at fixed offsets (0x00, 0x30,
/// 0x60) of a 256-aligned table so the listed test names do not change
/// with the binary's layout from one build to the next.
alignas(256) constexpr char kShapeNames[][48] = {"email-like", "pubmed-like",
                                                 "wiki-like"};

const CorpusShape kShapes[] = {
    {kShapeNames[0], 120, 140, 1.05, 7, 9101},
    {kShapeNames[1], 110, 170, 0.9, 11, 9102},
    {kShapeNames[2], 90, 220, 1.2, 16, 9103},
};

class BackendEquivalence : public ::testing::TestWithParam<CorpusShape> {};

TEST_P(BackendEquivalence, FsJoinSameResultsOnBothBackends) {
  const CorpusShape& shape = GetParam();
  Corpus corpus = RandomCorpus(shape.records, shape.vocab, shape.skew,
                               shape.avg_len, shape.seed);
  FsJoinConfig config;
  config.theta = 0.75;
  config.num_vertical_partitions = 5;
  config.num_horizontal_partitions = 2;
  config.exec = SmallExec(BackendKind::kMapReduce);

  Result<FsJoinOutput> mr_out = FsJoin(config).Run(corpus);
  config.exec.backend = BackendKind::kFusedFlow;
  Result<FsJoinOutput> flow_out = FsJoin(config).Run(corpus);
  ASSERT_TRUE(mr_out.ok()) << mr_out.status().ToString();
  ASSERT_TRUE(flow_out.ok()) << flow_out.status().ToString();
  EXPECT_TRUE(SamePairs(mr_out->pairs, flow_out->pairs))
      << DiffResults(mr_out->pairs, flow_out->pairs);
  EXPECT_EQ(mr_out->report.backend, BackendKind::kMapReduce);
  EXPECT_EQ(flow_out->report.backend, BackendKind::kFusedFlow);
  // Same history layout on both backends; the verification stage's reduce
  // output is the result set, so the counters must agree exactly.
  EXPECT_EQ(flow_out->report.verification_job.job_name,
            mr_out->report.verification_job.job_name);
  EXPECT_EQ(flow_out->report.verification_job.reduce_output_records,
            mr_out->report.verification_job.reduce_output_records);
}

TEST_P(BackendEquivalence, BaselinesSameResultsOnBothBackends) {
  const CorpusShape& shape = GetParam();
  Corpus corpus = RandomCorpus(shape.records, shape.vocab, shape.skew,
                               shape.avg_len, shape.seed + 50);
  BaselineConfig config;
  config.theta = 0.75;
  config.exec = SmallExec(BackendKind::kMapReduce);
  BaselineConfig flow_config = config;
  flow_config.exec.backend = BackendKind::kFusedFlow;

  auto check = [&](Result<BaselineOutput> mr_out,
                   Result<BaselineOutput> flow_out) {
    ASSERT_TRUE(mr_out.ok()) << mr_out.status().ToString();
    ASSERT_TRUE(flow_out.ok()) << flow_out.status().ToString();
    EXPECT_TRUE(SamePairs(mr_out->pairs, flow_out->pairs))
        << mr_out->report.algorithm << ": "
        << DiffResults(mr_out->pairs, flow_out->pairs);
    // The signature stage resolves by name on both backends and sees the
    // same record duplication.
    const mr::JobMetrics* mr_sig = mr_out->report.SignatureJob();
    const mr::JobMetrics* flow_sig = flow_out->report.SignatureJob();
    ASSERT_NE(mr_sig, nullptr);
    ASSERT_NE(flow_sig, nullptr);
    EXPECT_EQ(mr_sig->job_name, flow_sig->job_name);
    EXPECT_EQ(mr_sig->shuffle_records, flow_sig->shuffle_records);
  };

  check(RunVernicaJoin(corpus, config), RunVernicaJoin(corpus, flow_config));
  check(RunVSmartJoin(corpus, config), RunVSmartJoin(corpus, flow_config));
  MassJoinConfig mj, mj_flow;
  static_cast<BaselineConfig&>(mj) = config;
  static_cast<BaselineConfig&>(mj_flow) = flow_config;
  check(RunMassJoin(corpus, mj), RunMassJoin(corpus, mj_flow));
}

// Acceptance for the external shuffle: with the budget far below the
// shuffle volume every wide stage spills run files to disk, yet FS-Join
// produces the identical result set on both backends, and the report
// carries real measured spill volume.
TEST_P(BackendEquivalence, FsJoinForcedSpillMatchesInMemory) {
  const CorpusShape& shape = GetParam();
  Corpus corpus = RandomCorpus(shape.records, shape.vocab, shape.skew,
                               shape.avg_len, shape.seed + 200);
  for (BackendKind kind : {BackendKind::kMapReduce, BackendKind::kFusedFlow}) {
    FsJoinConfig config;
    config.theta = 0.75;
    config.num_vertical_partitions = 5;
    config.num_horizontal_partitions = 2;
    config.exec = SmallExec(kind);

    Result<FsJoinOutput> in_memory = FsJoin(config).Run(corpus);
    ASSERT_TRUE(in_memory.ok()) << in_memory.status().ToString();
    uint64_t baseline_spill = 0;
    for (const mr::JobMetrics& job : in_memory->report.AllJobs()) {
      baseline_spill += job.spilled_bytes;
    }
    EXPECT_EQ(baseline_spill, 0u);  // spill off by default

    FsJoinConfig spill_config = config;
    spill_config.exec.shuffle_memory_bytes = 256;  // way below shuffle size
    Result<FsJoinOutput> spilled = FsJoin(spill_config).Run(corpus);
    ASSERT_TRUE(spilled.ok()) << spilled.status().ToString();
    EXPECT_TRUE(SamePairs(in_memory->pairs, spilled->pairs))
        << BackendKindName(kind) << ": "
        << DiffResults(in_memory->pairs, spilled->pairs);
    uint64_t spilled_bytes = 0;
    uint32_t spill_runs = 0;
    for (const mr::JobMetrics& job : spilled->report.AllJobs()) {
      spilled_bytes += job.spilled_bytes;
      spill_runs += job.spill_runs;
    }
    EXPECT_GT(spilled_bytes, 0u) << BackendKindName(kind);
    EXPECT_GT(spill_runs, 0u) << BackendKindName(kind);
  }
}

TEST_P(BackendEquivalence, BaselinesForcedSpillMatchesInMemory) {
  const CorpusShape& shape = GetParam();
  Corpus corpus = RandomCorpus(shape.records, shape.vocab, shape.skew,
                               shape.avg_len, shape.seed + 250);
  for (BackendKind kind : {BackendKind::kMapReduce, BackendKind::kFusedFlow}) {
    BaselineConfig config;
    config.theta = 0.75;
    config.exec = SmallExec(kind);
    BaselineConfig spill_config = config;
    spill_config.exec.shuffle_memory_bytes = 256;

    auto check = [&](Result<BaselineOutput> in_memory,
                     Result<BaselineOutput> spilled) {
      ASSERT_TRUE(in_memory.ok()) << in_memory.status().ToString();
      ASSERT_TRUE(spilled.ok()) << spilled.status().ToString();
      EXPECT_TRUE(SamePairs(in_memory->pairs, spilled->pairs))
          << spilled->report.algorithm << " on " << BackendKindName(kind)
          << ": " << DiffResults(in_memory->pairs, spilled->pairs);
      uint64_t spilled_bytes = 0;
      for (const mr::JobMetrics& job : spilled->report.jobs) {
        spilled_bytes += job.spilled_bytes;
      }
      EXPECT_GT(spilled_bytes, 0u)
          << spilled->report.algorithm << " on " << BackendKindName(kind);
    };

    check(RunVernicaJoin(corpus, config), RunVernicaJoin(corpus, spill_config));
    check(RunVSmartJoin(corpus, config), RunVSmartJoin(corpus, spill_config));
    MassJoinConfig mj, mj_spill;
    static_cast<BaselineConfig&>(mj) = config;
    static_cast<BaselineConfig&>(mj_spill) = spill_config;
    check(RunMassJoin(corpus, mj), RunMassJoin(corpus, mj_spill));
  }
}

// Acceptance for the morsel-parallel filtering phase: with the knob on and
// 8 worker threads, results, filter counters, and the filtering job's
// metrics are identical to the serial run — on both backends.
TEST_P(BackendEquivalence, ParallelFragmentJoinMatchesSerial) {
  const CorpusShape& shape = GetParam();
  Corpus corpus = RandomCorpus(shape.records, shape.vocab, shape.skew,
                               shape.avg_len, shape.seed + 100);
  for (BackendKind kind : {BackendKind::kMapReduce, BackendKind::kFusedFlow}) {
    FsJoinConfig config;
    config.theta = 0.7;
    config.num_vertical_partitions = 5;
    config.num_horizontal_partitions = 2;
    config.exec = SmallExec(kind);

    Result<FsJoinOutput> serial = FsJoin(config).Run(corpus);
    ASSERT_TRUE(serial.ok()) << serial.status().ToString();

    for (size_t morsel : {size_t{1}, size_t{64}}) {
      FsJoinConfig par_config = config;
      par_config.exec.parallel_fragment_join = true;
      par_config.exec.join_morsel_size = morsel;
      par_config.exec.num_threads = 8;
      Result<FsJoinOutput> parallel = FsJoin(par_config).Run(corpus);
      ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
      EXPECT_TRUE(SamePairs(serial->pairs, parallel->pairs))
          << DiffResults(serial->pairs, parallel->pairs);
      const FilterCounters& sc = serial->report.filters;
      const FilterCounters& pc = parallel->report.filters;
      EXPECT_EQ(sc.pairs_considered, pc.pairs_considered);
      EXPECT_EQ(sc.pruned_role, pc.pruned_role);
      EXPECT_EQ(sc.pruned_strl, pc.pruned_strl);
      EXPECT_EQ(sc.pruned_segl, pc.pruned_segl);
      EXPECT_EQ(sc.pruned_segi, pc.pruned_segi);
      EXPECT_EQ(sc.pruned_segd, pc.pruned_segd);
      EXPECT_EQ(sc.empty_overlap, pc.empty_overlap);
      EXPECT_EQ(sc.emitted, pc.emitted);
      // The filtering job's data-plane metrics must be byte-identical.
      EXPECT_EQ(serial->report.filtering_job.shuffle_bytes,
                parallel->report.filtering_job.shuffle_bytes);
      EXPECT_EQ(serial->report.filtering_job.reduce_output_records,
                parallel->report.filtering_job.reduce_output_records);
      EXPECT_EQ(serial->report.candidate_pairs,
                parallel->report.candidate_pairs);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BackendEquivalence, ::testing::ValuesIn(kShapes),
    [](const ::testing::TestParamInfo<CorpusShape>& info) {
      std::string name = info.param.name;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// ---- Report plumbing -----------------------------------------------------

TEST(BaselineReportTest, SignatureJobLookup) {
  BaselineReport report;
  EXPECT_EQ(report.SignatureJob(), nullptr);
  report.signature_stage = "vernica-kernel";
  EXPECT_EQ(report.SignatureJob(), nullptr);
  mr::JobMetrics job;
  job.job_name = "vernica-kernel";
  job.map_output_records = 42;
  report.jobs.push_back(job);
  ASSERT_NE(report.SignatureJob(), nullptr);
  EXPECT_EQ(report.SignatureJob()->map_output_records, 42u);
  EXPECT_DOUBLE_EQ(report.DuplicationFactor(21), 2.0);
}

}  // namespace
}  // namespace fsjoin::exec
