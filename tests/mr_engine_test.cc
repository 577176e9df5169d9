// Tests of the MapReduce substrate: execution semantics (record-at-a-time
// map, partitioning, sorted grouping), error propagation, metric
// accounting, the MiniDfs/Pipeline layer and the cluster makespan simulator.

#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <memory>
#include <set>

#include "mr/cluster_sim.h"
#include "mr/engine.h"
#include "mr/pipeline.h"
#include "store/temp_dir.h"
#include "util/hash.h"
#include "util/random.h"
#include "util/serde.h"

namespace fsjoin::mr {
namespace {

// Word-count building blocks used across these tests.
class WordCountMapper : public Mapper {
 public:
  Status Map(const KeyValue& record, Emitter* out) override {
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

class SumReducer : public Reducer {
 public:
  Status Reduce(std::string_view key, ValueList values,
                Emitter* out) override {
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

JobConfig WordCountConfig(uint32_t maps, uint32_t reduces) {
  JobConfig config;
  config.name = "wordcount";
  config.num_map_tasks = maps;
  config.num_reduce_tasks = reduces;
  config.mapper_factory = [] { return std::make_unique<WordCountMapper>(); };
  config.reducer_factory = [] { return std::make_unique<SumReducer>(); };
  return config;
}

Dataset WordsInput() {
  return {{"1", "a b a"}, {"2", "b c"}, {"3", "a a a"}, {"4", ""},
          {"5", "c"},     {"6", "d b"}};
}

std::map<std::string, uint64_t> DecodeCounts(const Dataset& output) {
  std::map<std::string, uint64_t> counts;
  for (const KeyValue& kv : output) {
    Decoder dec(kv.value);
    uint64_t v = 0;
    EXPECT_TRUE(dec.GetVarint64(&v).ok());
    counts[kv.key] += v;
  }
  return counts;
}

TEST(EngineTest, WordCountIsCorrect) {
  Engine engine(0);
  Dataset output;
  JobMetrics metrics;
  ASSERT_TRUE(engine
                  .Run(WordCountConfig(3, 4), WordsInput(),
                       &output, &metrics)
                  .ok());
  auto counts = DecodeCounts(output);
  EXPECT_EQ(counts["a"], 5u);
  EXPECT_EQ(counts["b"], 3u);
  EXPECT_EQ(counts["c"], 2u);
  EXPECT_EQ(counts["d"], 1u);
  EXPECT_EQ(counts.size(), 4u);
}

TEST(EngineTest, ResultsIndependentOfTaskCounts) {
  for (uint32_t maps : {1u, 2u, 7u}) {
    for (uint32_t reduces : {1u, 3u, 8u}) {
      Engine engine(0);
      Dataset output;
      JobMetrics metrics;
      ASSERT_TRUE(engine
                      .Run(WordCountConfig(maps, reduces), WordsInput(),
                           &output, &metrics)
                      .ok());
      auto counts = DecodeCounts(output);
      EXPECT_EQ(counts["a"], 5u) << maps << "x" << reduces;
      EXPECT_EQ(metrics.reduce_tasks.size(), reduces);
    }
  }
}

TEST(EngineTest, ThreadedMatchesInline) {
  Engine inline_engine(0), threaded(4);
  Dataset a, b;
  JobMetrics ma, mb;
  ASSERT_TRUE(inline_engine
                  .Run(WordCountConfig(4, 5), WordsInput(), &a, &ma)
                  .ok());
  ASSERT_TRUE(
      threaded.Run(WordCountConfig(4, 5), WordsInput(), &b, &mb).ok());
  EXPECT_EQ(DecodeCounts(a), DecodeCounts(b));
}

TEST(EngineTest, ReduceInputIsKeySorted) {
  // A reducer that checks its keys arrive in sorted order per partition.
  class OrderCheckReducer : public Reducer {
   public:
    Status Reduce(std::string_view key, ValueList,
                  Emitter* out) override {
      if (!last_.empty() && key < last_) {
        return Status::Internal("keys out of order");
      }
      last_ = std::string(key);
      out->Emit(key, "");
      return Status::OK();
    }
    std::string last_;
  };
  JobConfig config;
  config.num_map_tasks = 3;
  config.num_reduce_tasks = 2;
  config.mapper_factory = [] { return std::make_unique<WordCountMapper>(); };
  config.reducer_factory = [] { return std::make_unique<OrderCheckReducer>(); };
  Engine engine(0);
  Dataset output;
  JobMetrics metrics;
  EXPECT_TRUE(engine.Run(config, WordsInput(), &output, &metrics).ok());
}

TEST(EngineTest, MapErrorAbortsJob) {
  class FailingMapper : public Mapper {
   public:
    Status Map(const KeyValue&, Emitter*) override {
      return Status::Internal("boom");
    }
  };
  JobConfig config = WordCountConfig(2, 2);
  config.mapper_factory = [] { return std::make_unique<FailingMapper>(); };
  Engine engine(0);
  Dataset output;
  JobMetrics metrics;
  Status st = engine.Run(config, WordsInput(), &output, &metrics);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.message(), "task 'wordcount/map0' failed after 1 attempt(s): boom");
}

TEST(EngineTest, ReduceErrorAbortsJob) {
  class FailingReducer : public Reducer {
   public:
    Status Reduce(std::string_view, ValueList, Emitter*) override {
      return Status::OutOfRange("bad reduce");
    }
  };
  JobConfig config = WordCountConfig(2, 2);
  config.reducer_factory = [] { return std::make_unique<FailingReducer>(); };
  Engine engine(0);
  Dataset output;
  JobMetrics metrics;
  EXPECT_FALSE(engine.Run(config, WordsInput(), &output, &metrics).ok());
}

TEST(EngineTest, MissingFactoriesRejected) {
  Engine engine(0);
  Dataset output;
  JobMetrics metrics;
  JobConfig config;
  EXPECT_EQ(engine.Run(config, WordsInput(), &output, &metrics).code(),
            StatusCode::kInvalidArgument);
}

TEST(EngineTest, EmptyInputProducesEmptyOutput) {
  Engine engine(0);
  Dataset output = {{"junk", "junk"}};
  JobMetrics metrics;
  ASSERT_TRUE(
      engine.Run(WordCountConfig(4, 4), {}, &output, &metrics).ok());
  EXPECT_TRUE(output.empty());
  EXPECT_EQ(metrics.map_input_records, 0u);
}

TEST(EngineTest, MetricsAccounting) {
  Engine engine(0);
  Dataset output;
  JobMetrics metrics;
  Dataset input = WordsInput();
  ASSERT_TRUE(
      engine.Run(WordCountConfig(2, 3), input, &output, &metrics).ok());
  EXPECT_EQ(metrics.map_input_records, input.size());
  EXPECT_EQ(metrics.map_output_records, 11u);  // total words
  EXPECT_EQ(metrics.shuffle_records, metrics.map_output_records);
  EXPECT_EQ(metrics.reduce_output_records, output.size());
  uint64_t reduce_inputs = 0;
  for (const auto& t : metrics.reduce_tasks) reduce_inputs += t.input_records;
  EXPECT_EQ(reduce_inputs, metrics.shuffle_records);
  EXPECT_GT(metrics.DuplicationFactor(), 1.0);  // words > records
}

TEST(PartitionerTest, CustomPartitionerIsHonored) {
  // Route everything to partition 0; reduce task 1.. must see nothing.
  class ZeroPartitioner : public Partitioner {
   public:
    uint32_t Partition(std::string_view, uint32_t) const override {
      return 0;
    }
  };
  JobConfig config = WordCountConfig(2, 4);
  config.partitioner = std::make_shared<ZeroPartitioner>();
  Engine engine(0);
  Dataset output;
  JobMetrics metrics;
  ASSERT_TRUE(engine.Run(config, WordsInput(), &output, &metrics).ok());
  EXPECT_GT(metrics.reduce_tasks[0].input_records, 0u);
  for (size_t r = 1; r < metrics.reduce_tasks.size(); ++r) {
    EXPECT_EQ(metrics.reduce_tasks[r].input_records, 0u);
  }
  EXPECT_GT(metrics.ReduceSkew(), 3.0);
}

TEST(PartitionerTest, PrefixIdPartitioner) {
  PrefixIdPartitioner p;
  std::string key;
  PutFixed32BE(&key, 7);
  EXPECT_EQ(p.Partition(key, 4), 7u % 4);
  // Short keys fall back to hashing without crashing.
  (void)p.Partition("ab", 4);
}

TEST(PartitionerTest, PrefixIdPartitionerShortKeysUseStableHash) {
  PrefixIdPartitioner p;
  // Keys under 4 bytes can't carry a record id; they hash deterministically
  // and always land in range.
  for (std::string_view key : {std::string_view(""), std::string_view("a"),
                               std::string_view("ab"),
                               std::string_view("abc")}) {
    const uint32_t part = p.Partition(key, 5);
    EXPECT_LT(part, 5u);
    EXPECT_EQ(part, Fnv1a64(key) % 5) << "key size " << key.size();
  }
}

TEST(PartitionerTest, PrefixIdPartitionerSingleAndWrapAround) {
  PrefixIdPartitioner p;
  std::string key;
  PutFixed32BE(&key, 0xFFFFFFFFu);
  // Ids far past the partition count wrap via modulo.
  EXPECT_EQ(p.Partition(key, 7), 0xFFFFFFFFu % 7);
  // A single partition absorbs everything, on both paths.
  EXPECT_EQ(p.Partition(key, 1), 0u);
  EXPECT_EQ(p.Partition("", 1), 0u);
  // Bytes after the 4-byte id prefix don't affect routing.
  EXPECT_EQ(p.Partition(key + "trailing-token-bytes", 7), p.Partition(key, 7));
}

// ---- MiniDfs / Pipeline ------------------------------------------------

TEST(MiniDfsTest, PutGetRemove) {
  MiniDfs dfs;
  EXPECT_FALSE(dfs.Has("x"));
  EXPECT_FALSE(dfs.Get("x").ok());
  dfs.Put("x", {{"k", "v"}});
  ASSERT_TRUE(dfs.Has("x"));
  EXPECT_EQ(dfs.Get("x").value()->size(), 1u);
  dfs.Put("x", {});  // replace
  EXPECT_EQ(dfs.Get("x").value()->size(), 0u);
  dfs.Remove("x");
  EXPECT_FALSE(dfs.Has("x"));
  // Take moves the dataset out and removes the name.
  dfs.Put("y", {{"a", "1"}, {"b", "2"}});
  Result<Dataset> taken = dfs.Take("y");
  ASSERT_TRUE(taken.ok());
  ASSERT_EQ(taken->size(), 2u);
  EXPECT_EQ((*taken)[1].key, "b");
  EXPECT_FALSE(dfs.Has("y"));
  EXPECT_EQ(dfs.Take("y").status().code(), StatusCode::kNotFound);
}

TEST(PipelineTest, ChainsJobsAndRecordsHistory) {
  Engine engine(0);
  MiniDfs dfs;
  Pipeline pipeline(&engine, &dfs);
  dfs.Put("in", WordsInput());
  ASSERT_TRUE(
      pipeline.RunJob(WordCountConfig(2, 2), "in", "counts").ok());
  // Second job over the first job's output (identity-ish re-reduce).
  ASSERT_TRUE(pipeline
                  .RunJob(WordCountConfig(2, 2), "counts",
                          "counts2")
                  .ok());
  EXPECT_EQ(pipeline.history().size(), 2u);
  EXPECT_TRUE(dfs.Has("counts2"));
  JobMetrics total = pipeline.TotalMetrics("all");
  EXPECT_EQ(total.map_input_records,
            pipeline.history()[0].map_input_records +
                pipeline.history()[1].map_input_records);
}

TEST(PipelineTest, MissingInputFails) {
  Engine engine(0);
  MiniDfs dfs;
  Pipeline pipeline(&engine, &dfs);
  EXPECT_EQ(
      pipeline.RunJob(WordCountConfig(1, 1), "nope", "out").code(),
      StatusCode::kNotFound);
}

// ---- Cluster simulator -----------------------------------------------------

TEST(ClusterSimTest, MakespanBasics) {
  // 4 unit tasks on 2 slots -> 2 units; on 4 slots -> 1 unit.
  std::vector<double> tasks(4, 1000.0);
  EXPECT_DOUBLE_EQ(ListScheduleMakespan(tasks, 2), 2000.0);
  EXPECT_DOUBLE_EQ(ListScheduleMakespan(tasks, 4), 1000.0);
  EXPECT_DOUBLE_EQ(ListScheduleMakespan({}, 3), 0.0);
  // One giant task dominates regardless of slots.
  EXPECT_DOUBLE_EQ(ListScheduleMakespan({5000.0, 1.0, 1.0}, 8), 5000.0);
}

TEST(ClusterSimTest, MoreNodesNeverSlower) {
  JobMetrics job;
  job.job_name = "t";
  for (int i = 0; i < 30; ++i) {
    TaskMetrics t;
    t.wall_micros = 1000 + i * 100;
    job.map_tasks.push_back(t);
    t.input_bytes = 10000;
    job.reduce_tasks.push_back(t);
  }
  ClusterCostModel model;
  double prev = 1e18;
  for (uint32_t nodes : {1u, 2u, 5u, 10u, 15u}) {
    SimulatedJobTime sim = SimulateJob(job, nodes, model);
    EXPECT_LE(sim.total_ms, prev + 1e-9);
    prev = sim.total_ms;
  }
}

TEST(ClusterSimTest, SkewedReducersLimitScaling) {
  // One reducer does 100x the work: adding nodes cannot help beyond it.
  JobMetrics job;
  TaskMetrics small;
  small.wall_micros = 1000;
  TaskMetrics big;
  big.wall_micros = 100000;
  for (int i = 0; i < 9; ++i) job.reduce_tasks.push_back(small);
  job.reduce_tasks.push_back(big);
  ClusterCostModel model;
  model.per_task_overhead_micros = 0;
  SimulatedJobTime at5 = SimulateJob(job, 5, model);
  SimulatedJobTime at15 = SimulateJob(job, 15, model);
  EXPECT_GE(at15.reduce_phase_ms, 100.0);  // bounded by the big task
  EXPECT_GT(at5.reduce_balance, 5.0);
  EXPECT_NEAR(at15.reduce_phase_ms, at5.reduce_phase_ms, 1.0);
}

TEST(ClusterSimTest, PipelineSumsJobs) {
  JobMetrics job;
  TaskMetrics t;
  t.wall_micros = 1000;
  job.map_tasks.push_back(t);
  job.reduce_tasks.push_back(t);
  ClusterCostModel model;
  SimulatedJobTime one = SimulateJob(job, 2, model);
  SimulatedJobTime two = SimulatePipeline({job, job}, 2, model);
  EXPECT_NEAR(two.total_ms, 2 * one.total_ms, 1e-6);
}


TEST(ClusterSimTest, OversizedGroupsChargeSpills) {
  JobMetrics job;
  TaskMetrics t;
  t.wall_micros = 1000;
  t.input_bytes = 10 * 1024 * 1024;  // 10 MB into one reducer
  t.max_group_bytes = 4 * 1024 * 1024;  // largest fragment: 4 MB
  job.reduce_tasks.push_back(t);
  ClusterCostModel roomy;
  roomy.per_task_overhead_micros = 0;
  ClusterCostModel tight = roomy;
  tight.reduce_memory_bytes = 1024 * 1024;  // 1 MB group budget -> spills
  SimulatedJobTime fast = SimulateJob(job, 4, roomy);
  SimulatedJobTime slow = SimulateJob(job, 4, tight);
  EXPECT_GT(slow.total_ms, fast.total_ms);
  // Every input byte pays the spill cost once a group exceeds the budget.
  double expected_extra_ms =
      10.0 * 1024 * 1024 * tight.spill_micros_per_byte / 1000.0;
  EXPECT_NEAR(slow.total_ms - fast.total_ms, expected_extra_ms, 1e-6);

  // Groups inside the budget never pay, regardless of task input size.
  job.reduce_tasks[0].max_group_bytes = 512 * 1024;
  SimulatedJobTime ok = SimulateJob(job, 4, tight);
  EXPECT_NEAR(ok.total_ms, fast.total_ms, 1e-6);
}

TEST(EngineTest, ReduceTasksRecordMaxGroupBytes) {
  Engine engine(0);
  Dataset output;
  JobMetrics metrics;
  ASSERT_TRUE(engine
                  .Run(WordCountConfig(1, 1), WordsInput(), &output,
                       &metrics)
                  .ok());
  // Largest group is 'a' (5 records of key "a" + value varint(1)).
  ASSERT_EQ(metrics.reduce_tasks.size(), 1u);
  EXPECT_EQ(metrics.reduce_tasks[0].max_group_bytes, 5u * 2u);
}

TEST(EngineTest, MapperFinishCanEmit) {
  // A mapper that emits one trailing record per task from Finish().
  class TrailerMapper : public Mapper {
   public:
    Status Map(const KeyValue&, Emitter*) override { return Status::OK(); }
    Status Finish(Emitter* out) override {
      out->Emit("trailer", "1");
      return Status::OK();
    }
  };
  JobConfig config;
  config.num_map_tasks = 3;
  config.num_reduce_tasks = 2;
  config.mapper_factory = [] { return std::make_unique<TrailerMapper>(); };
  config.reducer_factory = [] { return std::make_unique<SumReducer>(); };
  Engine engine(0);
  Dataset output;
  JobMetrics metrics;
  ASSERT_TRUE(engine.Run(config, WordsInput(), &output, &metrics).ok());
  // 3 map tasks (6 records / 3 tasks) -> 3 trailers summed into one group.
  ASSERT_EQ(output.size(), 1u);
  EXPECT_EQ(output[0].key, "trailer");
}

TEST(EngineTest, SetupErrorAborts) {
  class BadSetupMapper : public Mapper {
   public:
    Status Setup() override { return Status::FailedPrecondition("no setup"); }
    Status Map(const KeyValue&, Emitter*) override { return Status::OK(); }
  };
  JobConfig config;
  config.num_map_tasks = 2;
  config.num_reduce_tasks = 2;
  config.mapper_factory = [] { return std::make_unique<BadSetupMapper>(); };
  config.reducer_factory = [] { return std::make_unique<SumReducer>(); };
  Engine engine(0);
  Dataset output;
  JobMetrics metrics;
  Status st = engine.Run(config, WordsInput(), &output, &metrics);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
}

// ---- External shuffle (spill-to-disk) ---------------------------------

// A few hundred lines of random words: enough shuffle volume that a tiny
// budget forces several spill runs per reduce shard.
Dataset BigWordsInput(size_t lines, uint64_t seed) {
  Rng rng(seed);
  Dataset input;
  input.reserve(lines);
  for (size_t i = 0; i < lines; ++i) {
    std::string text;
    const size_t words = 2 + rng.NextBounded(6);
    for (size_t w = 0; w < words; ++w) {
      if (w > 0) text.push_back(' ');
      const size_t len = 1 + rng.NextBounded(4);
      for (size_t c = 0; c < len; ++c) {
        text.push_back(static_cast<char>('a' + rng.NextBounded(3)));
      }
    }
    input.push_back(KeyValue{std::to_string(i), std::move(text)});
  }
  return input;
}

void ExpectSameDataset(const Dataset& a, const Dataset& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].key, b[i].key) << "at " << i;
    EXPECT_EQ(a[i].value, b[i].value) << "at " << i;
  }
}

TEST(EngineSpillTest, ForcedSpillIsByteIdenticalToInMemory) {
  const Dataset input = BigWordsInput(300, 91);
  const JobConfig config = WordCountConfig(4, 3);

  Engine plain(0);
  Dataset want;
  JobMetrics want_metrics;
  ASSERT_TRUE(plain.Run(config, input, &want, &want_metrics).ok());
  EXPECT_EQ(want_metrics.spilled_bytes, 0u);
  EXPECT_EQ(want_metrics.spill_runs, 0u);

  EngineOptions options;
  options.shuffle_memory_bytes = 256;  // far below the shuffle volume
  Engine spilling(options);
  Dataset got;
  JobMetrics got_metrics;
  ASSERT_TRUE(spilling.Run(config, input, &got, &got_metrics).ok());

  ExpectSameDataset(want, got);
  EXPECT_GT(got_metrics.spilled_bytes, 0u);
  EXPECT_GT(got_metrics.spill_runs, 0u);
  // Everything except the spill counters is unchanged by the spill path.
  EXPECT_EQ(got_metrics.map_output_records, want_metrics.map_output_records);
  EXPECT_EQ(got_metrics.shuffle_records, want_metrics.shuffle_records);
  EXPECT_EQ(got_metrics.reduce_output_records,
            want_metrics.reduce_output_records);
}

TEST(EngineSpillTest, ThreadedForcedSpillMatchesInline) {
  const Dataset input = BigWordsInput(300, 92);
  const JobConfig config = WordCountConfig(6, 4);

  EngineOptions inline_opts;
  inline_opts.shuffle_memory_bytes = 256;
  Engine inline_engine(inline_opts);
  Dataset a;
  JobMetrics ma;
  ASSERT_TRUE(inline_engine.Run(config, input, &a, &ma).ok());

  EngineOptions threaded_opts = inline_opts;
  threaded_opts.num_threads = 4;
  Engine threaded(threaded_opts);
  Dataset b;
  JobMetrics mb;
  ASSERT_TRUE(threaded.Run(config, input, &b, &mb).ok());

  ExpectSameDataset(a, b);
  EXPECT_GT(mb.spill_runs, 0u);
}

TEST(EngineSpillTest, NoSpillFilesSurviveCompletedOrFailedJobs) {
  namespace fs = std::filesystem;
  auto base = store::TempSpillDir::Create("", "fsjoin-engine-test");
  ASSERT_TRUE(base.ok()) << base.status().ToString();
  EngineOptions options;
  options.shuffle_memory_bytes = kMinShuffleMemoryBytes;  // spill everything
  options.spill_dir = base->path();

  const Dataset input = BigWordsInput(100, 93);
  {
    Engine engine(options);
    Dataset output;
    JobMetrics metrics;
    ASSERT_TRUE(
        engine.Run(WordCountConfig(3, 3), input, &output, &metrics)
            .ok());
    EXPECT_GT(metrics.spill_runs, 0u);
  }
  EXPECT_TRUE(fs::is_empty(base->path()))
      << "completed job left spill files behind";

  class FailingReducer : public Reducer {
   public:
    Status Reduce(std::string_view, ValueList, Emitter*) override {
      return Status::Internal("reduce boom");
    }
  };
  JobConfig bad = WordCountConfig(3, 3);
  bad.reducer_factory = [] { return std::make_unique<FailingReducer>(); };
  {
    Engine engine(options);
    Dataset output;
    JobMetrics metrics;
    EXPECT_FALSE(engine.Run(bad, input, &output, &metrics).ok());
  }
  EXPECT_TRUE(fs::is_empty(base->path()))
      << "failed job left spill files behind";
}

TEST(ClusterSimTest, MeasuredSpillBytesOverrideTheGroupHeuristic) {
  JobMetrics job;
  TaskMetrics t;
  t.wall_micros = 1000;
  t.input_bytes = 10 * 1024 * 1024;
  t.max_group_bytes = 4 * 1024 * 1024;
  job.reduce_tasks.push_back(t);
  ClusterCostModel tight;
  tight.per_task_overhead_micros = 0;
  tight.reduce_memory_bytes = 1024 * 1024;  // heuristic would charge 10 MB

  SimulatedJobTime inferred = SimulateJob(job, 4, tight);

  // With a measured 2 MB of spill the simulator charges exactly that —
  // not every input byte the heuristic assumes.
  job.reduce_tasks[0].spilled_bytes = 2 * 1024 * 1024;
  SimulatedJobTime measured = SimulateJob(job, 4, tight);
  EXPECT_LT(measured.total_ms, inferred.total_ms);

  ClusterCostModel roomy = tight;
  roomy.reduce_memory_bytes = 1ull << 40;
  job.reduce_tasks[0].spilled_bytes = 0;
  SimulatedJobTime baseline = SimulateJob(job, 4, roomy);
  job.reduce_tasks[0].spilled_bytes = 2 * 1024 * 1024;
  SimulatedJobTime spilled = SimulateJob(job, 4, roomy);
  const double expected_extra_ms =
      2.0 * 1024 * 1024 * roomy.spill_micros_per_byte / 1000.0;
  EXPECT_NEAR(spilled.total_ms - baseline.total_ms, expected_extra_ms, 1e-6);
}

TEST(EngineTest, SingleRecordInput) {
  Engine engine(0);
  Dataset output;
  JobMetrics metrics;
  ASSERT_TRUE(engine
                  .Run(WordCountConfig(8, 8), {{"1", "solo"}}, &output,
                       &metrics)
                  .ok());
  ASSERT_EQ(output.size(), 1u);
  EXPECT_EQ(output[0].key, "solo");
  // Map task count is clamped to the input size.
  EXPECT_EQ(metrics.map_tasks.size(), 1u);
}

}  // namespace
}  // namespace fsjoin::mr
