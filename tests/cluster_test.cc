// End-to-end tests of the networked cluster runtime (ctest label
// `cluster`): record streams crossing real sockets with their trailer
// cross-checks; result-digest identity between the cluster runner (four
// spawned loopback workers) and the inline runner on both backends for
// FS-Join and all three baselines; kill-a-worker fault injection for both
// task kinds (a map death re-runs the task, a reduce death additionally
// re-creates the dead worker's retained shuffle partitions on survivors)
// with exactly-once metrics; heartbeat-timeout death detection against a
// worker that registers and then goes silent; and the cluster-simulator
// cross-check feeding measured 4-worker task costs back into the cost
// model of mr/cluster_sim.h.

#include <gtest/gtest.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iterator>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "baselines/massjoin.h"
#include "baselines/vernica_join.h"
#include "baselines/vsmart_join.h"
#include "check/invariants.h"
#include "core/fsjoin.h"
#include "core/jobs.h"
#include "core/pivots.h"
#include "mr/cluster_sim.h"
#include "mr/engine.h"
#include "mr/runner.h"
#include "mr/task.h"
#include "net/cluster_runner.h"
#include "net/frame.h"
#include "net/socket.h"
#include "net/stream.h"
#include "net/worker.h"
#include "runner_parity.h"
#include "sim/global_order.h"
#include "sim/serial_join.h"
#include "test_util.h"
#include "util/endpoint.h"
#include "util/serde.h"
#include "util/status.h"

namespace fsjoin {
namespace {

using mr::RunnerKind;
using mr::TaskKind;

/// Sets FSJOIN_WORKER_FAULT for one test and always clears it. Spawned
/// workers inherit the environment, so this must be constructed before the
/// cluster runner (i.e. before the join config's Run / Engine build).
class ScopedWorkerFault {
 public:
  explicit ScopedWorkerFault(const std::string& value) {
    ::setenv("FSJOIN_WORKER_FAULT", value.c_str(), 1);
  }
  ~ScopedWorkerFault() { ::unsetenv("FSJOIN_WORKER_FAULT"); }
};

exec::ExecConfig SmallExec(exec::BackendKind backend, RunnerKind runner) {
  exec::ExecConfig config;
  config.backend = backend;
  config.runner = runner;
  config.num_map_tasks = 3;
  config.num_reduce_tasks = 3;
  config.num_threads = 2;
  if (runner == RunnerKind::kCluster) {
    config.spawn_local_workers = 4;
  }
  return config;
}

// ---- Record streams over real sockets --------------------------------

/// Drains a record stream into "key=value" strings; returns the first
/// error, if any.
Status Drain(store::RecordStream* stream, std::vector<std::string>* out) {
  bool has = false;
  std::string_view key, value;
  for (;;) {
    FSJOIN_RETURN_NOT_OK(stream->Next(&has, &key, &value));
    if (!has) return Status::OK();
    out->push_back(std::string(key) + "=" + std::string(value));
  }
}

// Several streams follow one another on one connection, as the responses
// to a reduce task's fetches do on a pooled connection: each is read
// whole, chunk frames kept as they arrived, and replayed afterwards.
TEST(ClusterStreamTest, RecordStreamRoundTripsOverSocketPair) {
  auto pair = net::Socket::Pair();
  ASSERT_TRUE(pair.ok()) << pair.status().ToString();
  net::Socket writer_sock = std::move(pair->first);
  net::Socket reader_sock = std::move(pair->second);

  // The first stream forces several chunks (target is 256 KiB per chunk).
  const size_t kSizes[] = {9000, 0, 3};
  const std::string filler(100, 'x');
  std::thread writer([&] {
    for (size_t n : kSizes) {
      net::ChunkStreamWriter writer(&writer_sock, net::MsgType::kShuffleChunk,
                                    net::MsgType::kShuffleEnd);
      for (size_t i = 0; i < n; ++i) {
        const std::string key = "key" + std::to_string(i);
        ASSERT_TRUE(writer.Add(key, filler).ok());
      }
      ASSERT_TRUE(writer.Finish().ok());
    }
  });

  std::vector<net::ReceivedStream> streams(std::size(kSizes));
  for (net::ReceivedStream& stream : streams) {
    const Status st = net::ReceiveStream(&reader_sock,
                                         net::MsgType::kShuffleChunk,
                                         net::MsgType::kShuffleEnd, &stream);
    ASSERT_TRUE(st.ok()) << st.ToString();
  }
  writer.join();
  EXPECT_GT(streams[0].chunks.size(), 1u);
  EXPECT_TRUE(streams[1].chunks.empty());
  for (size_t s = 0; s < streams.size(); ++s) {
    net::ReceivedRecordStream records(&streams[s]);
    std::vector<std::string> got;
    const Status st = Drain(&records, &got);
    ASSERT_TRUE(st.ok()) << st.ToString();
    ASSERT_EQ(got.size(), kSizes[s]) << "stream " << s;
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i], "key" + std::to_string(i) + "=" + filler);
    }
    EXPECT_EQ(records.records(), kSizes[s]);
    // Drained chunks are freed as the reader moves on.
    for (const std::string& chunk : streams[s].chunks) {
      EXPECT_TRUE(chunk.empty()) << "stream " << s;
    }
  }
}

TEST(ClusterStreamTest, TaskErrorFrameFailsTheStreamWithItsStatus) {
  auto pair = net::Socket::Pair();
  ASSERT_TRUE(pair.ok()) << pair.status().ToString();

  net::TaskErrorMsg err;
  err.error = Status::NotFound("no retained partition for job 'j'");
  std::string payload;
  err.EncodeTo(&payload);
  ASSERT_TRUE(
      net::SendFrame(&pair->first, net::MsgType::kTaskError, payload).ok());

  net::ReceivedStream stream;
  const Status st = net::ReceiveStream(&pair->second,
                                       net::MsgType::kShuffleChunk,
                                       net::MsgType::kShuffleEnd, &stream);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kNotFound) << st.ToString();
  EXPECT_NE(st.message().find("no retained partition"), std::string::npos);
}

TEST(ClusterStreamTest, TrailerCountMismatchIsCorruption) {
  // A lost chunk frame cannot be caught by per-frame CRCs; the trailer's
  // totals must catch it instead: its chunk count on receipt, its record
  // and byte counts once the records are drained.
  auto pair = net::Socket::Pair();
  ASSERT_TRUE(pair.ok()) << pair.status().ToString();

  std::string chunk;
  net::AppendChunkRecord(&chunk, "k1", "v1");
  net::AppendChunkRecord(&chunk, "k2", "v2");
  auto send_stream = [&](uint64_t records, uint32_t chunks) {
    ASSERT_TRUE(
        net::SendFrame(&pair->first, net::MsgType::kShuffleChunk, chunk).ok());
    net::StreamTrailer trailer;
    trailer.records = records;
    trailer.payload_bytes = 8;
    trailer.chunks = chunks;
    std::string payload;
    trailer.EncodeTo(&payload);
    ASSERT_TRUE(
        net::SendFrame(&pair->first, net::MsgType::kShuffleEnd, payload).ok());
  };

  send_stream(/*records=*/3, /*chunks=*/1);  // lies: only 2 were sent
  net::ReceivedStream stream;
  Status st = net::ReceiveStream(&pair->second, net::MsgType::kShuffleChunk,
                                 net::MsgType::kShuffleEnd, &stream);
  ASSERT_TRUE(st.ok()) << st.ToString();
  net::ReceivedRecordStream records(&stream);
  std::vector<std::string> got;
  st = Drain(&records, &got);
  ASSERT_FALSE(st.ok()) << "record-count mismatch went unnoticed";
  EXPECT_EQ(st.code(), StatusCode::kCorruption) << st.ToString();

  send_stream(/*records=*/2, /*chunks=*/2);  // lies: only 1 was sent
  st = net::ReceiveStream(&pair->second, net::MsgType::kShuffleChunk,
                          net::MsgType::kShuffleEnd, &stream);
  ASSERT_FALSE(st.ok()) << "chunk-count mismatch went unnoticed";
  EXPECT_EQ(st.code(), StatusCode::kCorruption) << st.ToString();
}

// ---- Spawn-local cluster bring-up ------------------------------------

TEST(ClusterRunnerTest, SpawnsWorkersAndReportsThemAlive) {
  net::ClusterOptions options;
  options.spawn_local_workers = 3;
  auto runner = net::ClusterTaskRunner::Create(options);
  ASSERT_TRUE(runner.ok()) << runner.status().ToString();
  EXPECT_EQ((*runner)->alive_workers(), 3u);
  EXPECT_STREQ((*runner)->name(), "cluster");
  EXPECT_TRUE((*runner)->distributed());
  EXPECT_TRUE((*runner)->retryable());
  EXPECT_TRUE((*runner)->isolated());
}

TEST(ClusterRunnerTest, CreateRejectsBadTopologyAndHeartbeat) {
  {
    net::ClusterOptions options;  // neither workers nor spawn
    auto runner = net::ClusterTaskRunner::Create(options);
    ASSERT_FALSE(runner.ok());
    EXPECT_NE(runner.status().message().find("exactly one"),
              std::string::npos);
  }
  {
    net::ClusterOptions options;
    options.spawn_local_workers = 2;
    options.workers.push_back(Endpoint{"localhost", 9000});
    auto runner = net::ClusterTaskRunner::Create(options);
    ASSERT_FALSE(runner.ok());
  }
  {
    net::ClusterOptions options;
    options.spawn_local_workers = 2;
    options.heartbeat_ms = 10;
    auto runner = net::ClusterTaskRunner::Create(options);
    ASSERT_FALSE(runner.ok());
    EXPECT_NE(runner.status().message().find("heartbeat_ms"),
              std::string::npos);
  }
}

// ---- Digest identity: cluster vs inline, both backends, 4 algorithms --

JoinResultSet RunAlgorithm(int algorithm, const Corpus& corpus,
                           const exec::ExecConfig& exec_config,
                           std::optional<RecordId> rs_boundary = std::nullopt) {
  const double theta = 0.6;
  switch (algorithm) {
    case 0: {
      FsJoinConfig config;
      config.theta = theta;
      config.num_vertical_partitions = 4;
      config.num_horizontal_partitions = 1;
      config.rs_boundary = rs_boundary;
      config.exec = exec_config;
      auto out = FsJoin(config).Run(corpus);
      EXPECT_TRUE(out.ok()) << out.status().ToString();
      return out.ok() ? std::move(out->pairs) : JoinResultSet{};
    }
    case 1: {
      BaselineConfig config;
      config.theta = theta;
      config.exec = exec_config;
      config.rs_boundary = rs_boundary;
      auto out = RunVernicaJoin(corpus, config);
      EXPECT_TRUE(out.ok()) << out.status().ToString();
      return out.ok() ? std::move(out->pairs) : JoinResultSet{};
    }
    case 2: {
      BaselineConfig config;
      config.theta = theta;
      config.exec = exec_config;
      config.rs_boundary = rs_boundary;
      auto out = RunVSmartJoin(corpus, config);
      EXPECT_TRUE(out.ok()) << out.status().ToString();
      return out.ok() ? std::move(out->pairs) : JoinResultSet{};
    }
    default: {
      MassJoinConfig config;
      config.theta = theta;
      config.exec = exec_config;
      config.rs_boundary = rs_boundary;
      config.length_group = 2;
      auto out = RunMassJoin(corpus, config);
      EXPECT_TRUE(out.ok()) << out.status().ToString();
      return out.ok() ? std::move(out->pairs) : JoinResultSet{};
    }
  }
}

TEST(ClusterRunnerTest, DigestsIdenticalToInlineAcrossBackendsAlgorithms) {
  const Corpus corpus = testing::RandomCorpus(48, 60, 0.8, 8.0, 11);
  const char* names[] = {"fsjoin", "vernica", "vsmart", "massjoin"};
  constexpr exec::BackendKind kBothBackends[] = {
      exec::BackendKind::kMapReduce, exec::BackendKind::kFusedFlow};

  for (int algorithm = 0; algorithm < 4; ++algorithm) {
    const JoinResultSet reference = RunAlgorithm(
        algorithm, corpus,
        SmallExec(exec::BackendKind::kMapReduce, RunnerKind::kInline));
    ASSERT_GT(reference.size(), 0u) << names[algorithm];
    const uint32_t reference_digest = check::ResultDigest(reference);
    for (exec::BackendKind backend : kBothBackends) {
      const JoinResultSet pairs = RunAlgorithm(
          algorithm, corpus, SmallExec(backend, RunnerKind::kCluster));
      EXPECT_EQ(check::ResultDigest(pairs), reference_digest)
          << names[algorithm]
          << " backend=" << exec::BackendKindName(backend);
      EXPECT_EQ(pairs.size(), reference.size());
    }
  }
}

// R-S mode over the socket workers: the side-tagged fragment joins must
// survive network shuffle byte-identically. The inline reference is itself
// pinned to the serial BruteForceJoinRS oracle so a cluster/inline match
// can't hide a shared wrong answer.
TEST(ClusterRunnerTest, RsDigestsIdenticalToInlineAcrossBackendsAlgorithms) {
  const Corpus corpus = testing::RandomCorpus(48, 60, 0.8, 8.0, 11);
  const RecordId boundary = 20;
  const char* names[] = {"fsjoin", "vernica", "vsmart", "massjoin"};
  constexpr exec::BackendKind kBothBackends[] = {
      exec::BackendKind::kMapReduce, exec::BackendKind::kFusedFlow};
  const uint32_t oracle_digest = check::ResultDigest(BruteForceJoinRS(
      testing::OrderedView(corpus), boundary, SimilarityFunction::kJaccard,
      0.6));

  for (int algorithm = 0; algorithm < 4; ++algorithm) {
    const JoinResultSet reference = RunAlgorithm(
        algorithm, corpus,
        SmallExec(exec::BackendKind::kMapReduce, RunnerKind::kInline),
        boundary);
    ASSERT_GT(reference.size(), 0u) << names[algorithm];
    EXPECT_EQ(check::ResultDigest(reference), oracle_digest)
        << names[algorithm];
    for (exec::BackendKind backend : kBothBackends) {
      const JoinResultSet pairs = RunAlgorithm(
          algorithm, corpus, SmallExec(backend, RunnerKind::kCluster),
          boundary);
      EXPECT_EQ(check::ResultDigest(pairs), oracle_digest)
          << names[algorithm]
          << " backend=" << exec::BackendKindName(backend);
      EXPECT_EQ(pairs.size(), reference.size());
    }
  }
}

// ---- Kill-a-worker fault injection ------------------------------------

/// Runs FS-Join on the MR backend with 4 spawned cluster workers.
Result<FsJoinOutput> ClusterFsJoin(const Corpus& corpus) {
  FsJoinConfig config;
  config.theta = 0.6;
  config.num_vertical_partitions = 4;
  config.num_horizontal_partitions = 1;
  config.exec =
      SmallExec(exec::BackendKind::kMapReduce, RunnerKind::kCluster);
  return FsJoin(config).Run(corpus);
}

TEST(ClusterFaultTest, KilledMapWorkerTaskLandsExactlyOnceOnSurvivor) {
  const Corpus corpus = testing::RandomCorpus(40, 50, 0.8, 8.0, 5);

  auto clean = ClusterFsJoin(corpus);
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();

  // The worker executing the ordering job's map task 1 (attempt 0)
  // _Exit(3)s mid-task. The coordinator must see the dead connection, fail
  // the attempt retryably, and the scheduler re-runs it on a survivor —
  // the bumped attempt number keeps the fault from re-firing.
  ScopedWorkerFault fault("ordering:map:1:0");
  auto faulted = ClusterFsJoin(corpus);
  ASSERT_TRUE(faulted.ok()) << faulted.status().ToString();

  EXPECT_EQ(check::ResultDigest(faulted->pairs),
            check::ResultDigest(clean->pairs));
  const mr::JobMetrics& job = faulted->report.ordering_job;
  ASSERT_GT(job.map_tasks.size(), 1u);
  EXPECT_EQ(job.map_tasks[1].attempts, 2u);
  for (size_t t = 0; t < job.map_tasks.size(); ++t) {
    if (t != 1) {
      EXPECT_EQ(job.map_tasks[t].attempts, 1u) << "map " << t;
    }
  }
  // Exactly-once metrics merge: aggregates match the clean cluster run in
  // spite of the re-executed attempt.
  const mr::JobMetrics& clean_job = clean->report.ordering_job;
  EXPECT_EQ(job.map_output_records, clean_job.map_output_records);
  EXPECT_EQ(job.shuffle_records, clean_job.shuffle_records);
  EXPECT_EQ(job.reduce_output_records, clean_job.reduce_output_records);
}

TEST(ClusterFaultTest, KilledReduceWorkerRecoversRetainedMapOutput) {
  const Corpus corpus = testing::RandomCorpus(40, 50, 0.8, 8.0, 7);

  auto clean = ClusterFsJoin(corpus);
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();

  // The worker dies mid-reduce, taking its retained map partitions with
  // it. Recovery must re-run those map tasks on survivors (internally,
  // without burning scheduler attempts) before the retried reduce
  // re-resolves its shuffle sources.
  ScopedWorkerFault fault("ordering:reduce:1:0");
  auto faulted = ClusterFsJoin(corpus);
  ASSERT_TRUE(faulted.ok()) << faulted.status().ToString();

  EXPECT_EQ(check::ResultDigest(faulted->pairs),
            check::ResultDigest(clean->pairs));
  const mr::JobMetrics& job = faulted->report.ordering_job;
  ASSERT_GT(job.reduce_tasks.size(), 1u);
  // The killed reduce re-ran; sibling reduces that were fetching from the
  // dead worker's shuffle server at that moment may legitimately have
  // burned an attempt too, so only the faulted task's count is exact.
  EXPECT_GE(job.reduce_tasks[1].attempts, 2u);
  for (size_t t = 0; t < job.map_tasks.size(); ++t) {
    EXPECT_EQ(job.map_tasks[t].attempts, 1u)
        << "internal map re-runs must not count as scheduler attempts";
  }
  const mr::JobMetrics& clean_job = clean->report.ordering_job;
  EXPECT_EQ(job.shuffle_records, clean_job.shuffle_records);
  EXPECT_EQ(job.reduce_output_records, clean_job.reduce_output_records);
}

// A worker dying mid-task in the filtering or verification job: the retried
// attempt runs on a survivor and its side state (filter counters,
// candidate count) is merged exactly once — the dead attempt's never
// arrives, and the retry's is not counted twice.
void ExpectFaultedRunMatchesClean(const char* fault, const char* job,
                                  TaskKind kind, size_t task) {
  const Corpus corpus = testing::RandomCorpus(40, 50, 0.8, 8.0, 9);
  auto clean = ClusterFsJoin(corpus);
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();

  ScopedWorkerFault scoped(fault);
  auto faulted = ClusterFsJoin(corpus);
  ASSERT_TRUE(faulted.ok()) << faulted.status().ToString();

  // Digest, every filter counter and the candidate count.
  testing::ExpectSameFsJoinOutput(*faulted, *clean);

  const mr::JobMetrics& metrics = std::string(job) == "filtering"
                                      ? faulted->report.filtering_job
                                      : faulted->report.verification_job;
  const std::vector<mr::TaskMetrics>& tasks =
      kind == TaskKind::kMap ? metrics.map_tasks : metrics.reduce_tasks;
  ASSERT_GT(tasks.size(), task);
  EXPECT_GE(tasks[task].attempts, 2u) << fault << " never fired";
}

TEST(ClusterFaultTest, KilledFilteringReduceMergesSideStateOnce) {
  ExpectFaultedRunMatchesClean("filtering:reduce:1:0", "filtering",
                               TaskKind::kReduce, 1);
}

TEST(ClusterFaultTest, KilledVerificationMapMergesSideStateOnce) {
  ExpectFaultedRunMatchesClean("verification:map:0:0", "verification",
                               TaskKind::kMap, 0);
}

// ---- Heartbeat-timeout death detection --------------------------------

/// A worker that completes the handshake and then never answers anything
/// again — the failure mode heartbeats exist for (process alive, stuck).
class SilentWorker {
 public:
  Status Start() {
    FSJOIN_ASSIGN_OR_RETURN(listener_, net::Listener::Listen("127.0.0.1", 0));
    port_ = listener_.port();
    thread_ = std::thread([this] { Run(); });
    return Status::OK();
  }

  uint16_t port() const { return port_; }

  ~SilentWorker() {
    if (thread_.joinable()) thread_.join();
  }

 private:
  void Run() {
    Result<net::Socket> conn = listener_.Accept(/*timeout_ms=*/10000);
    if (!conn.ok()) return;
    net::HelloMsg hello;
    hello.pid = static_cast<uint64_t>(::getpid());
    hello.shuffle_port = 1;  // never served; nothing will fetch from us
    std::string payload;
    hello.EncodeTo(&payload);
    if (!net::SendFrame(&*conn, net::MsgType::kHello, payload).ok()) return;
    // Drain frames without ever answering, until the coordinator gives up
    // on us and closes the connection.
    for (;;) {
      net::Frame frame;
      if (!net::RecvFrame(&*conn, &frame).ok()) return;
    }
  }

  net::Listener listener_;
  uint16_t port_ = 0;
  std::thread thread_;
};

TEST(ClusterFaultTest, SilentWorkerIsDeclaredDeadAfterMissedHeartbeats) {
  SilentWorker worker;
  ASSERT_TRUE(worker.Start().ok());

  net::ClusterOptions options;
  options.workers.push_back(Endpoint{"127.0.0.1", worker.port()});
  options.heartbeat_ms = 60;
  auto runner = net::ClusterTaskRunner::Create(options);
  ASSERT_TRUE(runner.ok()) << runner.status().ToString();
  ASSERT_EQ((*runner)->alive_workers(), 1u);

  mr::TaskSpec spec;
  spec.job_name = "hbtest";
  spec.kind = TaskKind::kMap;
  spec.task_index = 0;
  spec.num_partitions = 1;
  spec.factory = "core.ordering";
  spec.retain_shuffle = true;  // remote-capable: must go to the worker
  mr::TaskOutput out;
  const Status st =
      (*runner)->RunAttempt(spec, mr::TaskBody{}, mr::TaskSideChannel{}, &out);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("died"), std::string::npos) << st.ToString();
  EXPECT_NE(st.message().find("heartbeats"), std::string::npos)
      << st.ToString();
  EXPECT_EQ((*runner)->alive_workers(), 0u);

  // With every worker dead, further remote attempts fail fast.
  mr::TaskOutput out2;
  const Status st2 =
      (*runner)->RunAttempt(spec, mr::TaskBody{}, mr::TaskSideChannel{}, &out2);
  ASSERT_FALSE(st2.ok());
  EXPECT_NE(st2.message().find("no alive cluster workers"), std::string::npos)
      << st2.ToString();
}

// ---- Direct engine runs over the network shuffle ----------------------

mr::Dataset OrderingInput(uint64_t num_records, uint64_t seed) {
  return MakeCorpusDataset(testing::RandomCorpus(num_records, 80, 0.8, 8.0,
                                                 seed));
}

Result<std::unique_ptr<net::ClusterTaskRunner>> SpawnWorkers(int n) {
  net::ClusterOptions options;
  options.spawn_local_workers = n;
  return net::ClusterTaskRunner::Create(options);
}

Status RunOrderingJob(mr::TaskRunner* runner, const mr::Dataset& input,
                      mr::Dataset* output, mr::JobMetrics* metrics,
                      const std::string& job_name = "ordering") {
  mr::EngineOptions options;
  options.runner = runner == nullptr ? RunnerKind::kInline
                                     : RunnerKind::kCluster;
  options.external_runner = runner;
  mr::Engine engine(options);
  // 30 map tasks: 30 fetches per reduce, which once meant 30 connections
  // fanned into one shuffle server and multi-second TCP-retransmission
  // stalls whenever that fan-in outgrew the listener backlog (socket.h
  // Listener::Listen). Pooled connections keep it at one per server.
  mr::JobConfig config = MakeOrderingJobConfig(30, 30);
  config.name = job_name;
  return engine.Run(config, input, output, metrics);
}

TEST(ClusterRunnerTest, NetworkShuffleMatchesInlineEngineByteForByte) {
  const mr::Dataset input = OrderingInput(120, 13);

  mr::Dataset inline_out;
  mr::JobMetrics inline_metrics;
  ASSERT_TRUE(
      RunOrderingJob(nullptr, input, &inline_out, &inline_metrics).ok());

  auto runner = SpawnWorkers(4);
  ASSERT_TRUE(runner.ok()) << runner.status().ToString();
  mr::Dataset cluster_out;
  mr::JobMetrics cluster_metrics;
  const Status st =
      RunOrderingJob(runner->get(), input, &cluster_out, &cluster_metrics);
  ASSERT_TRUE(st.ok()) << st.ToString();

  ASSERT_EQ(cluster_out.size(), inline_out.size());
  for (size_t i = 0; i < cluster_out.size(); ++i) {
    EXPECT_EQ(cluster_out[i].key, inline_out[i].key) << "record " << i;
    EXPECT_EQ(cluster_out[i].value, inline_out[i].value) << "record " << i;
  }
  EXPECT_EQ(cluster_metrics.shuffle_records, inline_metrics.shuffle_records);
  EXPECT_EQ(cluster_metrics.reduce_output_records,
            inline_metrics.reduce_output_records);
  EXPECT_EQ((*runner)->alive_workers(), 4u);
}

// ---- Pooled fetch connections -----------------------------------------

void ExpectSameRecords(const mr::Dataset& got, const mr::Dataset& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].key, want[i].key) << "record " << i;
    EXPECT_EQ(got[i].value, want[i].value) << "record " << i;
  }
}

void ExpectSingleAttempts(const mr::JobMetrics& job) {
  for (const auto* tasks : {&job.map_tasks, &job.reduce_tasks}) {
    for (size_t t = 0; t < tasks->size(); ++t) {
      EXPECT_EQ((*tasks)[t].attempts, 1u) << job.job_name << " task " << t;
    }
  }
}

uint64_t SumShuffleConnects(const mr::JobMetrics& job) {
  uint64_t connects = 0;
  for (const mr::TaskMetrics& t : job.reduce_tasks) {
    connects += t.shuffle_connects;
  }
  EXPECT_EQ(job.shuffle_connects, connects) << job.job_name;
  return connects;
}

// Every FS-Join job is 30 x 30 here: 900 partition fetches per job, 2,700
// per join. A worker keeps one fetch connection per shuffle server for the
// runner's lifetime, so 2 workers dial at most 2 x 2 connections in all,
// nearly all of them in the first job.
TEST(ClusterRunnerTest, FsJoinDialsAtMostOneConnectionPerWorkerPair) {
  const Corpus corpus = testing::RandomCorpus(240, 60, 0.8, 8.0, 17);
  FsJoinConfig config;
  config.theta = 0.6;
  config.num_vertical_partitions = 4;
  config.num_horizontal_partitions = 1;
  config.exec =
      SmallExec(exec::BackendKind::kMapReduce, RunnerKind::kInline);
  config.exec.num_map_tasks = 30;
  config.exec.num_reduce_tasks = 30;
  auto want = FsJoin(config).Run(corpus);
  ASSERT_TRUE(want.ok()) << want.status().ToString();

  config.exec.runner = RunnerKind::kCluster;
  config.exec.spawn_local_workers = 2;
  auto got = FsJoin(config).Run(corpus);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(check::ResultDigest(got->pairs), check::ResultDigest(want->pairs));

  uint64_t connects = 0;
  for (const mr::JobMetrics* job :
       {&got->report.ordering_job, &got->report.filtering_job,
        &got->report.verification_job}) {
    testing::ExpectTransport(*job, mr::TaskTransport::kRemote);
    ASSERT_EQ(job->map_tasks.size(), 30u) << job->job_name;
    ASSERT_EQ(job->reduce_tasks.size(), 30u) << job->job_name;
    connects += SumShuffleConnects(*job);
  }
  EXPECT_GE(connects, 1u);
  EXPECT_LE(connects, 4u);
}

// A worker killed between two jobs leaves its peer holding a dead pooled
// connection to it. The next job hits the dead control connection, marks
// the worker dead and re-runs the lost work on the survivor, with the
// same output.
TEST(ClusterFaultTest, WorkerKilledBetweenJobsLeavesDeadPooledSockets) {
  const mr::Dataset input = OrderingInput(120, 13);
  mr::Dataset want;
  mr::JobMetrics want_metrics;
  ASSERT_TRUE(RunOrderingJob(nullptr, input, &want, &want_metrics).ok());

  auto runner = SpawnWorkers(2);
  ASSERT_TRUE(runner.ok()) << runner.status().ToString();
  mr::Dataset first;
  mr::JobMetrics first_metrics;
  Status st = RunOrderingJob(runner->get(), input, &first, &first_metrics);
  ASSERT_TRUE(st.ok()) << st.ToString();
  ExpectSameRecords(first, want);
  EXPECT_GE(SumShuffleConnects(first_metrics), 1u);

  const std::vector<int64_t> pids = (*runner)->worker_pids();
  ASSERT_EQ(::kill(static_cast<pid_t>(pids[1]), SIGKILL), 0);
  mr::Dataset second;
  mr::JobMetrics second_metrics;
  st = RunOrderingJob(runner->get(), input, &second, &second_metrics);
  ASSERT_TRUE(st.ok()) << st.ToString();
  ExpectSameRecords(second, want);
  EXPECT_EQ((*runner)->alive_workers(), 1u);
}

// A worker killed in the middle of the second job's reduce phase, on a
// runner whose first job left every worker holding pooled connections to
// every shuffle server. A survivor's reduce that takes its pooled
// connection to the dead worker finds it closed, dials, fails and blames
// that worker, whose map output is then re-run on the survivor; the output
// is the same.
TEST(ClusterFaultTest, WorkerKilledMidReduceWithWarmPoolRecovers) {
  const mr::Dataset input = OrderingInput(120, 13);
  mr::Dataset want;
  mr::JobMetrics want_metrics;
  ASSERT_TRUE(RunOrderingJob(nullptr, input, &want, &want_metrics).ok());

  ScopedWorkerFault fault("second:reduce:1:0");  // inherited by workers
  auto runner = SpawnWorkers(2);
  ASSERT_TRUE(runner.ok()) << runner.status().ToString();
  mr::Dataset first;
  mr::JobMetrics first_metrics;
  Status st = RunOrderingJob(runner->get(), input, &first, &first_metrics,
                             "first");
  ASSERT_TRUE(st.ok()) << st.ToString();
  ExpectSameRecords(first, want);
  ExpectSingleAttempts(first_metrics);

  mr::Dataset second;
  mr::JobMetrics second_metrics;
  st = RunOrderingJob(runner->get(), input, &second, &second_metrics,
                      "second");
  ASSERT_TRUE(st.ok()) << st.ToString();
  ExpectSameRecords(second, want);
  ASSERT_GT(second_metrics.reduce_tasks.size(), 1u);
  EXPECT_GE(second_metrics.reduce_tasks[1].attempts, 2u) << "fault never fired";
  EXPECT_EQ((*runner)->alive_workers(), 1u);
}

// ---- Pooled fetch connections against a scripted shuffle server --------

/// A shuffle server whose connections each answer their first `answers`
/// fetches with a two-record partition, then either close or fall silent:
/// go on reading requests but answer none, as a connection does whose
/// host stopped or that a middlebox dropped.
class ScriptedShuffleServer {
 public:
  enum class After { kClose, kSilence };

  ScriptedShuffleServer(size_t answers, After after)
      : answers_(answers), after_(after) {}

  Status Start() {
    FSJOIN_ASSIGN_OR_RETURN(listener_, net::Listener::Listen("127.0.0.1", 0));
    accept_thread_ = std::thread([this] { AcceptLoop(); });
    return Status::OK();
  }

  std::string endpoint() const {
    return "127.0.0.1:" + std::to_string(listener_.port());
  }
  size_t accepted() const { return accepted_.load(); }
  size_t closed() const { return closed_.load(); }

  ~ScriptedShuffleServer() {
    stop_.store(true);
    listener_.Shutdown();
    if (accept_thread_.joinable()) accept_thread_.join();
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& sock : sockets_) sock->Shutdown();
    for (std::thread& t : threads_) t.join();
  }

 private:
  void AcceptLoop() {
    while (!stop_.load()) {
      Result<net::Socket> conn = listener_.Accept(/*timeout_ms=*/100);
      if (!conn.ok()) continue;
      std::lock_guard<std::mutex> lock(mu_);
      sockets_.push_back(std::make_unique<net::Socket>(std::move(*conn)));
      net::Socket* sock = sockets_.back().get();
      accepted_.fetch_add(1);  // before any answer the test could see
      threads_.emplace_back([this, sock] { Serve(sock); });
    }
  }

  void Serve(net::Socket* sock) {
    for (size_t answered = 0;;) {
      if (answered == answers_ && after_ == After::kClose) {
        sock->Shutdown();
        closed_.fetch_add(1);
        return;
      }
      net::Frame frame;
      if (!net::RecvFrame(sock, &frame).ok()) return;
      if (answered == answers_) continue;  // silent from here on
      net::ChunkStreamWriter writer(sock, net::MsgType::kShuffleChunk,
                                    net::MsgType::kShuffleEnd);
      if (!writer.Add("k0", "v").ok() || !writer.Add("k1", "v").ok() ||
          !writer.Finish().ok()) {
        return;
      }
      answered += 1;
    }
  }

  const size_t answers_;
  const After after_;
  net::Listener listener_;
  std::atomic<bool> stop_{false};
  std::atomic<size_t> accepted_{0};
  std::atomic<size_t> closed_{0};
  std::thread accept_thread_;
  std::mutex mu_;
  std::vector<std::unique_ptr<net::Socket>> sockets_;  ///< mu_
  std::vector<std::thread> threads_;                   ///< mu_
};

/// Plays the coordinator for one worker served on a thread of this
/// process, so a test can dispatch reduce tasks whose shuffle sources
/// point wherever it likes.
class InProcessWorker {
 public:
  /// `timeout_ms` is the worker's WorkerServeOptions::timeout_ms, the
  /// bound on a silent fetch.
  Status Start(int timeout_ms) {
    FSJOIN_ASSIGN_OR_RETURN(net::Listener listener,
                            net::Listener::Listen("127.0.0.1", 0));
    net::WorkerServeOptions options;
    options.connect = "127.0.0.1:" + std::to_string(listener.port());
    options.timeout_ms = timeout_ms;
    thread_ = std::thread([this, options] {
      served_ = net::ServeWorker(options);
    });
    FSJOIN_ASSIGN_OR_RETURN(control_, listener.Accept(/*timeout_ms=*/10000));
    net::Frame frame;
    FSJOIN_RETURN_NOT_OK(net::RecvFrame(&control_, &frame));
    if (frame.type != net::MsgType::kHello) {
      return Status::Corruption("expected hello");
    }
    std::string payload;
    net::HelloAckMsg().EncodeTo(&payload);
    return net::SendFrame(&control_, net::MsgType::kHelloAck, payload);
  }

  /// Runs reduce `task` of the bulk job over one source held at `endpoint`
  /// and returns the worker's answer; a kTaskError sets *lost_endpoint.
  Status RunReduce(uint32_t task, const std::string& endpoint,
                   mr::TaskOutput* out, std::string* lost_endpoint) {
    mr::TaskSpec spec;
    spec.job_name = "scripted";
    spec.kind = TaskKind::kReduce;
    spec.task_index = task;
    spec.factory = "test.cluster.bulk";
    spec.shuffle_sources.push_back(mr::ShuffleSource{"scripted", 0, endpoint});
    std::string spec_bytes;
    spec.EncodeTo(&spec_bytes);
    std::string payload;
    PutVarint32(&payload, 0);  // no input streams
    PutLengthPrefixed(&payload, spec_bytes);
    FSJOIN_RETURN_NOT_OK(
        net::SendFrame(&control_, net::MsgType::kDispatchTask, payload));
    bool readable = false;
    FSJOIN_RETURN_NOT_OK(control_.WaitReadable(/*timeout_ms=*/30000,
                                               &readable));
    if (!readable) return Status::IoError("worker never answered");
    net::Frame frame;
    FSJOIN_RETURN_NOT_OK(net::RecvFrame(&control_, &frame));
    if (frame.type == net::MsgType::kTaskResult) {
      return mr::DecodeTaskOutputWire(frame.payload, out);
    }
    if (frame.type != net::MsgType::kTaskError) {
      return Status::Corruption("unexpected frame");
    }
    FSJOIN_ASSIGN_OR_RETURN(net::TaskErrorMsg msg,
                            net::TaskErrorMsg::Decode(frame.payload));
    *lost_endpoint = msg.lost_endpoint;
    return msg.error;
  }

  ~InProcessWorker() {
    if (control_.valid()) {
      (void)net::SendFrame(&control_, net::MsgType::kShutdown, "");
    }
    if (thread_.joinable()) thread_.join();
    EXPECT_TRUE(served_.ok()) << served_.ToString();
  }

 private:
  net::Socket control_;
  std::thread thread_;
  Status served_ = Status::OK();
};

/// Waits up to 5 s for `done`.
bool WaitFor(const std::function<bool()>& done) {
  for (int i = 0; i < 1000 && !done(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return done();
}

// The server closes each connection once it has answered one fetch, so
// the connection the first reduce pooled is closed by the time the second
// takes it. The worker sees that and dials a fresh one; nobody is blamed.
TEST(ClusterFetchPoolTest, PooledConnectionClosedWhileIdleIsReplaced) {
  InProcessWorker worker;
  ScriptedShuffleServer server(1, ScriptedShuffleServer::After::kClose);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_TRUE(worker.Start(/*timeout_ms=*/10000).ok());
  for (uint32_t task = 0; task < 2; ++task) {
    SCOPED_TRACE("task " + std::to_string(task));
    mr::TaskOutput out;
    std::string lost;
    const Status st = worker.RunReduce(task, server.endpoint(), &out, &lost);
    ASSERT_TRUE(st.ok()) << st.ToString();
    EXPECT_EQ(lost, "");
    EXPECT_EQ(out.records.size(), 2u);
    EXPECT_EQ(out.metrics.shuffle_connects, 1u);
    ASSERT_TRUE(WaitFor([&] { return server.closed() == task + 1; }));
  }
  EXPECT_EQ(server.accepted(), 2u);
}

// The connection the first reduce pooled stays open but falls silent, as
// one does that a middlebox dropped while idle. The second reduce's wait on
// it times out, and the retry on a fresh connection is answered: the live
// server is not blamed.
TEST(ClusterFetchPoolTest, PooledConnectionGoneSilentIsRetriedOnAFreshOne) {
  InProcessWorker worker;
  ScriptedShuffleServer server(1, ScriptedShuffleServer::After::kSilence);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_TRUE(worker.Start(/*timeout_ms=*/300).ok());
  for (uint32_t task = 0; task < 2; ++task) {
    SCOPED_TRACE("task " + std::to_string(task));
    mr::TaskOutput out;
    std::string lost;
    const Status st = worker.RunReduce(task, server.endpoint(), &out, &lost);
    ASSERT_TRUE(st.ok()) << st.ToString();
    EXPECT_EQ(lost, "");
    EXPECT_EQ(out.records.size(), 2u);
    EXPECT_EQ(out.metrics.shuffle_connects, 1u);
  }
  EXPECT_EQ(server.accepted(), 2u);
}

// A shuffle host that accepts connections but never answers (stopped, or
// cut off after the handshake) is blamed once the fetch has waited the
// worker's timeout, not when TCP gives up minutes later.
TEST(ClusterFetchPoolTest, SilentShuffleServerIsBlamedAfterTheTimeout) {
  InProcessWorker worker;
  ScriptedShuffleServer server(0, ScriptedShuffleServer::After::kSilence);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_TRUE(worker.Start(/*timeout_ms=*/300).ok());
  const auto start = std::chrono::steady_clock::now();
  mr::TaskOutput out;
  std::string lost;
  const Status st = worker.RunReduce(0, server.endpoint(), &out, &lost);
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("timed out"), std::string::npos)
      << st.ToString();
  EXPECT_EQ(lost, server.endpoint());
  EXPECT_LT(seconds, 5.0);
}

// ---- FS-Join's jobs on the workers --------------------------------------

/// Reads one numeric field ("Threads:") of /proc/<pid>/status; -1 if absent.
long ProcStatusField(int64_t pid, const std::string& field) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(field, 0) == 0) {
      return std::strtol(line.c_str() + field.size(), nullptr, 10);
    }
  }
  return -1;
}

// Every FS-Join job names a task factory, so on a cluster all of its
// MapReduce tasks cross the wire: none takes the local closure fallback.
// Counters, the candidate count, the --auto histogram and the
// partial-overlap capture come back as side state and match the inline
// run, on self and R-S joins — and so do the fused-flow backend's, whose
// closure tasks take the fallback.
TEST(ClusterRunnerTest, FsJoinTasksAllRunOnWorkersWithInlineSideState) {
  const Corpus corpus = testing::RandomCorpus(48, 60, 0.8, 8.0, 11);
  const exec::ExecConfig inline_exec =
      SmallExec(exec::BackendKind::kMapReduce, RunnerKind::kInline);

  for (exec::BackendKind backend :
       {exec::BackendKind::kMapReduce, exec::BackendKind::kFusedFlow}) {
    exec::ExecConfig cluster = SmallExec(backend, RunnerKind::kCluster);
    cluster.spawn_local_workers = 2;
    for (bool auto_tune : {false, true}) {
      for (std::optional<RecordId> boundary :
           {std::optional<RecordId>(), std::optional<RecordId>(20)}) {
        SCOPED_TRACE(std::string(exec::BackendKindName(backend)) +
                     (auto_tune ? " auto" : " hand") +
                     (boundary ? " rs" : " self"));
        auto want = FsJoin(testing::ParityConfig(inline_exec, auto_tune,
                                                 boundary))
                        .Run(corpus);
        ASSERT_TRUE(want.ok()) << want.status().ToString();
        ASSERT_GT(want->pairs.size(), 0u);
        auto got =
            FsJoin(testing::ParityConfig(cluster, auto_tune, boundary))
                .Run(corpus);
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        testing::ExpectSameFsJoinOutput(*got, *want);
        // Per-task records exist on the MapReduce backend only.
        if (backend == exec::BackendKind::kMapReduce) {
          for (const mr::JobMetrics* job :
               {&got->report.ordering_job, &got->report.filtering_job,
                &got->report.verification_job}) {
            testing::ExpectTransport(*job, mr::TaskTransport::kRemote);
          }
        }
      }
    }
  }
}

/// Runs every task on `inner`, recording the largest encoded TaskSpec of
/// each (job, kind).
class SpecSizeRecorder : public mr::TaskRunner {
 public:
  explicit SpecSizeRecorder(mr::TaskRunner* inner) : inner_(inner) {}

  const char* name() const override { return inner_->name(); }
  bool isolated() const override { return inner_->isolated(); }
  bool retryable() const override { return inner_->retryable(); }
  bool distributed() const override { return inner_->distributed(); }
  void FinishJob(const std::string& job_name) override {
    inner_->FinishJob(job_name);
  }
  void ParallelRun(size_t n, const std::function<void(size_t)>& fn) override {
    inner_->ParallelRun(n, fn);
  }
  Status RunAttempt(const mr::TaskSpec& spec, const mr::TaskBody& body,
                    const mr::TaskSideChannel& side,
                    mr::TaskOutput* out) override {
    std::string bytes;
    spec.EncodeTo(&bytes);
    {
      std::lock_guard<std::mutex> lock(mu_);
      size_t& max = max_bytes_[static_cast<int>(spec.kind)];
      max = std::max(max, bytes.size());
    }
    return inner_->RunAttempt(spec, body, side, out);
  }

  size_t max_bytes(TaskKind kind) const {
    std::lock_guard<std::mutex> lock(mu_);
    return max_bytes_[static_cast<int>(kind)];
  }

 private:
  mr::TaskRunner* inner_;
  mutable std::mutex mu_;
  size_t max_bytes_[2] = {0, 0};
};

// The filtering job's map tasks carry the ordering; its reduce tasks never
// read it, and their specs leave it out. The job's output stays identical
// to the inline run's on the subprocess and cluster runners.
TEST(ClusterRunnerTest, FilteringReduceSpecsLeaveTheOrderingOut) {
  const Corpus corpus = testing::RandomCorpus(300, 20000, 0.8, 12.0, 19);
  auto ctx = std::make_shared<FilteringContext>();
  ctx->config.theta = 0.6;
  ctx->config.num_vertical_partitions = 4;
  ctx->config.exec.num_map_tasks = 4;
  ctx->config.exec.num_reduce_tasks = 4;
  ctx->order =
      std::make_shared<const GlobalOrder>(GlobalOrder::FromCorpus(corpus));
  ctx->pivots = SelectPivots(*ctx->order, ctx->config.pivot_strategy, 3,
                             ctx->config.seed);
  std::string ranks;
  ctx->order->EncodeRanksTo(&ranks);
  ASSERT_GT(ranks.size(), 16u * 1024) << "ordering too small to matter";
  const mr::JobConfig job = MakeFilteringJobConfig(ctx);
  const mr::Dataset input = MakeCorpusDataset(corpus);

  mr::Dataset want;
  ASSERT_TRUE(mr::Engine(mr::EngineOptions{}).Run(job, input, &want, nullptr)
                  .ok());
  ASSERT_GT(want.size(), 0u);

  mr::SubprocessRunner subprocess(2);
  auto cluster = SpawnWorkers(2);
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
  for (mr::TaskRunner* inner :
       {static_cast<mr::TaskRunner*>(&subprocess),
        static_cast<mr::TaskRunner*>(cluster->get())}) {
    SCOPED_TRACE(inner->name());
    SpecSizeRecorder recorder(inner);
    mr::EngineOptions options;
    options.runner = RunnerKind::kSubprocess;
    options.external_runner = &recorder;
    mr::Dataset got;
    const Status st = mr::Engine(options).Run(job, input, &got, nullptr);
    ASSERT_TRUE(st.ok()) << st.ToString();
    ExpectSameRecords(got, want);
    EXPECT_GT(recorder.max_bytes(TaskKind::kMap), ranks.size());
    EXPECT_LT(recorder.max_bytes(TaskKind::kReduce), 4096u);
  }
}

// A worker serves each fetch connection on its own thread and joins the
// thread once the connection closes, so its threads — and their stacks —
// track open connections, not every connection a job ever made. Fetch
// connections are pooled, one per (worker, shuffle server), so a 30 x 30
// job (900 fetches over two workers) opens about four. /proc's
// Threads: counts only live threads; a finished but unjoined thread keeps
// its stack mapped, so the address-space size is what shows the
// difference: each leaked stack adds its full 8 MiB default reservation,
// gigabytes for this job. The accept loop joins exited threads at least
// every poll interval (200 ms), so the check allows the last fetches'
// threads a few intervals to be joined. Capping glibc's malloc arenas
// keeps their 64 MiB reservations, which appear as threads come and go,
// out of the measurement.
TEST(ClusterRunnerTest, WorkerThreadsAndStacksStayBoundedWithinAJob) {
  const mr::Dataset input = OrderingInput(120, 13);
  ::setenv("MALLOC_ARENA_MAX", "2", 1);  // inherited by spawned workers
  auto runner = SpawnWorkers(2);
  ::unsetenv("MALLOC_ARENA_MAX");
  ASSERT_TRUE(runner.ok()) << runner.status().ToString();
  const std::vector<int64_t> pids = (*runner)->worker_pids();
  std::vector<long> vm_kb;
  for (int64_t pid : pids) {
    ASSERT_GT(pid, 0);
    vm_kb.push_back(ProcStatusField(pid, "VmSize:"));
    ASSERT_GT(vm_kb.back(), 0) << "no /proc status for worker " << pid;
  }
  mr::Dataset output;
  mr::JobMetrics metrics;
  const Status st = RunOrderingJob(runner->get(), input, &output, &metrics);
  ASSERT_TRUE(st.ok()) << st.ToString();
  for (size_t w = 0; w < pids.size(); ++w) {
    EXPECT_LE(ProcStatusField(pids[w], "Threads:"), 64) << "worker " << w;
    long growth_kb = 0;
    for (int poll = 0; poll < 40; ++poll) {
      growth_kb = ProcStatusField(pids[w], "VmSize:") - vm_kb[w];
      if (growth_kb < 256 * 1024) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    EXPECT_LT(growth_kb, 256 * 1024)
        << "worker " << w << " kept finished threads' stacks (kB growth)";
  }
}

// ---- Worker heap across jobs ------------------------------------------

/// Bulk job for the heap test: every input record maps to
/// kBulkRecordsPerInput records of kBulkValueBytes bytes, so each map task
/// retains multi-MB partitions that the reduce tasks fetch over the
/// network; reducers emit one small count per key.
constexpr uint32_t kBulkRecordsPerInput = 64;
constexpr size_t kBulkValueBytes = 4096;

class BulkMapper : public mr::Mapper {
 public:
  Status Map(const mr::KeyValue& record, mr::Emitter* out) override {
    const std::string value(kBulkValueBytes, 'v');
    for (uint32_t i = 0; i < kBulkRecordsPerInput; ++i) {
      std::string key = record.key;
      PutFixed32BE(&key, i);
      out->Emit(key, value);
    }
    return Status::OK();
  }
};

class CountReducer : public mr::Reducer {
 public:
  Status Reduce(std::string_view key, mr::ValueList values,
                mr::Emitter* out) override {
    std::string count;
    PutVarint64(&count, values.size());
    out->Emit(key, count);
    return Status::OK();
  }
};

// Registered in every process of this binary, spawned workers included.
[[maybe_unused]] const bool kBulkFactoryRegistered = mr::RegisterTaskFactory(
    "test.cluster.bulk", [](const std::string&) -> Result<mr::TaskFactories> {
      mr::TaskFactories factories;
      factories.mapper = [] { return std::make_unique<BulkMapper>(); };
      factories.reducer = [] { return std::make_unique<CountReducer>(); };
      return factories;
    });

// ASan and TSan replace glibc malloc with their own allocator, which
// M_ARENA_MAX does not govern and whose quarantine and shadow memory grow
// with the work done, so a heap bound measured under them says nothing
// about the arena cap.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitizerMalloc = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool kSanitizerMalloc = true;
#else
constexpr bool kSanitizerMalloc = false;
#endif
#else
constexpr bool kSanitizerMalloc = false;
#endif

// A worker runs each task, and serves each fetch connection, on a fresh
// thread. Without a cap on glibc's malloc arenas, each such thread may get
// an arena of its own, and the chunk buffers freed there stay mapped, so a
// long-lived worker's peak RSS climbs job after job. ServeWorker caps the arenas itself, so this
// test runs with MALLOC_ARENA_MAX unset: eight identical 30 x 30 jobs of
// about 63 MB of shuffle each (900 fetches) through one 2-worker runner.
// Without the cap the two workers' summed VmHWM grew by 31-44 MB from the
// first job to the third and by 78-101 MB to the eighth (three runs); with
// it, by 7-9 MB and 7-19 MB. Eight jobs leave the wider margin.
TEST(ClusterRunnerTest, WorkerPeakRssStaysFlatAcrossJobs) {
  if (kSanitizerMalloc) {
    GTEST_SKIP() << "sanitizer allocator: glibc malloc arenas not in use";
  }
  const char* arena_env = std::getenv("MALLOC_ARENA_MAX");
  const std::string saved = arena_env != nullptr ? arena_env : "";
  ::unsetenv("MALLOC_ARENA_MAX");
  auto runner = SpawnWorkers(2);
  if (arena_env != nullptr) ::setenv("MALLOC_ARENA_MAX", saved.c_str(), 1);
  ASSERT_TRUE(runner.ok()) << runner.status().ToString();
  const std::vector<int64_t> pids = (*runner)->worker_pids();

  mr::Dataset input;
  for (uint32_t r = 0; r < 240; ++r) {
    mr::KeyValue kv;
    PutFixed32BE(&kv.key, r);
    input.push_back(std::move(kv));
  }
  mr::JobConfig job;
  job.name = "bulk";
  job.num_map_tasks = 30;
  job.num_reduce_tasks = 30;
  job.mapper_factory = [] { return std::make_unique<BulkMapper>(); };
  job.reducer_factory = [] { return std::make_unique<CountReducer>(); };
  job.task_factory = "test.cluster.bulk";
  mr::EngineOptions options;
  options.runner = RunnerKind::kCluster;
  options.external_runner = runner->get();
  mr::Engine engine(options);

  constexpr int kJobs = 8;
  long first_kb = 0, last_kb = 0;
  std::string trail;
  for (int round = 0; round < kJobs; ++round) {
    mr::Dataset output;
    mr::JobMetrics metrics;
    const Status st = engine.Run(job, input, &output, &metrics);
    ASSERT_TRUE(st.ok()) << st.ToString();
    ASSERT_EQ(output.size(), input.size() * kBulkRecordsPerInput);
    testing::ExpectTransport(metrics, mr::TaskTransport::kRemote);
    long total_kb = 0;
    for (int64_t pid : pids) {
      const long kb = ProcStatusField(pid, "VmHWM:");
      ASSERT_GT(kb, 0) << "no /proc status for worker " << pid;
      total_kb += kb;
    }
    if (round == 0) first_kb = total_kb;
    last_kb = total_kb;
    trail += " " + std::to_string(total_kb);
  }
  EXPECT_LT(last_kb - first_kb, 40 * 1024)
      << "summed worker VmHWM kB per job:" << trail;
}

// ---- The ordering job on the cluster ----------------------------------

// The block-packed ordering job gives GlobalOrder::FromCorpus's ordering on
// the cluster runner, on both backends (testing::OrderingCorpora covers
// the empty corpus, empty records and the block-width edges).
TEST(ClusterRunnerTest, OrderingPlanMatchesFromCorpus) {
  for (exec::BackendKind backend :
       {exec::BackendKind::kMapReduce, exec::BackendKind::kFusedFlow}) {
    exec::ExecConfig config = SmallExec(backend, RunnerKind::kCluster);
    config.spawn_local_workers = 2;
    testing::ExpectOrderingMatchesFromCorpus(config);
  }
}

// A peer holding an idle connection to a worker's shuffle server, as a
// fetch pool does between tasks, must not keep the worker from exiting:
// ShuffleServer::Stop shuts its live connections down.
TEST(ClusterRunnerTest, TeardownDoesNotWaitForAnIdleFetchConnection) {
  auto runner = SpawnWorkers(2);
  ASSERT_TRUE(runner.ok()) << runner.status().ToString();
  // A retained map task on empty input reports its worker's shuffle
  // endpoint.
  mr::TaskSpec spec;
  spec.job_name = "hold";
  spec.kind = TaskKind::kMap;
  spec.num_partitions = 1;
  spec.factory = "core.ordering";
  spec.retain_shuffle = true;
  mr::TaskOutput out;
  ASSERT_TRUE((*runner)
                  ->RunAttempt(spec, mr::TaskBody{}, mr::TaskSideChannel{},
                               &out)
                  .ok());
  auto endpoint = ParseEndpoint(out.shuffle_endpoint);
  ASSERT_TRUE(endpoint.ok()) << endpoint.status().ToString();
  auto held = net::Socket::Connect(*endpoint, /*timeout_ms=*/5000);
  ASSERT_TRUE(held.ok()) << held.status().ToString();

  const auto start = std::chrono::steady_clock::now();
  runner->reset();
  const auto elapsed_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_LT(elapsed_ms, 100);
  // The server closed the held connection on its way out.
  net::Frame frame;
  EXPECT_FALSE(net::RecvFrame(&*held, &frame).ok());
}

// Destroying the runner shuts the workers down; each worker's shuffle
// server wakes its accept loop instead of sitting out the poll timeout.
TEST(ClusterRunnerTest, TeardownDoesNotWaitOutTheAcceptPoll) {
  for (int round = 0; round < 3; ++round) {
    auto runner = SpawnWorkers(2);
    ASSERT_TRUE(runner.ok()) << runner.status().ToString();
    const auto start = std::chrono::steady_clock::now();
    runner->reset();
    const auto elapsed_ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - start)
            .count();
    EXPECT_LT(elapsed_ms, 100) << "round " << round;
  }
}

// ---- Cluster-simulator cross-check (measured vs predicted scaling) ----

TEST(ClusterSimCrossCheckTest, PredictedSpeedupTracksMeasuredSpeedup) {
  // A workload heavy enough that per-task time is measurable over the
  // dispatch overhead on a loopback cluster.
  const mr::Dataset input = OrderingInput(600, 17);

  auto one = SpawnWorkers(1);
  ASSERT_TRUE(one.ok()) << one.status().ToString();
  mr::Dataset out1;
  mr::JobMetrics metrics1;
  ASSERT_TRUE(RunOrderingJob(one->get(), input, &out1, &metrics1).ok());

  auto four = SpawnWorkers(4);
  ASSERT_TRUE(four.ok()) << four.status().ToString();
  mr::Dataset out4;
  mr::JobMetrics metrics4;
  ASSERT_TRUE(RunOrderingJob(four->get(), input, &out4, &metrics4).ok());

  const double measured_speedup =
      static_cast<double>(std::max<int64_t>(metrics1.total_wall_micros, 1)) /
      static_cast<double>(std::max<int64_t>(metrics4.total_wall_micros, 1));

  // Feed the 4-worker run's measured per-task costs into the cost model,
  // with the per-task overhead estimated from the serialized 1-worker run
  // (total wall minus task-body wall, spread over the tasks — on one
  // worker everything is dispatch + body, end to end).
  const size_t num_tasks = metrics1.map_tasks.size() +
                           metrics1.reduce_tasks.size();
  ASSERT_GT(num_tasks, 0u);
  const double body_micros = static_cast<double>(metrics1.map_wall_micros +
                                                 metrics1.reduce_wall_micros);
  const double overhead_micros = std::max(
      1.0, (static_cast<double>(metrics1.total_wall_micros) - body_micros) /
               static_cast<double>(num_tasks));
  mr::ClusterCostModel model;
  model.slots_per_node = 1;  // one simulated slot == one loopback worker
  model.per_task_overhead_micros = overhead_micros;
  model.network_micros_per_byte = 0.0;  // loopback shuffle is ~free

  const mr::SimulatedJobTime sim1 = mr::SimulateJob(metrics4, 1, model);
  const mr::SimulatedJobTime sim4 = mr::SimulateJob(metrics4, 4, model);
  ASSERT_GT(sim4.total_ms, 0.0);
  const double predicted_speedup = sim1.total_ms / sim4.total_ms;

  // The simulator is deterministic: more nodes can only help, and four
  // single-slot nodes can at best quadruple throughput.
  EXPECT_GE(predicted_speedup, 1.0);
  EXPECT_LE(predicted_speedup, 4.0 + 1e-9);
  // Sanity band against the (noisy) measured wall-clock ratio: the
  // prediction must be the same order of magnitude. The band is wide on
  // purpose — CI machines are loaded and the corpus is small.
  EXPECT_GT(measured_speedup, predicted_speedup / 10.0);
  EXPECT_LT(measured_speedup, predicted_speedup * 10.0);
}

}  // namespace
}  // namespace fsjoin
