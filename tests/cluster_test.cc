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
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <memory>
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
#include "mr/cluster_sim.h"
#include "mr/engine.h"
#include "mr/runner.h"
#include "mr/task.h"
#include "net/cluster_runner.h"
#include "net/frame.h"
#include "net/socket.h"
#include "net/stream.h"
#include "runner_parity.h"
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

TEST(ClusterStreamTest, RecordStreamRoundTripsOverSocketPair) {
  auto pair = net::Socket::Pair();
  ASSERT_TRUE(pair.ok()) << pair.status().ToString();
  net::Socket writer_sock = std::move(pair->first);
  net::Socket reader_sock = std::move(pair->second);

  // Enough payload to force several chunks (target is 256 KiB per chunk).
  const size_t kRecords = 9000;
  const std::string filler(100, 'x');
  std::thread writer([&] {
    net::ChunkStreamWriter writer(&writer_sock, net::MsgType::kShuffleChunk,
                                  net::MsgType::kShuffleEnd);
    for (size_t i = 0; i < kRecords; ++i) {
      const std::string key = "key" + std::to_string(i);
      ASSERT_TRUE(writer.Add(key, filler).ok());
    }
    ASSERT_TRUE(writer.Finish().ok());
  });

  net::FrameRecordStream stream(&reader_sock, net::MsgType::kShuffleChunk,
                                net::MsgType::kShuffleEnd);
  size_t got = 0;
  bool has = false;
  std::string_view key, value;
  for (;;) {
    const Status st = stream.Next(&has, &key, &value);
    ASSERT_TRUE(st.ok()) << st.ToString();
    if (!has) break;
    EXPECT_EQ(key, "key" + std::to_string(got));
    EXPECT_EQ(value, filler);
    ++got;
  }
  writer.join();
  EXPECT_EQ(got, kRecords);
  EXPECT_EQ(stream.records(), kRecords);
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

  net::FrameRecordStream stream(&pair->second, net::MsgType::kShuffleChunk,
                                net::MsgType::kShuffleEnd);
  bool has = false;
  std::string_view key, value;
  const Status st = stream.Next(&has, &key, &value);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kNotFound) << st.ToString();
  EXPECT_NE(st.message().find("no retained partition"), std::string::npos);
}

TEST(ClusterStreamTest, TrailerCountMismatchIsCorruption) {
  // A lost chunk frame cannot be caught by per-frame CRCs; the trailer's
  // running totals must catch it instead.
  auto pair = net::Socket::Pair();
  ASSERT_TRUE(pair.ok()) << pair.status().ToString();

  std::string chunk;
  net::AppendChunkRecord(&chunk, "k1", "v1");
  net::AppendChunkRecord(&chunk, "k2", "v2");
  ASSERT_TRUE(
      net::SendFrame(&pair->first, net::MsgType::kShuffleChunk, chunk).ok());
  net::StreamTrailer trailer;
  trailer.records = 3;  // lies: only 2 were sent
  trailer.payload_bytes = chunk.size();
  trailer.chunks = 1;
  std::string payload;
  trailer.EncodeTo(&payload);
  ASSERT_TRUE(
      net::SendFrame(&pair->first, net::MsgType::kShuffleEnd, payload).ok());

  net::FrameRecordStream stream(&pair->second, net::MsgType::kShuffleChunk,
                                net::MsgType::kShuffleEnd);
  bool has = false;
  std::string_view key, value;
  Status st = Status::OK();
  while (st.ok()) {
    st = stream.Next(&has, &key, &value);
    if (st.ok() && !has) break;
  }
  ASSERT_FALSE(st.ok()) << "trailer mismatch went unnoticed";
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
                      mr::Dataset* output, mr::JobMetrics* metrics) {
  mr::EngineOptions options;
  options.runner = runner == nullptr ? RunnerKind::kInline
                                     : RunnerKind::kCluster;
  options.external_runner = runner;
  mr::Engine engine(options);
  // 30 map tasks: every reduce fans 30 fetch connections into one shuffle
  // server when a single worker hosts all map output, which regresses into
  // multi-second TCP-retransmission stalls if the listener backlog ever
  // drops below that fan-in again (socket.h Listener::Listen).
  return engine.Run(MakeOrderingJobConfig(30, 30), input, output, metrics);
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

// A worker serves each shuffle fetch on its own thread and joins the
// thread once the fetch connection closes, so its threads — and their
// stacks — track open connections, not every connection a job ever made
// (30 x 30 tasks here: 900 fetches over two workers in one job). /proc's
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

// A worker serves each shuffle fetch on a fresh thread. Without a cap on
// glibc's malloc arenas, each such thread may get an arena of its own, and
// the chunk buffers freed there stay mapped, so a long-lived worker's peak
// RSS climbs job after job. ServeWorker caps the arenas itself, so this
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
