#include "net/worker.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "mr/shuffle.h"
#include "mr/task.h"
#include "net/frame.h"
#include "net/socket.h"
#include "net/stream.h"
#include "store/merge.h"
#include "util/endpoint.h"
#include "util/serde.h"
#include "util/timer.h"

#ifndef _WIN32
#include <malloc.h>
#include <unistd.h>
#endif

namespace fsjoin::net {

namespace {

std::atomic<bool> g_worker_serve_available{false};

uint64_t CurrentPid() {
#ifdef _WIN32
  return 0;
#else
  return static_cast<uint64_t>(::getpid());
#endif
}

/// FSJOIN_WORKER_FAULT="job:kind:index:attempt" — _exit(3) mid-task when a
/// dispatched task matches all four fields. Attempt is part of the match so
/// the retried attempt (and re-dispatched siblings, which arrive with a
/// bumped attempt) survive on the remaining workers.
bool FaultMatches(const mr::TaskSpec& spec) {
  const char* env = std::getenv("FSJOIN_WORKER_FAULT");
  if (env == nullptr || *env == '\0') return false;
  std::string_view text(env);
  std::vector<std::string_view> parts;
  size_t start = 0;
  while (parts.size() < 3) {
    const size_t colon = text.find(':', start);
    if (colon == std::string_view::npos) return false;
    parts.push_back(text.substr(start, colon - start));
    start = colon + 1;
  }
  parts.push_back(text.substr(start));
  return parts[0] == spec.job_name &&
         parts[1] == mr::TaskKindName(spec.kind) &&
         parts[2] == std::to_string(spec.task_index) &&
         parts[3] == std::to_string(spec.attempt);
}

/// Retained map output: one sorted ShuffleShard per reduce partition,
/// immutable once stored (fetchers hold the shared_ptr while streaming, so
/// a release during an in-flight fetch cannot free records under it).
class ShuffleStore {
 public:
  using Shards = std::vector<mr::ShuffleShard>;

  void Put(const std::string& job, uint32_t map_task,
           std::shared_ptr<const Shards> shards) {
    std::lock_guard<std::mutex> lock(mu_);
    retained_[{job, map_task}] = std::move(shards);
  }

  std::shared_ptr<const Shards> Find(const std::string& job,
                                     uint32_t map_task) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = retained_.find({job, map_task});
    return it == retained_.end() ? nullptr : it->second;
  }

  void ReleaseJob(const std::string& job) {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto it = retained_.begin(); it != retained_.end();) {
      it = it->first.first == job ? retained_.erase(it) : std::next(it);
    }
  }

 private:
  std::mutex mu_;
  std::map<std::pair<std::string, uint32_t>, std::shared_ptr<const Shards>>
      retained_;
};

/// Serves kShuffleFetch requests from peer workers (and self-fetches over
/// loopback): one thread per connection, each streaming whole sorted
/// partitions as kShuffleChunk/kShuffleEnd. A connection thread hands its
/// own handle to the exited list as it finishes, and the accept loop joins
/// those before taking the next connection, so live threads (and their
/// stacks) track open connections — not every connection the job made.
class ShuffleServer {
 public:
  explicit ShuffleServer(ShuffleStore* store) : store_(store) {}

  ~ShuffleServer() { Stop(); }

  Status Start(const std::string& host) {
    FSJOIN_ASSIGN_OR_RETURN(listener_, Listener::Listen(host, 0));
    accept_thread_ = std::thread([this] { AcceptLoop(); });
    return Status::OK();
  }

  uint16_t port() const { return listener_.port(); }

  void Stop() {
    if (stop_.exchange(true)) return;
    // Wake the accept loop now instead of letting it sit out its poll.
    listener_.Shutdown();
    if (accept_thread_.joinable()) accept_thread_.join();
    listener_.Close();
    std::vector<std::thread> threads;
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (auto& [id, t] : conns_) threads.push_back(std::move(t));
      conns_.clear();
      for (std::thread& t : exited_) threads.push_back(std::move(t));
      exited_.clear();
    }
    for (std::thread& t : threads) {
      if (t.joinable()) t.join();
    }
  }

 private:
  void AcceptLoop() {
    while (!stop_.load()) {
      // The timeout is only a backstop: Stop() wakes the poll directly.
      Result<Socket> conn = listener_.Accept(/*timeout_ms=*/200);
      ReapExited();
      if (!conn.ok()) continue;  // timeout, shutdown or transient error
      std::lock_guard<std::mutex> lock(mu_);
      // Created under mu_, so the thread's exit hand-off (which takes mu_)
      // always finds its own entry.
      const uint64_t id = next_conn_id_++;
      conns_.emplace(
          id, std::thread([this, id, sock = std::make_shared<Socket>(
                                         std::move(*conn))]() mutable {
            ServeConn(sock.get());
            sock.reset();  // close before the hand-off
            std::lock_guard<std::mutex> exit_lock(mu_);
            auto it = conns_.find(id);
            if (it != conns_.end()) {
              exited_.push_back(std::move(it->second));
              conns_.erase(it);
            }
          }));
    }
  }

  /// Joins connection threads that have finished serving; each is at most
  /// a few instructions from returning.
  void ReapExited() {
    std::vector<std::thread> done;
    {
      std::lock_guard<std::mutex> lock(mu_);
      done.swap(exited_);
    }
    for (std::thread& t : done) t.join();
  }

  void ServeConn(Socket* sock) {
    for (;;) {
      Frame frame;
      if (!RecvFrame(sock, &frame).ok()) return;  // peer done or gone
      if (frame.type != MsgType::kShuffleFetch) return;
      Result<ShuffleFetchMsg> msg = ShuffleFetchMsg::Decode(frame.payload);
      if (!msg.ok()) return;
      std::shared_ptr<const ShuffleStore::Shards> shards =
          store_->Find(msg->job, msg->map_task);
      if (shards == nullptr || msg->partition >= shards->size()) {
        TaskErrorMsg err;
        err.error = Status::NotFound(
            "no retained partition for job '" + msg->job + "' map task " +
            std::to_string(msg->map_task) + " partition " +
            std::to_string(msg->partition));
        std::string payload;
        err.EncodeTo(&payload);
        (void)SendFrame(sock, MsgType::kTaskError, payload);
        continue;
      }
      const mr::ShuffleShard& shard = (*shards)[msg->partition];
      ChunkStreamWriter writer(sock, MsgType::kShuffleChunk,
                               MsgType::kShuffleEnd);
      Status st;
      for (size_t i = 0; st.ok() && i < shard.NumRecords(); ++i) {
        st = writer.Add(shard.key(i), shard.value(i));
      }
      if (st.ok()) st = writer.Finish();
      if (!st.ok()) return;  // fetcher gone; its coordinator handles it
    }
  }

  ShuffleStore* store_;
  Listener listener_;
  std::atomic<bool> stop_{false};
  std::thread accept_thread_;
  std::mutex mu_;
  uint64_t next_conn_id_ = 0;                 ///< mu_
  std::map<uint64_t, std::thread> conns_;     ///< mu_: serving connections
  std::vector<std::thread> exited_;           ///< mu_: finished, unjoined
};

/// Wraps one remote shuffle source so a mid-merge failure is attributed to
/// its endpoint (the coordinator marks that worker dead and re-runs its map
/// tasks before retrying this reduce).
class SourceStream : public store::RecordStream {
 public:
  SourceStream(Socket* socket, std::string endpoint, std::string* lost)
      : inner_(socket, MsgType::kShuffleChunk, MsgType::kShuffleEnd),
        endpoint_(std::move(endpoint)),
        lost_(lost) {}

  Status Next(bool* has_record, std::string_view* key,
              std::string_view* value) override {
    Status st = inner_.Next(has_record, key, value);
    if (!st.ok() && lost_->empty()) *lost_ = endpoint_;
    return st;
  }

  uint64_t records() const { return inner_.records(); }
  uint64_t payload_bytes() const { return inner_.payload_bytes(); }

 private:
  FrameRecordStream inner_;
  std::string endpoint_;
  std::string* lost_;
};

/// Executes a reduce task by pulling every shuffle source over its own
/// connection — in map-task order, so the loser tree's source-index
/// tie-break reproduces exactly the order the in-memory shuffle's stable
/// sort would have produced.
Status ExecuteReduceOverSources(const mr::TaskSpec& spec,
                                const mr::TaskFactories& factories,
                                mr::TaskOutput* out,
                                std::string* lost_endpoint) {
  WallTimer timer;
  mr::TaskMetrics& tm = out->metrics;
  const size_t n = spec.shuffle_sources.size();
  std::vector<Socket> sockets;
  sockets.reserve(n);
  for (const mr::ShuffleSource& src : spec.shuffle_sources) {
    FSJOIN_ASSIGN_OR_RETURN(Endpoint ep, ParseEndpoint(src.endpoint));
    Result<Socket> sock = Socket::Connect(ep, /*timeout_ms=*/5000);
    if (!sock.ok()) {
      *lost_endpoint = src.endpoint;
      return sock.status();
    }
    ShuffleFetchMsg msg;
    msg.job = src.job;
    msg.map_task = src.map_task;
    msg.partition = spec.task_index;
    std::string payload;
    msg.EncodeTo(&payload);
    Status st = SendFrame(&*sock, MsgType::kShuffleFetch, payload);
    if (!st.ok()) {
      *lost_endpoint = src.endpoint;
      return st;
    }
    sockets.push_back(std::move(*sock));
  }

  mr::VectorEmitter emit(&out->records);
  std::unique_ptr<mr::Reducer> reducer = factories.reducer();
  if (n == 0) {
    FSJOIN_RETURN_NOT_OK(reducer->Setup());
    FSJOIN_RETURN_NOT_OK(reducer->Finish(&emit));
  } else {
    std::vector<std::unique_ptr<store::RecordStream>> sources;
    std::vector<const SourceStream*> raw;
    sources.reserve(n);
    raw.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      auto stream = std::make_unique<SourceStream>(
          &sockets[i], spec.shuffle_sources[i].endpoint, lost_endpoint);
      raw.push_back(stream.get());
      sources.push_back(std::move(stream));
    }
    store::LoserTreeMerge merge(std::move(sources));
    FSJOIN_RETURN_NOT_OK(mr::ReduceMergedStream(reducer.get(), &merge, &emit,
                                                &tm.max_group_bytes));
    for (const SourceStream* s : raw) {
      tm.input_records += s->records();
      tm.input_bytes += s->payload_bytes();
    }
  }
  tm.wall_micros = timer.ElapsedMicros();
  tm.output_records = emit.records();
  tm.output_bytes = emit.bytes();
  return Status::OK();
}

/// One worker's control-connection session: reads frames from the
/// coordinator, executes dispatched tasks on a second thread (so
/// heartbeats keep being answered mid-task), retains map output in the
/// shuffle store.
class WorkerSession {
 public:
  WorkerSession(Socket control, ShuffleStore* store, ShuffleServer* shuffle)
      : control_(std::move(control)), store_(store), shuffle_(shuffle) {}

  ~WorkerSession() { JoinExec(); }

  Status Handshake() {
    HelloMsg hello;
    hello.pid = CurrentPid();
    hello.shuffle_port = shuffle_->port();
    std::string payload;
    hello.EncodeTo(&payload);
    FSJOIN_RETURN_NOT_OK(Send(MsgType::kHello, payload));
    Frame frame;
    FSJOIN_RETURN_NOT_OK(RecvFrame(&control_, &frame));
    if (frame.type != MsgType::kHelloAck) {
      return Status::Corruption(std::string("worker handshake: expected "
                                            "hello-ack, got ") +
                                MsgTypeName(frame.type));
    }
    FSJOIN_ASSIGN_OR_RETURN(HelloAckMsg ack, HelloAckMsg::Decode(frame.payload));
    (void)ack;
    return Status::OK();
  }

  Status Serve() {
    for (;;) {
      Frame frame;
      Status st = RecvFrame(&control_, &frame);
      if (!st.ok()) {
        // The coordinator vanished (its destructor may close without a
        // kShutdown). Not a worker failure.
        return Status::OK();
      }
      switch (frame.type) {
        case MsgType::kHeartbeat:
          FSJOIN_RETURN_NOT_OK(Send(MsgType::kHeartbeatAck, ""));
          break;
        case MsgType::kDispatchTask:
          FSJOIN_RETURN_NOT_OK(HandleDispatch(frame.payload));
          break;
        case MsgType::kShuffleRelease: {
          Decoder dec(frame.payload);
          std::string_view job;
          FSJOIN_RETURN_NOT_OK(dec.GetLengthPrefixed(&job));
          store_->ReleaseJob(std::string(job));
          break;
        }
        case MsgType::kShutdown:
          JoinExec();
          return Status::OK();
        default:
          return Status::Corruption(
              std::string("worker control: unexpected ") +
              MsgTypeName(frame.type) + " frame");
      }
    }
  }

 private:
  Status Send(MsgType type, std::string_view payload) {
    std::lock_guard<std::mutex> lock(send_mu_);
    return SendFrame(&control_, type, payload);
  }

  void JoinExec() {
    if (exec_.joinable()) exec_.join();
  }

  Status HandleDispatch(std::string_view payload) {
    // The previous task already sent its result (the coordinator marks a
    // worker idle only then), so this join never blocks long.
    JoinExec();
    Decoder dec(payload);
    uint32_t num_streams = 0;
    std::string_view spec_bytes;
    FSJOIN_RETURN_NOT_OK(dec.GetVarint32(&num_streams));
    FSJOIN_RETURN_NOT_OK(dec.GetLengthPrefixed(&spec_bytes));
    if (!dec.done()) {
      return Status::Corruption("dispatch: trailing bytes");
    }
    FSJOIN_ASSIGN_OR_RETURN(mr::TaskSpec spec, mr::TaskSpec::Decode(spec_bytes));
    // Input streams follow the dispatch frame back-to-back; the control
    // loop consumes them synchronously (the coordinator sends no probes
    // while it is still streaming).
    mr::Dataset input;
    for (uint32_t s = 0; s < num_streams; ++s) {
      FrameRecordStream stream(&control_, MsgType::kTaskData,
                               MsgType::kTaskDataEnd);
      bool has = false;
      std::string_view key, value;
      for (;;) {
        FSJOIN_RETURN_NOT_OK(stream.Next(&has, &key, &value));
        if (!has) break;
        input.push_back(mr::KeyValue{std::string(key), std::string(value)});
      }
    }
    exec_ = std::thread([this, spec = std::move(spec),
                         input = std::move(input)]() mutable {
      ExecTask(std::move(spec), std::move(input));
    });
    return Status::OK();
  }

  void ExecTask(mr::TaskSpec spec, mr::Dataset input) {
    if (FaultMatches(spec)) {
      std::_Exit(3);
    }
    mr::TaskOutput out;
    std::string lost_endpoint;
    Status st = RunTask(spec, std::move(input), &out, &lost_endpoint);
    if (st.ok()) {
      std::string payload;
      EncodeTaskOutputWire(out, &payload);
      st = Send(MsgType::kTaskResult, payload);
      if (st.ok()) return;
      // The result could not be delivered; the coordinator will see the
      // broken connection and treat this worker as dead. Nothing to do.
      return;
    }
    TaskErrorMsg err;
    err.error = st;
    err.lost_endpoint = lost_endpoint;
    std::string payload;
    err.EncodeTo(&payload);
    (void)Send(MsgType::kTaskError, payload);
  }

  Status RunTask(const mr::TaskSpec& spec, mr::Dataset input,
                 mr::TaskOutput* out, std::string* lost_endpoint) {
    if (spec.factory.empty()) {
      return Status::InvalidArgument("dispatched task has no factory name");
    }
    FSJOIN_ASSIGN_OR_RETURN(
        mr::TaskFactories factories,
        mr::ResolveTaskFactory(spec.factory, spec.payload_bytes()));
    FSJOIN_RETURN_NOT_OK(RunTaskBody(spec, factories, std::move(input), out,
                                     lost_endpoint));
    if (factories.capture) out->side_state = factories.capture();
    return Status::OK();
  }

  Status RunTaskBody(const mr::TaskSpec& spec,
                     const mr::TaskFactories& factories, mr::Dataset input,
                     mr::TaskOutput* out, std::string* lost_endpoint) {
    if (spec.kind == mr::TaskKind::kMap) {
      FSJOIN_RETURN_NOT_OK(mr::ExecuteMapTask(spec, factories, input.data(),
                                              input.size(), out));
      if (spec.retain_shuffle) {
        // Sort each partition now (stable, same tag order as the in-memory
        // shuffle) and keep it resident for peer fetches; the result
        // carries only the per-partition stats.
        auto shards = std::make_shared<ShuffleStore::Shards>(
            spec.num_partitions);
        out->partition_stats.resize(spec.num_partitions);
        for (uint32_t p = 0; p < spec.num_partitions; ++p) {
          mr::ShuffleShard& shard = (*shards)[p];
          FSJOIN_RETURN_NOT_OK(shard.AddBuffer(std::move(out->partitions[p])));
          shard.SortByKey();
          out->partition_stats[p].records = shard.NumRecords();
          out->partition_stats[p].bytes = shard.PayloadBytes();
        }
        out->partitions.clear();
        store_->Put(spec.job_name, spec.task_index, std::move(shards));
      }
      return Status::OK();
    }
    if (!spec.shuffle_sources.empty() || spec.input_runs.empty()) {
      return ExecuteReduceOverSources(spec, factories, out, lost_endpoint);
    }
    return mr::ExecuteReduceTaskFromRuns(spec, factories, out);
  }

  Socket control_;
  std::mutex send_mu_;
  ShuffleStore* store_;
  ShuffleServer* shuffle_;
  std::thread exec_;
};

}  // namespace

Status ServeWorker(const WorkerServeOptions& options) {
  if (options.connect.empty() == options.listen.empty()) {
    return Status::InvalidArgument(
        "worker needs exactly one of connect/listen");
  }
#ifdef M_ARENA_MAX
  // Every shuffle fetch runs on its own thread, and glibc would give each
  // new thread its own malloc arena, whose freed chunk buffers stay
  // mapped: a long-lived worker's peak RSS then grows job after job. Cap
  // the arenas at two before the first thread starts.
  mallopt(M_ARENA_MAX, 2);
#endif
  std::string shuffle_host = "127.0.0.1";
  Socket control;
  if (!options.connect.empty()) {
    FSJOIN_ASSIGN_OR_RETURN(Endpoint coord, ParseEndpoint(options.connect));
    FSJOIN_ASSIGN_OR_RETURN(control,
                            Socket::Connect(coord, options.timeout_ms));
  }

  ShuffleStore store;
  ShuffleServer shuffle(&store);
  if (!options.listen.empty()) {
    FSJOIN_ASSIGN_OR_RETURN(Endpoint self, ParseEndpoint(options.listen));
    shuffle_host = self.host;
    FSJOIN_RETURN_NOT_OK(shuffle.Start(shuffle_host));
    FSJOIN_ASSIGN_OR_RETURN(Listener listener,
                            Listener::Listen(self.host, self.port));
    // Wait indefinitely for the coordinator; standalone workers are
    // started before the join driver.
    for (;;) {
      Result<Socket> conn = listener.Accept(/*timeout_ms=*/1000);
      if (conn.ok()) {
        control = std::move(*conn);
        break;
      }
    }
  } else {
    FSJOIN_RETURN_NOT_OK(shuffle.Start(shuffle_host));
  }

  WorkerSession session(std::move(control), &store, &shuffle);
  FSJOIN_RETURN_NOT_OK(session.Handshake());
  Status st = session.Serve();
  shuffle.Stop();
  return st;
}

int WorkerServeMainIfRequested(int argc, char** argv) {
  SetWorkerServeAvailable(true);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--worker-serve") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--worker-serve needs host:port\n");
        return 2;
      }
      WorkerServeOptions options;
      options.connect = argv[i + 1];
      Status st = ServeWorker(options);
      if (!st.ok()) {
        std::fprintf(stderr, "worker failed: %s\n", st.ToString().c_str());
        return 3;
      }
      return 0;
    }
  }
  return -1;
}

bool WorkerServeAvailable() { return g_worker_serve_available.load(); }

void SetWorkerServeAvailable(bool available) {
  g_worker_serve_available.store(available);
}

}  // namespace fsjoin::net
