#include "net/worker.h"

#include <algorithm>
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
/// loopback): one thread per connection, each answering any number of
/// requests in order by streaming whole sorted partitions as
/// kShuffleChunk/kShuffleEnd. Fetchers pool their connections, so a
/// server sees about one connection per peer, held open across tasks and
/// jobs. A connection thread hands its own handle to the exited list as
/// it finishes, and the accept loop joins those before taking the next
/// connection, so live threads (and their stacks) track open connections.
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

  /// Stops accepting, shuts every live connection down — a peer holding an
  /// idle pooled connection must not keep this worker from exiting — and
  /// joins all connection threads.
  void Stop() {
    if (stop_.exchange(true)) return;
    // Wake the accept loop now instead of letting it sit out its poll.
    listener_.Shutdown();
    if (accept_thread_.joinable()) accept_thread_.join();
    listener_.Close();
    std::vector<std::thread> threads;
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (auto& [id, conn] : conns_) {
        conn.socket->Shutdown();
        threads.push_back(std::move(conn.thread));
      }
      for (std::thread& t : exited_) threads.push_back(std::move(t));
      exited_.clear();
    }
    // Each thread erases its own entry (closing its socket) before it
    // returns, so once these are joined no connection is left.
    for (std::thread& t : threads) {
      if (t.joinable()) t.join();
    }
  }

 private:
  struct Conn {
    std::unique_ptr<Socket> socket;
    std::thread thread;
  };

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
      Conn& entry = conns_[id];
      entry.socket = std::make_unique<Socket>(std::move(*conn));
      entry.thread = std::thread([this, id, sock = entry.socket.get()] {
        ServeConn(sock);
        std::lock_guard<std::mutex> exit_lock(mu_);
        auto it = conns_.find(id);
        // Stop() may have taken the handle already; it joins it itself.
        if (it->second.thread.joinable()) {
          exited_.push_back(std::move(it->second.thread));
        }
        conns_.erase(it);  // closes the socket
      });
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
  uint64_t next_conn_id_ = 0;         ///< mu_
  std::map<uint64_t, Conn> conns_;    ///< mu_: serving connections
  std::vector<std::thread> exited_;   ///< mu_: finished, unjoined
};

/// A worker's idle shuffle-fetch connections, at most one per shuffle
/// endpoint: the worker runs one task at a time, and a reduce task holds
/// one connection per endpoint. It lives as long as the worker's session,
/// so connections carry over from task to task and job to job. Only the
/// task thread uses it (tasks run one after another, each thread joined
/// before the next starts); the session closes it once the last task is
/// joined.
class FetchPool {
 public:
  /// `timeout_ms` bounds every wait for a response byte on the pool's
  /// connections, so a shuffle host that goes silent (power loss, network
  /// partition) fails the fetch instead of blocking it until TCP gives up.
  explicit FetchPool(int timeout_ms) : timeout_ms_(timeout_ms) {}

  /// A fresh connection to `endpoint`, its receive timeout set.
  Result<Socket> Dial(const std::string& endpoint) {
    FSJOIN_ASSIGN_OR_RETURN(Endpoint ep, ParseEndpoint(endpoint));
    FSJOIN_ASSIGN_OR_RETURN(Socket sock,
                            Socket::Connect(ep, /*timeout_ms=*/5000));
    FSJOIN_RETURN_NOT_OK(sock.SetRecvTimeout(timeout_ms_));
    return sock;
  }

  /// The idle connection to `endpoint`, or an invalid Socket when there is
  /// none. An idle connection has nothing to read: one that polls readable
  /// was closed by its server (its worker exited) and is dropped.
  Socket TakeIdle(const std::string& endpoint) {
    auto it = idle_.find(endpoint);
    if (it == idle_.end()) return Socket();
    Socket sock = std::move(it->second);
    idle_.erase(it);
    bool readable = false;
    if (!sock.WaitReadable(/*timeout_ms=*/0, &readable).ok() || readable) {
      return Socket();
    }
    return sock;
  }

  /// Returns a connection whose every response has been read to its
  /// trailer.
  void Put(const std::string& endpoint, Socket sock) {
    idle_[endpoint] = std::move(sock);
  }

  void Close() { idle_.clear(); }

 private:
  const int timeout_ms_;
  std::map<std::string, Socket> idle_;
};

/// Requests in flight on one fetch connection. Each is a ~40-byte frame;
/// the window keeps the unread ones far below any socket buffer, so the
/// fetcher can never block sending requests while the server blocks
/// sending responses the fetcher has yet to read.
constexpr size_t kFetchWindow = 64;

/// One shuffle endpoint's share of a reduce task: the sources it holds
/// (indices into TaskSpec::shuffle_sources, in map order) and the
/// connection their requests travel on.
struct EndpointFetch {
  std::string endpoint;
  std::vector<size_t> sources;
  Socket conn;
  bool pooled = false;  ///< conn came from the pool, not a dial
  size_t sent = 0;      ///< requests sent on conn
  size_t received = 0;  ///< responses read to their trailer
};

/// Sends f's next requests, back to back in one write, up to the window.
Status SendFetches(const mr::TaskSpec& spec, EndpointFetch* f) {
  const size_t limit = std::min(f->sources.size(), f->received + kFetchWindow);
  if (f->sent >= limit) return Status::OK();
  std::string frames;
  for (; f->sent < limit; ++f->sent) {
    const mr::ShuffleSource& src = spec.shuffle_sources[f->sources[f->sent]];
    ShuffleFetchMsg msg;
    msg.job = src.job;
    msg.map_task = src.map_task;
    msg.partition = spec.task_index;
    std::string payload;
    msg.EncodeTo(&payload);
    EncodeFrame(MsgType::kShuffleFetch, payload, &frames);
  }
  return f->conn.SendAll(frames.data(), frames.size());
}

/// Opens a new connection for f and sends every request not yet answered.
Status DialAndSend(const mr::TaskSpec& spec, FetchPool* pool,
                   EndpointFetch* f, uint32_t* connects) {
  f->conn.Close();
  f->pooled = false;
  f->sent = f->received;
  FSJOIN_ASSIGN_OR_RETURN(f->conn, pool->Dial(f->endpoint));
  *connects += 1;
  return SendFetches(spec, f);
}

/// Reads f's outstanding responses whole, in map order, topping the
/// request window up as they arrive.
Status ReceiveFetches(const mr::TaskSpec& spec, EndpointFetch* f,
                      std::vector<ReceivedStream>* streams) {
  while (f->received < f->sources.size()) {
    FSJOIN_RETURN_NOT_OK(ReceiveStream(&f->conn, MsgType::kShuffleChunk,
                                       MsgType::kShuffleEnd,
                                       &(*streams)[f->sources[f->received]]));
    f->received += 1;
    FSJOIN_RETURN_NOT_OK(SendFetches(spec, f));
  }
  return Status::OK();
}

/// A pooled connection can break while its server lives: a middlebox
/// between hosts may drop or reset an idle connection, and then the
/// requests sent on it fail or time out. So an I/O error on a pooled
/// connection earns one retry of the outstanding requests on a fresh
/// connection, which tells the two apart: a live server answers it, a
/// dead or silent host fails its connect or its wait in turn. Any other
/// error, or one on a fresh connection, is the endpoint's.
bool RetryOnFreshConnection(const EndpointFetch& f, const Status& st) {
  return f.pooled && st.code() == StatusCode::kIoError;
}

/// Wraps one received shuffle source so a mid-merge failure (a trailer
/// mismatch) is attributed to its endpoint.
class SourceStream : public store::RecordStream {
 public:
  SourceStream(ReceivedStream* stream, const std::string* endpoint,
               std::string* lost)
      : inner_(stream), endpoint_(endpoint), lost_(lost) {}

  Status Next(bool* has_record, std::string_view* key,
              std::string_view* value) override {
    Status st = inner_.Next(has_record, key, value);
    if (!st.ok() && lost_->empty()) *lost_ = *endpoint_;
    return st;
  }

  uint64_t records() const { return inner_.records(); }
  uint64_t payload_bytes() const { return inner_.payload_bytes(); }

 private:
  ReceivedRecordStream inner_;
  const std::string* endpoint_;
  std::string* lost_;
};

/// Executes a reduce task over the network shuffle. Sources are grouped by
/// endpoint, one connection each (pooled when one is idle): every
/// endpoint's requests go out first, so all servers stream at once, then
/// each endpoint's responses are read whole in map order. The loser tree
/// then merges the received streams in map-task order, so its source-index
/// tie-break reproduces exactly the order the in-memory shuffle's stable
/// sort would have produced. A failure that blames an endpoint sets
/// *lost_endpoint (the coordinator marks that worker dead and re-runs its
/// map tasks before retrying this reduce).
Status ExecuteReduceOverSources(const mr::TaskSpec& spec,
                                const mr::TaskFactories& factories,
                                FetchPool* pool, mr::TaskOutput* out,
                                std::string* lost_endpoint) {
  WallTimer timer;
  mr::TaskMetrics& tm = out->metrics;
  const size_t n = spec.shuffle_sources.size();
  std::vector<EndpointFetch> fetches;
  std::map<std::string, size_t> by_endpoint;
  for (size_t i = 0; i < n; ++i) {
    const std::string& endpoint = spec.shuffle_sources[i].endpoint;
    auto [it, added] = by_endpoint.emplace(endpoint, fetches.size());
    if (added) {
      fetches.emplace_back();
      fetches.back().endpoint = endpoint;
    }
    fetches[it->second].sources.push_back(i);
  }

  auto lost = [&](const EndpointFetch& f, Status st) {
    *lost_endpoint = f.endpoint;
    return st;
  };
  for (EndpointFetch& f : fetches) {
    f.conn = pool->TakeIdle(f.endpoint);
    f.pooled = f.conn.valid();
    Status st = f.pooled ? SendFetches(spec, &f)
                         : DialAndSend(spec, pool, &f, &tm.shuffle_connects);
    if (RetryOnFreshConnection(f, st)) {
      st = DialAndSend(spec, pool, &f, &tm.shuffle_connects);
    }
    if (!st.ok()) return lost(f, st);
  }
  std::vector<ReceivedStream> streams(n);
  for (EndpointFetch& f : fetches) {
    Status st = ReceiveFetches(spec, &f, &streams);
    if (RetryOnFreshConnection(f, st)) {
      st = DialAndSend(spec, pool, &f, &tm.shuffle_connects);
      if (st.ok()) st = ReceiveFetches(spec, &f, &streams);
    }
    if (!st.ok()) return lost(f, st);
    pool->Put(f.endpoint, std::move(f.conn));
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
          &streams[i], &spec.shuffle_sources[i].endpoint, lost_endpoint);
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
  WorkerSession(Socket control, ShuffleStore* store, ShuffleServer* shuffle,
                int fetch_timeout_ms)
      : control_(std::move(control)),
        store_(store),
        shuffle_(shuffle),
        fetch_pool_(fetch_timeout_ms) {}

  ~WorkerSession() { Finish(); }

  /// Joins the running task, then closes the pooled fetch connections.
  /// Call before stopping the shuffle server.
  void Finish() {
    JoinExec();
    fetch_pool_.Close();
  }

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
    // while it is still streaming). The reader frees each chunk once its
    // records are copied, so the input costs about one chunk beyond the
    // Dataset it becomes.
    mr::Dataset input;
    for (uint32_t s = 0; s < num_streams; ++s) {
      ReceivedStream stream;
      FSJOIN_RETURN_NOT_OK(ReceiveStream(&control_, MsgType::kTaskData,
                                         MsgType::kTaskDataEnd, &stream));
      ReceivedRecordStream records(&stream);
      bool has = false;
      std::string_view key, value;
      for (;;) {
        FSJOIN_RETURN_NOT_OK(records.Next(&has, &key, &value));
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
      return ExecuteReduceOverSources(spec, factories, &fetch_pool_, out,
                                      lost_endpoint);
    }
    return mr::ExecuteReduceTaskFromRuns(spec, factories, out);
  }

  Socket control_;
  std::mutex send_mu_;
  ShuffleStore* store_;
  ShuffleServer* shuffle_;
  FetchPool fetch_pool_;  ///< task thread only; closed by Finish()
  std::thread exec_;
};

}  // namespace

Status ServeWorker(const WorkerServeOptions& options) {
  if (options.connect.empty() == options.listen.empty()) {
    return Status::InvalidArgument(
        "worker needs exactly one of connect/listen");
  }
#ifdef M_ARENA_MAX
  // Each task runs on a new thread, and so does each fetch connection a
  // peer opens, and glibc may give every new thread its own malloc arena,
  // whose freed chunk buffers stay mapped: a long-lived worker's peak RSS
  // then grows job after job. Cap the arenas at two before the first
  // thread starts.
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

  WorkerSession session(std::move(control), &store, &shuffle,
                        options.timeout_ms);
  FSJOIN_RETURN_NOT_OK(session.Handshake());
  Status st = session.Serve();
  session.Finish();
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
