#include "net/cluster_runner.h"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#ifndef _WIN32
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

#include "net/frame.h"
#include "net/stream.h"
#include "net/worker.h"
#include "store/run_file.h"
#include "util/serde.h"

namespace fsjoin::net {

namespace {

std::string TaskLabel(const mr::TaskSpec& spec) {
  return spec.job_name + "/" + mr::TaskKindName(spec.kind) +
         std::to_string(spec.task_index);
}

}  // namespace

ClusterTaskRunner::ClusterTaskRunner(const ClusterOptions& options,
                                     size_t worker_count)
    : options_(options),
      pool_(std::max(options.num_threads, worker_count)),
      fallback_(std::make_unique<mr::SubprocessRunner>(options.num_threads)) {
#ifndef _WIN32
  char buf[4096];
  const ssize_t n = readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n > 0) {
    buf[n] = '\0';
    argv0_ = buf;
  }
#endif
  workers_.resize(worker_count);
}

Result<std::unique_ptr<ClusterTaskRunner>> ClusterTaskRunner::Create(
    const ClusterOptions& options) {
  const bool spawn = options.spawn_local_workers > 0;
  if (spawn == !options.workers.empty()) {
    return Status::InvalidArgument(
        "cluster runner needs exactly one of worker endpoints or "
        "spawn_local_workers");
  }
  if (options.heartbeat_ms < 50) {
    return Status::InvalidArgument(
        "heartbeat_ms must be >= 50, got " +
        std::to_string(options.heartbeat_ms));
  }
  const size_t count = spawn ? static_cast<size_t>(options.spawn_local_workers)
                             : options.workers.size();
  std::unique_ptr<ClusterTaskRunner> runner(
      new ClusterTaskRunner(options, count));
  FSJOIN_RETURN_NOT_OK(runner->Init());
  return runner;
}

#ifdef _WIN32

Status ClusterTaskRunner::Init() {
  return Status::Unimplemented("cluster runner requires POSIX sockets");
}

ClusterTaskRunner::~ClusterTaskRunner() = default;

#else  // !_WIN32

Status ClusterTaskRunner::Init() {
  if (options_.spawn_local_workers > 0) {
    if (!WorkerServeAvailable() || argv0_.empty()) {
      return Status::InvalidArgument(
          "spawn-local cluster workers need a binary routed through "
          "WorkerServeMainIfRequested");
    }
    FSJOIN_ASSIGN_OR_RETURN(Listener listener,
                            Listener::Listen("127.0.0.1", 0));
    const std::string coord =
        "127.0.0.1:" + std::to_string(listener.port());
    for (size_t i = 0; i < workers_.size(); ++i) {
      const char* argv[] = {argv0_.c_str(), "--worker-serve", coord.c_str(),
                            nullptr};
      std::lock_guard<std::mutex> lock(mr::ProcessForkMutex());
      const pid_t pid = fork();
      if (pid == 0) {
        execv(argv[0], const_cast<char* const*>(argv));
        _exit(127);
      }
      if (pid < 0) {
        return Status::Internal("fork failed for cluster worker: " +
                                std::string(std::strerror(errno)));
      }
      workers_[i].child_pid = pid;
    }
    for (size_t i = 0; i < workers_.size(); ++i) {
      FSJOIN_ASSIGN_OR_RETURN(Socket conn,
                              listener.Accept(options_.timeout_ms));
      FSJOIN_RETURN_NOT_OK(AttachWorker(i, std::move(conn), "127.0.0.1"));
    }
    return Status::OK();
  }
  for (size_t i = 0; i < workers_.size(); ++i) {
    const Endpoint& ep = options_.workers[i];
    FSJOIN_ASSIGN_OR_RETURN(Socket conn,
                            Socket::Connect(ep, options_.timeout_ms));
    FSJOIN_RETURN_NOT_OK(AttachWorker(i, std::move(conn), ep.host));
  }
  return Status::OK();
}

ClusterTaskRunner::~ClusterTaskRunner() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (WorkerConn& wc : workers_) {
      if (wc.alive) {
        (void)SendFrame(&wc.control, MsgType::kShutdown, "");
      }
      wc.control.Close();
      wc.alive = false;
    }
  }
  for (const WorkerConn& wc : workers_) {
    if (wc.child_pid < 0) continue;
    int status = 0;
    pid_t waited;
    do {
      waited = waitpid(static_cast<pid_t>(wc.child_pid), &status, 0);
    } while (waited < 0 && errno == EINTR);
  }
}

#endif  // _WIN32

Status ClusterTaskRunner::AttachWorker(size_t index, Socket control,
                                       const std::string& shuffle_host) {
  Frame frame;
  FSJOIN_RETURN_NOT_OK(RecvFrame(&control, &frame));
  if (frame.type != MsgType::kHello) {
    return Status::Corruption(std::string("worker handshake: expected "
                                          "hello, got ") +
                              MsgTypeName(frame.type));
  }
  FSJOIN_ASSIGN_OR_RETURN(HelloMsg hello, HelloMsg::Decode(frame.payload));
  if (hello.protocol_version != kProtocolVersion) {
    return Status::InvalidArgument(
        "worker speaks protocol version " +
        std::to_string(hello.protocol_version) + ", coordinator speaks " +
        std::to_string(kProtocolVersion));
  }
  HelloAckMsg ack;
  ack.worker_id = static_cast<uint32_t>(index);
  std::string payload;
  ack.EncodeTo(&payload);
  FSJOIN_RETURN_NOT_OK(SendFrame(&control, MsgType::kHelloAck, payload));

  WorkerConn& wc = workers_[index];
  wc.control = std::move(control);
  wc.shuffle_endpoint =
      shuffle_host + ":" + std::to_string(hello.shuffle_port);
  wc.alive = true;
  return Status::OK();
}

void ClusterTaskRunner::ParallelRun(size_t n,
                                    const std::function<void(size_t)>& fn) {
  pool_.ParallelFor(n, fn);
}

size_t ClusterTaskRunner::alive_workers() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t alive = 0;
  for (const WorkerConn& wc : workers_) {
    if (wc.alive) ++alive;
  }
  return alive;
}

std::vector<int64_t> ClusterTaskRunner::worker_pids() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<int64_t> pids;
  pids.reserve(workers_.size());
  for (const WorkerConn& wc : workers_) pids.push_back(wc.child_pid);
  return pids;
}

Result<size_t> ClusterTaskRunner::AcquireWorker() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    size_t alive = 0;
    for (size_t i = 0; i < workers_.size(); ++i) {
      if (!workers_[i].alive) continue;
      ++alive;
      if (!workers_[i].busy) {
        workers_[i].busy = true;
        return i;
      }
    }
    if (alive == 0) {
      return Status::Internal("no alive cluster workers left");
    }
    cv_.wait(lock);
  }
}

void ClusterTaskRunner::ReleaseWorker(size_t w) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    workers_[w].busy = false;
  }
  cv_.notify_all();
}

Status ClusterTaskRunner::RunAttempt(const mr::TaskSpec& spec,
                                     const mr::TaskBody& body,
                                     const mr::TaskSideChannel& side,
                                     mr::TaskOutput* out) {
  // Only retained-shuffle maps and network-shuffle reduces cross the wire;
  // everything else (closure tasks, factory tasks of non-distributed
  // shape) keeps the subprocess runner's local isolation contract.
  const bool remote = spec.retain_shuffle || !spec.shuffle_sources.empty();
  if (!remote) {
    return fallback_->RunAttempt(spec, body, side, out);
  }
  if (spec.shuffle_sources.empty()) {
    return RunRemote(spec, out);
  }
  FSJOIN_ASSIGN_OR_RETURN(mr::TaskSpec resolved, ResolveSources(spec));
  return RunRemote(resolved, out);
}

Status ClusterTaskRunner::RunRemote(const mr::TaskSpec& spec,
                                    mr::TaskOutput* out) {
  FSJOIN_ASSIGN_OR_RETURN(size_t w, AcquireWorker());
  std::string lost_endpoint;
  bool worker_died = false;
  Status st = DispatchToWorker(w, spec, out, &lost_endpoint, &worker_died);
  if (worker_died) {
    HandleWorkerDeath(w, /*held_by_caller=*/true);
    return st;
  }
  if (st.ok()) out->metrics.transport = mr::TaskTransport::kRemote;
  if (st.ok() && spec.retain_shuffle) {
    std::lock_guard<std::mutex> lock(mu_);
    const TaskKey key{spec.job_name, spec.task_index};
    locations_[key] = w;
    retained_[key] = spec;
    out->shuffle_endpoint = workers_[w].shuffle_endpoint;
  }
  ReleaseWorker(w);
  if (!st.ok() && !lost_endpoint.empty()) {
    const int lw = WorkerByShuffleEndpoint(lost_endpoint);
    if (lw >= 0) {
      HandleWorkerDeath(static_cast<size_t>(lw), /*held_by_caller=*/false);
    }
  }
  return st;
}

Status ClusterTaskRunner::DispatchToWorker(size_t w, const mr::TaskSpec& spec,
                                           mr::TaskOutput* out,
                                           std::string* lost_endpoint,
                                           bool* worker_died) {
  Socket& sock = workers_[w].control;
  const std::string label = TaskLabel(spec);
  auto died = [&](const Status& st) {
    *worker_died = true;
    return Status::Internal("worker " + std::to_string(w) + " died during '" +
                            label + "': " + st.message());
  };

  std::string payload;
  PutVarint32(&payload, static_cast<uint32_t>(spec.input_runs.size()));
  std::string spec_bytes;
  spec.EncodeTo(&spec_bytes);
  PutLengthPrefixed(&payload, spec_bytes);
  Status st = SendFrame(&sock, MsgType::kDispatchTask, payload);
  if (!st.ok()) return died(st);

  for (const std::string& path : spec.input_runs) {
    Result<std::unique_ptr<store::RunReader>> reader =
        store::RunReader::Open(path);
    if (!reader.ok()) {
      // Coordinator-side fault, but the worker is now mid-protocol waiting
      // for this stream; abandon the connection so it resets cleanly.
      *worker_died = true;
      return reader.status();
    }
    ChunkStreamWriter writer(&sock, MsgType::kTaskData, MsgType::kTaskDataEnd);
    bool has = false;
    std::string_view key, value;
    for (;;) {
      st = (*reader)->Next(&has, &key, &value);
      if (!st.ok()) {
        *worker_died = true;
        return st;
      }
      if (!has) break;
      st = writer.Add(key, value);
      if (!st.ok()) return died(st);
    }
    st = writer.Finish();
    if (!st.ok()) return died(st);
  }

  // Probe/receive loop: every silent heartbeat interval costs one probe;
  // kMaxMissedHeartbeats consecutive silent intervals is a death.
  int missed = 0;
  for (;;) {
    bool readable = false;
    st = sock.WaitReadable(options_.heartbeat_ms, &readable);
    if (!st.ok()) return died(st);
    if (!readable) {
      if (missed >= kMaxMissedHeartbeats) {
        return died(Status::IoError(
            "missed " + std::to_string(missed) + " heartbeats"));
      }
      st = SendFrame(&sock, MsgType::kHeartbeat, "");
      if (!st.ok()) return died(st);
      ++missed;
      continue;
    }
    Frame frame;
    st = RecvFrame(&sock, &frame);
    if (!st.ok()) return died(st);
    switch (frame.type) {
      case MsgType::kHeartbeatAck:
        missed = 0;
        continue;
      case MsgType::kTaskResult:
        return DecodeTaskOutputWire(frame.payload, out);
      case MsgType::kTaskError: {
        FSJOIN_ASSIGN_OR_RETURN(TaskErrorMsg msg,
                                TaskErrorMsg::Decode(frame.payload));
        *lost_endpoint = msg.lost_endpoint;
        return msg.error;
      }
      default:
        return died(Status::Corruption(
            std::string("unexpected ") + MsgTypeName(frame.type) + " frame"));
    }
  }
}

void ClusterTaskRunner::HandleWorkerDeath(size_t w, bool held_by_caller) {
  std::vector<mr::TaskSpec> orphans;
  bool recover = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    WorkerConn& wc = workers_[w];
    if (wc.alive) {
      wc.alive = false;
      recover = true;
      recovering_ += 1;
      for (const auto& [key, widx] : locations_) {
        if (widx == w) orphans.push_back(retained_.at(key));
      }
    }
    if (held_by_caller) {
      wc.control.Close();
      wc.busy = false;
    } else if (recover && !wc.busy) {
      wc.control.Close();
    }
    // Dead-but-busy: the holder's dispatch fails on its own and closes the
    // socket then — never close a socket another thread is using.
  }
  cv_.notify_all();
  if (!recover) return;
  for (mr::TaskSpec& spec : orphans) {
    // A bumped attempt labels the re-run and keeps matching fault
    // injections (FSJOIN_WORKER_FAULT) from re-firing on the survivor.
    spec.attempt += 1;
    (void)RedispatchRetained(std::move(spec));
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    recovering_ -= 1;
  }
  cv_.notify_all();
}

Status ClusterTaskRunner::RedispatchRetained(mr::TaskSpec spec) {
  const TaskKey key{spec.job_name, spec.task_index};
  for (;;) {
    Result<size_t> w = AcquireWorker();
    if (!w.ok()) {
      DropLocation(key);
      return w.status();
    }
    mr::TaskOutput scratch;
    std::string lost_endpoint;
    bool worker_died = false;
    Status st =
        DispatchToWorker(*w, spec, &scratch, &lost_endpoint, &worker_died);
    if (worker_died) {
      HandleWorkerDeath(*w, /*held_by_caller=*/true);
      spec.attempt += 1;
      continue;
    }
    if (st.ok()) {
      std::lock_guard<std::mutex> lock(mu_);
      locations_[key] = *w;
      retained_[key] = spec;
    }
    ReleaseWorker(*w);
    if (!st.ok()) DropLocation(key);
    return st;
  }
}

void ClusterTaskRunner::DropLocation(const TaskKey& key) {
  std::lock_guard<std::mutex> lock(mu_);
  locations_.erase(key);
  retained_.erase(key);
}

Result<mr::TaskSpec> ClusterTaskRunner::ResolveSources(
    const mr::TaskSpec& spec) {
  mr::TaskSpec resolved = spec;
  std::unique_lock<std::mutex> lock(mu_);
  // Let an in-flight death recovery repair the location table first, so a
  // retried reduce doesn't burn its budget racing the map re-runs.
  cv_.wait(lock, [this] { return recovering_ == 0; });
  for (mr::ShuffleSource& src : resolved.shuffle_sources) {
    auto it = locations_.find({src.job, src.map_task});
    if (it == locations_.end() || !workers_[it->second].alive) {
      return Status::Internal(
          "map output of job '" + src.job + "' task " +
          std::to_string(src.map_task) +
          " is lost (worker died and recovery failed)");
    }
    src.endpoint = workers_[it->second].shuffle_endpoint;
  }
  return resolved;
}

int ClusterTaskRunner::WorkerByShuffleEndpoint(
    const std::string& endpoint) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = 0; i < workers_.size(); ++i) {
    if (workers_[i].shuffle_endpoint == endpoint) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

void ClusterTaskRunner::FinishJob(const std::string& job_name) {
  std::string payload;
  PutLengthPrefixed(&payload, job_name);
  std::lock_guard<std::mutex> lock(mu_);
  for (WorkerConn& wc : workers_) {
    if (wc.alive && !wc.busy) {
      (void)SendFrame(&wc.control, MsgType::kShuffleRelease, payload);
    }
  }
  for (auto it = locations_.begin(); it != locations_.end();) {
    it = it->first.first == job_name ? locations_.erase(it) : std::next(it);
  }
  for (auto it = retained_.begin(); it != retained_.end();) {
    it = it->first.first == job_name ? retained_.erase(it) : std::next(it);
  }
}

}  // namespace fsjoin::net
