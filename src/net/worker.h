#ifndef FSJOIN_NET_WORKER_H_
#define FSJOIN_NET_WORKER_H_

#include <string>

#include "util/status.h"

namespace fsjoin::net {

/// How this worker meets its coordinator.
struct WorkerServeOptions {
  /// Non-empty: dial the coordinator at "host:port" (spawn-local mode —
  /// the coordinator listens and passes its address on our command line).
  std::string connect;
  /// Non-empty: listen at "host:port" and wait for the coordinator to dial
  /// in (standalone fsjoin_worker mode). Exactly one of connect/listen
  /// must be set.
  std::string listen;
  /// Connect/handshake timeout. Also the longest a shuffle fetch waits
  /// for the next byte from a peer's shuffle server before it gives up on
  /// that connection (and, on a fresh one, blames the peer).
  int timeout_ms = 10000;
};

/// Runs one cluster worker to completion: opens a shuffle server, attaches
/// to the coordinator (kHello/kHelloAck handshake), then serves the control
/// loop — heartbeats answered while a dispatched task executes on a second
/// thread, retained map partitions served to peers over the shuffle port —
/// until kShutdown or the coordinator's connection closes. See the protocol
/// walk-through in DESIGN.md §5j. Caps the process's glibc malloc arenas at
/// two (mallopt M_ARENA_MAX), so call it before starting other threads.
///
/// Fault injection: when the FSJOIN_WORKER_FAULT environment variable holds
/// "job:kind:index:attempt" and a dispatched task matches all four fields,
/// the worker _exit(3)s mid-task — the deterministic kill-a-worker lever of
/// the cluster fault tests.
Status ServeWorker(const WorkerServeOptions& options);

/// Binary entry hook for spawn-local workers, the socket sibling of
/// mr::WorkerTaskMainIfRequested. Call first thing in main(); when argv
/// contains `--worker-serve <host:port>` the process becomes a cluster
/// worker dialing that coordinator and the return value is its exit code.
/// Otherwise returns -1 — and records that this binary supports worker
/// serve mode, which is what lets ClusterTaskRunner spawn local workers by
/// re-execing itself.
int WorkerServeMainIfRequested(int argc, char** argv);

/// Whether this binary routed main() through WorkerServeMainIfRequested
/// (and may therefore be re-execed with --worker-serve).
bool WorkerServeAvailable();
void SetWorkerServeAvailable(bool available);

}  // namespace fsjoin::net

#endif  // FSJOIN_NET_WORKER_H_
