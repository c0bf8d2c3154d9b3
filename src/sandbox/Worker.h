//===- Worker.h - Forked sandbox worker process -----------------*- C++ -*-===//
//
// Part of the mvec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One sandboxed worker: a fork()ed child (no exec — the vectorizer is
/// already in this binary) that runs cache misses for its supervisor
/// (SandboxPool) on its half of an AF_UNIX socketpair, in MVEC/1 frames.
/// The child applies its rlimits, drops every inherited descriptor
/// except its socket, and builds a single-thread VectorizationService
/// from the shard's ServiceConfig, which its pool handed over with
/// caching off (no memory cache, Store or Faults). That service runs the
/// cold pipeline only: parse, analysis, codegen and the differential run,
/// with the service's retries and degradation. The supervisor sends only
/// VEC and PING. A succeeded VEC reply carries the result in the
/// DiskStore entry encoding (daemon::encodeResultEntry), so the
/// supervisor caches and stores exactly what an in-process run would.
/// Any other verb, or a frame that does not parse, is answered 400 and
/// the child _exit(3)s; EOF from the parent is a clean _exit(0).
///
/// Fork safety: the parent is multithreaded, so the child may only use
/// state that is freshly constructed after the fork or that no thread
/// writes. glibc reinitializes its allocator across fork, and the child
/// builds its service, pattern database and pool thread from scratch.
/// The inherited state it reads is the SandboxConfig and ServiceConfig
/// its pool holds (copied before the first spawn, never written after)
/// and what that ServiceConfig points at: the fleet's cost model, loaded
/// once in the parent before any fork and immutable, and a caller's
/// pattern database, which must be frozen. The pipeline's process-wide
/// singletons (the string interner, the SIMD dispatch table) come along
/// too. A parent in process mode runs no pipeline, so a fork rarely
/// finds one of their locks held; a child that wedges on one is killed
/// by the watchdog like any other wedge.
///
//===----------------------------------------------------------------------===//

#ifndef MVEC_SANDBOX_WORKER_H
#define MVEC_SANDBOX_WORKER_H

#include "sandbox/Sandbox.h"

#include <string>
#include <sys/types.h>

namespace mvec {
struct ServiceConfig;
namespace sandbox {

/// Parent-side handle to one live worker.
struct WorkerProcess {
  pid_t Pid = -1;
  int Fd = -1; ///< Parent half of the socketpair.
};

/// socketpair + fork. On success \p Out holds the child's pid and the
/// parent-side fd (the child never returns from this call; it serves
/// with \p Service, which the caller has stripped of caches). Returns
/// false with \p Error set when the kernel refuses.
bool spawnWorker(const SandboxConfig &Config, const ServiceConfig &Service,
                 WorkerProcess &Out, std::string &Error);

} // namespace sandbox
} // namespace mvec

#endif // MVEC_SANDBOX_WORKER_H
