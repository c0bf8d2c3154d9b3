//===- Worker.cpp - Forked sandbox worker process ---------------------------===//
//
// Part of the mvec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "sandbox/Worker.h"

#include "daemon/DiskStore.h"
#include "daemon/Protocol.h"
#include "service/VectorizationService.h"
#include "support/Io.h"

#include <cctype>
#include <cerrno>
#include <cstring>
#include <new>
#include <vector>

#include <dirent.h>
#include <signal.h>
#include <stdlib.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#if defined(__linux__)
#include <sys/prctl.h>
#endif

// Address and thread sanitizer builds (GCC's macros, then Clang's).
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define MVEC_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define MVEC_SANITIZED 1
#endif
#endif
#ifndef MVEC_SANITIZED
#define MVEC_SANITIZED 0
#endif

using namespace mvec;
using namespace mvec::sandbox;
using namespace mvec::daemon;

const char *mvec::sandbox::workerFailureName(WorkerFailure F) {
  switch (F) {
  case WorkerFailure::CleanExit:
    return "clean-exit";
  case WorkerFailure::ExitError:
    return "exit-error";
  case WorkerFailure::Crash:
    return "crash";
  case WorkerFailure::OomKill:
    return "oom-kill";
  case WorkerFailure::WatchdogTimeout:
    return "watchdog-timeout";
  case WorkerFailure::ProtocolError:
    return "protocol-error";
  case WorkerFailure::SpawnFailed:
    return "spawn-failed";
  }
  return "crash";
}

namespace {

/// Closes every descriptor except std{in,out,err} and \p Keep: the child
/// inherits the daemon's listening socket, client connections, sibling
/// worker sockets, and store fds, and must hold a reference to none of
/// them (a client whose connection the parent closes must see EOF, not a
/// half-dead socket pinned by a worker).
void closeAllFdsExcept(int Keep) {
  bool Scanned = false;
  if (DIR *D = ::opendir("/proc/self/fd")) {
    Scanned = true;
    std::vector<int> Victims;
    while (dirent *E = ::readdir(D)) {
      char *End = nullptr;
      long Fd = std::strtol(E->d_name, &End, 10);
      if (End == E->d_name || *End != '\0')
        continue;
      if (Fd > 2 && Fd != Keep && Fd != ::dirfd(D))
        Victims.push_back(static_cast<int>(Fd));
    }
    ::closedir(D);
    for (int Fd : Victims)
      ::close(Fd);
  }
  if (!Scanned) {
    long Max = ::sysconf(_SC_OPEN_MAX);
    if (Max <= 0 || Max > 65536)
      Max = 65536;
    for (int Fd = 3; Fd < Max; ++Fd)
      if (Fd != Keep)
        ::close(Fd);
  }
}

void applyLimit(int Resource, rlim_t Limit) {
  rlimit L{Limit, Limit};
  ::setrlimit(Resource, &L); // Best-effort; containment, not correctness.
}

/// Crash-campaign hooks: markers in a request body that make this worker
/// misbehave in a specific classified way. Gated behind
/// SandboxConfig::TestHooks; in production the markers are inert MATLAB
/// comments.
[[noreturn]] void runTestHook(const std::string &Marker) {
  if (Marker == "crash")
    ::abort(); // SIGABRT -> classified `crash`.
  if (Marker == "exit")
    ::_exit(7); // -> `exit-error`.
  if (Marker == "oom") {
    // Allocate-and-touch until the address space runs out, then emulate
    // the kernel OOM killer faithfully (it delivers SIGKILL) so the
    // parent exercises the same classification path a real OOM takes.
    // Sanitizer builds run without RLIMIT_AS (see workerChildMain), so the
    // spree would exhaust the host instead: they deliver the SIGKILL
    // straight away.
#if !MVEC_SANITIZED
    try {
      std::vector<char *> Hog;
      for (;;) {
        char *P = new char[16 << 20];
        std::memset(P, 0x5a, 16 << 20);
        Hog.push_back(P);
      }
    } catch (const std::bad_alloc &) {
    }
#endif
    ::raise(SIGKILL);
  }
  // "spin": wedge without burning a full core so RLIMIT_CPU does not
  // race the watchdog in tests.
  for (;;)
    ::usleep(1000);
}

bool findTestHook(const std::string &Body, std::string &Marker) {
  size_t Pos = Body.find("%!sandbox-");
  if (Pos == std::string::npos)
    return false;
  size_t Start = Pos + std::strlen("%!sandbox-");
  size_t End = Start;
  while (End < Body.size() && std::isalpha(static_cast<unsigned char>(Body[End])))
    ++End;
  Marker = Body.substr(Start, End - Start);
  return true;
}

/// The supervisor is the only peer, so a frame it should never send is a
/// supervisor bug, not a client: answer 400 for the record and bail.
[[noreturn]] void rejectAndExit(int Fd, const std::string &Error) {
  std::string Wire = badRequestResponse(Error);
  io::sendFull(Fd, Wire.data(), Wire.size(), 1000);
  ::_exit(3);
}

/// The child's entire life: serve frames on \p Fd until EOF or a fatal
/// condition, then _exit.
[[noreturn]] void workerChildMain(int Fd, const SandboxConfig &Config,
                                  const ServiceConfig &Service) {
  // Shed the parent's signal dispositions: the daemon's SIGINT/SIGTERM
  // handlers flip parent-side flags that mean nothing here, and the
  // watchdog's SIGKILL must behave exactly like an external kill.
  ::signal(SIGINT, SIG_DFL);
  ::signal(SIGTERM, SIG_DFL);
  ::signal(SIGHUP, SIG_DFL);
  ::signal(SIGPIPE, SIG_IGN);
#if defined(__linux__)
  // If the daemon itself dies, take the workers with it — no orphans.
  ::prctl(PR_SET_PDEATHSIG, SIGKILL);
#endif
  closeAllFdsExcept(Fd);
  // A sanitizer runtime reserves its shadow memory before the fork, far
  // past any useful RLIMIT_AS, so under one the limit fails the runtime's
  // next mapping (the service's thread stacks first), not the job's:
  // sanitizer builds leave the address space unlimited.
  if (Config.MemoryLimitMB && !MVEC_SANITIZED)
    applyLimit(RLIMIT_AS, static_cast<rlim_t>(Config.MemoryLimitMB) << 20);
  if (Config.CpuLimitSeconds)
    applyLimit(RLIMIT_CPU, Config.CpuLimitSeconds);

  VectorizationService Pipeline(Service);

  FrameReader Reader;
  char Buf[16 << 10];
  for (;;) {
    FrameReader::Frame Frame;
    std::string Error;
    FrameReader::Result R = Reader.next(Frame, Error);
    if (R == FrameReader::Result::NeedMore) {
      ssize_t N = io::recvSome(Fd, Buf, sizeof(Buf));
      if (N <= 0)
        ::_exit(0); // Parent closed (or died): clean exit.
      Reader.feed(Buf, static_cast<size_t>(N));
      continue;
    }
    Request Req;
    if (R == FrameReader::Result::Malformed ||
        !requestFromFrame(Frame, Req, Error))
      rejectAndExit(Fd, Error);

    Response Resp;
    if (Req.V == Verb::Ping) {
      Resp.Message = "pong";
    } else if (Req.V == Verb::Vec) {
      std::string Marker;
      if (Config.TestHooks && findTestHook(Req.Body, Marker))
        runTestHook(Marker); // noreturn
      JobSpec Spec;
      Spec.Name = std::move(Req.Name);
      Spec.Source = std::move(Req.Body);
      Spec.Validate = Req.Validate;
      Spec.Deadline = std::chrono::milliseconds(Req.DeadlineMs);
      JobResult Result = Pipeline.submit(std::move(Spec)).get();
      Resp.Status = jobStatusName(Result.Status);
      Resp.ErrorClass = errorClassName(Result.Class);
      Resp.Attempts = Result.Attempts;
      if (Result.succeeded()) {
        Resp.Body = encodeResultEntry(Result);
      } else {
        Resp.Message = std::move(Result.Message);
        Resp.Body = std::move(Result.VectorizedSource);
      }
    } else {
      rejectAndExit(Fd, "a sandbox worker serves only VEC and PING");
    }
    std::string Wire = serializeResponse(Resp);
    if (!io::sendFull(Fd, Wire.data(), Wire.size(), 10000))
      ::_exit(0); // Parent gone mid-response.
  }
}

} // namespace

bool mvec::sandbox::spawnWorker(const SandboxConfig &Config,
                                const ServiceConfig &Service,
                                WorkerProcess &Out, std::string &Error) {
  int Sv[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, Sv) != 0) {
    Error = std::string("socketpair: ") + std::strerror(errno);
    return false;
  }
  pid_t Pid = ::fork();
  if (Pid < 0) {
    Error = std::string("fork: ") + std::strerror(errno);
    ::close(Sv[0]);
    ::close(Sv[1]);
    return false;
  }
  if (Pid == 0) {
    ::close(Sv[0]);
    workerChildMain(Sv[1], Config, Service); // noreturn
  }
  ::close(Sv[1]);
  Out.Pid = Pid;
  Out.Fd = Sv[0];
  return true;
}
