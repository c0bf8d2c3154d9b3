//===- Server.h - mvecd TCP transport ---------------------------*- C++ -*-===//
//
// Part of the mvec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The socket layer around the transport-independent Daemon: a listening
/// TCP socket, one handler thread per connection (bounded), persistent
/// connections carrying a stream of protocol frames. All protocol logic
/// lives in Protocol.h/Daemon.h; this file only moves bytes. Each new
/// connection reads its frame-size ceiling from the daemon's config in
/// force (`max_frame_bytes`), so a reload reaches the next connection.
///
/// Shutdown paths, all of which drain cleanly (in-flight requests finish,
/// responses are written, then sockets close):
///   * stop() from any thread (mvecd's SIGINT/SIGTERM handlers set a flag
///     the accept loop watches via the idle callback),
///   * a SHUTDOWN protocol frame (the accept loop polls
///     Daemon::shutdownRequested()).
///
//===----------------------------------------------------------------------===//

#ifndef MVEC_DAEMON_SERVER_H
#define MVEC_DAEMON_SERVER_H

#include "daemon/Daemon.h"

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace mvec {
namespace daemon {

struct ServerConfig {
  /// Address to bind; loopback by default (mvecd is an internal service;
  /// exposing it wider is an explicit operator decision).
  std::string BindAddress = "127.0.0.1";
  /// 0 picks an ephemeral port (see port() after start()).
  uint16_t Port = 0;
  /// Concurrent connections beyond this are accepted and immediately
  /// closed (the client sees EOF and retries elsewhere/later).
  unsigned MaxConnections = 128;
  /// Wall-clock budget for writing one response. A client that stops
  /// reading (dead, or maliciously slow) blocks the send once the
  /// socket buffer fills; past this budget the connection is dropped so
  /// it cannot wedge a handler thread forever. 0 = no limit.
  unsigned SendTimeoutMs = 10000;
};

class Server {
public:
  Server(Daemon &D, ServerConfig Config) : D(D), Config(std::move(Config)) {}
  ~Server();

  /// Binds and listens. Returns false with \p Error set on failure.
  bool start(std::string &Error);

  /// The bound port (useful with Port = 0).
  uint16_t port() const { return BoundPort; }

  /// Accept loop; returns after stop() or a served SHUTDOWN frame, once
  /// every connection thread has been joined.
  void run();

  /// Ends run() from another thread (or after a signal flag flips).
  void stop() { StopFlag.store(true, std::memory_order_relaxed); }

  /// Invoked roughly every accept-poll interval (~200 ms) on the accept
  /// thread while idle; mvecd uses it to notice signal flags (SIGHUP
  /// config reload, SIGINT/SIGTERM stop).
  void setIdleCallback(std::function<void()> CB) { IdleCB = std::move(CB); }

  uint64_t connectionsAccepted() const {
    return Accepted.load(std::memory_order_relaxed);
  }
  uint64_t connectionsRefused() const {
    return Refused.load(std::memory_order_relaxed);
  }

private:
  void serveConnection(int Fd);
  void reapFinished(bool JoinAll);

  Daemon &D;
  ServerConfig Config;
  int ListenFd = -1;
  uint16_t BoundPort = 0;
  std::atomic<bool> StopFlag{false};
  std::atomic<unsigned> ActiveConnections{0};
  std::atomic<uint64_t> Accepted{0};
  std::atomic<uint64_t> Refused{0};
  std::function<void()> IdleCB;

  std::mutex ThreadsMutex;
  struct Conn {
    std::thread Thread;
    std::shared_ptr<std::atomic<bool>> Done;
  };
  std::vector<Conn> Connections;
};

} // namespace daemon
} // namespace mvec

#endif // MVEC_DAEMON_SERVER_H
