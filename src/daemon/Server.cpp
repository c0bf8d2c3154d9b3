//===- Server.cpp - mvecd TCP transport --------------------------------------===//
//
// Part of the mvec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "daemon/Server.h"

#include "support/Io.h"

#include <cstring>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

using namespace mvec::daemon;

Server::~Server() {
  stop();
  reapFinished(/*JoinAll=*/true);
  if (ListenFd >= 0)
    ::close(ListenFd);
}

bool Server::start(std::string &Error) {
  ListenFd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (ListenFd < 0) {
    Error = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  int One = 1;
  ::setsockopt(ListenFd, SOL_SOCKET, SO_REUSEADDR, &One, sizeof(One));

  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_port = htons(Config.Port);
  if (::inet_pton(AF_INET, Config.BindAddress.c_str(), &Addr.sin_addr) != 1) {
    Error = "invalid bind address '" + Config.BindAddress + "'";
    ::close(ListenFd);
    ListenFd = -1;
    return false;
  }
  if (::bind(ListenFd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) !=
      0) {
    Error = std::string("bind: ") + std::strerror(errno);
    ::close(ListenFd);
    ListenFd = -1;
    return false;
  }
  if (::listen(ListenFd, 64) != 0) {
    Error = std::string("listen: ") + std::strerror(errno);
    ::close(ListenFd);
    ListenFd = -1;
    return false;
  }
  socklen_t Len = sizeof(Addr);
  if (::getsockname(ListenFd, reinterpret_cast<sockaddr *>(&Addr), &Len) ==
      0)
    BoundPort = ntohs(Addr.sin_port);
  return true;
}

void Server::run() {
  while (!StopFlag.load(std::memory_order_relaxed) &&
         !D.shutdownRequested()) {
    if (IdleCB)
      IdleCB();
    pollfd PFd{ListenFd, POLLIN, 0};
    int Ready = ::poll(&PFd, 1, 200);
    if (Ready <= 0) {
      reapFinished(/*JoinAll=*/false);
      continue;
    }
    int Fd = ::accept(ListenFd, nullptr, nullptr);
    if (Fd < 0)
      continue; // EINTR/transient accept errors: back to the poll.
    if (ActiveConnections.load(std::memory_order_relaxed) >=
        Config.MaxConnections) {
      Refused.fetch_add(1, std::memory_order_relaxed);
      ::close(Fd);
      continue;
    }
    Accepted.fetch_add(1, std::memory_order_relaxed);
    ActiveConnections.fetch_add(1, std::memory_order_relaxed);
    auto Done = std::make_shared<std::atomic<bool>>(false);
    std::thread T([this, Fd, Done] {
      serveConnection(Fd);
      ActiveConnections.fetch_sub(1, std::memory_order_relaxed);
      Done->store(true, std::memory_order_relaxed);
    });
    {
      std::lock_guard<std::mutex> Lock(ThreadsMutex);
      Connections.push_back({std::move(T), Done});
    }
    reapFinished(/*JoinAll=*/false);
  }
  // Drain: connection loops notice StopFlag within one receive timeout,
  // finish the frame they are serving, and exit.
  reapFinished(/*JoinAll=*/true);
}

void Server::reapFinished(bool JoinAll) {
  std::vector<Conn> ToJoin;
  {
    std::lock_guard<std::mutex> Lock(ThreadsMutex);
    for (size_t I = 0; I != Connections.size();) {
      if (JoinAll ||
          Connections[I].Done->load(std::memory_order_relaxed)) {
        ToJoin.push_back(std::move(Connections[I]));
        Connections.erase(Connections.begin() +
                          static_cast<ptrdiff_t>(I));
      } else {
        ++I;
      }
    }
  }
  for (Conn &C : ToJoin)
    if (C.Thread.joinable())
      C.Thread.join();
}

void Server::serveConnection(int Fd) {
  // A bounded receive timeout keeps this thread responsive to StopFlag
  // even when the peer goes quiet mid-connection.
  timeval Timeout{};
  Timeout.tv_usec = 250 * 1000;
  ::setsockopt(Fd, SOL_SOCKET, SO_RCVTIMEO, &Timeout, sizeof(Timeout));
  // Bound individual send() calls too, so the overall sendAll budget is
  // enforced even mid-syscall; io::sendFull treats the EAGAIN ticks as
  // poll points against its wall-clock deadline.
  ::setsockopt(Fd, SOL_SOCKET, SO_SNDTIMEO, &Timeout, sizeof(Timeout));
  int One = 1;
  ::setsockopt(Fd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof(One));

  // MSG_NOSIGNAL inside sendFull turns a dead peer into EPIPE rather
  // than SIGPIPE, and the send budget keeps a slow-reading client from
  // wedging this thread (it is disconnected instead).
  int SendBudget = Config.SendTimeoutMs ? static_cast<int>(Config.SendTimeoutMs)
                                        : -1;
  auto sendAll = [Fd, SendBudget](const std::string &Data) {
    return io::sendFull(Fd, Data.data(), Data.size(), SendBudget);
  };

  FrameReader Reader(D.config().MaxFrameBytes);
  char Buf[64 * 1024];
  bool Alive = true;
  while (Alive && !StopFlag.load(std::memory_order_relaxed)) {
    ssize_t N = io::recvSome(Fd, Buf, sizeof(Buf));
    if (N == 0)
      break; // peer closed
    if (N < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK)
        continue; // timeout tick: re-check StopFlag
      break;
    }
    Reader.feed(Buf, static_cast<size_t>(N));
    while (Alive) {
      FrameReader::Frame Frame;
      std::string Error;
      FrameReader::Result R = Reader.next(Frame, Error);
      if (R == FrameReader::Result::NeedMore)
        break;
      if (R == FrameReader::Result::Malformed) {
        sendAll(badRequestResponse(Error));
        Alive = false;
        break;
      }
      Request Req;
      if (!requestFromFrame(Frame, Req, Error)) {
        sendAll(badRequestResponse(Error));
        Alive = false;
        break;
      }
      Response Resp = D.handle(Req);
      if (!sendAll(serializeResponse(Resp)))
        Alive = false;
    }
  }
  ::close(Fd);
}
