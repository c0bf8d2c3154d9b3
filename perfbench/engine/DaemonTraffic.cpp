//===- DaemonTraffic.cpp - The traced run's daemon phase ------------------===//
//
// Part of the mvec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The daemon, service, DiskStore and sandbox layers of the traced run:
/// an open-loop generator driving an in-process daemon::Server over
/// loopback TCP with MVEC/1 frames. Requests are Poisson arrivals at the
/// offered rate, spread over at most nproc persistent connections (one
/// sender and one receiver thread each, so a slow reply never delays
/// the next send). Most requests repeat scripts drawn Zipf-skewed from a
/// population larger than the memory tier, so both the memory and the
/// DiskStore tier serve reads; a steady share are never-seen scripts
/// (cold pipeline + validation runs that write through both tiers); a
/// PING trickle rides alongside. Every request is timed from its due
/// time, not from when it was sent.
///
/// Commands: `traffic RATE SECONDS TRACE` runs one open-loop step,
/// `stats` returns the daemon's STATS body, `verify` re-derives every
/// served body with the library pipeline, and `isolation inproc|process`
/// re-boots the daemon under that isolation.
///
//===----------------------------------------------------------------------===//

#include "Workload.h"

#include "daemon/Daemon.h"
#include "daemon/Protocol.h"
#include "daemon/Server.h"
#include "support/Io.h"

#include <arpa/inet.h>
#include <cmath>
#include <filesystem>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>

using namespace mvec;
using namespace mvec::daemon;

namespace perfbench {
namespace {

/// Hot-script population; larger than the memory tier (Shards x
/// CacheEntriesPerShard) so the disk tier serves a steady share of reads.
constexpr unsigned HotScripts = 384;
constexpr unsigned Shards = 2;
constexpr unsigned WorkersPerShard = 2;
constexpr size_t CacheEntriesPerShard = 48;
constexpr double ZipfExponent = 1.1;
/// Share of requests that carry a never-seen script.
constexpr double ColdShare = 0.03;
constexpr double PingsPerSecond = 20;
/// How long a step waits for outstanding replies after its last send.
constexpr int DrainTimeoutMs = 15000;
constexpr uint64_t ColdIdBase = 1u << 20;

/// One benchmark script: four loop shapes the vectorizer handles. The
/// constant embeds the id, so every id is a distinct program.
std::string script(uint64_t Seed, uint64_t Id) {
  // Shape and size follow the id alone, so every seed draws the same mix
  // of work; the seed changes the constants (and, in drawHot, which
  // scripts are popular).
  std::string K =
      std::to_string(Id + 2) + "." + std::to_string(1000 + Seed % 9000);
  std::string N = std::to_string(16 + 8 * (Id / 4 % 11));
  std::string M = std::to_string(8 + 4 * (Id / 4 % 11));
  switch (Id % 4) {
  case 0:
    return "n = " + N + "; x = rand(1,n); y = rand(1,n); z = zeros(1,n);\n"
           "%! x(1,*) y(1,*) z(1,*) n(1)\n"
           "for i=1:n\n  z(i) = " + K + "*x(i)+y(i)^2;\nend\n";
  case 1:
    return "m = " + M + "; n = " + N +
           "; B = rand(m,n); C = rand(m,1); A = zeros(m,n);\n"
           "%! A(*,*) B(*,*) C(*,1) m(1) n(1)\n"
           "for i=1:m\n for j=1:n\n  A(i,j) = B(i,j)*" + K +
           "+C(i);\n end\nend\n";
  case 2:
    return "n = " + N + "; x = rand(1,n); s = 0;\n%! x(1,*) s(1) n(1)\n"
           "for i=1:n\n  s = s + " + K + "*x(i);\nend\n";
  default:
    return "n = " + M + "; X = rand(n,n); Y = rand(n,n); a = zeros(1,n);\n"
           "%! X(*,*) Y(*,*) a(1,*) n(1)\n"
           "for i=1:n\n  a(i) = X(i,:)*Y(:,i)+" + K + ";\nend\n";
  }
}

enum class Kind : uint8_t { Hot, Cold, Ping };
enum Tier : uint8_t { Memory = 0, Disk = 1, ColdTier = 2, Failed = 3 };

struct Pending {
  Clock::time_point Due;
  Clock::time_point Sent;
  Clock::time_point Done;
  Kind K = Kind::Hot;
  uint64_t Id = 0;
  bool Answered = false;
  bool Ok = false;
  uint8_t T = Failed;
};

int connectLoopback(uint16_t Port) {
  int Fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (Fd < 0)
    return -1;
  int One = 1;
  ::setsockopt(Fd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof(One));
  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_port = htons(Port);
  Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0) {
    ::close(Fd);
    return -1;
  }
  return Fd;
}

/// Reads frames from \p Fd until \p Want responses arrived or \p Until
/// passes; hands each parsed response to \p OnResponse.
template <typename Fn>
size_t readResponses(int Fd, size_t Want, Clock::time_point Until,
                     Fn &&OnResponse) {
  FrameReader Reader;
  std::vector<char> Buf(64 * 1024);
  size_t Got = 0;
  while (Got < Want) {
    auto Left = std::chrono::duration_cast<std::chrono::milliseconds>(
                    Until - Clock::now())
                    .count();
    if (Left <= 0 || io::pollFor(Fd, POLLIN, static_cast<int>(Left)) <= 0)
      break;
    ssize_t N = io::recvSome(Fd, Buf.data(), Buf.size());
    if (N <= 0)
      break;
    Reader.feed(Buf.data(), static_cast<size_t>(N));
    FrameReader::Frame F;
    std::string Error;
    FrameReader::Result R = FrameReader::Result::NeedMore;
    while (Got < Want &&
           (R = Reader.next(F, Error)) == FrameReader::Result::Ready) {
      Response Resp;
      if (!responseFromFrame(F, Resp, Error))
        Resp.Code = 0;
      OnResponse(Got, Resp);
      ++Got;
    }
    if (Reader.pendingBytes() && R == FrameReader::Result::Malformed)
      break;
  }
  return Got;
}

class DaemonTraffic : public Workload {
public:
  explicit DaemonTraffic(std::string WorkDir) : WorkDir(std::move(WorkDir)) {
    unsigned Cores = std::max(1u, std::thread::hardware_concurrency());
    Connections = std::min(4u, Cores);
  }
  ~DaemonTraffic() override { teardown(); }

  bool setup(uint64_t Seed, std::string &Error) override;
  bool command(const std::vector<std::string> &Args, Json &Out) override;

private:
  void teardown();
  void traffic(double Rate, double Seconds, bool Trace, Json &Out);
  bool stats(std::string &Body);
  void verify(Json &Out);
  std::string vecFrame(const std::string &Body) const;
  uint64_t drawHot(SeededRng &R) const;

  /// isolation=process instead of inproc (the traced run's sandbox phase).
  bool Sandboxed = false;
  std::string WorkDir;
  unsigned Connections = 1;
  uint64_t Seed = 0;
  unsigned Generation = 0;
  uint64_t Steps = 0;
  uint64_t NextCold = 0;
  std::filesystem::path StoreDir;

  std::unique_ptr<Daemon> D;
  std::unique_ptr<Server> Srv;
  std::thread ServerThread;

  std::vector<std::string> HotSource;
  std::vector<std::string> HotFrame;
  std::vector<std::string> HotBody;
  std::map<uint64_t, std::string> ColdBody;
  std::vector<double> ZipfCdf;
  std::vector<std::string> Violations;
};

std::string DaemonTraffic::vecFrame(const std::string &Body) const {
  Request Req;
  Req.V = Verb::Vec;
  Req.Tenant = "perfbench";
  Req.Body = Body;
  return serializeRequest(Req);
}

uint64_t DaemonTraffic::drawHot(SeededRng &R) const {
  double U = R.uniform();
  auto It = std::upper_bound(ZipfCdf.begin(), ZipfCdf.end(), U);
  size_t Rank = std::min<size_t>(It - ZipfCdf.begin(), HotScripts - 1);
  // Rank r maps to a seed-shuffled script id, so popularity is not tied
  // to a script's shape.
  return (Rank * 149 + Seed) % HotScripts;
}

void DaemonTraffic::teardown() {
  if (Srv) {
    Srv->stop();
    if (ServerThread.joinable())
      ServerThread.join();
  }
  Srv.reset();
  D.reset();
  std::error_code EC;
  if (!StoreDir.empty())
    std::filesystem::remove_all(StoreDir, EC);
}

bool DaemonTraffic::setup(uint64_t NewSeed, std::string &Error) {
  teardown();
  Seed = NewSeed;
  Steps = 0;
  NextCold = 0;
  ColdBody.clear();
  Violations.clear();
  StoreDir = std::filesystem::path(WorkDir) /
             ("store-" + std::to_string(Generation++));
  std::error_code EC;
  std::filesystem::remove_all(StoreDir, EC);

  HotSource.clear();
  HotFrame.clear();
  for (uint64_t Id = 0; Id != HotScripts; ++Id) {
    HotSource.push_back(script(Seed, Id));
    HotFrame.push_back(vecFrame(HotSource.back()));
  }
  ZipfCdf.assign(HotScripts, 0);
  double Sum = 0;
  for (unsigned R = 0; R != HotScripts; ++R)
    ZipfCdf[R] = (Sum += std::pow(R + 1.0, -ZipfExponent));
  for (double &C : ZipfCdf)
    C /= Sum;

  DaemonConfig C;
  C.Shards = Shards;
  C.WorkersPerShard = WorkersPerShard;
  C.CacheCapacity = CacheEntriesPerShard;
  C.StoreDir = StoreDir.string();
  C.Isolation = Sandboxed ? "process" : "inproc";
  C.QuarantineDir = (std::filesystem::path(WorkDir) / "quarantine").string();
  try {
    D = std::make_unique<Daemon>(C);
  } catch (const std::exception &E) {
    Error = std::string("daemon boot failed: ") + E.what();
    return false;
  }
  Srv = std::make_unique<Server>(*D, ServerConfig{});
  if (!Srv->start(Error))
    return false;
  ServerThread = std::thread([this] { Srv->run(); });

  // Warm: every hot script once, pipelined over the connections. These
  // cold-tier bodies are the reference every later serve must equal.
  HotBody.assign(HotScripts, "");
  std::vector<std::thread> Threads;
  std::vector<std::string> Errors(Connections);
  for (unsigned Ci = 0; Ci != Connections; ++Ci)
    Threads.emplace_back([this, Ci, &Errors] {
      int Fd = connectLoopback(Srv->port());
      if (Fd < 0) {
        Errors[Ci] = "connect failed";
        return;
      }
      std::vector<uint64_t> Ids;
      for (uint64_t Id = Ci; Id < HotScripts; Id += Connections)
        Ids.push_back(Id);
      std::string Batch;
      for (uint64_t Id : Ids)
        Batch += HotFrame[Id];
      if (!io::sendFull(Fd, Batch.data(), Batch.size(), 30000))
        Errors[Ci] = "send failed";
      size_t Got = readResponses(
          Fd, Ids.size(), Clock::now() + std::chrono::seconds(60),
          [&](size_t I, const Response &R) {
            if (R.Code != 200 || R.Status != "succeeded")
              Errors[Ci] = "warm-up request " + std::to_string(Ids[I]) +
                           " answered " + R.Status + ": " + R.Message;
            HotBody[Ids[I]] = R.Body;
          });
      if (Got != Ids.size())
        Errors[Ci] = "warm-up replies missing";
      ::close(Fd);
    });
  for (std::thread &T : Threads)
    T.join();
  for (const std::string &E : Errors)
    if (!E.empty()) {
      Error = E;
      return false;
    }
  return true;
}

void DaemonTraffic::traffic(double Rate, double Seconds, bool Trace,
                            Json &Out) {
  // The schedule: Poisson VEC arrivals at Rate plus a periodic PING
  // trickle, merged in due order and dealt round robin to connections.
  SeededRng R(Seed ^ (++Steps * 0x2545f4914f6cdd1dull));
  std::vector<Pending> All;
  std::vector<std::string> Frames;
  auto Start = Clock::now() + std::chrono::milliseconds(20);
  auto At = [Start](double S) {
    return Start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(S));
  };
  const std::string PingFrame = [] {
    Request Req;
    Req.V = Verb::Ping;
    return serializeRequest(Req);
  }();
  double T = 0, NextPing = 0.5 / PingsPerSecond;
  for (;;) {
    T += -std::log(1.0 - R.uniform()) / Rate;
    while (NextPing < T && NextPing < Seconds) {
      Pending P;
      P.Due = At(NextPing);
      P.K = Kind::Ping;
      All.push_back(P);
      Frames.push_back(PingFrame);
      NextPing += 1.0 / PingsPerSecond;
    }
    if (T >= Seconds)
      break;
    Pending P;
    P.Due = At(T);
    if (R.uniform() < ColdShare) {
      P.K = Kind::Cold;
      P.Id = ColdIdBase + NextCold++;
      Frames.push_back(vecFrame(script(Seed, P.Id)));
    } else {
      P.K = Kind::Hot;
      P.Id = drawHot(R);
      Frames.push_back(HotFrame[P.Id]);
    }
    All.push_back(P);
  }

  std::vector<std::vector<size_t>> PerConn(Connections);
  for (size_t I = 0; I != All.size(); ++I)
    PerConn[I % Connections].push_back(I);
  std::vector<std::vector<std::string>> ConnViolations(Connections);
  std::vector<std::vector<std::pair<uint64_t, std::string>>> ConnCold(
      Connections);
  auto DrainUntil = At(Seconds) + std::chrono::milliseconds(DrainTimeoutMs);

  std::vector<int> Fds;
  std::vector<std::thread> Threads;
  for (unsigned Ci = 0; Ci != Connections; ++Ci) {
    int Fd = connectLoopback(Srv->port());
    if (Fd < 0) {
      Violations.push_back("connect failed");
      continue;
    }
    Fds.push_back(Fd);
    Threads.emplace_back([&, Fd, Ci] {
      for (size_t I : PerConn[Ci]) {
        std::this_thread::sleep_until(All[I].Due);
        All[I].Sent = Clock::now();
        if (!io::sendFull(Fd, Frames[I].data(), Frames[I].size(), 10000))
          break;
      }
    });
    Threads.emplace_back([&, Fd, Ci] {
      const std::vector<size_t> &Mine = PerConn[Ci];
      readResponses(Fd, Mine.size(), DrainUntil,
                    [&](size_t J, const Response &Resp) {
                      Pending &P = All[Mine[J]];
                      P.Done = Clock::now();
                      P.Answered = true;
                      if (Resp.Code != 200)
                        return;
                      if (P.K == Kind::Ping) {
                        P.Ok = true;
                        return;
                      }
                      if (Resp.Status == "degraded") {
                        std::string Input = P.K == Kind::Hot
                                                ? HotSource[P.Id]
                                                : script(Seed, P.Id);
                        if (Resp.Body != Input)
                          ConnViolations[Ci].push_back(
                              "degraded body differs from its input");
                        return;
                      }
                      if (Resp.Status != "succeeded")
                        return;
                      P.Ok = true;
                      P.T = Resp.CacheTier == "memory" ? Memory
                            : Resp.CacheTier == "disk" ? Disk
                                                       : ColdTier;
                      if (P.K == Kind::Hot && Resp.Body != HotBody[P.Id])
                        ConnViolations[Ci].push_back(
                            "script " + std::to_string(P.Id) + " served by " +
                            Resp.CacheTier +
                            " tier differs from its cold-tier body");
                      if (P.K == Kind::Cold)
                        ConnCold[Ci].emplace_back(P.Id, Resp.Body);
                    });
    });
  }
  for (std::thread &Th : Threads)
    Th.join();
  for (int Fd : Fds)
    ::close(Fd);

  Samples S;
  for (unsigned Ci = 0; Ci != Connections; ++Ci) {
    for (std::string &V : ConnViolations[Ci])
      S.violation(std::move(V));
    for (auto &[Id, Body] : ConnCold[Ci])
      ColdBody[Id] = std::move(Body);
  }
  static const char *const TierSpan[] = {"daemon.memory_hit", "daemon.disk_hit",
                                         "daemon.cold", "daemon.failed"};
  tracer().setEnabled(Trace);
  for (const Pending &P : All) {
    double Late = msSince(P.Due, P.Sent > P.Due ? P.Sent : P.Due);
    S.add("late_ms", Late);
    if (P.K == Kind::Ping) {
      if (P.Answered)
        tracer().record("server.ping", P.Sent, P.Done);
      continue;
    }
    ++S.Attempted;
    if (!P.Ok)
      ++S.Failed;
    if (P.Answered)
      tracer().record(TierSpan[P.T], P.Sent, P.Done);
  }
  tracer().setEnabled(false);
  Out.field("offered_rate", Rate).field("seconds", Seconds);
  S.writeTo(Out);
  Out.key("spans");
  tracer().drainTo(Out);
}

bool DaemonTraffic::stats(std::string &Body) {
  int Fd = connectLoopback(Srv->port());
  if (Fd < 0)
    return false;
  Request Req;
  Req.V = Verb::Stats;
  std::string Frame = serializeRequest(Req);
  bool Ok = false;
  if (io::sendFull(Fd, Frame.data(), Frame.size(), 10000))
    Ok = readResponses(Fd, 1, Clock::now() + std::chrono::seconds(10),
                       [&](size_t, const Response &R) {
                         Body = R.Body;
                       }) == 1;
  ::close(Fd);
  return Ok;
}

void DaemonTraffic::verify(Json &Out) {
  Samples S;
  for (std::string &V : Violations)
    S.violation(std::move(V));
  Violations.clear();
  RunLimits Limits;
  Limits.MaxSteps = ValidateMaxSteps;
  // Every served body must equal what the library pipeline produces for
  // its script, and must validate against the original program.
  auto Check = [&](const std::string &Src, const std::string &Served) {
    if (vectorizeSource(Src).VectorizedSource != Served)
      S.violation("served body differs from the library pipeline's output");
    DiffOutcome D = diffRunLimited(Src, Served, Limits);
    if (!D.agreed())
      S.violation("served body fails validation: " + D.Message);
  };
  for (uint64_t Id = 0; Id != HotScripts; ++Id)
    Check(HotSource[Id], HotBody[Id]);
  for (const auto &[Id, Body] : ColdBody)
    Check(script(Seed, Id), Body);
  S.Counts["cold_scripts_checked"] = ColdBody.size();
  S.writeTo(Out);
}

bool DaemonTraffic::command(const std::vector<std::string> &Args, Json &Out) {
  if (Args.size() == 4 && Args[0] == "traffic") {
    traffic(std::stod(Args[1]), std::stod(Args[2]), Args[3] == "1", Out);
    return true;
  }
  if (Args.size() == 2 && Args[0] == "isolation") {
    // Re-boots the daemon (and re-warms it) under the other isolation.
    Sandboxed = Args[1] == "process";
    std::string Error;
    if (!setup(Seed, Error))
      throw std::runtime_error(Error);
    return true;
  }
  if (Args.size() == 1 && Args[0] == "stats") {
    std::string Body;
    if (!stats(Body))
      return false;
    Out.key("stats").raw(Body);
    return true;
  }
  if (Args.size() == 1 && Args[0] == "verify") {
    verify(Out);
    return true;
  }
  return false;
}

} // namespace

std::unique_ptr<Workload> makeDaemonTraffic(const std::string &WorkDir) {
  return std::make_unique<DaemonTraffic>(WorkDir);
}

} // namespace perfbench
