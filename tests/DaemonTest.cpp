//===- DaemonTest.cpp - mvecd daemon subsystem tests -------------------------===//
//
// Part of the mvec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Covers src/daemon: the wire protocol (framing, escaping, malformed
/// input), the content-hash helpers, the DiskStore's crash-safety story
/// (torn entries, orphaned tmp files, checksum corruption, restarts), the
/// QoS token buckets (driven with injected clocks), config parsing/hot
/// reload, and the Daemon end-to-end — including the no-protocol-error
/// guarantee under an everything-armed fault plan.
///
//===----------------------------------------------------------------------===//

#include "daemon/Daemon.h"
#include "daemon/Server.h"
#include "support/ContentHash.h"

#include "gtest/gtest.h"

#include <chrono>
#include <filesystem>
#include <fstream>
#include <thread>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

using namespace mvec;
using namespace mvec::daemon;

namespace {

namespace fs = std::filesystem;

/// A unique per-test scratch directory, removed on destruction.
class ScratchDir {
public:
  explicit ScratchDir(const std::string &Tag) {
    Dir = fs::temp_directory_path() /
          ("mvec_daemon_test_" + Tag + "_" +
           std::to_string(::getpid()));
    fs::remove_all(Dir);
  }
  ~ScratchDir() {
    std::error_code EC;
    fs::remove_all(Dir, EC);
  }
  std::string path() const { return Dir.string(); }

private:
  fs::path Dir;
};

/// A small annotated script that genuinely vectorizes; \p Tag makes
/// distinct cache keys.
std::string script(int Tag) {
  return "% t" + std::to_string(Tag) +
         "\nn = 8; x = rand(1,n); z = zeros(1,n);\n"
         "%! x(1,*) z(1,*) n(1)\n"
         "for i=1:n\n  z(i) = 3*x(i);\nend\n";
}

JobResult successResult(const std::string &Src) {
  JobResult R;
  R.Status = JobStatus::Succeeded;
  R.Name = "r";
  R.VectorizedSource = Src;
  R.Message = "";
  return R;
}

//===----------------------------------------------------------------------===//
// ContentHash
//===----------------------------------------------------------------------===//

TEST(ContentHash, KnownVectors) {
  // Published FNV-1a test vectors.
  EXPECT_EQ(fnv1aHash(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(fnv1aHash("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(fnv1aHash("foobar"), 0x85944171f73967e8ull);
}

TEST(ContentHash, HashIsIncremental) {
  EXPECT_EQ(fnv1aHash("bar", fnv1aHash("foo")), fnv1aHash("foobar"));
}

TEST(ContentHash, MixChangesWithEveryWordBit) {
  uint64_t Base = fnv1aHash("x = 1;");
  EXPECT_NE(fnv1aMix(0, Base), Base);
  EXPECT_NE(fnv1aMix(1, Base), fnv1aMix(2, Base));
}

TEST(ContentHash, HexKeyRoundTrip) {
  for (uint64_t Key : {0ull, 1ull, 0xdeadbeefcafef00dull, ~0ull}) {
    std::string Hex = contentHexKey(Key);
    EXPECT_EQ(Hex.size(), 16u);
    uint64_t Back = 0;
    EXPECT_TRUE(parseContentHexKey(Hex, Back));
    EXPECT_EQ(Back, Key);
  }
  EXPECT_EQ(contentHexKey(0xabcull), "0000000000000abc");
}

TEST(ContentHash, HexKeyRejectsNonCanonical) {
  uint64_t Key = 7;
  EXPECT_FALSE(parseContentHexKey("", Key));
  EXPECT_FALSE(parseContentHexKey("0000000000000ABC", Key)); // uppercase
  EXPECT_FALSE(parseContentHexKey("0000000000000ab", Key));  // short
  EXPECT_FALSE(parseContentHexKey("0000000000000abcd", Key)); // long
  EXPECT_FALSE(parseContentHexKey("0000000000000xyz", Key));
  EXPECT_EQ(Key, 7u) << "failed parse must not clobber the output";
}

//===----------------------------------------------------------------------===//
// Protocol
//===----------------------------------------------------------------------===//

TEST(Protocol, RequestRoundTrip) {
  Request Req;
  Req.V = Verb::Vec;
  Req.Tenant = "alice";
  Req.Name = "fig3.m";
  Req.Validate = false;
  Req.DeadlineMs = 1234;
  Req.Body = "x = 1;\ny = 2;\n";

  FrameReader Reader;
  Reader.feed(serializeRequest(Req));
  FrameReader::Frame Frame;
  std::string Error;
  ASSERT_EQ(Reader.next(Frame, Error), FrameReader::Result::Ready) << Error;
  Request Back;
  ASSERT_TRUE(requestFromFrame(Frame, Back, Error)) << Error;
  EXPECT_EQ(Back.V, Verb::Vec);
  EXPECT_EQ(Back.Tenant, "alice");
  EXPECT_EQ(Back.Name, "fig3.m");
  EXPECT_FALSE(Back.Validate);
  EXPECT_EQ(Back.DeadlineMs, 1234u);
  EXPECT_EQ(Back.Body, Req.Body);
  EXPECT_EQ(Reader.pendingBytes(), 0u);
}

TEST(Protocol, ResponseRoundTripWithEscapedMessage) {
  Response Resp;
  Resp.Status = "degraded";
  Resp.ErrorClass = "resource";
  Resp.CacheTier = "disk";
  Resp.Attempts = 3;
  Resp.Shard = 2;
  Resp.Message = "line one\nline two\r\nwith\\backslash";
  Resp.Body = "z = 3;\n";

  FrameReader Reader;
  Reader.feed(serializeResponse(Resp));
  FrameReader::Frame Frame;
  std::string Error;
  ASSERT_EQ(Reader.next(Frame, Error), FrameReader::Result::Ready) << Error;
  Response Back;
  ASSERT_TRUE(responseFromFrame(Frame, Back, Error)) << Error;
  EXPECT_EQ(Back.Code, 200);
  EXPECT_EQ(Back.Status, "degraded");
  EXPECT_EQ(Back.ErrorClass, "resource");
  EXPECT_EQ(Back.CacheTier, "disk");
  EXPECT_EQ(Back.Attempts, 3u);
  EXPECT_EQ(Back.Shard, 2u);
  EXPECT_EQ(Back.Message, Resp.Message);
  EXPECT_EQ(Back.Body, Resp.Body);
}

TEST(Protocol, IncrementalFeedOneByteAtATime) {
  Request Req;
  Req.V = Verb::Ping;
  std::string Wire = serializeRequest(Req);

  FrameReader Reader;
  FrameReader::Frame Frame;
  std::string Error;
  for (size_t I = 0; I + 1 < Wire.size(); ++I) {
    Reader.feed(&Wire[I], 1);
    ASSERT_EQ(Reader.next(Frame, Error), FrameReader::Result::NeedMore);
  }
  Reader.feed(&Wire[Wire.size() - 1], 1);
  EXPECT_EQ(Reader.next(Frame, Error), FrameReader::Result::Ready);
}

TEST(Protocol, PipelinedFramesParseInOrder) {
  Request A, B;
  A.V = Verb::Vec;
  A.Body = "first";
  B.V = Verb::Stats;
  FrameReader Reader;
  Reader.feed(serializeRequest(A) + serializeRequest(B));

  FrameReader::Frame Frame;
  std::string Error;
  ASSERT_EQ(Reader.next(Frame, Error), FrameReader::Result::Ready);
  EXPECT_EQ(Frame.Body, "first");
  ASSERT_EQ(Reader.next(Frame, Error), FrameReader::Result::Ready);
  Request Back;
  ASSERT_TRUE(requestFromFrame(Frame, Back, Error));
  EXPECT_EQ(Back.V, Verb::Stats);
  EXPECT_EQ(Reader.next(Frame, Error), FrameReader::Result::NeedMore);
}

TEST(Protocol, MalformedFramesPoisonTheReader) {
  struct Case {
    const char *Name;
    std::string Wire;
  } Cases[] = {
      {"bad magic", "HTTP/1.1 GET\n\n"},
      {"bad content-length", "MVEC/1 VEC\ncontent-length: zap\n\n"},
      {"oversize body",
       "MVEC/1 VEC\ncontent-length: 999999999999\n\n"},
      {"header without colon", "MVEC/1 VEC\nnocolon\n\n"},
  };
  for (const Case &C : Cases) {
    FrameReader Reader;
    Reader.feed(C.Wire);
    FrameReader::Frame Frame;
    std::string Error;
    EXPECT_EQ(Reader.next(Frame, Error), FrameReader::Result::Malformed)
        << C.Name;
    EXPECT_FALSE(Error.empty()) << C.Name;
    // Poisoned: even a valid follow-up frame is refused.
    Reader.feed(serializeRequest(Request{}));
    EXPECT_EQ(Reader.next(Frame, Error), FrameReader::Result::Malformed)
        << C.Name;
  }
}

// A hostile header announcing a huge body must be rejected from the
// length header alone — before any body bytes are buffered — and the
// ceiling must be configurable per reader (the server wires the
// `max_frame_bytes` config key here).
TEST(Protocol, ConfigurableFrameSizeLimitRejectsHugeLengthHeader) {
  FrameReader Tight(4096);
  EXPECT_EQ(Tight.maxBodyBytes(), 4096u);
  // Feed ONLY the header block: the reader must refuse without ever
  // seeing (or allocating for) the announced 64 MiB body.
  Tight.feed("MVEC/1 VEC\ncontent-length: 67108864\n\n");
  FrameReader::Frame Frame;
  std::string Error;
  EXPECT_EQ(Tight.next(Frame, Error), FrameReader::Result::Malformed);
  EXPECT_NE(Error.find("exceeds"), std::string::npos) << Error;

  // At the limit is fine; one byte over is not.
  FrameReader AtLimit(8);
  AtLimit.feed("MVEC/1 VEC\ncontent-length: 8\n\n12345678");
  EXPECT_EQ(AtLimit.next(Frame, Error), FrameReader::Result::Ready) << Error;
  EXPECT_EQ(Frame.Body, "12345678");
  FrameReader OverLimit(8);
  OverLimit.feed("MVEC/1 VEC\ncontent-length: 9\n\n123456789");
  EXPECT_EQ(OverLimit.next(Frame, Error), FrameReader::Result::Malformed);

  // The default-constructed reader keeps the protocol-wide ceiling.
  FrameReader Default;
  EXPECT_EQ(Default.maxBodyBytes(), MaxBodyBytes);
}

TEST(Protocol, UnknownVerbIsRejectedAtRequestLevel) {
  FrameReader Reader;
  Reader.feed("MVEC/1 FROB\ncontent-length: 0\n\n");
  FrameReader::Frame Frame;
  std::string Error;
  ASSERT_EQ(Reader.next(Frame, Error), FrameReader::Result::Ready);
  Request Req;
  EXPECT_FALSE(requestFromFrame(Frame, Req, Error));
  EXPECT_FALSE(Error.empty());
}

TEST(Protocol, HeaderValueEscapeRoundTrip) {
  for (const std::string &S :
       {std::string("plain"), std::string("a\nb"), std::string("a\r\nb"),
        std::string("back\\slash\\n"), std::string("")})
    EXPECT_EQ(unescapeHeaderValue(escapeHeaderValue(S)), S);
}

//===----------------------------------------------------------------------===//
// DiskStore
//===----------------------------------------------------------------------===//

TEST(DiskStore, StoreLoadRoundTrip) {
  ScratchDir Scratch("roundtrip");
  DiskStore Store(DiskStoreConfig{Scratch.path(), 0});
  JobResult R = successResult("z = 3*x;\n");
  R.Message = "fine";
  Store.store(42, R);
  auto Back = Store.load(42);
  ASSERT_TRUE(Back.has_value());
  EXPECT_EQ(Back->VectorizedSource, "z = 3*x;\n");
  EXPECT_EQ(Back->Message, "fine");
  EXPECT_EQ(Back->Status, JobStatus::Succeeded);
  EXPECT_EQ(Store.hits(), 1u);
  EXPECT_FALSE(Store.load(43).has_value());
  EXPECT_EQ(Store.misses(), 1u);
}

TEST(DiskStore, EntriesSurviveReopen) {
  ScratchDir Scratch("reopen");
  {
    DiskStore Store(DiskStoreConfig{Scratch.path(), 0});
    for (uint64_t K = 0; K != 10; ++K)
      Store.store(K, successResult("src" + std::to_string(K)));
  }
  DiskStore Store(DiskStoreConfig{Scratch.path(), 0});
  EXPECT_EQ(Store.entries(), 10u);
  for (uint64_t K = 0; K != 10; ++K) {
    auto Back = Store.load(K);
    ASSERT_TRUE(Back.has_value()) << K;
    EXPECT_EQ(Back->VectorizedSource, "src" + std::to_string(K));
  }
}

TEST(DiskStore, OnlySuccessfulResultsArePersisted) {
  ScratchDir Scratch("nofail");
  DiskStore Store(DiskStoreConfig{Scratch.path(), 0});
  JobResult Degraded;
  Degraded.Status = JobStatus::Degraded;
  Degraded.VectorizedSource = "original";
  Store.store(1, Degraded);
  EXPECT_FALSE(Store.load(1).has_value());
  EXPECT_EQ(Store.puts(), 0u);
}

// The crash window: the entry's bytes are on disk under the final name
// but truncated mid-payload (as if the machine died during a non-atomic
// write). A reopened store must treat it as a miss and drop it, never
// serve the torn payload.
TEST(DiskStore, TornEntryIsDroppedNotServed) {
  ScratchDir Scratch("torn");
  std::string Path;
  {
    DiskStore Store(DiskStoreConfig{Scratch.path(), 0});
    Store.store(7, successResult("a long enough payload to truncate"));
    Path = Store.entryPath(7);
  }
  // Tear it: keep the header line but cut the payload short.
  {
    std::ifstream In(Path, std::ios::binary);
    std::string All((std::istreambuf_iterator<char>(In)),
                    std::istreambuf_iterator<char>());
    ASSERT_GT(All.size(), 10u);
    std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
    Out.write(All.data(), static_cast<std::streamsize>(All.size() - 10));
  }
  DiskStore Store(DiskStoreConfig{Scratch.path(), 0});
  EXPECT_FALSE(Store.load(7).has_value());
  EXPECT_EQ(Store.corruptDropped(), 1u);
  EXPECT_FALSE(fs::exists(Path)) << "torn entry must be unlinked";
  // And the store keeps working for that key.
  Store.store(7, successResult("fresh"));
  auto Back = Store.load(7);
  ASSERT_TRUE(Back.has_value());
  EXPECT_EQ(Back->VectorizedSource, "fresh");
}

// The other crash window: death between writing the .tmp file and the
// rename. The orphaned .tmp must be swept on reopen and never served.
TEST(DiskStore, OrphanedTmpFileIsSweptOnBoot) {
  ScratchDir Scratch("tmpsweep");
  fs::path Orphan;
  {
    DiskStore Store(DiskStoreConfig{Scratch.path(), 0});
    Store.store(9, successResult("kept"));
    // Simulate a crash mid-store: a .tmp sibling that never got renamed.
    Orphan = fs::path(Store.entryPath(9)).parent_path() /
             "0123456789abcdef.mvr.tmp42";
    std::ofstream(Orphan.string(), std::ios::binary) << "half-written";
  }
  ASSERT_TRUE(fs::exists(Orphan));
  DiskStore Store(DiskStoreConfig{Scratch.path(), 0});
  EXPECT_FALSE(fs::exists(Orphan)) << "boot must sweep orphaned tmp files";
  EXPECT_EQ(Store.entries(), 1u);
  EXPECT_TRUE(Store.load(9).has_value());
}

TEST(DiskStore, ChecksumCorruptionIsDetected) {
  ScratchDir Scratch("corrupt");
  DiskStore Store(DiskStoreConfig{Scratch.path(), 0});
  Store.store(11, successResult("payload payload payload"));
  std::string Path = Store.entryPath(11);
  // Flip one payload byte in place (same length, valid header).
  {
    std::fstream F(Path, std::ios::binary | std::ios::in | std::ios::out);
    F.seekp(-3, std::ios::end);
    F.put('X');
  }
  EXPECT_FALSE(Store.load(11).has_value());
  EXPECT_EQ(Store.corruptDropped(), 1u);
  EXPECT_FALSE(fs::exists(Path));
}

TEST(DiskStore, PruneKeepsTotalUnderBudget) {
  ScratchDir Scratch("prune");
  DiskStore Store(DiskStoreConfig{Scratch.path(), 4096});
  std::string Payload(512, 'p');
  for (uint64_t K = 0; K != 64; ++K)
    Store.store(K, successResult(Payload));
  EXPECT_LT(Store.payloadBytes(), 4096u + Payload.size());
  EXPECT_LT(Store.entries(), 64u);
  // Reopening agrees with the pruned on-disk reality.
  DiskStore Reopened(DiskStoreConfig{Scratch.path(), 4096});
  EXPECT_EQ(Reopened.entries(), Store.entries());
}

TEST(DiskStore, ConcurrentPutGetChurn) {
  ScratchDir Scratch("churn");
  DiskStore Store(DiskStoreConfig{Scratch.path(), 0});
  constexpr int Threads = 8, Ops = 200;
  std::vector<std::thread> Pool;
  for (int T = 0; T != Threads; ++T) {
    Pool.emplace_back([&, T] {
      for (int I = 0; I != Ops; ++I) {
        uint64_t Key = static_cast<uint64_t>((T * Ops + I) % 31);
        if (I % 3 == 0)
          Store.store(Key, successResult("v" + std::to_string(Key)));
        else if (I % 7 == 0)
          Store.erase(Key);
        else if (auto R = Store.load(Key))
          EXPECT_EQ(R->VectorizedSource, "v" + std::to_string(Key));
      }
    });
  }
  for (std::thread &T : Pool)
    T.join();
  EXPECT_EQ(Store.corruptDropped(), 0u);
}

// Prune racing live churn: a budget small enough that nearly every store
// triggers a prune, with concurrent writers and readers hammering
// overlapping keys. Nothing may crash, no entry may be served torn, and
// a reopened store must agree with the on-disk reality.
TEST(DiskStore, PruneRacesConcurrentChurnSafely) {
  ScratchDir Scratch("prunechurn");
  std::string Payload(512, 'q');
  {
    DiskStore Store(DiskStoreConfig{Scratch.path(), 4096});
    constexpr int Threads = 8, Ops = 150;
    std::vector<std::thread> Pool;
    for (int T = 0; T != Threads; ++T) {
      Pool.emplace_back([&, T] {
        for (int I = 0; I != Ops; ++I) {
          uint64_t Key = static_cast<uint64_t>((T * 31 + I) % 59);
          if (I % 2 == 0)
            Store.store(Key, successResult(Payload));
          else if (auto R = Store.load(Key))
            EXPECT_EQ(R->VectorizedSource, Payload)
                << "a pruned-or-present entry must never be torn";
        }
      });
    }
    for (std::thread &T : Pool)
      T.join();
    EXPECT_EQ(Store.corruptDropped(), 0u);
    EXPECT_LT(Store.payloadBytes(), 4096u + Payload.size());
  }
  // The survivor set reloads cleanly.
  DiskStore Reopened(DiskStoreConfig{Scratch.path(), 4096});
  EXPECT_EQ(Reopened.corruptDropped(), 0u);
  for (uint64_t Key = 0; Key != 59; ++Key)
    if (auto R = Reopened.load(Key))
      EXPECT_EQ(R->VectorizedSource, Payload);
  EXPECT_EQ(Reopened.corruptDropped(), 0u);
}

TEST(DiskStore, VmServiceStoresOnlyResults) {
  // Under the vm engine, compiled programs are never stored: N distinct
  // validated jobs leave exactly N result entries, each found by one
  // store probe (the miss that precedes its put).
  ScratchDir Scratch("vmresults");
  DiskStore Store(DiskStoreConfig{Scratch.path(), 0});
  ServiceConfig Config;
  Config.Workers = 1;
  Config.Store = &Store;
  Config.Engine = ExecEngine::Vm;
  constexpr unsigned N = 3;
  {
    VectorizationService Service(Config);
    for (unsigned I = 0; I != N; ++I) {
      JobSpec Spec;
      Spec.Name = "job" + std::to_string(I);
      Spec.Source = "%! a(1,*) b(1,*)\nb = rand(1, 8);\na = zeros(1, 8);\n"
                    "for i=1:8\n  a(i) = b(i) * " +
                    std::to_string(I + 2) + ";\nend\n";
      JobResult R = Service.submit(std::move(Spec)).get();
      ASSERT_EQ(R.Status, JobStatus::Succeeded) << R.Message;
    }
  }
  EXPECT_EQ(Store.entries(), N);
  EXPECT_EQ(Store.puts(), N);
  EXPECT_EQ(Store.misses(), N);
  EXPECT_EQ(Store.hits(), 0u);
}

//===----------------------------------------------------------------------===//
// QoS
//===----------------------------------------------------------------------===//

TEST(Qos, TokenBucketIsDeterministicUnderInjectedClock) {
  TokenBucket B;
  B.RatePerSec = 2;
  B.Burst = 2;
  B.Tokens = 2;
  auto T0 = std::chrono::steady_clock::time_point(std::chrono::seconds(100));
  B.Last = T0;
  EXPECT_TRUE(B.tryTake(T0));  // 2 -> 1
  EXPECT_TRUE(B.tryTake(T0));  // 1 -> 0
  EXPECT_FALSE(B.tryTake(T0)); // empty
  // 500ms refills one token at 2/s.
  EXPECT_TRUE(B.tryTake(T0 + std::chrono::milliseconds(500)));
  EXPECT_FALSE(B.tryTake(T0 + std::chrono::milliseconds(500)));
  // A long idle period refills to the burst cap, not beyond.
  auto T1 = T0 + std::chrono::hours(1);
  EXPECT_TRUE(B.tryTake(T1));
  EXPECT_TRUE(B.tryTake(T1));
  EXPECT_FALSE(B.tryTake(T1));
}

TEST(Qos, ZeroRateAdmitsEverything) {
  TokenBucket B; // RatePerSec = 0
  auto Now = std::chrono::steady_clock::now();
  for (int I = 0; I != 1000; ++I)
    EXPECT_TRUE(B.tryTake(Now));
}

TEST(Qos, AdmissionControllerIsolatesTenants) {
  AdmissionController Qos(/*RatePerSec=*/1, /*Burst=*/2);
  auto Now = std::chrono::steady_clock::time_point(std::chrono::seconds(5));
  EXPECT_TRUE(Qos.admit("a", Now));
  EXPECT_TRUE(Qos.admit("a", Now));
  EXPECT_FALSE(Qos.admit("a", Now)) << "tenant a exhausted its burst";
  EXPECT_TRUE(Qos.admit("b", Now)) << "tenant b has its own bucket";
  EXPECT_EQ(Qos.totalShed(), 1u);

  auto Stats = Qos.snapshot();
  ASSERT_EQ(Stats.size(), 2u);
  EXPECT_EQ(Stats[0].Tenant, "a");
  EXPECT_EQ(Stats[0].Admitted, 2u);
  EXPECT_EQ(Stats[0].Shed, 1u);
  EXPECT_EQ(Stats[1].Tenant, "b");
  EXPECT_EQ(Stats[1].Shed, 0u);
}

TEST(Qos, SetLimitsRetunesWithoutResettingAccounting) {
  AdmissionController Qos(1, 1);
  auto Now = std::chrono::steady_clock::time_point(std::chrono::seconds(9));
  EXPECT_TRUE(Qos.admit("a", Now));
  EXPECT_FALSE(Qos.admit("a", Now));
  Qos.setLimits(0, 64); // Unlimited.
  for (int I = 0; I != 100; ++I)
    EXPECT_TRUE(Qos.admit("a", Now));
  auto Stats = Qos.snapshot();
  ASSERT_EQ(Stats.size(), 1u);
  EXPECT_EQ(Stats[0].Admitted, 101u);
  EXPECT_EQ(Stats[0].Shed, 1u) << "shed history survives a retune";
}

//===----------------------------------------------------------------------===//
// Config
//===----------------------------------------------------------------------===//

TEST(DaemonConfigParse, RoundTripThroughText) {
  DaemonConfig C;
  C.Shards = 5;
  C.WorkersPerShard = 3;
  C.StoreDir = "/tmp/some/store";
  C.TenantRate = 12.5;
  C.DeadlineMs = 777;
  DaemonConfig Back;
  std::string Error;
  ASSERT_TRUE(parseDaemonConfig(daemonConfigText(C), Back, Error)) << Error;
  EXPECT_EQ(Back.Shards, 5u);
  EXPECT_EQ(Back.WorkersPerShard, 3u);
  EXPECT_EQ(Back.StoreDir, "/tmp/some/store");
  EXPECT_DOUBLE_EQ(Back.TenantRate, 12.5);
  EXPECT_EQ(Back.DeadlineMs, 777u);
}

TEST(DaemonConfigParse, CommentsAndPartialOverrides) {
  DaemonConfig C;
  C.Shards = 2;
  std::string Error;
  ASSERT_TRUE(parseDaemonConfig("# a comment\n\nshards = 9\n", C, Error))
      << Error;
  EXPECT_EQ(C.Shards, 9u);
  EXPECT_EQ(C.WorkersPerShard, DaemonConfig().WorkersPerShard)
      << "unset keys keep their prior values";
}

TEST(DaemonConfigParse, RejectsBadInputWithoutSideEffects) {
  DaemonConfig C;
  C.Shards = 4;
  std::string Error;
  EXPECT_FALSE(parseDaemonConfig("shards = 9\nshards = zero\n", C, Error));
  EXPECT_FALSE(Error.empty());
  EXPECT_EQ(C.Shards, 4u) << "failed parse must not apply partial changes";
  EXPECT_FALSE(parseDaemonConfig("shards = 0\n", C, Error))
      << "out-of-range values are rejected";
  EXPECT_FALSE(parseDaemonConfig("no equals sign\n", C, Error));
  EXPECT_FALSE(parseDaemonConfig("no_such_key = 1\n", C, Error));
  EXPECT_NE(Error.find("bad entry"), std::string::npos) << Error;
}

//===----------------------------------------------------------------------===//
// Daemon end-to-end
//===----------------------------------------------------------------------===//

Request vecRequest(const std::string &Body,
                   const std::string &Tenant = "t") {
  Request R;
  R.V = Verb::Vec;
  R.Tenant = Tenant;
  R.Name = "test.m";
  R.Body = Body;
  return R;
}

TEST(Daemon, VecServesAndMemoryCacheWarms) {
  DaemonConfig C;
  C.Shards = 2;
  C.WorkersPerShard = 1;
  Daemon D(C);

  Response First = D.handle(vecRequest(script(1)));
  EXPECT_EQ(First.Code, 200);
  EXPECT_EQ(First.Status, "succeeded");
  EXPECT_EQ(First.CacheTier, "none");
  EXPECT_FALSE(First.Body.empty());

  Response Second = D.handle(vecRequest(script(1)));
  EXPECT_EQ(Second.Status, "succeeded");
  EXPECT_EQ(Second.CacheTier, "memory");
  EXPECT_EQ(Second.Body, First.Body);
  EXPECT_EQ(Second.Shard, First.Shard)
      << "same content must route to the same shard";
}

TEST(Daemon, DiskStoreWarmsTheNextProcessGeneration) {
  ScratchDir Scratch("daemonstore");
  DaemonConfig C;
  C.Shards = 2;
  C.WorkersPerShard = 1;
  C.StoreDir = Scratch.path();

  std::string FirstBody;
  {
    Daemon D(C);
    Response R = D.handle(vecRequest(script(2)));
    ASSERT_EQ(R.Status, "succeeded");
    FirstBody = R.Body;
  } // "Restart": memory caches die with the daemon, the store remains.
  Daemon D(C);
  Response R = D.handle(vecRequest(script(2)));
  EXPECT_EQ(R.Status, "succeeded");
  EXPECT_EQ(R.CacheTier, "disk");
  EXPECT_EQ(R.Body, FirstBody);
  ASSERT_NE(D.store(), nullptr);
  EXPECT_EQ(D.store()->hits(), 1u);
}

TEST(Daemon, QosShedIsDegradedPassthroughNeverAnError) {
  DaemonConfig C;
  C.Shards = 1;
  C.WorkersPerShard = 1;
  C.TenantRate = 0.001; // Refill is negligible within the test.
  C.TenantBurst = 1;
  Daemon D(C);

  Response First = D.handle(vecRequest(script(3), "hog"));
  EXPECT_EQ(First.Status, "succeeded");
  Response Shed = D.handle(vecRequest(script(3), "hog"));
  EXPECT_EQ(Shed.Code, 200) << "a shed is never a protocol error";
  EXPECT_EQ(Shed.Status, "degraded");
  EXPECT_EQ(Shed.Body, script(3)) << "byte-exact passthrough";
  EXPECT_EQ(Shed.Message.rfind("degraded: ", 0), 0u) << Shed.Message;
  EXPECT_EQ(D.shedQos(), 1u);
  // An independent tenant is unaffected.
  EXPECT_EQ(D.handle(vecRequest(script(3), "other")).Status, "succeeded");
}

TEST(Daemon, PingStatsAndShutdownVerbs) {
  DaemonConfig C;
  C.Shards = 1;
  C.WorkersPerShard = 1;
  Daemon D(C);

  Request Ping;
  Ping.V = Verb::Ping;
  EXPECT_EQ(D.handle(Ping).Message, "pong");

  D.handle(vecRequest(script(4)));
  Request Stats;
  Stats.V = Verb::Stats;
  std::string Json = D.handle(Stats).Body;
  EXPECT_NE(Json.find("\"daemon\":"), std::string::npos);
  EXPECT_NE(Json.find("\"shed_qos\":0"), std::string::npos);
  EXPECT_NE(Json.find("\"disk_store\":{\"configured\":false}"),
            std::string::npos);
  EXPECT_NE(Json.find("\"queue_depth\":"), std::string::npos);

  EXPECT_FALSE(D.shutdownRequested());
  Request Shutdown;
  Shutdown.V = Verb::Shutdown;
  EXPECT_EQ(D.handle(Shutdown).Code, 200);
  EXPECT_TRUE(D.shutdownRequested());
}

TEST(Daemon, HotReloadRebuildsTheFleetWithoutDroppingState) {
  ScratchDir Scratch("reloadstore");
  DaemonConfig C;
  C.Shards = 1;
  C.WorkersPerShard = 1;
  C.StoreDir = Scratch.path();
  Daemon D(C);
  ASSERT_EQ(D.handle(vecRequest(script(5))).Status, "succeeded");

  DaemonConfig New = D.config();
  New.Shards = 3;
  std::string Error;
  ASSERT_TRUE(D.reload(New, Error)) << Error;
  EXPECT_EQ(D.shardCount(), 3u);
  EXPECT_EQ(D.reloads(), 1u);

  // The new fleet's memory caches are cold, but the store carried over:
  // the re-request is a disk hit, not a recompile.
  Response R = D.handle(vecRequest(script(5)));
  EXPECT_EQ(R.Status, "succeeded");
  EXPECT_EQ(R.CacheTier, "disk");
}

TEST(Daemon, ConfigVerbAppliesAndReportsFailuresAsJobOutcomes) {
  DaemonConfig C;
  C.Shards = 1;
  C.WorkersPerShard = 1;
  Daemon D(C);

  Request Good;
  Good.V = Verb::Config;
  Good.Body = "deadline_ms = 2500\n";
  Response R = D.handle(Good);
  EXPECT_EQ(R.Code, 200);
  EXPECT_EQ(R.Status, "ok");
  EXPECT_NE(R.Body.find("deadline_ms = 2500"), std::string::npos);
  EXPECT_EQ(D.config().DeadlineMs, 2500u);

  Request Bad;
  Bad.V = Verb::Config;
  Bad.Body = "shards = frogs\n";
  R = D.handle(Bad);
  EXPECT_EQ(R.Code, 200) << "a bad config is a job failure, not a "
                            "protocol error";
  EXPECT_EQ(R.Status, "failed");
  EXPECT_EQ(R.ErrorClass, "input");
  EXPECT_EQ(D.config().DeadlineMs, 2500u) << "no partial application";
}

TEST(DaemonConfigParse, CostModelKeys) {
  DaemonConfig C;
  C.CostModel = "on";
  C.CostProfile = "/etc/mvec/costs.mvec.json";
  DaemonConfig Back;
  std::string Error;
  ASSERT_TRUE(parseDaemonConfig(daemonConfigText(C), Back, Error)) << Error;
  EXPECT_EQ(Back.CostModel, "on");
  EXPECT_EQ(Back.CostProfile, "/etc/mvec/costs.mvec.json");
  EXPECT_FALSE(parseDaemonConfig("cost_model = maybe\n", Back, Error))
      << "only off|on are valid";
}

TEST(Daemon, CostModelReloadRebuildsTheFleetAndCountsDecisions) {
  DaemonConfig C;
  C.Shards = 1;
  C.WorkersPerShard = 1;
  Daemon D(C);
  D.handle(vecRequest(script(7)));
  ASSERT_EQ(D.handle(vecRequest(script(7))).CacheTier, "memory");

  // Turning the model on re-fingerprints every cache key, so the fleet
  // (and its warm caches) must be rebuilt, not reused.
  DaemonConfig New = D.config();
  New.CostModel = "on";
  std::string Error;
  ASSERT_TRUE(D.reload(New, Error)) << Error;
  EXPECT_EQ(D.handle(vecRequest(script(7))).CacheTier, "none");

  // A tiny-trip nest under a hot shell is kept in loop form; the
  // decision shows up in the STATS counters.
  Response Kept = D.handle(vecRequest("%! w(1,*) acc(1,*)\n"
                                      "w = rand(1,2);\nacc = zeros(1,2);\n"
                                      "for r = 1:100000\n"
                                      "  for j = 1:2\n"
                                      "    acc(j) = acc(j)*0.999 + w(j);\n"
                                      "  end\n"
                                      "end\n"));
  EXPECT_EQ(Kept.Code, 200);
  EXPECT_EQ(Kept.Status, "succeeded");

  Request Stats;
  Stats.V = Verb::Stats;
  std::string Json = D.handle(Stats).Body;
  // The two-deep nest is attempted at both levels, so the count is >= 1;
  // only the zero value would mean the decision never surfaced.
  EXPECT_NE(Json.find("\"nests_kept_loop\":"), std::string::npos) << Json;
  EXPECT_EQ(Json.find("\"nests_kept_loop\":0"), std::string::npos) << Json;
}

// Each shard's service validates on the engine it was built with, so an
// engine change must swap in a fresh fleet; a config that only reports
// the new engine would keep validating on the old one.
TEST(Daemon, EngineReloadRebuildsTheFleet) {
  DaemonConfig C;
  C.Shards = 1;
  C.WorkersPerShard = 1;
  Daemon D(C);
  D.handle(vecRequest(script(5)));
  ASSERT_EQ(D.handle(vecRequest(script(5))).CacheTier, "memory");

  DaemonConfig New = D.config();
  New.Engine = "vm";
  std::string Error;
  ASSERT_TRUE(D.reload(New, Error)) << Error;
  EXPECT_EQ(D.config().Engine, "vm");
  Response R = D.handle(vecRequest(script(5)));
  EXPECT_EQ(R.Status, "succeeded") << R.Message;
  EXPECT_EQ(R.CacheTier, "none") << "the old engine's fleet still serves";
}

TEST(Daemon, QueueDepthReloadRebuildsTheFleetAndMovesTheGate) {
  DaemonConfig C;
  C.Shards = 1;
  C.WorkersPerShard = 1;
  Daemon D(C);
  D.handle(vecRequest(script(7)));
  ASSERT_EQ(D.handle(vecRequest(script(7))).CacheTier, "memory");

  // Only max_queue_depth changes: the shard's pool queue is sized from
  // it, so the fleet is rebuilt and the warm memory tier starts over.
  DaemonConfig New = D.config();
  New.MaxQueueDepth = 4;
  std::string Error;
  ASSERT_TRUE(D.reload(New, Error)) << Error;
  Response R = D.handle(vecRequest(script(7)));
  EXPECT_EQ(R.Status, "succeeded") << R.Message;
  EXPECT_EQ(R.CacheTier, "none") << "the old fleet still serves";

  // The gate reads the depth of the fleet it runs against: at depth 1,
  // a script sleeping in the shard's one slot makes the next arrival one
  // too many (at the old depth of 4 it would queue).
  New.MaxQueueDepth = 1;
  ASSERT_TRUE(D.reload(New, Error)) << Error;
  std::thread Sleeper([&D] { D.handle(vecRequest("pause(1);\n")); });
  // The sleeper holds its slot for about 2 s (both validation runs).
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  Response Shed = D.handle(vecRequest(script(8)));
  Sleeper.join();
  EXPECT_EQ(Shed.Status, "degraded") << "the old depth still gates";
  EXPECT_NE(Shed.Message.find("queue full"), std::string::npos)
      << Shed.Message;
  EXPECT_EQ(Shed.Body, script(8));
  EXPECT_EQ(D.shedQueue(), 1u);
}

TEST(Daemon, FastKnobReloadDoesNotRebuildTheFleet) {
  DaemonConfig C;
  C.Shards = 2;
  C.WorkersPerShard = 1;
  Daemon D(C);
  D.handle(vecRequest(script(6)));

  DaemonConfig New = D.config();
  New.TenantRate = 50;
  New.DeadlineMs = 1000;
  std::string Error;
  ASSERT_TRUE(D.reload(New, Error)) << Error;
  // The fleet (and its warm cache) survived: still a memory hit.
  EXPECT_EQ(D.handle(vecRequest(script(6))).CacheTier, "memory");
}

// The headline guarantee, end to end: under an everything-armed fault
// plan, a well-formed VEC request never yields a protocol error — worst
// case is byte-exact degraded passthrough with a diagnostic.
TEST(Daemon, NoProtocolErrorForValidRequestsUnderFaultInjection) {
  FaultPlan Chaos;
  Chaos.Seed = 0xfeedbeef;
  for (unsigned S = 0; S != NumFaultSites; ++S) {
    for (unsigned K = 0; K != NumFaultKinds; ++K) {
      FaultRule Rule;
      Rule.Site = static_cast<FaultSite>(S);
      Rule.Kind = static_cast<FaultKind>(K);
      Rule.Period = 3;
      Rule.MaxFires = 2;
      Rule.LatencyMicros = 200;
      Chaos.Rules.push_back(Rule);
    }
  }

  ScratchDir Scratch("chaosstore");
  DaemonConfig C;
  C.Shards = 2;
  C.WorkersPerShard = 2;
  C.StoreDir = Scratch.path();
  C.Faults = &Chaos;
  Daemon D(C);

  unsigned Degraded = 0;
  for (int I = 0; I != 40; ++I) {
    std::string Src = script(100 + I);
    Response R = D.handle(vecRequest(Src, "chaos-" + std::to_string(I % 3)));
    ASSERT_EQ(R.Code, 200) << "request " << I;
    EXPECT_FALSE(R.Body.empty()) << "request " << I;
    if (R.Status == "degraded") {
      ++Degraded;
      EXPECT_EQ(R.Body, Src) << "degraded passthrough must be byte-exact";
      EXPECT_FALSE(R.Message.empty());
    } else if (R.Status == "succeeded") {
      EXPECT_FALSE(R.Body.empty());
    } else {
      // Failed/timed-out are legal job outcomes (never protocol errors),
      // but infrastructure faults must not surface as internal failures.
      EXPECT_NE(R.ErrorClass, "internal") << R.Message;
    }
  }
  SUCCEED() << Degraded << " of 40 degraded";
}

//===----------------------------------------------------------------------===//
// Server (TCP transport)
//===----------------------------------------------------------------------===//

class TestClient {
public:
  bool connect(uint16_t Port) {
    Fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in Addr{};
    Addr.sin_family = AF_INET;
    Addr.sin_port = htons(Port);
    ::inet_pton(AF_INET, "127.0.0.1", &Addr.sin_addr);
    return ::connect(Fd, reinterpret_cast<sockaddr *>(&Addr),
                     sizeof(Addr)) == 0;
  }
  ~TestClient() {
    if (Fd >= 0)
      ::close(Fd);
  }
  bool roundTrip(const Request &Req, Response &Resp) {
    std::string Wire = serializeRequest(Req);
    if (::send(Fd, Wire.data(), Wire.size(), MSG_NOSIGNAL) !=
        static_cast<ssize_t>(Wire.size()))
      return false;
    char Buf[4096];
    for (;;) {
      FrameReader::Frame Frame;
      std::string Error;
      FrameReader::Result R = Reader.next(Frame, Error);
      if (R == FrameReader::Result::Ready)
        return responseFromFrame(Frame, Resp, Error);
      if (R == FrameReader::Result::Malformed)
        return false;
      ssize_t N = ::recv(Fd, Buf, sizeof(Buf), 0);
      if (N <= 0)
        return false;
      Reader.feed(Buf, static_cast<size_t>(N));
    }
  }
  bool sendRaw(const std::string &Bytes) {
    return ::send(Fd, Bytes.data(), Bytes.size(), MSG_NOSIGNAL) ==
           static_cast<ssize_t>(Bytes.size());
  }
  /// Reads until the server closes, or until it stays silent for 5 s (so
  /// a server that never answers fails the caller instead of hanging it),
  /// returning everything received.
  std::string drain() {
    timeval Timeout{};
    Timeout.tv_sec = 5;
    ::setsockopt(Fd, SOL_SOCKET, SO_RCVTIMEO, &Timeout, sizeof(Timeout));
    std::string All;
    char Buf[4096];
    ssize_t N;
    while ((N = ::recv(Fd, Buf, sizeof(Buf), 0)) > 0)
      All.append(Buf, static_cast<size_t>(N));
    return All;
  }

private:
  int Fd = -1;
  FrameReader Reader;
};

TEST(Server, ServesVecOverTcpAndDrainsOnStop) {
  DaemonConfig C;
  C.Shards = 1;
  C.WorkersPerShard = 1;
  Daemon D(C);
  Server S(D, ServerConfig{});
  std::string Error;
  ASSERT_TRUE(S.start(Error)) << Error;
  ASSERT_NE(S.port(), 0u);
  std::thread Loop([&] { S.run(); });

  {
    TestClient Client;
    ASSERT_TRUE(Client.connect(S.port()));
    Response Resp;
    ASSERT_TRUE(Client.roundTrip(vecRequest(script(7)), Resp));
    EXPECT_EQ(Resp.Code, 200);
    EXPECT_EQ(Resp.Status, "succeeded");
    // Second frame on the same (persistent) connection.
    ASSERT_TRUE(Client.roundTrip(vecRequest(script(7)), Resp));
    EXPECT_EQ(Resp.CacheTier, "memory");
  }
  S.stop();
  Loop.join();
  EXPECT_EQ(S.connectionsAccepted(), 1u);
}

TEST(Server, MalformedFrameGets400AndDisconnect) {
  DaemonConfig C;
  C.Shards = 1;
  C.WorkersPerShard = 1;
  Daemon D(C);
  Server S(D, ServerConfig{});
  std::string Error;
  ASSERT_TRUE(S.start(Error)) << Error;
  std::thread Loop([&] { S.run(); });

  {
    TestClient Client;
    ASSERT_TRUE(Client.connect(S.port()));
    ASSERT_TRUE(Client.sendRaw("GARBAGE that is not a frame\n\n"));
    std::string Reply = Client.drain(); // Server closes after the 400.
    EXPECT_NE(Reply.find("MVEC/1 400"), std::string::npos) << Reply;
  }
  S.stop();
  Loop.join();
}

// The transport honors the configured frame ceiling: a client whose
// length header announces more than max_frame_bytes is answered 400 and
// disconnected — before it transmits (or the server buffers) the body.
TEST(Server, OversizeLengthHeaderGets400AndDisconnect) {
  DaemonConfig C;
  C.Shards = 1;
  C.WorkersPerShard = 1;
  C.MaxFrameBytes = 4096;
  Daemon D(C);
  Server S(D, ServerConfig{});
  std::string Error;
  ASSERT_TRUE(S.start(Error)) << Error;
  std::thread Loop([&] { S.run(); });
  {
    TestClient Client;
    ASSERT_TRUE(Client.connect(S.port()));
    // Header only; the megabyte body is never sent.
    ASSERT_TRUE(Client.sendRaw("MVEC/1 VEC\ncontent-length: 1048576\n\n"));
    std::string Reply = Client.drain(); // 400, then the server closes.
    EXPECT_NE(Reply.find("MVEC/1 400"), std::string::npos) << Reply;
    EXPECT_NE(Reply.find("exceeds"), std::string::npos) << Reply;
  }
  S.stop();
  Loop.join();
}

// max_frame_bytes is read per connection from the config in force, so a
// reload that lowers it reaches the next connection: a body the old
// ceiling admitted is now answered 400.
TEST(Server, ReloadedFrameCeilingAppliesToNewConnections) {
  DaemonConfig C;
  C.Shards = 1;
  C.WorkersPerShard = 1;
  Daemon D(C);
  Server S(D, ServerConfig{});
  std::string Error;
  ASSERT_TRUE(S.start(Error)) << Error;
  std::thread Loop([&] { S.run(); });
  std::string Body = script(4) + "% " + std::string(8192, 'x') + "\n";
  {
    TestClient Client;
    ASSERT_TRUE(Client.connect(S.port()));
    Response Resp;
    ASSERT_TRUE(Client.roundTrip(vecRequest(Body), Resp));
    EXPECT_EQ(Resp.Code, 200);
  }
  DaemonConfig New = D.config();
  New.MaxFrameBytes = 4096;
  ASSERT_TRUE(D.reload(New, Error)) << Error;
  {
    TestClient Client;
    ASSERT_TRUE(Client.connect(S.port()));
    // Header only: the ceiling is checked before any body byte arrives.
    std::string Wire = serializeRequest(vecRequest(Body));
    ASSERT_TRUE(Client.sendRaw(Wire.substr(0, Wire.find("\n\n") + 2)));
    std::string Reply = Client.drain(); // 400, then the server closes.
    EXPECT_NE(Reply.find("MVEC/1 400"), std::string::npos) << Reply;
    EXPECT_NE(Reply.find("exceeds"), std::string::npos) << Reply;
  }
  S.stop();
  Loop.join();
}

// A client that vanishes (or stops reading) mid-response must cost the
// server one connection, not one wedged handler thread. The response is
// made large enough to overflow the socket buffers so the send genuinely
// blocks, and the SendTimeoutMs budget must unblock it.
TEST(Server, DeadClientMidResponseDoesNotWedgeTheServer) {
  DaemonConfig C;
  C.Shards = 1;
  C.WorkersPerShard = 1;
  C.MaxFrameBytes = size_t(8) << 20; // admits the ~6 MiB body below
  C.TenantRate = 0.001; // Second request from the tenant is shed ...
  C.TenantBurst = 1;    // ... into passthrough, echoing the big body.
  Daemon D(C);
  ServerConfig SC;
  SC.SendTimeoutMs = 600;
  Server S(D, SC);
  std::string Error;
  ASSERT_TRUE(S.start(Error)) << Error;
  std::thread Loop([&] { S.run(); });

  std::string Huge = "% filler\n" + std::string(6 << 20, 'x');
  {
    // Client one: reads its first (small) response, then sends a request
    // whose degraded passthrough echoes ~6 MiB back — and never reads a
    // byte of it. The server must give up within the send budget.
    TestClient Stalled;
    ASSERT_TRUE(Stalled.connect(S.port()));
    Response Resp;
    ASSERT_TRUE(Stalled.roundTrip(vecRequest(script(8), "wedge"), Resp));
    ASSERT_TRUE(Stalled.sendRaw(serializeRequest(vecRequest(Huge, "wedge"))));

    // Client two: disconnects immediately after sending (EPIPE path).
    {
      TestClient Vanisher;
      ASSERT_TRUE(Vanisher.connect(S.port()));
      ASSERT_TRUE(
          Vanisher.sendRaw(serializeRequest(vecRequest(Huge, "wedge"))));
    } // Destructor closes the socket with the response unread.

    // A healthy client is still served while the other two fail.
    TestClient Healthy;
    ASSERT_TRUE(Healthy.connect(S.port()));
    ASSERT_TRUE(Healthy.roundTrip(vecRequest(script(8), "ok"), Resp));
    EXPECT_EQ(Resp.Code, 200);
  }
  // The real assertion: stop() drains every handler thread, including
  // the two stuck in doomed sends. A wedged thread hangs the join (and
  // the test run), which is exactly the regression this guards.
  S.stop();
  Loop.join();
  SUCCEED();
}

TEST(Server, ShutdownVerbEndsTheAcceptLoop) {
  DaemonConfig C;
  C.Shards = 1;
  C.WorkersPerShard = 1;
  Daemon D(C);
  Server S(D, ServerConfig{});
  std::string Error;
  ASSERT_TRUE(S.start(Error)) << Error;
  std::thread Loop([&] { S.run(); });
  {
    TestClient Client;
    ASSERT_TRUE(Client.connect(S.port()));
    Request Shutdown;
    Shutdown.V = Verb::Shutdown;
    Response Resp;
    ASSERT_TRUE(Client.roundTrip(Shutdown, Resp));
    EXPECT_EQ(Resp.Code, 200);
  }
  Loop.join(); // run() returns on its own: the drain finished.
  EXPECT_TRUE(D.shutdownRequested());
}

} // namespace
