//===- DiskStore.cpp - On-disk content-addressed result store ---------------===//
//
// Part of the mvec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "daemon/DiskStore.h"

#include "support/ContentHash.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <vector>

#include <fcntl.h>
#include <unistd.h>

using namespace mvec;
using namespace mvec::daemon;

namespace fs = std::filesystem;

namespace {

// Bumped to 2 when the header grew the cost-model decision counters
// (StmtsCostKept/NestsKeptLoop/VariantOverrides); v1 entries parse as
// misses and are re-derived.
constexpr const char *Magic = "MVRS2";

uint64_t entryChecksum(const std::string &Src, const std::string &Msg) {
  return fnv1aHash(Msg, fnv1aHash(Src));
}

/// Writes \p Data to \p TmpPath and atomically renames it to \p Path.
/// Returns false on any I/O error (leaving no file under \p Path's name
/// that wasn't there before).
bool writeThenRename(const std::string &TmpPath, const std::string &Path,
                     const std::string &Data) {
  int Fd = ::open(TmpPath.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (Fd < 0)
    return false;
  size_t Off = 0;
  while (Off < Data.size()) {
    ssize_t N = ::write(Fd, Data.data() + Off, Data.size() - Off);
    if (N <= 0) {
      ::close(Fd);
      ::unlink(TmpPath.c_str());
      return false;
    }
    Off += static_cast<size_t>(N);
  }
  // Flush payload bytes before the rename publishes the name: a torn
  // entry after power loss is caught by the checksum anyway, but this
  // keeps the common crash case (process death) perfectly clean.
  ::fsync(Fd);
  ::close(Fd);
  if (::rename(TmpPath.c_str(), Path.c_str()) != 0) {
    ::unlink(TmpPath.c_str());
    return false;
  }
  return true;
}

} // namespace

std::string mvec::daemon::encodeResultEntry(const JobResult &R) {
  const VectorizeStats &S = R.Stats;
  char Buf[256];
  std::snprintf(Buf, sizeof(Buf),
                "%s %zu %zu %s %u %u %u %u %u %u %u %u %u %s\n", Magic,
                R.VectorizedSource.size(), R.Message.size(),
                jobStatusName(R.Status), S.LoopNestsConsidered,
                S.LoopNestsImproved, S.StmtsVectorized, S.StmtsSequential,
                S.SequentialLoopsEmitted, S.IneligibleNests, S.StmtsCostKept,
                S.NestsKeptLoop, S.VariantOverrides,
                contentHexKey(entryChecksum(R.VectorizedSource, R.Message))
                    .c_str());
  return Buf + R.VectorizedSource + R.Message;
}

bool mvec::daemon::decodeResultEntry(const std::string &Data, JobResult &R) {
  size_t Eol = Data.find('\n');
  if (Eol == std::string::npos)
    return false;
  std::istringstream Header(Data.substr(0, Eol));
  std::string Version, Status, SumHex;
  size_t SrcLen = 0, MsgLen = 0;
  VectorizeStats S;
  Header >> Version >> SrcLen >> MsgLen >> Status >> S.LoopNestsConsidered >>
      S.LoopNestsImproved >> S.StmtsVectorized >> S.StmtsSequential >>
      S.SequentialLoopsEmitted >> S.IneligibleNests >> S.StmtsCostKept >>
      S.NestsKeptLoop >> S.VariantOverrides >> SumHex;
  if (!Header || Version != Magic)
    return false;
  // Only successful results are ever stored; refuse anything else rather
  // than replay a stale failure forever.
  if (Status != jobStatusName(JobStatus::Succeeded))
    return false;
  size_t PayloadStart = Eol + 1;
  if (Data.size() - PayloadStart != SrcLen + MsgLen)
    return false;
  uint64_t WantSum;
  if (!parseContentHexKey(SumHex, WantSum))
    return false;
  std::string Src = Data.substr(PayloadStart, SrcLen);
  std::string Msg = Data.substr(PayloadStart + SrcLen, MsgLen);
  if (entryChecksum(Src, Msg) != WantSum)
    return false;
  R = JobResult();
  R.Status = JobStatus::Succeeded;
  R.VectorizedSource = std::move(Src);
  R.Message = std::move(Msg);
  R.Stats = S;
  return true;
}

DiskStore::DiskStore(DiskStoreConfig Config) : Config(std::move(Config)) {
  std::error_code EC;
  fs::create_directories(this->Config.Dir, EC);
  if (EC || !fs::is_directory(this->Config.Dir))
    throw std::runtime_error("DiskStore: cannot create directory '" +
                             this->Config.Dir + "'");
  // Boot sweep: drop orphaned .tmp files (a crash between write and
  // rename leaves them; they were never published) and take inventory of
  // the surviving entries so capacity accounting starts accurate.
  uint64_t Count = 0, Total = 0;
  for (fs::recursive_directory_iterator It(this->Config.Dir, EC), End;
       It != End && !EC; It.increment(EC)) {
    if (!It->is_regular_file())
      continue;
    fs::path P = It->path();
    if (P.extension() == ".mvr") {
      ++Count;
      Total += static_cast<uint64_t>(It->file_size(EC));
    } else {
      fs::remove(P, EC);
    }
  }
  Entries.store(Count, std::memory_order_relaxed);
  Bytes.store(Total, std::memory_order_relaxed);
}

std::string DiskStore::entryPath(uint64_t Key) const {
  std::string Hex = contentHexKey(Key);
  return Config.Dir + "/" + Hex.substr(0, 2) + "/" + Hex + ".mvr";
}

std::optional<JobResult> DiskStore::load(uint64_t Key) {
  std::string Path = entryPath(Key);
  std::string Data;
  {
    std::lock_guard<std::mutex> Lock(lockFor(Key));
    std::ifstream In(Path, std::ios::binary);
    if (!In) {
      Misses.fetch_add(1, std::memory_order_relaxed);
      return std::nullopt;
    }
    std::ostringstream SS;
    SS << In.rdbuf();
    Data = SS.str();
  }
  JobResult R;
  if (!decodeResultEntry(Data, R)) {
    // Torn or corrupt entry: never serve it, and remove it so the next
    // successful run can republish a clean one.
    Corrupt.fetch_add(1, std::memory_order_relaxed);
    Misses.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> Lock(lockFor(Key));
    std::error_code EC;
    if (fs::remove(Path, EC) && !EC) {
      Entries.fetch_sub(1, std::memory_order_relaxed);
      uint64_t Sz = std::min<uint64_t>(Data.size(),
                                       Bytes.load(std::memory_order_relaxed));
      Bytes.fetch_sub(Sz, std::memory_order_relaxed);
    }
    return std::nullopt;
  }
  Hits.fetch_add(1, std::memory_order_relaxed);
  return R;
}

void DiskStore::store(uint64_t Key, const JobResult &Result) {
  if (Result.Status != JobStatus::Succeeded)
    return;
  std::string Path = entryPath(Key);
  std::string Data = encodeResultEntry(Result);
  {
    std::lock_guard<std::mutex> Lock(lockFor(Key));
    std::error_code EC;
    fs::create_directories(fs::path(Path).parent_path(), EC);
    uint64_t OldSize = 0;
    bool Existed = false;
    if (fs::exists(Path, EC)) {
      Existed = true;
      OldSize = static_cast<uint64_t>(fs::file_size(Path, EC));
    }
    // Pid-qualified so processes sharing the directory can never race on
    // the same temp name.
    std::string TmpPath =
        Path + ".tmp" + std::to_string(::getpid()) + "_" +
        std::to_string(TmpCounter.fetch_add(1, std::memory_order_relaxed));
    if (!writeThenRename(TmpPath, Path, Data))
      return;
    Puts.fetch_add(1, std::memory_order_relaxed);
    if (!Existed)
      Entries.fetch_add(1, std::memory_order_relaxed);
    Bytes.fetch_add(Data.size(), std::memory_order_relaxed);
    if (Existed) {
      uint64_t Cur = Bytes.load(std::memory_order_relaxed);
      Bytes.fetch_sub(std::min(OldSize, Cur), std::memory_order_relaxed);
    }
  }
  pruneIfOver();
}

void DiskStore::erase(uint64_t Key) {
  std::lock_guard<std::mutex> Lock(lockFor(Key));
  std::error_code EC;
  std::string Path = entryPath(Key);
  uint64_t Sz = fs::exists(Path, EC)
                    ? static_cast<uint64_t>(fs::file_size(Path, EC))
                    : 0;
  if (fs::remove(Path, EC) && !EC) {
    Entries.fetch_sub(1, std::memory_order_relaxed);
    Bytes.fetch_sub(std::min(Sz, Bytes.load(std::memory_order_relaxed)),
                    std::memory_order_relaxed);
  }
}

void DiskStore::pruneIfOver() {
  if (Config.MaxBytes == 0 ||
      Bytes.load(std::memory_order_relaxed) <= Config.MaxBytes)
    return;
  // One pruner at a time; latecomers see the reduced footprint and skip.
  std::unique_lock<std::mutex> Lock(PruneMutex, std::try_to_lock);
  if (!Lock.owns_lock())
    return;

  struct Victim {
    std::string Path;
    uint64_t Size;
    fs::file_time_type MTime;
  };
  std::vector<Victim> All;
  std::error_code EC;
  for (fs::recursive_directory_iterator It(Config.Dir, EC), End;
       It != End && !EC; It.increment(EC)) {
    if (!It->is_regular_file() || It->path().extension() != ".mvr")
      continue;
    All.push_back({It->path().string(),
                   static_cast<uint64_t>(It->file_size(EC)),
                   It->last_write_time(EC)});
  }
  std::sort(All.begin(), All.end(),
            [](const Victim &A, const Victim &B) { return A.MTime < B.MTime; });
  uint64_t Total = 0;
  for (const Victim &V : All)
    Total += V.Size;
  uint64_t Target = Config.MaxBytes - Config.MaxBytes / 4;
  size_t Removed = 0;
  for (const Victim &V : All) {
    if (Total <= Target)
      break;
    if (fs::remove(V.Path, EC) && !EC) {
      Total -= std::min(V.Size, Total);
      ++Removed;
    }
  }
  Entries.store(All.size() - Removed, std::memory_order_relaxed);
  Bytes.store(Total, std::memory_order_relaxed);
}
