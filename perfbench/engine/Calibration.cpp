//===- Calibration.cpp - A probe of the host's current speed --------------===//
//
// Part of the mvec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A fixed task shaped like the work that dominates the compiler layers
/// and the interpreters: heap allocation of small strings and vectors
/// behind a tree map, and hashed string lookups in a table of 64K names
/// (a few MB, so it lives in the outer caches). On a shared host its time
/// moves with the measured workloads' times as neighbours come and go; a
/// pure ALU loop does not, because it misses the cache and allocator
/// contention those workloads feel. It uses nothing of the repository.
///
//===----------------------------------------------------------------------===//

#include "Calibration.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

namespace perfbench {
namespace {

constexpr size_t TableNames = 65536;
// Sized for about 5 ms on a shared x86-64 server core.
constexpr uint64_t Lookups = 15000;
constexpr uint64_t Entries = 2048;
constexpr int Vectors = 5000;

volatile double Sink = 0;

struct Table {
  std::vector<std::string> Names;
  std::unordered_map<std::string, double> Values;
  Table() {
    for (size_t I = 0; I != TableNames; ++I) {
      std::string Name = "variable_";
      Name += std::to_string(I * 2654435761u);
      Names.push_back(std::move(Name));
    }
    for (const std::string &N : Names)
      Values[N] = static_cast<double>(N.size());
  }
};

} // namespace

double calibrationMs() {
  static const Table T;
  auto T0 = std::chrono::steady_clock::now();
  {
    double Acc = 0;
    std::map<std::string, uint64_t> Env;
    for (uint64_t I = 0; I != Entries; ++I) {
      std::string Key(1, 'v');
      Key += std::to_string(I * 0x9e3779b97f4a7c15ull % 100003);
      Env[Key] += I;
    }
    std::vector<std::shared_ptr<std::vector<double>>> Held;
    for (int I = 0; I != Vectors; ++I)
      Held.push_back(std::make_shared<std::vector<double>>(I % 13 + 1, 1.0));
    uint64_t X = 12345;
    for (uint64_t I = 0; I != Lookups; ++I) {
      X = X * 6364136223846793005ull + 1442695040888963407ull;
      Acc += T.Values.find(T.Names[(X >> 33) % T.Names.size()])->second;
    }
    Sink = Acc + static_cast<double>(Env.size() + Held.size());
  } // The frees are part of the task.
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - T0)
      .count();
}

} // namespace perfbench
