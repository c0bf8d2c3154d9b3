//===- service_throughput.cpp - Service scaling benchmark -------------------===//
//
// Part of the mvec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Measures the vectorization service's batch throughput (scripts/sec)
/// against worker count, cold (every job compiles + validates) and warm
/// (every job is a content-cache hit). Emits BENCH_service.json so later
/// PRs have a perf trajectory to beat.
///
/// The synthetic corpus models service traffic, not a compile farm: every
/// script carries a small pause() alongside its loop nest — the stand-in
/// for the I/O, network, or long interpreted tails real workloads have.
/// That keeps the scaling measurement meaningful on any core count: the
/// win from more workers is overlapped waiting plus overlapped compute,
/// and a single-core host still shows the former.
///
/// Usage: service_throughput [output.json]
///
//===----------------------------------------------------------------------===//

#include "service/VectorizationService.h"

#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

using namespace mvec;

namespace {

constexpr int NumJobs = 48;
/// Per-script simulated latency (runs once per interpreter execution; the
/// validation stage executes original + vectorized, so ~2x per cold job).
constexpr double PauseSeconds = 0.008;

/// One synthetic service script: simulated I/O latency plus a genuinely
/// vectorizable annotated loop. \p Tag makes each job's source unique so
/// a cold batch cannot accidentally hit the cache.
std::string syntheticScript(int Tag) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "pause(%g);\n%% job %d\n", PauseSeconds,
                Tag);
  return std::string(Buf) +
         "n = 16; x = rand(1,n); y = rand(1,n); z = zeros(1,n);\n"
         "%! x(1,*) y(1,*) z(1,*) n(1)\n"
         "for i=1:n\n  z(i) = 2*x(i)+y(i)^2;\nend\n";
}

std::vector<JobSpec> makeBatch() {
  std::vector<JobSpec> Specs;
  for (int I = 0; I != NumJobs; ++I) {
    JobSpec Spec;
    Spec.Name = "job" + std::to_string(I);
    Spec.Source = syntheticScript(I);
    Spec.Validate = true;
    Specs.push_back(std::move(Spec));
  }
  return Specs;
}

struct Sample {
  unsigned Workers;
  double ColdScriptsPerSec;
  double WarmScriptsPerSec;
};

double runBatchSeconds(VectorizationService &Service) {
  auto Start = std::chrono::steady_clock::now();
  std::vector<JobResult> Results = Service.runBatch(makeBatch());
  double Secs = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - Start)
                    .count();
  for (const JobResult &R : Results)
    if (!R.succeeded()) {
      std::fprintf(stderr, "job '%s' %s: %s\n", R.Name.c_str(),
                   jobStatusName(R.Status), R.Message.c_str());
      std::exit(1);
    }
  return Secs;
}

} // namespace

int main(int argc, char **argv) {
  const std::string OutPath = argc > 1 ? argv[1] : "BENCH_service.json";

  std::printf("service_throughput: %d scripts/batch, %.0f ms simulated "
              "latency each, validate=on\n\n",
              NumJobs, PauseSeconds * 1e3);
  std::printf("%8s %22s %22s %12s\n", "workers", "cold scripts/sec",
              "warm scripts/sec", "warm hits");

  std::vector<Sample> Samples;
  for (unsigned Workers : {1u, 2u, 4u, 8u}) {
    ServiceConfig Config;
    Config.Workers = Workers;
    Config.QueueCapacity = NumJobs;
    Config.CacheCapacity = 2 * NumJobs;
    VectorizationService Service(Config);

    double ColdSecs = runBatchSeconds(Service);
    double WarmSecs = runBatchSeconds(Service);
    uint64_t WarmHits = Service.metrics().CacheHits.load();

    Sample S{Workers, NumJobs / ColdSecs, NumJobs / WarmSecs};
    Samples.push_back(S);
    std::printf("%8u %22.1f %22.1f %9llu/%d\n", Workers, S.ColdScriptsPerSec,
                S.WarmScriptsPerSec,
                static_cast<unsigned long long>(WarmHits), NumJobs);
  }

  double Speedup8v1 =
      Samples.back().ColdScriptsPerSec / Samples.front().ColdScriptsPerSec;
  double WarmOverCold1 =
      Samples.front().WarmScriptsPerSec / Samples.front().ColdScriptsPerSec;
  std::printf("\ncold speedup 8 vs 1 workers: %.2fx\n", Speedup8v1);
  std::printf("warm vs cold at 1 worker:    %.1fx\n", WarmOverCold1);

  std::ofstream Out(OutPath);
  if (!Out) {
    std::fprintf(stderr, "error: cannot write '%s'\n", OutPath.c_str());
    return 1;
  }
  Out << "{\n  \"benchmark\": \"service_throughput\",\n"
      << "  \"jobs_per_batch\": " << NumJobs << ",\n"
      << "  \"simulated_latency_s\": " << PauseSeconds << ",\n"
      << "  \"validate\": true,\n  \"workers\": [\n";
  for (size_t I = 0; I != Samples.size(); ++I) {
    const Sample &S = Samples[I];
    Out << "    {\"workers\": " << S.Workers
        << ", \"cold_scripts_per_sec\": " << S.ColdScriptsPerSec
        << ", \"warm_scripts_per_sec\": " << S.WarmScriptsPerSec << "}"
        << (I + 1 == Samples.size() ? "\n" : ",\n");
  }
  Out << "  ],\n  \"cold_speedup_8_vs_1\": " << Speedup8v1
      << ",\n  \"warm_vs_cold_at_1_worker\": " << WarmOverCold1 << "\n}\n";
  std::printf("wrote %s\n", OutPath.c_str());
  return 0;
}
