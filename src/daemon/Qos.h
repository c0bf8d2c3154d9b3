//===- Qos.h - Admission control and per-tenant QoS -------------*- C++ -*-===//
//
// Part of the mvec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The daemon's admission layer, sitting in front of the sharded
/// services. Two mechanisms:
///
///   * Per-tenant token buckets: each client id refills at a configured
///     rate up to a burst ceiling; a request that finds the bucket empty
///     is shed (served as degraded passthrough, never an error). This
///     keeps one hot tenant from starving the rest.
///   * Queue-depth shedding lives in the Daemon itself (it owns the
///     per-shard in-flight counters); this file only defines the verdict
///     vocabulary shared by both.
///
/// Buckets take the current time as a parameter (rather than reading the
/// clock themselves) so tests can drive them deterministically. Limits
/// are hot-reloadable: setLimits() retunes every existing bucket without
/// resetting shed/admit accounting.
///
//===----------------------------------------------------------------------===//

#ifndef MVEC_DAEMON_QOS_H
#define MVEC_DAEMON_QOS_H

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace mvec {
namespace daemon {

/// Why a request was (or wasn't) admitted.
enum class Admission {
  Admitted,
  ShedQos,   ///< the tenant's token bucket was empty
  ShedQueue, ///< the target shard's queue was beyond its depth limit
};

const char *admissionName(Admission A);

/// A standard token bucket. Not internally synchronized — the owner
/// (AdmissionController) serializes access.
struct TokenBucket {
  double RatePerSec = 0; ///< refill rate; 0 disables limiting
  double Burst = 1;      ///< bucket capacity
  double Tokens = 1;
  std::chrono::steady_clock::time_point Last{};

  /// Refills for the elapsed time and tries to take one token.
  bool tryTake(std::chrono::steady_clock::time_point Now);
};

struct TenantStats {
  std::string Tenant;
  uint64_t Admitted = 0;
  uint64_t Shed = 0;
};

/// Tracks one token bucket (plus admit/shed counters) per tenant id.
/// Thread-safe.
class AdmissionController {
public:
  /// \p RatePerSec of 0 admits everything (accounting still runs).
  AdmissionController(double RatePerSec, double Burst)
      : RatePerSec(RatePerSec), Burst(Burst < 1 ? 1 : Burst) {}

  /// Charges one request to \p Tenant's bucket at \p Now.
  bool admit(const std::string &Tenant,
             std::chrono::steady_clock::time_point Now);

  /// Hot-reloads the limits; existing buckets keep their fill level
  /// (clamped to the new burst) and counters.
  void setLimits(double NewRatePerSec, double NewBurst);

  /// Per-tenant accounting snapshot, sorted by tenant id.
  std::vector<TenantStats> snapshot() const;
  uint64_t totalShed() const;

private:
  struct Tenant {
    TokenBucket Bucket;
    uint64_t Admitted = 0;
    uint64_t Shed = 0;
  };

  mutable std::mutex Mutex;
  double RatePerSec;
  double Burst;
  std::unordered_map<std::string, Tenant> Tenants;
};

} // namespace daemon
} // namespace mvec

#endif // MVEC_DAEMON_QOS_H
