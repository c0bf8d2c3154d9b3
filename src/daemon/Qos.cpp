//===- Qos.cpp - Admission control and per-tenant QoS -----------------------===//
//
// Part of the mvec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "daemon/Qos.h"

#include <algorithm>

using namespace mvec::daemon;

const char *mvec::daemon::admissionName(Admission A) {
  switch (A) {
  case Admission::Admitted:
    return "admitted";
  case Admission::ShedQos:
    return "qos";
  case Admission::ShedQueue:
    return "queue";
  }
  return "admitted";
}

bool TokenBucket::tryTake(std::chrono::steady_clock::time_point Now) {
  if (RatePerSec <= 0)
    return true;
  if (Last.time_since_epoch().count() != 0 && Now > Last)
    Tokens = std::min(Burst,
                      Tokens + std::chrono::duration<double>(Now - Last)
                                       .count() *
                                   RatePerSec);
  Last = Now;
  if (Tokens < 1.0)
    return false;
  Tokens -= 1.0;
  return true;
}

bool AdmissionController::admit(const std::string &TenantId,
                                std::chrono::steady_clock::time_point Now) {
  std::lock_guard<std::mutex> Lock(Mutex);
  auto [It, Inserted] = Tenants.try_emplace(TenantId);
  Tenant &T = It->second;
  if (Inserted) {
    T.Bucket.RatePerSec = RatePerSec;
    T.Bucket.Burst = Burst;
    T.Bucket.Tokens = Burst; // New tenants start with a full bucket.
    T.Bucket.Last = Now;
  }
  if (T.Bucket.tryTake(Now)) {
    ++T.Admitted;
    return true;
  }
  ++T.Shed;
  return false;
}

void AdmissionController::setLimits(double NewRatePerSec, double NewBurst) {
  std::lock_guard<std::mutex> Lock(Mutex);
  RatePerSec = NewRatePerSec;
  Burst = NewBurst < 1 ? 1 : NewBurst;
  for (auto &[Id, T] : Tenants) {
    (void)Id;
    T.Bucket.RatePerSec = RatePerSec;
    T.Bucket.Burst = Burst;
    T.Bucket.Tokens = std::min(T.Bucket.Tokens, Burst);
  }
}

std::vector<TenantStats> AdmissionController::snapshot() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  std::vector<TenantStats> Out;
  Out.reserve(Tenants.size());
  for (const auto &[Id, T] : Tenants)
    Out.push_back({Id, T.Admitted, T.Shed});
  std::sort(Out.begin(), Out.end(),
            [](const TenantStats &A, const TenantStats &B) {
              return A.Tenant < B.Tenant;
            });
  return Out;
}

uint64_t AdmissionController::totalShed() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  uint64_t Total = 0;
  for (const auto &[Id, T] : Tenants) {
    (void)Id;
    Total += T.Shed;
  }
  return Total;
}
