//===- CircuitBreaker.cpp - Crash-loop circuit breaker ----------------------===//
//
// Part of the mvec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "resilience/CircuitBreaker.h"

using namespace mvec;

bool CircuitBreaker::allow() {
  std::lock_guard<std::mutex> Lock(Mutex);
  switch (Cur) {
  case State::Closed:
    return true;
  case State::Open:
    if (Clock::now() - OpenedAt < Config.Cooldown) {
      ++Shed;
      return false;
    }
    Cur = State::HalfOpen;
    ProbesInFlight = 0;
    [[fallthrough]];
  case State::HalfOpen:
    if (ProbesInFlight < Config.HalfOpenProbes) {
      ++ProbesInFlight;
      return true;
    }
    ++Shed;
    return false;
  }
  return true;
}

void CircuitBreaker::recordSuccess() {
  std::lock_guard<std::mutex> Lock(Mutex);
  // One healthy probe is proof enough that whatever tripped us has
  // passed; trickling probes through one at a time only delays recovery.
  Cur = State::Closed;
  ConsecutiveFailures = 0;
  ProbesInFlight = 0;
}

void CircuitBreaker::recordFailure() {
  std::lock_guard<std::mutex> Lock(Mutex);
  if (Cur == State::HalfOpen) {
    // The probe failed: back to Open for another full cooldown.
    Cur = State::Open;
    OpenedAt = Clock::now();
    ProbesInFlight = 0;
    return;
  }
  if (++ConsecutiveFailures >= Config.FailureThreshold &&
      Cur == State::Closed) {
    Cur = State::Open;
    OpenedAt = Clock::now();
  }
}

CircuitBreaker::State CircuitBreaker::state() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Cur;
}

uint64_t CircuitBreaker::shedCount() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Shed;
}
