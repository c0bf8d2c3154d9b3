//===- CircuitBreaker.h - Crash-loop circuit breaker ------------*- C++ -*-===//
//
// Part of the mvec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A classic three-state circuit breaker guarding a sandbox pool's
/// workers. Consecutive worker deaths (never a script's own failure: a
/// burst of malformed scripts is the submitters' problem, not the pool's)
/// trip the breaker Open; while Open, jobs are shed immediately
/// (degraded, not queued) until the cooldown elapses, after which a
/// bounded number of HalfOpen probes decide whether to close again.
///
/// Thread-safe: workers call allow()/record*() concurrently under one
/// internal mutex (uncontended in the common Closed case).
///
//===----------------------------------------------------------------------===//

#ifndef MVEC_RESILIENCE_CIRCUITBREAKER_H
#define MVEC_RESILIENCE_CIRCUITBREAKER_H

#include <chrono>
#include <cstdint>
#include <mutex>

namespace mvec {

struct BreakerConfig {
  /// Consecutive failures that trip the breaker Open (0 acts as 1).
  unsigned FailureThreshold = 8;
  /// How long the breaker stays Open before probing.
  std::chrono::milliseconds Cooldown{2000};
  /// Probe jobs admitted in HalfOpen before the first outcome arrives.
  unsigned HalfOpenProbes = 1;
};

class CircuitBreaker {
public:
  enum class State { Closed, Open, HalfOpen };

  explicit CircuitBreaker(BreakerConfig Config = {}) : Config(Config) {}

  /// True when a job may execute. False means shed it now. A true return
  /// in HalfOpen consumes one probe slot; the caller must report the
  /// outcome via recordSuccess()/recordFailure().
  bool allow();

  /// The job completed without an infrastructure failure (success, input
  /// error, deadline — the worker itself held up).
  void recordSuccess();

  /// The job suffered an infrastructure failure (its worker died).
  void recordFailure();

  State state() const;
  /// Total jobs shed (allow() returned false) since construction.
  uint64_t shedCount() const;

private:
  using Clock = std::chrono::steady_clock;

  BreakerConfig Config;
  mutable std::mutex Mutex;
  State Cur = State::Closed;
  unsigned ConsecutiveFailures = 0;
  unsigned ProbesInFlight = 0;
  Clock::time_point OpenedAt{};
  uint64_t Shed = 0;
};

} // namespace mvec

#endif // MVEC_RESILIENCE_CIRCUITBREAKER_H
