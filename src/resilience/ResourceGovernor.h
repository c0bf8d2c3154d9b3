//===- ResourceGovernor.h - Per-job resource budgets ------------*- C++ -*-===//
//
// Part of the mvec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Per-job memory accounting with a hard cap. A GovernorScope installs a
/// ResourceGovernor on the worker thread for the duration of one job
/// attempt; the allocation choke points of the pipeline (AST arena nodes,
/// Value heap payloads, kernel scratch buffers) charge it via
/// chargeMemory(). Charges are cumulative — bytes are never credited back
/// on free — so the cap bounds total allocation pressure deterministically
/// regardless of allocator reuse or pool state.
///
/// Exceeding the cap throws ResourceExhausted; the service catches it and
/// classifies the job as ErrorClass::Resource (deterministic, never
/// retried). With no governor installed the charge is one thread-local
/// load and a null check.
///
//===----------------------------------------------------------------------===//

#ifndef MVEC_RESILIENCE_RESOURCEGOVERNOR_H
#define MVEC_RESILIENCE_RESOURCEGOVERNOR_H

#include <cstddef>
#include <stdexcept>
#include <string>

namespace mvec {

/// Thrown when a job exceeds a ResourceGovernor budget.
class ResourceExhausted : public std::runtime_error {
public:
  explicit ResourceExhausted(const std::string &What)
      : std::runtime_error(What) {}
};

class ResourceGovernor {
public:
  /// \p MaxBytes caps cumulative charged allocation (0 = account only,
  /// never throw).
  explicit ResourceGovernor(size_t MaxBytes) : MaxBytes(MaxBytes) {}

  /// Adds \p Bytes to the job's tally; throws ResourceExhausted once the
  /// cap is crossed.
  void charge(size_t Bytes) {
    Used += Bytes;
    if (MaxBytes != 0 && Used > MaxBytes)
      overBudget();
  }

  size_t usedBytes() const { return Used; }
  size_t capBytes() const { return MaxBytes; }

private:
  [[noreturn]] void overBudget() const;

  size_t MaxBytes;
  size_t Used = 0;
};

namespace detail {

/// The governor charged by this thread's allocations, or null when no job
/// budget is being enforced.
inline ResourceGovernor *&tlsGovernor() {
  thread_local ResourceGovernor *Current = nullptr;
  return Current;
}

} // namespace detail

/// RAII guard installing \p G (may be null) on the current thread. Scopes
/// nest; the previous governor is restored on destruction.
class GovernorScope {
public:
  explicit GovernorScope(ResourceGovernor *G) : Prev(detail::tlsGovernor()) {
    detail::tlsGovernor() = G;
  }
  ~GovernorScope() { detail::tlsGovernor() = Prev; }
  GovernorScope(const GovernorScope &) = delete;
  GovernorScope &operator=(const GovernorScope &) = delete;

private:
  ResourceGovernor *Prev;
};

/// The allocation hook compiled into the pipeline's allocation choke
/// points. Near-free when no governor is installed.
inline void chargeMemory(size_t Bytes) {
  if (ResourceGovernor *G = Bytes ? detail::tlsGovernor() : nullptr)
    G->charge(Bytes);
}

} // namespace mvec

#endif // MVEC_RESILIENCE_RESOURCEGOVERNOR_H
