//===- Resilience.h - Error taxonomy and resilience config ------*- C++ -*-===//
//
// Part of the mvec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The shared vocabulary of the resilience subsystem: the structured error
/// taxonomy every failure folds into, and the per-service configuration
/// bundle (retry policy, per-job memory budget) consumed by
/// mvec::VectorizationService.
///
/// This library sits at the bottom of the dependency stack (stdlib only);
/// support, frontend, interp and service all call into it, so nothing here
/// may include an mvec header.
///
//===----------------------------------------------------------------------===//

#ifndef MVEC_RESILIENCE_RESILIENCE_H
#define MVEC_RESILIENCE_RESILIENCE_H

#include "resilience/Backoff.h"

#include <cstddef>
#include <string>

namespace mvec {

/// What kind of failure a job (or a stage of one) suffered. The class — not
/// the message text — drives the resilience machinery: only transient
/// classes are retried, and only exhaustion of retries/budgets degrades.
enum class ErrorClass {
  None,     ///< no failure
  Input,    ///< the submitted program is at fault (parse error, bad
            ///< annotations, its own runtime error, divergence blame)
  Resource, ///< a per-job budget was exhausted (memory, nesting depth)
  Deadline, ///< the wall-clock deadline (or step budget) fired
  Internal, ///< unexpected exception inside the pipeline — the only class
            ///< presumed transient and therefore retried
};

/// Display name for \p Class ("none", "input", ...).
const char *errorClassName(ErrorClass Class);
/// The class whose errorClassName is \p Name; false for any other text.
bool parseErrorClass(const std::string &Name, ErrorClass &Class);

/// Per-service resilience knobs (see DESIGN.md §5g for the rationale
/// behind each default).
struct ResilienceConfig {
  /// Jittered-exponential-backoff retry policy for ErrorClass::Internal
  /// failures. Deterministic failures (Input/Resource/Deadline) are never
  /// retried.
  RetryPolicy Retry;
  /// Per-job cumulative allocation budget in bytes (AST arena + Value
  /// payload + kernel scratch), enforced by the ResourceGovernor.
  /// 0 disables memory accounting. A job that exhausts retries or this
  /// budget (Internal/Resource class) degrades: the original source comes
  /// back verbatim as a Degraded result.
  size_t MaxJobBytes = size_t(512) << 20;
};

} // namespace mvec

#endif // MVEC_RESILIENCE_RESILIENCE_H
