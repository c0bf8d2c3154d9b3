//===- Calibration.h - A probe of the host's current speed ----------------===//
//
// Part of the mvec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_CALIBRATION_H
#define PERFBENCH_CALIBRATION_H

namespace perfbench {

/// Times one fixed piece of work that calls nothing of the program under
/// test, in ms: how fast the host runs interpreter-like code right now.
/// The timed phases interleave it with the measured work, and run.py
/// reports their metrics at a reference speed of this task.
double calibrationMs();

} // namespace perfbench

#endif // PERFBENCH_CALIBRATION_H
