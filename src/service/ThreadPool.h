//===- ThreadPool.h - Fixed-size worker pool --------------------*- C++ -*-===//
//
// Part of the mvec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A fixed-size thread pool with a bounded FIFO job queue. Submission
/// blocks when the queue is full (back-pressure, not unbounded memory),
/// which is the behaviour a batch front-end wants: the producer slows to
/// the rate the workers sustain. Tasks are type-erased closures; result
/// plumbing (futures) lives in the caller.
///
//===----------------------------------------------------------------------===//

#ifndef MVEC_SERVICE_THREADPOOL_H
#define MVEC_SERVICE_THREADPOOL_H

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace mvec {

class ThreadPool {
public:
  /// Starts \p Workers threads (at least one) with a queue holding at
  /// most \p QueueCapacity pending tasks (at least one).
  ThreadPool(unsigned Workers, size_t QueueCapacity);
  /// Drains the queue and joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  /// Enqueues \p Task, blocking while the queue is full. Returns false
  /// (dropping the task) when the pool is shutting down.
  bool submit(std::function<void()> Task);

  /// Blocks until every submitted task has finished executing.
  void drain();

  /// Stops accepting work, runs what is already queued, joins workers.
  /// Idempotent; the destructor calls it.
  void shutdown();

  unsigned workerCount() const { return static_cast<unsigned>(Threads.size()); }
  size_t queueCapacity() const { return Capacity; }
  /// Deepest the queue has been since construction.
  size_t queueHighWater() const;
  /// Tasks that escaped with an exception (contained by the worker loop).
  size_t taskFaults() const;

private:
  void workerLoop();

  const size_t Capacity;
  mutable std::mutex Mutex;
  std::condition_variable QueueNotFull;
  std::condition_variable QueueNotEmpty;
  std::condition_variable Idle;
  std::deque<std::function<void()>> Queue;
  std::vector<std::thread> Threads;
  size_t HighWater = 0;
  size_t Running = 0;
  size_t TaskFaults = 0;
  bool ShuttingDown = false;
};

} // namespace mvec

#endif // MVEC_SERVICE_THREADPOOL_H
