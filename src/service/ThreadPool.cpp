//===- ThreadPool.cpp - Fixed-size worker pool ------------------------------===//
//
// Part of the mvec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "service/ThreadPool.h"

#include <algorithm>

using namespace mvec;

ThreadPool::ThreadPool(unsigned Workers, size_t QueueCapacity)
    : Capacity(std::max<size_t>(QueueCapacity, 1)) {
  Workers = std::max(Workers, 1u);
  Threads.reserve(Workers);
  for (unsigned W = 0; W != Workers; ++W)
    Threads.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool() { shutdown(); }

bool ThreadPool::submit(std::function<void()> Task) {
  {
    std::unique_lock<std::mutex> Lock(Mutex);
    QueueNotFull.wait(
        Lock, [this] { return ShuttingDown || Queue.size() < Capacity; });
    if (ShuttingDown)
      return false;
    Queue.push_back(std::move(Task));
    HighWater = std::max(HighWater, Queue.size());
  }
  QueueNotEmpty.notify_one();
  return true;
}

void ThreadPool::drain() {
  std::unique_lock<std::mutex> Lock(Mutex);
  Idle.wait(Lock, [this] { return Queue.empty() && Running == 0; });
}

void ThreadPool::shutdown() {
  // Claim the thread handles under the lock: two concurrent shutdown()
  // calls previously both reached the join loop (the second saw
  // ShuttingDown set but Threads not yet cleared) and raced on the same
  // std::thread objects. Whoever swaps the vector out joins; everyone
  // else returns with nothing to do.
  std::vector<std::thread> ToJoin;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    ShuttingDown = true;
    ToJoin.swap(Threads);
  }
  QueueNotEmpty.notify_all();
  QueueNotFull.notify_all();
  for (std::thread &T : ToJoin)
    T.join();
}

size_t ThreadPool::queueHighWater() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return HighWater;
}

size_t ThreadPool::taskFaults() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return TaskFaults;
}

void ThreadPool::workerLoop() {
  for (;;) {
    std::function<void()> Task;
    {
      std::unique_lock<std::mutex> Lock(Mutex);
      QueueNotEmpty.wait(Lock,
                         [this] { return ShuttingDown || !Queue.empty(); });
      if (Queue.empty()) {
        // Shutting down with nothing left to run.
        return;
      }
      Task = std::move(Queue.front());
      Queue.pop_front();
      ++Running;
    }
    QueueNotFull.notify_one();
    // A task that throws must not take the worker thread down with it
    // (std::terminate): the pool would silently shrink and, at shutdown,
    // queued tasks would never resolve their promises. Task wrappers are
    // expected to catch their own exceptions; this is the containment of
    // last resort.
    try {
      Task();
    } catch (...) {
      std::lock_guard<std::mutex> Lock(Mutex);
      ++TaskFaults;
    }
    {
      std::lock_guard<std::mutex> Lock(Mutex);
      --Running;
      if (Queue.empty() && Running == 0)
        Idle.notify_all();
    }
  }
}
