//===- LruCache.h - Bounded thread-safe LRU map -----------------*- C++ -*-===//
//
// Part of the mvec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one in-memory cache mechanism: a bounded map that evicts the least
/// recently used entry, behind a single mutex. Every cache tier (whole
/// script results, per-nest outcomes, compiled bytecode) is an LruCache;
/// what differs between them is only the key, the value, and what the
/// owner counts.
///
/// Values are copied out under the lock, so large values should be
/// shared pointers: a hit then costs one refcount bump, and the caller
/// does any expensive work on the value after the lock is released.
/// Entries displaced by put() (overwritten or evicted) are destroyed after
/// the lock is released, so tearing down a large value never stalls other
/// threads.
///
//===----------------------------------------------------------------------===//

#ifndef MVEC_SUPPORT_LRUCACHE_H
#define MVEC_SUPPORT_LRUCACHE_H

#include <cstddef>
#include <iterator>
#include <list>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <utility>

namespace mvec {

template <typename K, typename V> class LruCache {
public:
  /// \p Capacity of zero disables the cache: get() always misses and put()
  /// drops its argument.
  explicit LruCache(size_t Capacity) : Capacity(Capacity) {}

  /// Returns a copy of the value stored under \p Key and makes it the most
  /// recently used entry.
  std::optional<V> get(const K &Key) {
    std::lock_guard<std::mutex> Lock(Mutex);
    auto It = Index.find(Key);
    if (It == Index.end())
      return std::nullopt;
    Order.splice(Order.begin(), Order, It->second);
    return It->second->second;
  }

  /// Stores \p Value under \p Key as the most recently used entry,
  /// replacing any value already there; evicts the least recently used
  /// entry when the cache is full.
  void put(K Key, V Value) {
    if (Capacity == 0)
      return;
    // Declared before the lock so the displaced entry dies after it.
    std::list<Entry> Displaced;
    std::lock_guard<std::mutex> Lock(Mutex);
    auto It = Index.find(Key);
    if (It != Index.end()) {
      Displaced.splice(Displaced.end(), Order, It->second);
    } else if (Order.size() >= Capacity) {
      Index.erase(Order.back().first);
      Displaced.splice(Displaced.end(), Order, std::prev(Order.end()));
    }
    Order.emplace_front(Key, std::move(Value));
    Index[std::move(Key)] = Order.begin();
  }

  size_t size() const {
    std::lock_guard<std::mutex> Lock(Mutex);
    return Order.size();
  }

private:
  using Entry = std::pair<K, V>;

  const size_t Capacity;
  mutable std::mutex Mutex;
  /// Most recently used at the front.
  std::list<Entry> Order;
  std::unordered_map<K, typename std::list<Entry>::iterator> Index;
};

} // namespace mvec

#endif // MVEC_SUPPORT_LRUCACHE_H
