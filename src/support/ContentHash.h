//===- ContentHash.h - Content-addressing hash helpers ----------*- C++ -*-===//
//
// Part of the mvec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one FNV-1a implementation every content-addressed tier keys off:
/// the service's in-memory result cache and the daemon's on-disk
/// DiskStore. Centralizing it here (with the canonical hex
/// spelling of a key) guarantees the tiers can never disagree about what
/// a given source hashes to — a memory-tier key IS the disk-tier file
/// name.
///
//===----------------------------------------------------------------------===//

#ifndef MVEC_SUPPORT_CONTENTHASH_H
#define MVEC_SUPPORT_CONTENTHASH_H

#include <cstdint>
#include <string>

namespace mvec {

/// 64-bit FNV-1a over \p Data, continuing from \p Hash (pass the default
/// to start a fresh hash).
uint64_t fnv1aHash(const std::string &Data,
                   uint64_t Hash = 0xcbf29ce484222325ull);

/// Folds the raw 64-bit \p Word into \p Hash one byte at a time
/// (little-endian), with the same FNV-1a rounds as fnv1aHash. Used to mix
/// configuration fingerprints into a source hash so a toggle flip never
/// cancels against a source edit.
uint64_t fnv1aMix(uint64_t Word, uint64_t Hash);

/// The canonical textual spelling of a content key: exactly 16 lowercase
/// hex digits, zero-padded. Stable across platforms and releases — disk
/// stores persist it as the entry file name, so changing this format is a
/// store-version bump.
std::string contentHexKey(uint64_t Key);

/// Parses a string produced by contentHexKey. Returns false (leaving
/// \p Key untouched) unless \p Hex is exactly 16 lowercase hex digits.
bool parseContentHexKey(const std::string &Hex, uint64_t &Key);

} // namespace mvec

#endif // MVEC_SUPPORT_CONTENTHASH_H
