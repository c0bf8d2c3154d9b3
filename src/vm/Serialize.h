//===- Serialize.h - Bytecode (de)serialization and disassembly -*- C++ -*-===//
//
// Part of the mvec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Flat little-endian serialization of CompiledProgram, the cache-key
/// derivation that addresses compiled programs, and a textual
/// disassembler for tests and diagnostics. Deserialization performs full
/// structural validation (operand ranges, jump targets, pool indices):
/// anything that does not prove out is a nullopt — the CodeCache treats
/// it as a miss and re-lowers, mirroring how the daemon's DiskStore
/// treats torn result entries.
///
//===----------------------------------------------------------------------===//

#ifndef MVEC_VM_SERIALIZE_H
#define MVEC_VM_SERIALIZE_H

#include "vm/Bytecode.h"

#include <optional>
#include <string>

namespace mvec {
namespace vm {

/// Bumped whenever the serialized layout or opcode numbering changes.
/// Part of the cache key, so stale persisted programs from an older
/// format version can never be loaded — they simply miss.
constexpr uint32_t kBytecodeFormatVersion = 5;

/// The content-address of the compiled form of \p Source: the source
/// hash mixed with the format version. Pure function of the source text,
/// so cache lookups don't need to lower first.
uint64_t codeKeyFor(const std::string &Source);

/// Serializes \p P ("MVBC" magic, version, pools, instructions). The
/// encoding is deterministic: equal programs produce equal bytes.
std::string serializeProgram(const CompiledProgram &P);

/// Parses and validates serialized bytes. Returns nullopt on any
/// malformation — wrong magic/version, truncation, trailing garbage, or
/// an instruction whose operands fail validateProgram.
std::optional<CompiledProgram> deserializeProgram(const std::string &Bytes);

/// Structural validation: every operand index in range for its class,
/// jump targets inside the instruction stream, flags meaningful for
/// their opcode. Returns an empty string when valid, else a diagnostic.
std::string validateProgram(const CompiledProgram &P);

/// Human-readable listing, one instruction per line — stable output,
/// pinned by golden tests.
std::string disassemble(const CompiledProgram &P);

} // namespace vm
} // namespace mvec

#endif // MVEC_VM_SERIALIZE_H
