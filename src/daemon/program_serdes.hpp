/**
 * @file
 * Versioned binary serialization of CompiledProgram for the compile
 * daemon's cache tiers.
 *
 * The daemon spills compiled artifacts to disk so a restart serves
 * the previous working set warm (the paper's morning-rush scenario:
 * the whole program set recompiles daily, and a crashed or upgraded
 * server must not recompile it all again), and its memory tier holds
 * the same frames. A frame is:
 *
 *   [magic "NQCP"][u32 version][u64 payload size][u64 FNV-1a of
 *   payload][payload]
 *
 * with the header's integers little-endian. The version 2 payload is
 * compact: every integer is an LEB128 varint, zigzag-coded when
 * signed, and doubles are 8 little-endian bytes by bit pattern, so
 * frames are portable across runs and hosts. In order:
 *
 *   - mapperName, programName: each a varint length, then its bytes;
 *   - layout, junctions: each a varint count, then the int values;
 *   - schedule.numHwQubits, then the ops: a varint count, then per
 *     op a tag byte (the Op, with isRouteSwap in its high bit), q0,
 *     q1, cbit, start as a delta from the previous op's start,
 *     duration, and progGate as a delta from the previous op's;
 *   - the macros: a count, then per macro progGate and start as
 *     deltas from the previous macro's, and duration;
 *   - makespan, then qubitFinish as a count and its values;
 *   - duration, logReliability, predictedSuccess, swapCount,
 *     compileSeconds, solverOptimal as one byte (0 or 1), and
 *     solverStatus;
 *   - the stage traces: a count, then per trace stage, pass, seconds
 *     and note.
 *
 * The first op's and the first macro's deltas are taken from 0.
 * Deltas wrap in unsigned 64-bit arithmetic, so every value
 * round-trips exactly.
 *
 * deserializeCompiledProgram() validates the magic, version, size and
 * checksum before it reads the payload. It then rejects anything
 * malformed: a varint longer than 10 bytes or past 64 bits, an int
 * field out of range, an unknown op, a count that the bytes left
 * cannot hold (which bounds every allocation by a small multiple of
 * the frame), and trailing bytes. A corrupt or stale-version cache
 * entry is a recompile, never a crash.
 */

#ifndef QC_DAEMON_PROGRAM_SERDES_HPP
#define QC_DAEMON_PROGRAM_SERDES_HPP

#include <cstdint>
#include <string>

#include "mappers/mapper.hpp"

namespace qc::daemon {

/** Current frame format version; bump on any payload change. */
inline constexpr std::uint32_t kProgramSerdesVersion = 2;

/** Serialize every field of a CompiledProgram into a framed blob. */
std::string serializeCompiledProgram(const CompiledProgram &program);

/**
 * Parse a framed blob back into a CompiledProgram.
 *
 * @return true and fill `out` on success; false (with `out`
 *         untouched semantics unspecified) when the blob is
 *         truncated, has a wrong magic/version, fails its checksum,
 *         or contains out-of-range enum values.
 */
bool deserializeCompiledProgram(const std::string &bytes,
                                CompiledProgram &out);

} // namespace qc::daemon

#endif // QC_DAEMON_PROGRAM_SERDES_HPP
