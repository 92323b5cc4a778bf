/**
 * @file
 * Binary encoding of `.spptrace` files (format version 1).
 *
 * Layout (all integers little-endian):
 *
 *   magic[8] = "SPPTRACE"
 *   u32 version           (current: 1)
 *   u32 numThreads
 *   u64 seed              recorded Config::seed
 *   u32 lineBytes         recorded Config::lineBytes
 *   u32 flags             reserved, must be 0
 *   u64 scaleBits         IEEE-754 bits of WorkloadParams::scale
 *   u64 keyHash           0 = n/a (files from older builds may
 *                         carry a store key hash; ignored)
 *   u32 nameLen, bytes    workload name / import tag
 *   u64 totalOps          must equal the sum of per-thread counts
 *   per thread:  u64 opCount, then opCount encoded ops
 *   u64 checksum          FNV-1a of every preceding byte
 *
 * Ops are one opcode byte plus LEB128 varints. Memory-op addresses
 * and PCs are zigzag deltas against the previous value *of the same
 * thread* (workloads walk lines sequentially, so deltas are small);
 * sync ops carry their primitive id as a plain varint and their
 * call-site sid as a PC delta. Typical cost: ~2-4 bytes/op vs 25
 * raw.
 *
 * decodeTrace() is strict: bad magic, unknown version, truncation
 * anywhere, overlong varints, unknown opcodes, count mismatches,
 * trailing garbage, and checksum failures all produce a descriptive
 * error instead of a partial trace.
 */

#ifndef SPP_TRACE_CODEC_HH
#define SPP_TRACE_CODEC_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/content_store.hh"
#include "trace/format.hh"

namespace spp {

/** Current on-disk format version. */
inline constexpr std::uint32_t traceFormatVersion = 1;

/** Serialize @p trace to the v1 byte layout. */
std::vector<std::uint8_t> encodeTrace(const TraceData &trace);

/**
 * Strictly parse @p bytes into @p out. Returns false and sets
 * @p err (leaving @p out unspecified) on any malformation.
 */
bool decodeTrace(const std::vector<std::uint8_t> &bytes,
                 TraceData &out, std::string &err);

/** Load + decode @p path; fatal() with the decode error on failure. */
TraceData loadTraceOrFatal(const std::string &path);

} // namespace spp

#endif // SPP_TRACE_CODEC_HH
