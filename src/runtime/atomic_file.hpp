// Crash-safe file persistence: write-to-temp + atomic rename, plus a
// checksummed envelope so readers reject truncated, corrupted, or
// wrong-type files with a clear error instead of loading garbage.
//
// Envelope layout (host-endian PODs, matching the network serializer):
//   u32 magic | u32 version | u64 payload_size | u64 fnv1a64(payload) |
//   payload bytes
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace mev::runtime {

/// FNV-1a 64-bit hash of a byte string.
std::uint64_t fnv1a64(std::string_view bytes) noexcept;

/// Writes `contents` to `<path>.tmp` in the same directory, then renames
/// over `path` — readers see either the old file or the complete new one,
/// never a partial write. Throws std::runtime_error on I/O failure.
void write_file_atomic(const std::string& path, std::string_view contents);

/// Atomically writes `payload` wrapped in a checksummed envelope.
void write_envelope_atomic(const std::string& path, std::uint32_t magic,
                           std::uint32_t version, std::string_view payload);

/// Reads and verifies an envelope, returning the payload. `what` names the
/// file kind in error messages (e.g. "detector network"). Throws
/// std::runtime_error when the file is missing, truncated, has the wrong
/// magic or version, or fails its checksum.
std::string read_envelope(const std::string& path, std::uint32_t magic,
                          std::uint32_t expected_version,
                          const std::string& what);

}  // namespace mev::runtime
