// Persistence: trained detectors round-trip through files so a deployment
// can load the exact model the evaluation measured.
//
// All files are written crash-safely (temp file + atomic rename) inside a
// checksummed envelope (runtime/atomic_file.hpp): a magic/version header
// plus an FNV-1a checksum, so loaders reject truncated, corrupted, or
// wrong-type files with a clear std::runtime_error instead of silently
// loading garbage.
#pragma once

#include <memory>
#include <string>

#include "core/detector.hpp"

namespace mev::core {

/// Writes `<path_prefix>.net` (binary network) and `<path_prefix>.transform`
/// (text transform), each atomically and checksummed. Supports
/// CountTransform- and BinaryTransform-based pipelines; throws
/// std::runtime_error on I/O failure or unknown transform types.
void save_detector(const MalwareDetector& detector,
                   const std::string& path_prefix);

/// Loads a detector saved by save_detector, binding it to `vocab` (which
/// must have the same size the detector was trained with).
std::unique_ptr<MalwareDetector> load_detector(const std::string& path_prefix,
                                               const data::ApiVocab& vocab);

}  // namespace mev::core
