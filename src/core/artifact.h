#pragma once

// Persistent CompiledDtd artifacts.
//
// CompileDtd is fully deterministic in the DTD, but until this layer its
// output died with the process — every CLI run and bench re-derived grammar
// facts, Glushkov DFAs, the minimal-tree plan, and the attribute-pair LP
// skeleton from scratch. This header gives the Σ-independent bundle a
// durable form: a versioned, endian-stable container (base/serde) whose
// flat sections — DFA transition tables, LP tableau rows — load zero-copy
// from a mmap'd file, so a warm start does integrity checks and fix-ups
// instead of simplification, subset construction, and phase-1 simplex.
//
// Integrity is layered:
//  1. serde header + per-section FNV-1a checksums reject truncation,
//     bit flips, foreign endianness, and format-version skew;
//  2. the container's content key must equal DtdContentHash of the DTD the
//     artifact decodes to (and of the DTD the caller wants, when loading
//     through the cache);
//  3. optionally (ArtifactVerify::kDeep), CompiledDtdDigest (the semantic
//     digest over the skeleton system, variable tables, tableau, and facts)
//     is recomputed after decode and compared against the digest stamped at
//     compile time — the same bit-identical-inputs check XICC_AUDIT uses
//     for the sharing contract, so a loaded artifact provably seeds session
//     warm starts exactly like the compile it was stored from. Layer 3
//     guards against decoder bugs, not disk corruption (layers 1–2 already
//     reject every flipped bit); the round-trip tests run it on every
//     artifact shape, so the default load path skips the recompute — it
//     costs as much as the rest of the decode combined.
// Every failure is Status::kInvalidArgument; callers fall back to a cold
// CompileDtd.

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "base/status.h"
#include "core/spec_session.h"
#include "dtd/dtd.h"

namespace xicc {

/// Bump on ANY change to the serialized layout; readers reject other
/// versions and the cache treats them as misses (the version is part of the
/// cache file name, so old artifacts are simply never opened).
inline constexpr uint32_t kArtifactFormatVersion = 2;

/// FNV-1a 64 over the DTD's canonical rendering — the artifact cache key.
/// Two DTDs with the same declarations (same order, same content models)
/// hash alike regardless of how they were built.
uint64_t DtdContentHash(const Dtd& dtd);

/// Cache file name for `dtd` under the current format version:
/// "xicc-<content-hash-hex>-v<version>.xac".
std::string ArtifactFileName(const Dtd& dtd);

/// Serializes the full bundle into a standalone artifact container.
Result<std::string> SerializeCompiledDtd(const CompiledDtd& compiled);

/// Integrity depth for artifact decode (see the layer list above).
enum class ArtifactVerify {
  kChecksums,  ///< Layers 1–2: serde checksums + content-key match.
  kDeep,       ///< Additionally recompute and match the semantic digest.
};

/// Decodes an artifact. When `backing` is non-null the returned bundle's
/// flat tables point directly into `bytes` and `backing` is retained to
/// keep that memory alive (the zero-copy path); when null, flat tables are
/// copied so `bytes` may be discarded. Any integrity failure is
/// kInvalidArgument.
Result<std::shared_ptr<const CompiledDtd>> DeserializeCompiledDtd(
    std::string_view bytes, std::shared_ptr<const void> backing = nullptr,
    ArtifactVerify verify = ArtifactVerify::kChecksums);

/// Serializes and durably writes `compiled` to `path` (atomic
/// write-then-rename; concurrent readers never see a torn file).
Status StoreCompiledDtd(const CompiledDtd& compiled, const std::string& path);

/// How a LoadCompiledDtd call sourced its bytes.
struct ArtifactLoadInfo {
  bool mmap = false;   ///< Zero-copy mapping vs. read-into-memory fallback.
  size_t bytes = 0;    ///< Artifact size on disk.
};

/// Loads an artifact from disk, preferring the zero-copy mmap path and
/// falling back to a buffered read when mapping fails. The mapping (or
/// buffer) is owned by the returned bundle and lives as long as it does.
Result<std::shared_ptr<const CompiledDtd>> LoadCompiledDtd(
    const std::string& path, ArtifactLoadInfo* info = nullptr,
    ArtifactVerify verify = ArtifactVerify::kChecksums);

}  // namespace xicc
