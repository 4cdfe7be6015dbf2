// FNV-1a 64-bit hashing — the repo's one non-cryptographic hash.
//
// Two subsystems rely on the same function: kernel cache entry stems
// (key -> hex file name) and the binary kernel format's trailing
// checksum. One shared definition keeps them from drifting: both are
// persisted contracts, so the constants below must never change for v1
// artifacts.
#pragma once

#include <cstdint>
#include <string_view>

namespace cellsync {

/// FNV-1a 64-bit hash of a byte sequence.
inline std::uint64_t fnv1a64(std::string_view bytes) {
    std::uint64_t hash = 14695981039346656037ull;  // FNV-1a offset basis
    for (unsigned char c : bytes) {
        hash ^= c;
        hash *= 1099511628211ull;  // FNV prime
    }
    return hash;
}

}  // namespace cellsync
