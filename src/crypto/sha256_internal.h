#ifndef CONSENSUS40_CRYPTO_SHA256_INTERNAL_H_
#define CONSENSUS40_CRYPTO_SHA256_INTERNAL_H_

// The SHA-256 compression functions behind crypto::Sha256, exposed only so
// tests can check them against each other. Library code hashes through
// Sha256, which picks one of them by CPUID.

#include <cstddef>
#include <cstdint>

namespace consensus40::crypto::internal {

/// Compresses `num_blocks` consecutive 64-byte blocks into `state`.
using CompressFn = void (*)(uint32_t state[8], const uint8_t* blocks,
                            size_t num_blocks);

/// The portable compression function: plain 32-bit arithmetic, any CPU.
void CompressPortable(uint32_t state[8], const uint8_t* blocks,
                      size_t num_blocks);

/// The x86 SHA-extensions compression function, or nullptr when this build
/// is not for x86-64 or the CPU lacks SHA, SSSE3 or SSE4.1.
CompressFn ShaNiCompress();

}  // namespace consensus40::crypto::internal

#endif  // CONSENSUS40_CRYPTO_SHA256_INTERNAL_H_
