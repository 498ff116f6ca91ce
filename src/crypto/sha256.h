#ifndef CONSENSUS40_CRYPTO_SHA256_H_
#define CONSENSUS40_CRYPTO_SHA256_H_

#include <array>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

namespace consensus40::crypto {

/// A 256-bit digest.
using Digest = std::array<uint8_t, 32>;

/// Hash-table hasher for digests: their first 8 bytes, which are already
/// uniformly distributed.
struct DigestHash {
  size_t operator()(const Digest& d) const {
    uint64_t prefix;
    std::memcpy(&prefix, d.data(), sizeof(prefix));
    return static_cast<size_t>(prefix);
  }
};

/// Incremental SHA-256 (FIPS 180-4), implemented from scratch: the
/// blockchain module mines against real SHA-256 at low difficulty and the
/// signature scheme is built on it. Compression runs on the x86 SHA
/// extensions when the CPU has them and on portable code otherwise; the
/// digests are the same either way.
class Sha256 {
 public:
  Sha256();

  /// Absorbs `len` bytes.
  void Update(const void* data, size_t len);
  void Update(std::string_view s) { Update(s.data(), s.size()); }

  /// Finalizes and returns the digest. The object must not be reused after
  /// Finish without re-construction.
  Digest Finish();

  /// One-shot convenience.
  static Digest Hash(std::string_view data);
  static Digest Hash(const void* data, size_t len);

  /// SHA-256d (double hash), as used by Bitcoin block headers.
  static Digest DoubleHash(const void* data, size_t len);

 private:
  uint32_t state_[8];
  uint64_t bit_count_;
  uint8_t buffer_[64];
  size_t buffer_len_;
};

/// Lowercase hex rendering of a digest.
std::string DigestToHex(const Digest& d);

/// Number of leading zero bits of the digest interpreted big-endian. Used by
/// proof-of-work difficulty checks.
int LeadingZeroBits(const Digest& d);

/// Big-endian lexicographic comparison: true iff a < b. Used to compare a
/// block hash against a difficulty target.
bool DigestLess(const Digest& a, const Digest& b);

}  // namespace consensus40::crypto

#endif  // CONSENSUS40_CRYPTO_SHA256_H_
