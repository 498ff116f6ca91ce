#include "crypto/sha256.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "crypto/sha256_internal.h"

#if defined(__x86_64__)
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace consensus40::crypto {

namespace {

alignas(16) constexpr uint32_t kRoundConstants[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

inline uint32_t Rotr(uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

// Big-endian stores of whole words. Byte-at-a-time stores cost a stall
// when the next compression (or a digest hashed again) reads the same
// bytes back with wider loads.
inline void StoreBigEndian32(uint8_t* p, uint32_t v) {
  if constexpr (std::endian::native == std::endian::little) {
    v = __builtin_bswap32(v);
  }
  std::memcpy(p, &v, sizeof(v));
}

inline void StoreBigEndian64(uint8_t* p, uint64_t v) {
  if constexpr (std::endian::native == std::endian::little) {
    v = __builtin_bswap64(v);
  }
  std::memcpy(p, &v, sizeof(v));
}

#if defined(__x86_64__)

bool CpuHasShaNi() {
  unsigned eax, ebx, ecx, edx;
  if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx)) return false;
  bool ssse3 = (ecx & (1u << 9)) != 0;
  bool sse41 = (ecx & (1u << 19)) != 0;
  if (!__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx)) return false;
  bool sha = (ebx & (1u << 29)) != 0;
  return ssse3 && sse41 && sha;
}

// The state lives in two registers as the SHA instructions want it:
// ABEF and CDGH. Each sha256rnds2 runs two rounds, so a 4-round group is
// two of them over the low then the high half of W+K; sha256msg1/msg2
// extend the message schedule four words at a time.
__attribute__((target("sha,sse4.1"))) void CompressShaNi(
    uint32_t state[8], const uint8_t* blocks, size_t num_blocks) {
  // Byte-swaps each 32-bit word: the message is big-endian.
  const __m128i kByteSwap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
  __m128i dcba = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
  __m128i hgfe = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));
  __m128i cdab = _mm_shuffle_epi32(dcba, 0xb1);
  __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1b);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);

  for (; num_blocks > 0; --num_blocks, blocks += 64) {
    const __m128i abef_in = abef, cdgh_in = cdgh;
    __m128i w[4];
    for (int i = 0; i < 4; ++i) {
      w[i] = _mm_shuffle_epi8(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(blocks + 16 * i)),
          kByteSwap);
    }
#pragma GCC unroll 16
    for (int g = 0; g < 16; ++g) {
      __m128i wk = _mm_add_epi32(
          w[g & 3], _mm_load_si128(reinterpret_cast<const __m128i*>(
                        kRoundConstants + 4 * g)));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0e));
      if (g < 12) {
        // W[4g+16..4g+19] from groups g, g+1, g+2 (words 9-12), g+3.
        __m128i next = _mm_add_epi32(
            _mm_sha256msg1_epu32(w[g & 3], w[(g + 1) & 3]),
            _mm_alignr_epi8(w[(g + 3) & 3], w[(g + 2) & 3], 4));
        w[g & 3] = _mm_sha256msg2_epu32(next, w[(g + 3) & 3]);
      }
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  __m128i feba = _mm_shuffle_epi32(abef, 0x1b);
  __m128i dchg = _mm_shuffle_epi32(cdgh, 0xb1);
  dcba = _mm_blend_epi16(feba, dchg, 0xf0);
  hgfe = _mm_alignr_epi8(dchg, feba, 8);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state), dcba);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4), hgfe);
}

#endif  // defined(__x86_64__)

// Chosen once, on first use: a function-local static cannot depend on the
// order of static initializers across translation units.
internal::CompressFn Compress() {
  static const internal::CompressFn fn = [] {
    internal::CompressFn sha_ni = internal::ShaNiCompress();
    return sha_ni != nullptr ? sha_ni : &internal::CompressPortable;
  }();
  return fn;
}

}  // namespace

namespace internal {

void CompressPortable(uint32_t state[8], const uint8_t* blocks,
                      size_t num_blocks) {
  for (; num_blocks > 0; --num_blocks, blocks += 64) {
    uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = (static_cast<uint32_t>(blocks[4 * i]) << 24) |
             (static_cast<uint32_t>(blocks[4 * i + 1]) << 16) |
             (static_cast<uint32_t>(blocks[4 * i + 2]) << 8) |
             static_cast<uint32_t>(blocks[4 * i + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      uint32_t s0 =
          Rotr(w[i - 15], 7) ^ Rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      uint32_t s1 =
          Rotr(w[i - 2], 17) ^ Rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
    for (int i = 0; i < 64; ++i) {
      uint32_t s1 = Rotr(e, 6) ^ Rotr(e, 11) ^ Rotr(e, 25);
      uint32_t ch = (e & f) ^ (~e & g);
      uint32_t temp1 = h + s1 + ch + kRoundConstants[i] + w[i];
      uint32_t s0 = Rotr(a, 2) ^ Rotr(a, 13) ^ Rotr(a, 22);
      uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      uint32_t temp2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + temp1;
      d = c;
      c = b;
      b = a;
      a = temp1 + temp2;
    }
    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

CompressFn ShaNiCompress() {
#if defined(__x86_64__)
  if (CpuHasShaNi()) return &CompressShaNi;
#endif
  return nullptr;
}

}  // namespace internal

Sha256::Sha256() : bit_count_(0), buffer_len_(0) {
  state_[0] = 0x6a09e667;
  state_[1] = 0xbb67ae85;
  state_[2] = 0x3c6ef372;
  state_[3] = 0xa54ff53a;
  state_[4] = 0x510e527f;
  state_[5] = 0x9b05688c;
  state_[6] = 0x1f83d9ab;
  state_[7] = 0x5be0cd19;
}

void Sha256::Update(const void* data, size_t len) {
  if (len == 0) return;
  const uint8_t* p = static_cast<const uint8_t*>(data);
  bit_count_ += static_cast<uint64_t>(len) * 8;
  if (buffer_len_ > 0) {
    size_t take = std::min(len, 64 - buffer_len_);
    std::memcpy(buffer_ + buffer_len_, p, take);
    buffer_len_ += take;
    p += take;
    len -= take;
    if (buffer_len_ < 64) return;
    Compress()(state_, buffer_, 1);
    buffer_len_ = 0;
  }
  // Whole blocks straight from the input; only the tail is buffered.
  size_t whole = len / 64;
  if (whole > 0) Compress()(state_, p, whole);
  buffer_len_ = len % 64;
  if (buffer_len_ > 0) std::memcpy(buffer_, p + 64 * whole, buffer_len_);
}

Digest Sha256::Finish() {
  // Padding: 0x80, zeros, then the 64-bit big-endian bit length in the
  // last 8 bytes of the final block (a second block if it does not fit).
  buffer_[buffer_len_++] = 0x80;
  if (buffer_len_ > 56) {
    std::memset(buffer_ + buffer_len_, 0, 64 - buffer_len_);
    Compress()(state_, buffer_, 1);
    buffer_len_ = 0;
  }
  std::memset(buffer_ + buffer_len_, 0, 56 - buffer_len_);
  StoreBigEndian64(buffer_ + 56, bit_count_);
  Compress()(state_, buffer_, 1);
  buffer_len_ = 0;

  Digest out;
  for (int i = 0; i < 8; ++i) StoreBigEndian32(out.data() + 4 * i, state_[i]);
  return out;
}

Digest Sha256::Hash(std::string_view data) {
  return Hash(data.data(), data.size());
}

Digest Sha256::Hash(const void* data, size_t len) {
  Sha256 h;
  h.Update(data, len);
  return h.Finish();
}

Digest Sha256::DoubleHash(const void* data, size_t len) {
  Digest first = Hash(data, len);
  return Hash(first.data(), first.size());
}

std::string DigestToHex(const Digest& d) {
  static const char* kHex = "0123456789abcdef";
  std::string out;
  out.reserve(64);
  for (uint8_t byte : d) {
    out.push_back(kHex[byte >> 4]);
    out.push_back(kHex[byte & 0xf]);
  }
  return out;
}

int LeadingZeroBits(const Digest& d) {
  int bits = 0;
  for (uint8_t byte : d) {
    if (byte == 0) {
      bits += 8;
      continue;
    }
    for (int b = 7; b >= 0; --b) {
      if (byte & (1 << b)) return bits;
      ++bits;
    }
  }
  return bits;
}

bool DigestLess(const Digest& a, const Digest& b) {
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i] != b[i]) return a[i] < b[i];
  }
  return false;
}

}  // namespace consensus40::crypto
