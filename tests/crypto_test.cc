#include <gtest/gtest.h>

#include <cstring>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "crypto/merkle.h"
#include "crypto/sha256.h"
#include "crypto/sha256_internal.h"
#include "crypto/signatures.h"

namespace consensus40::crypto {
namespace {

// FIPS 180-4 / NIST test vectors.
TEST(Sha256Test, EmptyString) {
  EXPECT_EQ(DigestToHex(Sha256::Hash("")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, Abc) {
  EXPECT_EQ(DigestToHex(Sha256::Hash("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, TwoBlockMessage) {
  EXPECT_EQ(DigestToHex(Sha256::Hash(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, MillionA) {
  Sha256 h;
  std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.Update(chunk);
  EXPECT_EQ(DigestToHex(h.Finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, IncrementalMatchesOneShot) {
  std::string data = "the quick brown fox jumps over the lazy dog";
  for (size_t split = 0; split <= data.size(); ++split) {
    Sha256 h;
    h.Update(data.substr(0, split));
    h.Update(data.substr(split));
    EXPECT_EQ(h.Finish(), Sha256::Hash(data)) << "split=" << split;
  }
}

// Deterministic bytes: no runs of equal bytes, every byte value reached.
std::string PatternBytes(size_t len) {
  std::string s(len, '\0');
  for (size_t i = 0; i < len; ++i) {
    s[i] = static_cast<char>((i * 131 + 7) & 0xff);
  }
  return s;
}

// Every length 0-300 crosses the 55/56 (length field no longer fits), 63/64
// (exact block) and 119/120 padding boundaries; each length is hashed in
// one shot, in every two-way split and in one three-way split.
TEST(Sha256Test, SplitUpdatesMatchOneShotForEveryLength) {
  for (size_t len = 0; len <= 300; ++len) {
    std::string data = PatternBytes(len);
    Digest expected = Sha256::Hash(data);
    for (size_t split = 0; split <= len; ++split) {
      Sha256 h;
      h.Update(data.data(), split);
      h.Update(data.data() + split, len - split);
      ASSERT_EQ(h.Finish(), expected) << "len=" << len << " split=" << split;
    }
    size_t a = len / 3, b = 2 * len / 3;
    Sha256 h;
    h.Update(data.data(), a);
    h.Update(data.data() + a, b - a);
    h.Update(data.data() + b, len - b);
    ASSERT_EQ(h.Finish(), expected) << "len=" << len << " three-way";
  }
}

// Digests of PatternBytes(len) on each side of the 56- and 64-byte padding
// boundaries, pinned from the scalar implementation and cross-checked
// against an independent SHA-256.
TEST(Sha256Test, PinnedDigestsAroundPaddingBoundaries) {
  const std::pair<size_t, const char*> kPinned[] = {
      {1, "ca358758f6d27e6cf45272937977a748fd88391db679ceda7dc7bf1f005ee879"},
      {54, "df0dfd870292b2cb91ca3d2df4aeca24947f6ecc609d3bf6ed64dea8a4b5be69"},
      {55, "16ed9c4697ca11d5f6fb25ea7900252dd4cb97215d7f6d0b2bb3e2a86ac0ec72"},
      {56, "939ada93b2fe1e9c596d767bb408567c83e253667f0b25e5be8e16f35f2cbac9"},
      {57, "ab84281f3b181e6cfc7cf870c7f3e7912be6fd1ac49c7dd6b21f6c25bb9a5eaa"},
      {63, "6073f83b09ae82016cdbe24c18996c48f0eaa08ca675d0f6b90b807fc29e0149"},
      {64, "b337ba9b0c69c391364e985fdcb23a889887e59800832c92fbfa22b8a3c40304"},
      {65, "9d6a3fb113b586b4ab97bc11c993a27bd9b7bbcb756e0646083dc47a679600e6"},
      {119, "9773fbac8194c3d789af101b49b6a26073076895ef6e0f658432849dd477a43f"},
      {120, "070a538f085dd94821d4dc197c5c8b791051891d4fa2a1bf25d3c275236676f7"},
      {128, "485a94e53eba9717a5d8b7b4489cad92a752f1c5722e7dfd29dd164b7c438d11"},
      {300, "cf2eb35169ce035ca6dfb9c3a303d1495473b02fd17c5635008f1e659b733d8f"},
  };
  for (const auto& [len, hex] : kPinned) {
    EXPECT_EQ(DigestToHex(Sha256::Hash(PatternBytes(len))), hex)
        << "len=" << len;
  }
}

// The SHA-extensions kernel against the portable one on seeded random
// states and blocks, one to four blocks per call.
TEST(Sha256KernelTest, ShaNiMatchesPortable) {
  internal::CompressFn sha_ni = internal::ShaNiCompress();
  if (sha_ni == nullptr) {
    GTEST_SKIP() << "this CPU or build has no SHA extensions";
  }
  std::mt19937_64 rng(20201);
  for (int trial = 0; trial < 2000; ++trial) {
    uint32_t portable[8], fast[8];
    for (uint32_t& word : portable) word = static_cast<uint32_t>(rng());
    std::memcpy(fast, portable, sizeof(portable));
    size_t num_blocks = 1 + trial % 4;
    uint8_t blocks[4 * 64];
    for (size_t i = 0; i < 64 * num_blocks; ++i) {
      blocks[i] = static_cast<uint8_t>(rng());
    }
    internal::CompressPortable(portable, blocks, num_blocks);
    sha_ni(fast, blocks, num_blocks);
    ASSERT_EQ(std::memcmp(portable, fast, sizeof(fast)), 0)
        << "trial=" << trial;
  }
}

TEST(Sha256Test, DoubleHashIsHashOfHash) {
  std::string data = "block header";
  Digest once = Sha256::Hash(data);
  Digest twice = Sha256::Hash(once.data(), once.size());
  EXPECT_EQ(Sha256::DoubleHash(data.data(), data.size()), twice);
}

TEST(Sha256Test, LeadingZeroBits) {
  Digest d{};
  EXPECT_EQ(LeadingZeroBits(d), 256);
  d[0] = 0x80;
  EXPECT_EQ(LeadingZeroBits(d), 0);
  d[0] = 0x01;
  EXPECT_EQ(LeadingZeroBits(d), 7);
  d[0] = 0x00;
  d[1] = 0x10;
  EXPECT_EQ(LeadingZeroBits(d), 11);
}

TEST(Sha256Test, DigestLessIsLexicographic) {
  Digest a{}, b{};
  b[31] = 1;
  EXPECT_TRUE(DigestLess(a, b));
  EXPECT_FALSE(DigestLess(b, a));
  EXPECT_FALSE(DigestLess(a, a));
}

TEST(MerkleTest, EmptyTreeIsZero) {
  EXPECT_EQ(MerkleRoot({}), Digest{});
}

TEST(MerkleTest, SingleLeafIsItself) {
  Digest leaf = Sha256::Hash("tx");
  EXPECT_EQ(MerkleRoot({leaf}), leaf);
}

TEST(MerkleTest, RootChangesWithAnyLeaf) {
  std::vector<Digest> leaves;
  for (int i = 0; i < 5; ++i) {
    leaves.push_back(Sha256::Hash("tx" + std::to_string(i)));
  }
  Digest root = MerkleRoot(leaves);
  for (int i = 0; i < 5; ++i) {
    auto tampered = leaves;
    tampered[i] = Sha256::Hash("evil");
    EXPECT_NE(MerkleRoot(tampered), root) << "leaf " << i;
  }
}

TEST(MerkleTest, ProofVerifiesForEveryLeafAndSize) {
  for (int n = 1; n <= 12; ++n) {
    std::vector<Digest> leaves;
    for (int i = 0; i < n; ++i) {
      leaves.push_back(Sha256::Hash("tx" + std::to_string(i)));
    }
    Digest root = MerkleRoot(leaves);
    for (int i = 0; i < n; ++i) {
      MerkleProof proof = BuildMerkleProof(leaves, i);
      EXPECT_TRUE(VerifyMerkleProof(leaves[i], proof, root))
          << "n=" << n << " i=" << i;
      // A different leaf must not verify with this proof.
      EXPECT_FALSE(VerifyMerkleProof(Sha256::Hash("evil"), proof, root));
    }
  }
}

TEST(SignatureTest, SignVerifyRoundTrip) {
  KeyRegistry registry(42, 4);
  Digest d = Sha256::Hash("value");
  Signature sig = registry.Sign(2, d);
  EXPECT_EQ(sig.signer, 2);
  EXPECT_TRUE(registry.Verify(sig, d));
}

TEST(SignatureTest, WrongDigestFails) {
  KeyRegistry registry(42, 4);
  Signature sig = registry.Sign(1, Sha256::Hash("value"));
  EXPECT_FALSE(registry.Verify(sig, Sha256::Hash("other")));
}

TEST(SignatureTest, ForgeryImpossible) {
  KeyRegistry registry(42, 4);
  Digest d = Sha256::Hash("value");
  // A Byzantine node relabeling its own signature as node 0's must fail.
  Signature sig = registry.Sign(3, d);
  sig.signer = 0;
  EXPECT_FALSE(registry.Verify(sig, d));
}

TEST(SignatureTest, OutOfRangeSignerRejected) {
  KeyRegistry registry(42, 4);
  Signature sig;
  sig.signer = 17;
  EXPECT_FALSE(registry.Verify(sig, Sha256::Hash("x")));
}

TEST(SignatureTest, MacBoundToBothEndpoints) {
  KeyRegistry registry(7, 4);
  Digest d = Sha256::Hash("req");
  Digest mac = registry.Mac(0, 1, d);
  EXPECT_TRUE(registry.VerifyMac(0, 1, d, mac));
  EXPECT_FALSE(registry.VerifyMac(0, 2, d, mac));
  EXPECT_FALSE(registry.VerifyMac(1, 0, d, mac));
}

TEST(AggregateCertTest, ThresholdEnforced) {
  KeyRegistry registry(9, 7);
  Digest value = Sha256::Hash("block");
  AggregateCertificate cert;
  cert.value = value;
  for (int i = 0; i < 5; ++i) cert.shares.push_back(registry.Sign(i, value));
  EXPECT_TRUE(cert.Verify(registry, 5));
  EXPECT_FALSE(cert.Verify(registry, 6));
}

TEST(AggregateCertTest, DuplicateSignersDontCount) {
  KeyRegistry registry(9, 7);
  Digest value = Sha256::Hash("block");
  AggregateCertificate cert;
  cert.value = value;
  Signature s = registry.Sign(0, value);
  for (int i = 0; i < 5; ++i) cert.shares.push_back(s);
  EXPECT_FALSE(cert.Verify(registry, 2));
}

TEST(AggregateCertTest, BadShareInvalidatesCert) {
  KeyRegistry registry(9, 7);
  Digest value = Sha256::Hash("block");
  AggregateCertificate cert;
  cert.value = value;
  for (int i = 0; i < 5; ++i) cert.shares.push_back(registry.Sign(i, value));
  cert.shares[2].tag[0] ^= 1;
  EXPECT_FALSE(cert.Verify(registry, 3));
}

TEST(UsigTest, CountersAreSequentialPerSigner) {
  KeyRegistry registry(5, 3);
  Usig usig(&registry);
  Digest d = Sha256::Hash("m");
  Usig::UI u1 = usig.CreateUi(0, d);
  Usig::UI u2 = usig.CreateUi(0, d);
  Usig::UI other = usig.CreateUi(1, d);
  EXPECT_EQ(u1.counter, 1u);
  EXPECT_EQ(u2.counter, 2u);
  EXPECT_EQ(other.counter, 1u);
  EXPECT_EQ(usig.LastCounter(0), 2u);
}

TEST(UsigTest, VerifyBindsCounterAndDigest) {
  KeyRegistry registry(5, 3);
  Usig usig(&registry);
  Digest d = Sha256::Hash("m");
  Usig::UI ui = usig.CreateUi(0, d);
  EXPECT_TRUE(usig.VerifyUi(ui, d));
  EXPECT_FALSE(usig.VerifyUi(ui, Sha256::Hash("other")));

  // Equivocation attempt: replaying the counter with another digest fails
  // because the tag binds counter and digest.
  Usig::UI forged = ui;
  forged.counter = 99;
  EXPECT_FALSE(usig.VerifyUi(forged, d));
}

TEST(UsigTest, CannotObtainDuplicateCounters) {
  // The USIG object itself is the trusted hardware: two CreateUi calls can
  // never return the same counter, so a Byzantine replica cannot send two
  // different messages with one counter value.
  KeyRegistry registry(5, 3);
  Usig usig(&registry);
  std::set<uint64_t> seen;
  for (int i = 0; i < 100; ++i) {
    Usig::UI ui = usig.CreateUi(2, Sha256::Hash("m" + std::to_string(i)));
    EXPECT_TRUE(seen.insert(ui.counter).second);
  }
}

}  // namespace
}  // namespace consensus40::crypto
