#include <gtest/gtest.h>

#include "common/rng.h"
#include "crypto/des.h"
#include "crypto/sha256.h"
#include "crypto/sha256_detail.h"

namespace cqos::crypto {
namespace {

Bytes from_hex(const std::string& hex) {
  Bytes out;
  for (std::size_t i = 0; i < hex.size(); i += 2) {
    out.push_back(static_cast<std::uint8_t>(
        std::stoi(hex.substr(i, 2), nullptr, 16)));
  }
  return out;
}

std::string to_hex(std::span<const std::uint8_t> data) {
  static const char* digits = "0123456789abcdef";
  std::string s;
  for (auto b : data) {
    s.push_back(digits[b >> 4]);
    s.push_back(digits[b & 0xf]);
  }
  return s;
}

// --- DES ---------------------------------------------------------------------

// A FIPS 46-3 DES written straight from the standard's tables, one bit at
// a time: the reference the table-driven kernel must match bit for bit.
namespace textbook {

constexpr int kIp[64] = {
    58, 50, 42, 34, 26, 18, 10, 2, 60, 52, 44, 36, 28, 20, 12, 4,
    62, 54, 46, 38, 30, 22, 14, 6, 64, 56, 48, 40, 32, 24, 16, 8,
    57, 49, 41, 33, 25, 17, 9,  1, 59, 51, 43, 35, 27, 19, 11, 3,
    61, 53, 45, 37, 29, 21, 13, 5, 63, 55, 47, 39, 31, 23, 15, 7};
constexpr int kFp[64] = {
    40, 8, 48, 16, 56, 24, 64, 32, 39, 7, 47, 15, 55, 23, 63, 31,
    38, 6, 46, 14, 54, 22, 62, 30, 37, 5, 45, 13, 53, 21, 61, 29,
    36, 4, 44, 12, 52, 20, 60, 28, 35, 3, 43, 11, 51, 19, 59, 27,
    34, 2, 42, 10, 50, 18, 58, 26, 33, 1, 41, 9,  49, 17, 57, 25};
constexpr int kE[48] = {32, 1,  2,  3,  4,  5,  4,  5,  6,  7,  8,  9,
                        8,  9,  10, 11, 12, 13, 12, 13, 14, 15, 16, 17,
                        16, 17, 18, 19, 20, 21, 20, 21, 22, 23, 24, 25,
                        24, 25, 26, 27, 28, 29, 28, 29, 30, 31, 32, 1};
constexpr int kP[32] = {16, 7, 20, 21, 29, 12, 28, 17, 1,  15, 23,
                        26, 5, 18, 31, 10, 2,  8,  24, 14, 32, 27,
                        3,  9, 19, 13, 30, 6,  22, 11, 4,  25};
constexpr int kPc1[56] = {57, 49, 41, 33, 25, 17, 9,  1,  58, 50, 42, 34,
                          26, 18, 10, 2,  59, 51, 43, 35, 27, 19, 11, 3,
                          60, 52, 44, 36, 63, 55, 47, 39, 31, 23, 15, 7,
                          62, 54, 46, 38, 30, 22, 14, 6,  61, 53, 45, 37,
                          29, 21, 13, 5,  28, 20, 12, 4};
constexpr int kPc2[48] = {14, 17, 11, 24, 1,  5,  3,  28, 15, 6,  21, 10,
                          23, 19, 12, 4,  26, 8,  16, 7,  27, 20, 13, 2,
                          41, 52, 31, 37, 47, 55, 30, 40, 51, 45, 33, 48,
                          44, 49, 39, 56, 34, 53, 46, 42, 50, 36, 29, 32};
constexpr int kShifts[16] = {1, 1, 2, 2, 2, 2, 2, 2, 1, 2, 2, 2, 2, 2, 2, 1};
constexpr int kS[8][4][16] = {
    {{14, 4, 13, 1, 2, 15, 11, 8, 3, 10, 6, 12, 5, 9, 0, 7},
     {0, 15, 7, 4, 14, 2, 13, 1, 10, 6, 12, 11, 9, 5, 3, 8},
     {4, 1, 14, 8, 13, 6, 2, 11, 15, 12, 9, 7, 3, 10, 5, 0},
     {15, 12, 8, 2, 4, 9, 1, 7, 5, 11, 3, 14, 10, 0, 6, 13}},
    {{15, 1, 8, 14, 6, 11, 3, 4, 9, 7, 2, 13, 12, 0, 5, 10},
     {3, 13, 4, 7, 15, 2, 8, 14, 12, 0, 1, 10, 6, 9, 11, 5},
     {0, 14, 7, 11, 10, 4, 13, 1, 5, 8, 12, 6, 9, 3, 2, 15},
     {13, 8, 10, 1, 3, 15, 4, 2, 11, 6, 7, 12, 0, 5, 14, 9}},
    {{10, 0, 9, 14, 6, 3, 15, 5, 1, 13, 12, 7, 11, 4, 2, 8},
     {13, 7, 0, 9, 3, 4, 6, 10, 2, 8, 5, 14, 12, 11, 15, 1},
     {13, 6, 4, 9, 8, 15, 3, 0, 11, 1, 2, 12, 5, 10, 14, 7},
     {1, 10, 13, 0, 6, 9, 8, 7, 4, 15, 14, 3, 11, 5, 2, 12}},
    {{7, 13, 14, 3, 0, 6, 9, 10, 1, 2, 8, 5, 11, 12, 4, 15},
     {13, 8, 11, 5, 6, 15, 0, 3, 4, 7, 2, 12, 1, 10, 14, 9},
     {10, 6, 9, 0, 12, 11, 7, 13, 15, 1, 3, 14, 5, 2, 8, 4},
     {3, 15, 0, 6, 10, 1, 13, 8, 9, 4, 5, 11, 12, 7, 2, 14}},
    {{2, 12, 4, 1, 7, 10, 11, 6, 8, 5, 3, 15, 13, 0, 14, 9},
     {14, 11, 2, 12, 4, 7, 13, 1, 5, 0, 15, 10, 3, 9, 8, 6},
     {4, 2, 1, 11, 10, 13, 7, 8, 15, 9, 12, 5, 6, 3, 0, 14},
     {11, 8, 12, 7, 1, 14, 2, 13, 6, 15, 0, 9, 10, 4, 5, 3}},
    {{12, 1, 10, 15, 9, 2, 6, 8, 0, 13, 3, 4, 14, 7, 5, 11},
     {10, 15, 4, 2, 7, 12, 9, 5, 6, 1, 13, 14, 0, 11, 3, 8},
     {9, 14, 15, 5, 2, 8, 12, 3, 7, 0, 4, 10, 1, 13, 11, 6},
     {4, 3, 2, 12, 9, 5, 15, 10, 11, 14, 1, 7, 6, 0, 8, 13}},
    {{4, 11, 2, 14, 15, 0, 8, 13, 3, 12, 9, 7, 5, 10, 6, 1},
     {13, 0, 11, 7, 4, 9, 1, 10, 14, 3, 5, 12, 2, 15, 8, 6},
     {1, 4, 11, 13, 12, 3, 7, 14, 10, 15, 6, 8, 0, 5, 9, 2},
     {6, 11, 13, 8, 1, 4, 10, 7, 9, 5, 0, 15, 14, 2, 3, 12}},
    {{13, 2, 8, 4, 6, 15, 11, 1, 10, 9, 3, 14, 5, 0, 12, 7},
     {1, 15, 13, 8, 10, 3, 7, 4, 12, 5, 6, 11, 0, 14, 9, 2},
     {7, 11, 4, 1, 9, 12, 14, 2, 0, 6, 10, 13, 15, 3, 5, 8},
     {2, 1, 14, 7, 4, 10, 8, 13, 15, 12, 9, 0, 3, 5, 6, 11}}};

// Bit i of the result (1-based from the MSB of `out_bits`) is bit table[i]
// of the `in_bits`-wide input.
std::uint64_t permute(std::uint64_t in, int in_bits, const int* table,
                      int out_bits) {
  std::uint64_t out = 0;
  for (int i = 0; i < out_bits; ++i) {
    out = (out << 1) | ((in >> (in_bits - table[i])) & 1);
  }
  return out;
}

std::uint64_t des(std::uint64_t key, std::uint64_t block, bool decrypt) {
  std::uint64_t cd = permute(key, 64, kPc1, 56);
  std::uint64_t c = cd >> 28, d = cd & 0x0fffffff;
  std::uint64_t subkeys[16];
  for (int round = 0; round < 16; ++round) {
    for (int s = 0; s < kShifts[round]; ++s) {
      c = ((c << 1) | (c >> 27)) & 0x0fffffff;
      d = ((d << 1) | (d >> 27)) & 0x0fffffff;
    }
    subkeys[round] = permute((c << 28) | d, 56, kPc2, 48);
  }
  std::uint64_t ip = permute(block, 64, kIp, 64);
  std::uint64_t l = ip >> 32, r = ip & 0xffffffff;
  for (int round = 0; round < 16; ++round) {
    std::uint64_t x =
        permute(r, 32, kE, 48) ^ subkeys[decrypt ? 15 - round : round];
    std::uint64_t s_out = 0;
    for (int box = 0; box < 8; ++box) {
      int six = static_cast<int>((x >> (42 - 6 * box)) & 0x3f);
      int row = ((six >> 4) & 2) | (six & 1);
      int col = (six >> 1) & 0xf;
      s_out = (s_out << 4) | static_cast<std::uint64_t>(kS[box][row][col]);
    }
    std::uint64_t next = l ^ permute(s_out, 32, kP, 32);
    l = r;
    r = next;
  }
  return permute((r << 32) | l, 64, kFp, 64);
}

}  // namespace textbook

std::uint64_t be64(const std::uint8_t* b) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v = (v << 8) | b[i];
  return v;
}

// The kernel against the bit-at-a-time reference on random keys and blocks,
// both directions: a wrong IP/FP ordering or round-key split shows here.
TEST(Des, MatchesTextbookReferenceOnRandomBlocks) {
  Rng rng(46);
  for (int i = 0; i < 10000; ++i) {
    std::uint8_t key[8], in[8], enc[8], dec[8];
    for (auto& b : key) b = static_cast<std::uint8_t>(rng.next_below(256));
    for (auto& b : in) b = static_cast<std::uint8_t>(rng.next_below(256));
    Des des(key);
    des.encrypt_block(in, enc);
    des.decrypt_block(in, dec);
    ASSERT_EQ(be64(enc), textbook::des(be64(key), be64(in), false))
        << "encrypt, pair " << i;
    ASSERT_EQ(be64(dec), textbook::des(be64(key), be64(in), true))
        << "decrypt, pair " << i;
  }
}

// The classic worked example (Stallings / FIPS test vector).
TEST(Des, KnownVectorEncrypt) {
  Bytes key = from_hex("133457799bbcdff1");
  Bytes pt = from_hex("0123456789abcdef");
  Des des(key);
  std::uint8_t ct[8];
  des.encrypt_block(pt.data(), ct);
  EXPECT_EQ(to_hex(ct), "85e813540f0ab405");
}

TEST(Des, KnownVectorDecrypt) {
  Bytes key = from_hex("133457799bbcdff1");
  Bytes ct = from_hex("85e813540f0ab405");
  Des des(key);
  std::uint8_t pt[8];
  des.decrypt_block(ct.data(), pt);
  EXPECT_EQ(to_hex(pt), "0123456789abcdef");
}

// Weak-key all-zeros vector: DES(0,0) = 8ca64de9c1b123a7.
TEST(Des, AllZeroVector) {
  Bytes key(8, 0);
  Bytes pt(8, 0);
  Des des(key);
  std::uint8_t ct[8];
  des.encrypt_block(pt.data(), ct);
  EXPECT_EQ(to_hex(ct), "8ca64de9c1b123a7");
}

// FIPS 46-3: the low bit of each key byte is a parity bit and does not
// affect the key schedule.
TEST(Des, ParityBitsIgnored) {
  Bytes key1 = from_hex("133457799bbcdff1");
  Bytes key2 = key1;
  for (auto& b : key2) b ^= 0x01;  // flip every parity bit
  Bytes pt = from_hex("0123456789abcdef");
  std::uint8_t ct1[8], ct2[8];
  Des(key1).encrypt_block(pt.data(), ct1);
  Des(key2).encrypt_block(pt.data(), ct2);
  EXPECT_EQ(to_hex(ct1), to_hex(ct2));
}

TEST(Des, BadKeySizeThrows) {
  Bytes key(7, 0);
  EXPECT_THROW(Des d(key), Error);
}

class DesCbcRoundtrip : public ::testing::TestWithParam<std::size_t> {};

TEST_P(DesCbcRoundtrip, EncryptDecryptIsIdentity) {
  Rng rng(GetParam() * 7919 + 1);
  Bytes key = from_hex("0123456789abcdef");
  Bytes iv = from_hex("fedcba9876543210");
  Bytes pt(GetParam());
  for (auto& b : pt) b = static_cast<std::uint8_t>(rng.next_below(256));
  Bytes ct = des_cbc_encrypt(key, iv, pt);
  EXPECT_EQ(ct.size() % 8, 0u);
  EXPECT_GE(ct.size(), pt.size() + 1);  // always at least one padding byte
  EXPECT_EQ(des_cbc_decrypt(key, iv, ct), pt);
}

INSTANTIATE_TEST_SUITE_P(Sizes, DesCbcRoundtrip,
                         ::testing::Values(0, 1, 7, 8, 9, 15, 16, 63, 64, 255,
                                           1024));

// FIPS 81 Appendix C (CBC mode): three chained blocks, then the PKCS#7
// padding block, which the vector leaves out.
TEST(DesCbc, Fips81KnownAnswer) {
  Bytes key = from_hex("0123456789abcdef");
  Bytes iv = from_hex("1234567890abcdef");
  std::string text = "Now is the time for all ";
  Bytes pt(text.begin(), text.end());
  Bytes ct = des_cbc_encrypt(key, iv, pt);
  EXPECT_EQ(to_hex(ct),
            "e5c7cdde872bf27c43e934008c389c0f683788499a7c05f6"
            "62c16a27e4fcf277");
  EXPECT_EQ(des_cbc_decrypt(key, iv, ct), pt);
}

TEST(DesCbc, WrongKeyFailsOrGarbles) {
  Bytes key = from_hex("0123456789abcdef");
  // Must differ in a non-parity bit: DES ignores the low bit of each key
  // byte, so e.g. ...ef vs ...ee would be the SAME effective key.
  Bytes wrong = from_hex("0323456789abcdef");
  Bytes iv(8, 0);
  Bytes pt{'s', 'e', 'c', 'r', 'e', 't'};
  Bytes ct = des_cbc_encrypt(key, iv, pt);
  try {
    Bytes out = des_cbc_decrypt(wrong, iv, ct);
    EXPECT_NE(out, pt);  // padding happened to validate: still not plaintext
  } catch (const DecodeError&) {
    SUCCEED();  // padding check rejected it
  }
}

TEST(DesCbc, CiphertextDiffersFromPlaintext) {
  Bytes key = from_hex("133457799bbcdff1");
  Bytes iv(8, 3);
  Bytes pt(64, 'A');
  Bytes ct = des_cbc_encrypt(key, iv, pt);
  EXPECT_NE(Bytes(ct.begin(), ct.begin() + 64), pt);
  // CBC: identical plaintext blocks must yield distinct ciphertext blocks.
  EXPECT_NE(Bytes(ct.begin(), ct.begin() + 8),
            Bytes(ct.begin() + 8, ct.begin() + 16));
}

TEST(DesCbc, RejectsBadLengths) {
  Bytes key(8, 1), iv(8, 0);
  EXPECT_THROW(des_cbc_decrypt(key, iv, Bytes(7, 0)), DecodeError);
  EXPECT_THROW(des_cbc_decrypt(key, iv, Bytes{}), DecodeError);
}

TEST(DesCbc, TamperedCiphertextDetectedOrGarbled) {
  Bytes key = from_hex("133457799bbcdff1");
  Bytes iv(8, 0);
  Bytes pt{'h', 'e', 'l', 'l', 'o'};
  Bytes ct = des_cbc_encrypt(key, iv, pt);
  ct[2] ^= 0x40;
  try {
    EXPECT_NE(des_cbc_decrypt(key, iv, ct), pt);
  } catch (const DecodeError&) {
    SUCCEED();
  }
}

// --- SHA-256 ------------------------------------------------------------------

TEST(Sha256, EmptyString) {
  EXPECT_EQ(to_hex(sha256({})),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  Bytes msg{'a', 'b', 'c'};
  EXPECT_EQ(to_hex(sha256(msg)),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  std::string s = "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq";
  Bytes msg(s.begin(), s.end());
  EXPECT_EQ(to_hex(sha256(msg)),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  Sha256 h;
  Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(to_hex(h.finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  Rng rng(4242);
  Bytes msg(777);
  for (auto& b : msg) b = static_cast<std::uint8_t>(rng.next_below(256));
  Sha256 h;
  std::size_t off = 0;
  while (off < msg.size()) {
    std::size_t n = std::min<std::size_t>(1 + rng.next_below(100),
                                          msg.size() - off);
    h.update(std::span(msg).subspan(off, n));
    off += n;
  }
  EXPECT_EQ(h.finish(), sha256(msg));
}

#if defined(__x86_64__)
// The SHA-extension compression against the portable rounds, on random
// states and runs of random blocks.
TEST(Sha256, ShaExtensionMatchesPortable) {
  if (!detail::sha256_cpu_has_sha_ext()) {
    GTEST_SKIP() << "CPU lacks the SHA extensions";
  }
  Rng rng(256);
  for (int i = 0; i < 2000; ++i) {
    const std::size_t nblocks = 1 + rng.next_below(4);
    Bytes blocks(64 * nblocks);
    for (auto& b : blocks) b = static_cast<std::uint8_t>(rng.next_below(256));
    std::uint32_t portable[8], sha_ext[8];
    for (int j = 0; j < 8; ++j) {
      portable[j] = sha_ext[j] = static_cast<std::uint32_t>(rng.next_u64());
    }
    detail::sha256_compress_portable(portable, blocks.data(), nblocks);
    detail::sha256_compress_sha_ext(sha_ext, blocks.data(), nblocks);
    ASSERT_TRUE(std::equal(portable, portable + 8, sha_ext)) << "run " << i;
  }
}
#endif

// One message through update() split every which way, so whole-block runs,
// buffered partial blocks and their boundaries all reach the compression.
TEST(Sha256, VariedUpdateSplitsAgree) {
  Rng rng(1060);
  Bytes msg(1060);
  for (auto& b : msg) b = static_cast<std::uint8_t>(rng.next_below(256));
  const Sha256Digest whole = sha256(msg);
  for (std::size_t first : {0, 1, 55, 63, 64, 65, 127, 128, 640, 1059}) {
    Sha256 h;
    h.update(std::span(msg).first(first));
    std::size_t off = first;
    while (off < msg.size()) {
      std::size_t n = std::min<std::size_t>(1 + rng.next_below(300),
                                            msg.size() - off);
      h.update(std::span(msg).subspan(off, n));
      off += n;
    }
    EXPECT_EQ(h.finish(), whole) << "first split " << first;
  }
}

// --- HMAC-SHA256 (RFC 4231) ----------------------------------------------------

TEST(Hmac, Rfc4231Case1) {
  Bytes key(20, 0x0b);
  std::string data = "Hi There";
  Bytes msg(data.begin(), data.end());
  EXPECT_EQ(to_hex(hmac_sha256(key, msg)),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(Hmac, Rfc4231Case2) {
  std::string key_s = "Jefe";
  std::string data = "what do ya want for nothing?";
  Bytes key(key_s.begin(), key_s.end());
  Bytes msg(data.begin(), data.end());
  EXPECT_EQ(to_hex(hmac_sha256(key, msg)),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(Hmac, Rfc4231Case3LongKeyHashing) {
  Bytes key(131, 0xaa);  // longer than one block: key must be hashed
  std::string data = "Test Using Larger Than Block-Size Key - Hash Key First";
  Bytes msg(data.begin(), data.end());
  EXPECT_EQ(to_hex(hmac_sha256(key, msg)),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(Hmac, KeySensitivity) {
  Bytes k1(16, 1), k2(16, 2), msg{'m'};
  EXPECT_FALSE(digest_equal(hmac_sha256(k1, msg), hmac_sha256(k2, msg)));
}

TEST(DigestEqual, Basics) {
  Sha256Digest a{}, b{};
  EXPECT_TRUE(digest_equal(a, b));
  b[31] = 1;
  EXPECT_FALSE(digest_equal(a, b));
}

}  // namespace
}  // namespace cqos::crypto
