#include "crypto/des.h"

#include <array>
#include <bit>
#include <cstring>
#include <map>

#include "common/error.h"
#include "common/sync.h"

namespace cqos::crypto {
namespace {

// All tables below are the standard FIPS 46-3 tables, written with 1-based
// bit positions counted from the most significant bit, as in the standard.

constexpr int kPerm[32] = {16, 7, 20, 21, 29, 12, 28, 17, 1,  15, 23,
                           26, 5, 18, 31, 10, 2,  8,  24, 14, 32, 27,
                           3,  9, 19, 13, 30, 6,  22, 11, 4,  25};

constexpr int kPc1[56] = {57, 49, 41, 33, 25, 17, 9,  1,  58, 50, 42, 34, 26, 18,
                          10, 2,  59, 51, 43, 35, 27, 19, 11, 3,  60, 52, 44, 36,
                          63, 55, 47, 39, 31, 23, 15, 7,  62, 54, 46, 38, 30, 22,
                          14, 6,  61, 53, 45, 37, 29, 21, 13, 5,  28, 20, 12, 4};

constexpr int kPc2[48] = {14, 17, 11, 24, 1,  5,  3,  28, 15, 6,  21, 10,
                          23, 19, 12, 4,  26, 8,  16, 7,  27, 20, 13, 2,
                          41, 52, 31, 37, 47, 55, 30, 40, 51, 45, 33, 48,
                          44, 49, 39, 56, 34, 53, 46, 42, 50, 36, 29, 32};

constexpr int kShifts[16] = {1, 1, 2, 2, 2, 2, 2, 2, 1, 2, 2, 2, 2, 2, 2, 1};

constexpr std::uint8_t kSbox[8][64] = {
    {14, 4,  13, 1, 2,  15, 11, 8,  3,  10, 6,  12, 5,  9,  0, 7,
     0,  15, 7,  4, 14, 2,  13, 1,  10, 6,  12, 11, 9,  5,  3, 8,
     4,  1,  14, 8, 13, 6,  2,  11, 15, 12, 9,  7,  3,  10, 5, 0,
     15, 12, 8,  2, 4,  9,  1,  7,  5,  11, 3,  14, 10, 0,  6, 13},
    {15, 1,  8,  14, 6,  11, 3,  4,  9,  7, 2,  13, 12, 0, 5,  10,
     3,  13, 4,  7,  15, 2,  8,  14, 12, 0, 1,  10, 6,  9, 11, 5,
     0,  14, 7,  11, 10, 4,  13, 1,  5,  8, 12, 6,  9,  3, 2,  15,
     13, 8,  10, 1,  3,  15, 4,  2,  11, 6, 7,  12, 0,  5, 14, 9},
    {10, 0,  9,  14, 6, 3,  15, 5,  1,  13, 12, 7,  11, 4,  2,  8,
     13, 7,  0,  9,  3, 4,  6,  10, 2,  8,  5,  14, 12, 11, 15, 1,
     13, 6,  4,  9,  8, 15, 3,  0,  11, 1,  2,  12, 5,  10, 14, 7,
     1,  10, 13, 0,  6, 9,  8,  7,  4,  15, 14, 3,  11, 5,  2,  12},
    {7,  13, 14, 3, 0,  6,  9,  10, 1,  2, 8, 5,  11, 12, 4,  15,
     13, 8,  11, 5, 6,  15, 0,  3,  4,  7, 2, 12, 1,  10, 14, 9,
     10, 6,  9,  0, 12, 11, 7,  13, 15, 1, 3, 14, 5,  2,  8,  4,
     3,  15, 0,  6, 10, 1,  13, 8,  9,  4, 5, 11, 12, 7,  2,  14},
    {2,  12, 4,  1,  7,  10, 11, 6,  8,  5,  3,  15, 13, 0, 14, 9,
     14, 11, 2,  12, 4,  7,  13, 1,  5,  0,  15, 10, 3,  9, 8,  6,
     4,  2,  1,  11, 10, 13, 7,  8,  15, 9,  12, 5,  6,  3, 0,  14,
     11, 8,  12, 7,  1,  14, 2,  13, 6,  15, 0,  9,  10, 4, 5,  3},
    {12, 1,  10, 15, 9, 2,  6,  8,  0,  13, 3,  4,  14, 7,  5,  11,
     10, 15, 4,  2,  7, 12, 9,  5,  6,  1,  13, 14, 0,  11, 3,  8,
     9,  14, 15, 5,  2, 8,  12, 3,  7,  0,  4,  10, 1,  13, 11, 6,
     4,  3,  2,  12, 9, 5,  15, 10, 11, 14, 1,  7,  6,  0,  8,  13},
    {4,  11, 2,  14, 15, 0, 8,  13, 3,  12, 9, 7,  5,  10, 6, 1,
     13, 0,  11, 7,  4,  9, 1,  10, 14, 3,  5, 12, 2,  15, 8, 6,
     1,  4,  11, 13, 12, 3, 7,  14, 10, 15, 6, 8,  0,  5,  9, 2,
     6,  11, 13, 8,  1,  4, 10, 7,  9,  5,  0, 15, 14, 2,  3, 12},
    {13, 2,  8,  4, 6,  15, 11, 1,  10, 9,  3,  14, 5,  0,  12, 7,
     1,  15, 13, 8, 10, 3,  7,  4,  12, 5,  6,  11, 0,  14, 9,  2,
     7,  11, 4,  1, 9,  12, 14, 2,  0,  6,  10, 13, 15, 3,  5,  8,
     2,  1,  14, 7, 4,  10, 8,  13, 15, 12, 9,  0,  3,  5,  6,  11}};

// Apply a 1-based-from-MSB bit permutation: output has `out_bits` bits,
// bit i of the output (counting from MSB of the out_bits-wide result) is
// bit table[i] of the `in_bits`-wide input. Key schedule only.
std::uint64_t permute(std::uint64_t in, int in_bits, const int* table,
                      int out_bits) {
  std::uint64_t out = 0;
  for (int i = 0; i < out_bits; ++i) {
    std::uint64_t bit = (in >> (in_bits - table[i])) & 1;
    out = (out << 1) | bit;
  }
  return out;
}

std::uint64_t load_be64(const std::uint8_t b[8]) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v = (v << 8) | b[i];
  return v;
}

std::uint32_t load_be32(const std::uint8_t b[4]) {
  return (static_cast<std::uint32_t>(b[0]) << 24) |
         (static_cast<std::uint32_t>(b[1]) << 16) |
         (static_cast<std::uint32_t>(b[2]) << 8) | b[3];
}

void store_be32(std::uint32_t v, std::uint8_t b[4]) {
  b[0] = static_cast<std::uint8_t>(v >> 24);
  b[1] = static_cast<std::uint8_t>(v >> 16);
  b[2] = static_cast<std::uint8_t>(v >> 8);
  b[3] = static_cast<std::uint8_t>(v);
}

std::uint32_t rotl28(std::uint32_t v, int n) {
  return ((v << n) | (v >> (28 - n))) & 0x0fffffff;
}

// The rounds keep each half rotated left by one bit. Then the expansion
// E's eight 6-bit groups are plain windows: groups 1,3,5,7 are bits 24,
// 16, 8 and 0 of the rotated half, groups 0,2,4,6 the same bits of it
// rotated right by four more. SP[box][six] is S-box `box` on window `six`,
// put through P and rotated left by one, so the round output XORs
// straight into the other rotated half.
using SpTables = std::array<std::array<std::uint32_t, 64>, 8>;

constexpr SpTables build_sp() {
  SpTables sp{};
  for (std::size_t box = 0; box < 8; ++box) {
    for (std::size_t six = 0; six < 64; ++six) {
      std::size_t row = ((six & 0x20) >> 4) | (six & 0x01);
      std::size_t col = (six >> 1) & 0x0f;
      std::uint32_t s = static_cast<std::uint32_t>(kSbox[box][row * 16 + col])
                        << (28 - 4 * box);
      std::uint32_t p = 0;
      for (int i = 0; i < 32; ++i) {
        p |= ((s >> (32 - kPerm[i])) & 1u) << (31 - i);
      }
      sp[box][six] = std::rotl(p, 1);
    }
  }
  return sp;
}

constexpr SpTables kSp = build_sp();

// Cipher function f on a rotated half, with round key words k[0] (groups
// 0,2,4,6) and k[1] (groups 1,3,5,7).
inline std::uint32_t f(std::uint32_t r, const std::uint32_t* k) {
  std::uint32_t t = std::rotr(r, 4) ^ k[0];
  std::uint32_t out = kSp[0][(t >> 24) & 0x3f] ^ kSp[2][(t >> 16) & 0x3f] ^
                      kSp[4][(t >> 8) & 0x3f] ^ kSp[6][t & 0x3f];
  t = r ^ k[1];
  return out ^ kSp[1][(t >> 24) & 0x3f] ^ kSp[3][(t >> 16) & 0x3f] ^
         kSp[5][(t >> 8) & 0x3f] ^ kSp[7][t & 0x3f];
}

// Exchange the bits of `a >> n` selected by `mask` with the same bits of b.
inline void delta_swap(std::uint32_t& a, std::uint32_t& b, int n,
                       std::uint32_t mask) {
  std::uint32_t t = ((a >> n) ^ b) & mask;
  b ^= t;
  a ^= t << n;
}

// IP as five delta swaps (Hoey's sequence, as in Outerbridge's d3des),
// leaving both halves rotated left by one for the rounds.
inline void initial_permutation(std::uint32_t& l, std::uint32_t& r) {
  delta_swap(l, r, 4, 0x0f0f0f0f);
  delta_swap(l, r, 16, 0x0000ffff);
  delta_swap(r, l, 2, 0x33333333);
  delta_swap(r, l, 8, 0x00ff00ff);
  delta_swap(l, r, 1, 0x55555555);
  l = std::rotl(l, 1);
  r = std::rotl(r, 1);
}

// FP = IP^-1: undo the rotation, then the same swaps in reverse order.
inline void final_permutation(std::uint32_t& l, std::uint32_t& r) {
  l = std::rotr(l, 1);
  r = std::rotr(r, 1);
  delta_swap(l, r, 1, 0x55555555);
  delta_swap(r, l, 8, 0x00ff00ff);
  delta_swap(r, l, 2, 0x33333333);
  delta_swap(l, r, 16, 0x0000ffff);
  delta_swap(l, r, 4, 0x0f0f0f0f);
}

}  // namespace

std::shared_ptr<const Des> Des::for_key(std::span<const std::uint8_t> key8) {
  if (key8.size() != 8) throw Error("DES key must be 8 bytes");
  std::uint64_t key = load_be64(key8.data());

  // Fast path: the last key this thread used (typically the one session key).
  struct LastKey {
    std::uint64_t key = 0;
    std::shared_ptr<const Des> des;
  };
  thread_local LastKey last;
  if (last.des && last.key == key) return last.des;

  static Mutex mu;
  static std::map<std::uint64_t, std::shared_ptr<const Des>>* cache =
      new std::map<std::uint64_t, std::shared_ptr<const Des>>();
  constexpr std::size_t kMaxCachedSchedules = 64;
  std::shared_ptr<const Des> des;
  {
    MutexLock lk(mu);
    auto it = cache->find(key);
    if (it != cache->end()) {
      des = it->second;
    } else {
      if (cache->size() >= kMaxCachedSchedules) cache->clear();
      des = std::make_shared<const Des>(key8);
      cache->emplace(key, des);
    }
  }
  last = LastKey{key, des};
  return des;
}

Des::Des(std::span<const std::uint8_t> key8) {
  if (key8.size() != 8) throw Error("DES key must be 8 bytes");
  std::uint64_t key = load_be64(key8.data());
  std::uint64_t permuted = permute(key, 64, kPc1, 56);
  auto c = static_cast<std::uint32_t>((permuted >> 28) & 0x0fffffff);
  auto d = static_cast<std::uint32_t>(permuted & 0x0fffffff);
  for (std::size_t round = 0; round < 16; ++round) {
    c = rotl28(c, kShifts[round]);
    d = rotl28(d, kShifts[round]);
    std::uint64_t cd = (static_cast<std::uint64_t>(c) << 28) | d;
    std::uint64_t k48 = permute(cd, 56, kPc2, 48);
    // Group g is k48 bits 47-6g .. 42-6g; odd groups go to the second word.
    for (int g = 0; g < 8; ++g) {
      auto chunk = static_cast<std::uint32_t>((k48 >> (42 - 6 * g)) & 0x3f);
      round_keys_[2 * round + g % 2] |= chunk << (24 - 8 * (g / 2));
    }
  }
}

void Des::crypt(std::uint32_t& left, std::uint32_t& right,
                bool decrypt) const {
  std::uint32_t l = left;
  std::uint32_t r = right;
  initial_permutation(l, r);
  const std::uint32_t* k = round_keys_.data();
  for (std::size_t i = 0; i < 16; i += 2) {
    l ^= f(r, k + 2 * (decrypt ? 15 - i : i));
    r ^= f(l, k + 2 * (decrypt ? 14 - i : i + 1));
  }
  // The output swaps the halves: FP(R16 || L16).
  final_permutation(r, l);
  left = r;
  right = l;
}

void Des::encrypt_block(const std::uint8_t in[8], std::uint8_t out[8]) const {
  std::uint32_t l = load_be32(in);
  std::uint32_t r = load_be32(in + 4);
  crypt(l, r, /*decrypt=*/false);
  store_be32(l, out);
  store_be32(r, out + 4);
}

void Des::decrypt_block(const std::uint8_t in[8], std::uint8_t out[8]) const {
  std::uint32_t l = load_be32(in);
  std::uint32_t r = load_be32(in + 4);
  crypt(l, r, /*decrypt=*/true);
  store_be32(l, out);
  store_be32(r, out + 4);
}

Bytes des_cbc_encrypt(const Des& des, std::span<const std::uint8_t> iv8,
                      std::span<const std::uint8_t> plaintext) {
  if (iv8.size() != 8) throw Error("DES-CBC IV must be 8 bytes");
  const std::size_t whole = plaintext.size() / 8 * 8;
  Bytes out(whole + 8);
  std::uint32_t l = load_be32(iv8.data());
  std::uint32_t r = load_be32(iv8.data() + 4);
  auto chain = [&](const std::uint8_t* in, std::uint8_t* dst) {
    l ^= load_be32(in);
    r ^= load_be32(in + 4);
    des.crypt(l, r, /*decrypt=*/false);
    store_be32(l, dst);
    store_be32(r, dst + 4);
  };
  for (std::size_t off = 0; off < whole; off += 8) {
    chain(&plaintext[off], &out[off]);
  }
  // PKCS#7: the last block is the 0-7 leftover bytes and 8 - leftover
  // bytes of value 8 - leftover.
  const std::size_t rest = plaintext.size() - whole;
  std::uint8_t last[8];
  std::memset(last, static_cast<int>(8 - rest), sizeof(last));
  if (rest > 0) std::memcpy(last, &plaintext[whole], rest);
  chain(last, &out[whole]);
  return out;
}

Bytes des_cbc_encrypt(std::span<const std::uint8_t> key8,
                      std::span<const std::uint8_t> iv8,
                      std::span<const std::uint8_t> plaintext) {
  return des_cbc_encrypt(*Des::for_key(key8), iv8, plaintext);
}

Bytes des_cbc_decrypt(const Des& des, std::span<const std::uint8_t> iv8,
                      std::span<const std::uint8_t> ciphertext) {
  if (iv8.size() != 8) throw Error("DES-CBC IV must be 8 bytes");
  if (ciphertext.empty() || ciphertext.size() % 8 != 0) {
    throw DecodeError("DES-CBC ciphertext not a positive multiple of 8");
  }
  Bytes out(ciphertext.size());
  std::uint32_t prev_l = load_be32(iv8.data());
  std::uint32_t prev_r = load_be32(iv8.data() + 4);
  for (std::size_t off = 0; off < ciphertext.size(); off += 8) {
    const std::uint32_t cl = load_be32(&ciphertext[off]);
    const std::uint32_t cr = load_be32(&ciphertext[off + 4]);
    std::uint32_t l = cl;
    std::uint32_t r = cr;
    des.crypt(l, r, /*decrypt=*/true);
    store_be32(l ^ prev_l, &out[off]);
    store_be32(r ^ prev_r, &out[off + 4]);
    prev_l = cl;
    prev_r = cr;
  }
  std::uint8_t pad = out.back();
  if (pad == 0 || pad > 8 || pad > out.size()) {
    throw DecodeError("DES-CBC bad padding");
  }
  for (std::size_t i = out.size() - pad; i < out.size(); ++i) {
    if (out[i] != pad) throw DecodeError("DES-CBC bad padding");
  }
  out.resize(out.size() - pad);
  return out;
}

Bytes des_cbc_decrypt(std::span<const std::uint8_t> key8,
                      std::span<const std::uint8_t> iv8,
                      std::span<const std::uint8_t> ciphertext) {
  return des_cbc_decrypt(*Des::for_key(key8), iv8, ciphertext);
}

}  // namespace cqos::crypto
