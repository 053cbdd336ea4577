#include "crypto/sha256.h"

#include <algorithm>
#include <cstring>
#include <map>

#include "common/sync.h"
#include "crypto/sha256_detail.h"

#if defined(__x86_64__)
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace cqos::crypto {
namespace {

constexpr std::uint32_t kK[64] = {
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

std::uint32_t rotr(std::uint32_t v, int n) {
  return (v >> n) | (v << (32 - n));
}

using CompressFn = void (*)(std::uint32_t*, const std::uint8_t*, std::size_t);

CompressFn pick_compress() {
#if defined(__x86_64__)
  if (detail::sha256_cpu_has_sha_ext()) return detail::sha256_compress_sha_ext;
#endif
  return detail::sha256_compress_portable;
}

// Decided once per process, on the first hash.
void compress(std::array<std::uint32_t, 8>& state, const std::uint8_t* blocks,
              std::size_t nblocks) {
  static const CompressFn fn = pick_compress();
  fn(state.data(), blocks, nblocks);
}

}  // namespace

namespace detail {

void sha256_compress_portable(std::uint32_t state[8],
                              const std::uint8_t* blocks,
                              std::size_t nblocks) {
  for (; nblocks > 0; --nblocks, blocks += 64) {
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = (static_cast<std::uint32_t>(blocks[4 * i]) << 24) |
             (static_cast<std::uint32_t>(blocks[4 * i + 1]) << 16) |
             (static_cast<std::uint32_t>(blocks[4 * i + 2]) << 8) |
             static_cast<std::uint32_t>(blocks[4 * i + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      std::uint32_t s0 =
          rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      std::uint32_t s1 =
          rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

    for (int i = 0; i < 64; ++i) {
      std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      std::uint32_t ch = (e & f) ^ (~e & g);
      std::uint32_t temp1 = h + s1 + ch + kK[i] + w[i];
      std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      std::uint32_t temp2 = s0 + maj;
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

#if defined(__x86_64__)
bool sha256_cpu_has_sha_ext() {
  unsigned a = 0, b = 0, c = 0, d = 0;
  if (__get_cpuid(1, &a, &b, &c, &d) == 0 || (c & bit_SSE4_1) == 0) {
    return false;
  }
  if (__get_cpuid_count(7, 0, &a, &b, &c, &d) == 0) return false;
  return (b & bit_SHA) != 0;
}

// The state lives in two registers as ABEF and CDGH, the layout
// sha256rnds2 takes. Each step runs four rounds on one 4-word group of the
// message schedule and computes the group twelve words ahead.
__attribute__((target("sha,sse4.1"))) void sha256_compress_sha_ext(
    std::uint32_t state[8], const std::uint8_t* blocks, std::size_t nblocks) {
  const __m128i byte_swap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  auto load = [](const void* p) {
    return _mm_loadu_si128(static_cast<const __m128i*>(p));
  };
  __m128i tmp = _mm_shuffle_epi32(load(state), 0xB1);         // CDAB
  __m128i state1 = _mm_shuffle_epi32(load(state + 4), 0x1B);  // EFGH
  __m128i state0 = _mm_alignr_epi8(tmp, state1, 8);           // ABEF
  state1 = _mm_blend_epi16(state1, tmp, 0xF0);                // CDGH

  for (; nblocks > 0; --nblocks, blocks += 64) {
    const __m128i abef = state0;
    const __m128i cdgh = state1;
    __m128i w[4];
    for (int i = 0; i < 4; ++i) {
      w[i] = _mm_shuffle_epi8(load(blocks + 16 * i), byte_swap);
    }
#pragma GCC unroll 16
    for (int i = 0; i < 16; ++i) {
      const __m128i msg = _mm_add_epi32(w[i % 4], load(&kK[4 * i]));
      state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
      state0 = _mm_sha256rnds2_epu32(state0, state1,
                                     _mm_shuffle_epi32(msg, 0x0E));
      if (i < 12) {
        __m128i next = _mm_sha256msg1_epu32(w[i % 4], w[(i + 1) % 4]);
        next = _mm_add_epi32(
            next, _mm_alignr_epi8(w[(i + 3) % 4], w[(i + 2) % 4], 4));
        w[i % 4] = _mm_sha256msg2_epu32(next, w[(i + 3) % 4]);
      }
    }
    state0 = _mm_add_epi32(state0, abef);
    state1 = _mm_add_epi32(state1, cdgh);
  }

  tmp = _mm_shuffle_epi32(state0, 0x1B);        // FEBA
  state1 = _mm_shuffle_epi32(state1, 0xB1);     // DCHG
  state0 = _mm_blend_epi16(tmp, state1, 0xF0);  // DCBA
  state1 = _mm_alignr_epi8(state1, tmp, 8);     // HGFE
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state), state0);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4), state1);
}
#endif

}  // namespace detail

Sha256::Sha256() {
  state_ = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
            0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
}

void Sha256::update(std::span<const std::uint8_t> data) {
  total_len_ += data.size();
  std::size_t off = 0;
  if (buffer_len_ > 0) {
    std::size_t take = std::min(data.size(), 64 - buffer_len_);
    std::memcpy(buffer_.data() + buffer_len_, data.data(), take);
    buffer_len_ += take;
    off += take;
    if (buffer_len_ == 64) {
      compress(state_, buffer_.data(), 1);
      buffer_len_ = 0;
    }
  }
  if (std::size_t whole = (data.size() - off) / 64; whole > 0) {
    compress(state_, data.data() + off, whole);
    off += 64 * whole;
  }
  if (off < data.size()) {
    std::memcpy(buffer_.data(), data.data() + off, data.size() - off);
    buffer_len_ = data.size() - off;
  }
}

Sha256Digest Sha256::finish() {
  std::uint64_t bit_len = total_len_ * 8;
  // One update with the whole 0x80 || 0x00* pad run (1..64 bytes) instead of
  // feeding padding a byte at a time through update().
  std::uint8_t pad[64] = {0x80};
  std::size_t pad_len =
      (buffer_len_ < 56) ? 56 - buffer_len_ : 120 - buffer_len_;
  update({pad, pad_len});
  std::uint8_t len_be[8];
  for (int i = 7; i >= 0; --i) {
    len_be[i] = static_cast<std::uint8_t>(bit_len & 0xff);
    bit_len >>= 8;
  }
  update({len_be, 8});

  Sha256Digest out{};
  for (int i = 0; i < 8; ++i) {
    out[static_cast<std::size_t>(4 * i)] =
        static_cast<std::uint8_t>(state_[static_cast<std::size_t>(i)] >> 24);
    out[static_cast<std::size_t>(4 * i + 1)] =
        static_cast<std::uint8_t>(state_[static_cast<std::size_t>(i)] >> 16);
    out[static_cast<std::size_t>(4 * i + 2)] =
        static_cast<std::uint8_t>(state_[static_cast<std::size_t>(i)] >> 8);
    out[static_cast<std::size_t>(4 * i + 3)] =
        static_cast<std::uint8_t>(state_[static_cast<std::size_t>(i)]);
  }
  return out;
}

Sha256Digest sha256(std::span<const std::uint8_t> data) {
  Sha256 h;
  h.update(data);
  return h.finish();
}

HmacKey::HmacKey(std::span<const std::uint8_t> key) {
  std::array<std::uint8_t, 64> k_block{};
  if (key.size() > 64) {
    Sha256Digest kd = sha256(key);
    std::memcpy(k_block.data(), kd.data(), kd.size());
  } else {
    std::memcpy(k_block.data(), key.data(), key.size());
  }

  std::array<std::uint8_t, 64> ipad, opad;
  for (std::size_t i = 0; i < 64; ++i) {
    ipad[i] = k_block[i] ^ 0x36;
    opad[i] = k_block[i] ^ 0x5c;
  }

  Sha256 inner;
  inner.update(ipad);
  inner_ = inner.snapshot();
  Sha256 outer;
  outer.update(opad);
  outer_ = outer.snapshot();
}

Sha256Digest HmacKey::mac(std::span<const std::uint8_t> data) const {
  Sha256 inner;
  inner.restore(inner_);
  inner.update(data);
  Sha256Digest inner_digest = inner.finish();

  Sha256 outer;
  outer.restore(outer_);
  outer.update(inner_digest);
  return outer.finish();
}

std::shared_ptr<const HmacKey> HmacKey::for_key(
    std::span<const std::uint8_t> key) {
  // Fast path: the last key this thread used (typically the one session
  // key), compared in place so that a hit allocates nothing.
  struct LastKey {
    Bytes key;
    std::shared_ptr<const HmacKey> hk;
  };
  thread_local LastKey last;
  if (last.hk && std::equal(key.begin(), key.end(), last.key.begin(),
                            last.key.end())) {
    return last.hk;
  }

  Bytes key_bytes(key.begin(), key.end());

  static Mutex mu;
  static std::map<Bytes, std::shared_ptr<const HmacKey>>* cache =
      new std::map<Bytes, std::shared_ptr<const HmacKey>>();
  constexpr std::size_t kMaxCachedKeys = 64;
  std::shared_ptr<const HmacKey> hk;
  {
    MutexLock lk(mu);
    auto it = cache->find(key_bytes);
    if (it != cache->end()) {
      hk = it->second;
    } else {
      if (cache->size() >= kMaxCachedKeys) cache->clear();
      hk = std::make_shared<const HmacKey>(key);
      cache->emplace(key_bytes, hk);
    }
  }
  last = LastKey{std::move(key_bytes), hk};
  return hk;
}

Sha256Digest hmac_sha256(std::span<const std::uint8_t> key,
                         std::span<const std::uint8_t> data) {
  return HmacKey::for_key(key)->mac(data);
}

bool digest_equal(const Sha256Digest& a, const Sha256Digest& b) {
  std::uint8_t diff = 0;
  for (std::size_t i = 0; i < a.size(); ++i) diff |= a[i] ^ b[i];
  return diff == 0;
}

}  // namespace cqos::crypto
