// SHA-256 (FIPS 180-4) and HMAC-SHA256 (RFC 2104), implemented from scratch.
//
// Used by the SignedIntegrity micro-protocol as the signature-based integrity
// scheme described in the paper (a keyed MAC stands in for the prototype's
// signature since both parties share configuration secrets in CQoS).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>

#include "common/bytes.h"

namespace cqos::crypto {

using Sha256Digest = std::array<std::uint8_t, 32>;

class Sha256 {
 public:
  Sha256();

  void update(std::span<const std::uint8_t> data);
  Sha256Digest finish();

  /// Mid-hash snapshot/restore at a whole-block boundary. Snapshotting with
  /// buffered partial-block bytes is a programming error (the buffer is not
  /// captured); used by HmacKey to resume from the compressed key block.
  struct State {
    std::array<std::uint32_t, 8> state{};
    std::uint64_t total_len = 0;
  };
  State snapshot() const { return {state_, total_len_}; }
  void restore(const State& s) {
    state_ = s.state;
    total_len_ = s.total_len;
    buffer_len_ = 0;
  }

 private:
  std::array<std::uint32_t, 8> state_{};
  std::uint64_t total_len_ = 0;
  std::array<std::uint8_t, 64> buffer_{};
  std::size_t buffer_len_ = 0;
};

Sha256Digest sha256(std::span<const std::uint8_t> data);

/// Precomputed HMAC key: the (key ^ ipad) and (key ^ opad) block
/// compressions run once at construction, saving two SHA-256 compressions
/// on every mac() — the analogue of the DES key-schedule cache for the
/// integrity micro-protocol, which MACs with the same session key on every
/// request and reply.
class HmacKey {
 public:
  explicit HmacKey(std::span<const std::uint8_t> key);

  Sha256Digest mac(std::span<const std::uint8_t> data) const;

  /// Memoized lookup (thread-local last-key fast path over a small global
  /// map), mirroring Des::for_key.
  static std::shared_ptr<const HmacKey> for_key(
      std::span<const std::uint8_t> key);

 private:
  Sha256::State inner_;
  Sha256::State outer_;
};

Sha256Digest hmac_sha256(std::span<const std::uint8_t> key,
                         std::span<const std::uint8_t> data);

/// Constant-time digest comparison.
bool digest_equal(const Sha256Digest& a, const Sha256Digest& b);

}  // namespace cqos::crypto
