// DES block cipher and DES-CBC mode, implemented from scratch (FIPS 46-3).
//
// Used by the DesPrivacy micro-protocol to match the paper's confidentiality
// scheme. DES is cryptographically obsolete; it is implemented here because
// the paper used it and because the benchmark shape depends on a real block
// cipher's CPU cost. Do not use for new designs.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>

#include "common/bytes.h"

namespace cqos::crypto {

/// One DES key schedule. The key is 8 bytes; parity bits are ignored.
class Des {
 public:
  explicit Des(std::span<const std::uint8_t> key8);

  /// A shared schedule for `key8` from the process-wide session-key cache:
  /// the 16-round schedule is computed once per distinct key, not once per
  /// encrypt/decrypt call. Thread-local last-key memo in front of a small
  /// mutex-guarded map (bounded; eviction drops the whole map — schedules
  /// are cheap to rebuild, the win is the steady state of few session keys).
  static std::shared_ptr<const Des> for_key(std::span<const std::uint8_t> key8);

  /// Encrypt/decrypt a single 8-byte block.
  void encrypt_block(const std::uint8_t in[8], std::uint8_t out[8]) const;
  void decrypt_block(const std::uint8_t in[8], std::uint8_t out[8]) const;

  /// Encrypt/decrypt one block held as its big-endian 32-bit halves.
  void crypt(std::uint32_t& left, std::uint32_t& right, bool decrypt) const;

 private:
  // Round r's key as two words of four 6-bit chunks (DESIGN.md §10):
  // [2r] holds expansion groups 0,2,4,6 and [2r+1] groups 1,3,5,7.
  std::array<std::uint32_t, 32> round_keys_{};
};

/// DES-CBC with PKCS#7 padding. `iv` must be 8 bytes. Callers on a hot path
/// should hold the Des (or use the key-span overloads, which consult the
/// schedule cache).
Bytes des_cbc_encrypt(const Des& des, std::span<const std::uint8_t> iv8,
                      std::span<const std::uint8_t> plaintext);
Bytes des_cbc_encrypt(std::span<const std::uint8_t> key8,
                      std::span<const std::uint8_t> iv8,
                      std::span<const std::uint8_t> plaintext);

/// Throws cqos::DecodeError on bad padding or non-block-aligned input.
Bytes des_cbc_decrypt(const Des& des, std::span<const std::uint8_t> iv8,
                      std::span<const std::uint8_t> ciphertext);
Bytes des_cbc_decrypt(std::span<const std::uint8_t> key8,
                      std::span<const std::uint8_t> iv8,
                      std::span<const std::uint8_t> ciphertext);

}  // namespace cqos::crypto
