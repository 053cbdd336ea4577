// SHA-256 compression functions behind Sha256 (internal; exposed for the
// tests that check one against the other).
//
// Sha256 picks one implementation per process: the x86 SHA extensions when
// CPUID reports them, otherwise the portable rounds, which are also the
// reference the tests hold the other to.
#pragma once

#include <cstddef>
#include <cstdint>

namespace cqos::crypto::detail {

/// Compress `nblocks` consecutive 64-byte blocks into `state`.
void sha256_compress_portable(std::uint32_t state[8],
                              const std::uint8_t* blocks,
                              std::size_t nblocks);

#if defined(__x86_64__)
/// True when CPUID reports the SHA extensions and SSE4.1.
bool sha256_cpu_has_sha_ext();

/// sha256rnds2/sha256msg1/sha256msg2 compression. Call only when
/// sha256_cpu_has_sha_ext() is true.
void sha256_compress_sha_ext(std::uint32_t state[8],
                             const std::uint8_t* blocks,
                             std::size_t nblocks);
#endif

}  // namespace cqos::crypto::detail
