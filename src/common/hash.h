/**
 * @file
 * FNV-1a content digests.
 *
 * One 64-bit FNV-1a implementation for content digests in the library
 * (vq::AccessHistogram::digest(), which keys compiled kernels and the
 * bank-conflict memo).  Calls chain: pass the previous digest as `h` to
 * fold further fields into the same digest.
 */
#pragma once

#include <cstddef>
#include <cstdint>

namespace vqllm {

/** FNV-1a 64-bit offset basis (the digest of zero bytes). */
inline constexpr std::uint64_t kFnv1aBasis = 14695981039346656037ull;

/** @return FNV-1a of `bytes` bytes at `data`, continuing from `h`. */
inline std::uint64_t
fnv1a(const void *data, std::size_t bytes, std::uint64_t h = kFnv1aBasis)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < bytes; ++i) {
        h ^= p[i];
        h *= 1099511628211ull;
    }
    return h;
}

} // namespace vqllm
