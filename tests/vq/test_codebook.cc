/**
 * @file
 * Tests for plain and lattice codebooks: decode/encode correctness,
 * lattice sign-expansion semantics, frequency reordering.
 */
#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <utility>
#include <vector>

#include "common/bitutils.h"
#include "tensor/tensor.h"
#include "vq/codebook.h"

namespace vqllm::vq {
namespace {

Tensor<float>
smallEntries()
{
    Tensor<float> e({4, 2});
    e.at(std::size_t(0), std::size_t(0)) = 1.0f;
    e.at(std::size_t(0), std::size_t(1)) = 2.0f;
    e.at(std::size_t(1), std::size_t(0)) = -1.0f;
    e.at(std::size_t(1), std::size_t(1)) = 0.5f;
    e.at(std::size_t(2), std::size_t(0)) = 3.0f;
    e.at(std::size_t(2), std::size_t(1)) = -3.0f;
    e.at(std::size_t(3), std::size_t(0)) = 0.0f;
    e.at(std::size_t(3), std::size_t(1)) = 0.0f;
    return e;
}

TEST(Codebook, PlainDecodeReturnsEntry)
{
    auto cb = Codebook::plain(smallEntries());
    EXPECT_EQ(cb.logicalEntries(), 4u);
    EXPECT_EQ(cb.storedEntries(), 4u);
    EXPECT_EQ(cb.vectorSize(), 2u);
    EXPECT_FALSE(cb.isLattice());
    float out[2];
    cb.decode(2, out);
    EXPECT_EQ(out[0], 3.0f);
    EXPECT_EQ(out[1], -3.0f);
}

TEST(Codebook, PlainEncodeFindsNearest)
{
    auto cb = Codebook::plain(smallEntries());
    float q[2] = {0.9f, 2.2f};
    double err = 0;
    EXPECT_EQ(cb.encode(q, &err), 0u);
    EXPECT_NEAR(err, 0.01 + 0.04, 1e-4);
    float z[2] = {0.1f, -0.1f};
    EXPECT_EQ(cb.encode(z), 3u);
}

TEST(Codebook, EncodeDecodeConsistency)
{
    // decode(encode(x)) must be the nearest entry: re-encoding the
    // decoded value is a fixed point.
    auto cb = Codebook::plain(smallEntries());
    Rng rng(3);
    for (int i = 0; i < 200; ++i) {
        float v[2] = {static_cast<float>(rng.normal(0, 2)),
                      static_cast<float>(rng.normal(0, 2))};
        std::uint32_t idx = cb.encode(v);
        float dec[2];
        cb.decode(idx, dec);
        EXPECT_EQ(cb.encode(dec), idx);
    }
}

TEST(Codebook, SizeBytesIsFp16Storage)
{
    auto cb = Codebook::plain(smallEntries());
    EXPECT_EQ(cb.sizeBytes(), 4u * 2 * 2);
}

TEST(Codebook, EntriesRoundedThroughFp16)
{
    Tensor<float> e({1, 2});
    e.at(std::size_t(0), std::size_t(0)) = 0.1f; // not representable
    e.at(std::size_t(0), std::size_t(1)) = 1.0f;
    auto cb = Codebook::plain(e);
    float out[2];
    cb.decode(0, out);
    EXPECT_EQ(out[0], roundToHalf(0.1f));
    EXPECT_EQ(out[1], 1.0f);
}

TEST(LatticeCodebook, LogicalSpaceIsBaseTimesSigns)
{
    Tensor<float> base({4, 3});
    for (std::size_t i = 0; i < base.size(); ++i)
        base[i] = static_cast<float>(i + 1);
    auto cb = Codebook::lattice(base);
    EXPECT_TRUE(cb.isLattice());
    EXPECT_EQ(cb.storedEntries(), 4u);
    EXPECT_EQ(cb.logicalEntries(), 4u << 3);
    // Stored bytes only cover the base table.
    EXPECT_EQ(cb.sizeBytes(), 4u * 3 * 2);
}

TEST(LatticeCodebook, SignMaskFlipsElements)
{
    Tensor<float> base({2, 4});
    for (std::size_t d = 0; d < 4; ++d) {
        base.at(std::size_t(0), d) = static_cast<float>(d + 1);
        base.at(std::size_t(1), d) = 8.0f;
    }
    auto cb = Codebook::lattice(base);
    // index = base 0, sign mask 0b0101 -> flip elements 0 and 2.
    std::uint32_t idx = 0u | (0b0101u << 1);
    EXPECT_EQ(cb.storedIndexOf(idx), 0u);
    float out[4];
    cb.decode(idx, out);
    EXPECT_EQ(out[0], -1.0f);
    EXPECT_EQ(out[1], 2.0f);
    EXPECT_EQ(out[2], -3.0f);
    EXPECT_EQ(out[3], 4.0f);
}

TEST(LatticeCodebook, EncodeRecoversSigns)
{
    Rng rng(5);
    Tensor<float> base({8, 4});
    fillUniform(base, rng, 0.5, 2.0);
    auto cb = Codebook::lattice(base);
    for (int i = 0; i < 100; ++i) {
        float v[4];
        for (auto &x : v)
            x = static_cast<float>(rng.normal(0, 1.5));
        std::uint32_t idx = cb.encode(v);
        float dec[4];
        cb.decode(idx, dec);
        // Signs of the decoded value match the input except where the
        // magnitude is better served by the opposite sign near zero.
        for (int d = 0; d < 4; ++d) {
            if (std::abs(v[d]) > 0.5f) {
                EXPECT_EQ(dec[d] < 0, v[d] < 0) << "dim " << d;
            }
        }
    }
}

TEST(LatticeCodebook, EncodeBeatsOrMatchesSignlessSearch)
{
    // The lattice encode must never be worse than searching base entries
    // without sign freedom.
    Rng rng(7);
    Tensor<float> base({16, 4});
    fillUniform(base, rng, 0.1, 3.0);
    auto lattice = Codebook::lattice(base);
    auto plain = Codebook::plain(lattice.entries());
    for (int i = 0; i < 100; ++i) {
        float v[4];
        for (auto &x : v)
            x = static_cast<float>(rng.normal(0, 2));
        double lat_err, plain_err;
        lattice.encode(v, &lat_err);
        plain.encode(v, &plain_err);
        EXPECT_LE(lat_err, plain_err + 1e-9);
    }
}

/** Reference: the lattice encode's per-element sign scan over every base
 *  entry, in double, keeping the first strict minimum. */
std::pair<std::uint32_t, double>
refSignScan(const Codebook &cb, const float *sub)
{
    const Tensor<float> &entries = cb.entries();
    const std::size_t n = entries.dim(0);
    const unsigned vec = cb.vectorSize();
    const unsigned base_bits = ceilLog2(n);
    double best = std::numeric_limits<double>::max();
    std::uint32_t best_idx = 0;
    for (std::size_t e = 0; e < n; ++e) {
        const float *cand = entries.data() + e * vec;
        double d = 0;
        std::uint32_t mask = 0;
        for (unsigned k = 0; k < vec; ++k) {
            double x = sub[k];
            double pos = x - cand[k];
            double neg = x + cand[k];
            if (neg * neg < pos * pos) {
                mask |= 1u << k;
                d += neg * neg;
            } else {
                d += pos * pos;
            }
        }
        if (d < best) {
            best = d;
            best_idx = static_cast<std::uint32_t>(e) | (mask << base_bits);
        }
    }
    return {best_idx, best};
}

TEST(LatticeCodebook, EncodeMatchesSignScanReference)
{
    const float inf = std::numeric_limits<float>::infinity();
    const float nan = std::numeric_limits<float>::quiet_NaN();
    const float specials[] = {0.0f, -0.0f, nan, inf, -inf};
    Rng rng(11);
    for (unsigned vec : {1u, 2u, 4u, 8u, 16u}) {
        for (std::size_t n : {1, 2, 16, 256, 1024}) {
            // Even sizes use small integers: exact distances, hence
            // exact ties between base entries.  Every base has zero
            // components and a repeated row.
            const bool grid = n % 2 == 0 && vec % 2 == 0;
            Tensor<float> base({n, std::size_t(vec)});
            for (std::size_t i = 0; i < base.size(); ++i)
                base[i] = grid ? static_cast<float>(rng.uniformInt(4))
                        : rng.uniform() < 0.2
                            ? 0.0f
                            : static_cast<float>(rng.uniform(0.0, 2.0));
            if (n > 1)
                for (unsigned k = 0; k < vec; ++k)
                    base.at(n - 1, std::size_t(k)) =
                        base.at(std::size_t(0), std::size_t(k));
            Codebook cb = Codebook::lattice(base);
            Codebook reordered = cb;
            std::vector<std::uint32_t> perm(n);
            for (std::size_t i = 0; i < n; ++i)
                perm[i] = static_cast<std::uint32_t>(n - 1 - i);
            reordered.reorder(perm);
            for (const Codebook *book : {&cb, &reordered}) {
                for (int q = 0; q < 200; ++q) {
                    std::vector<float> sub(vec);
                    for (auto &x : sub)
                        x = grid ? static_cast<float>(rng.uniformInt(9)) -
                                       4.0f
                                 : static_cast<float>(rng.normal(0, 1.5));
                    if (q % 4 == 1)
                        sub[rng.uniformInt(vec)] = specials[q / 4 % 5];
                    double err = -1;
                    const std::uint32_t got = book->encode(sub.data(), &err);
                    const auto want = refSignScan(*book, sub.data());
                    ASSERT_EQ(got, want.first)
                        << "vec " << vec << " n " << n << " query " << q;
                    ASSERT_EQ(std::memcmp(&err, &want.second, sizeof err),
                              0)
                        << "vec " << vec << " n " << n << " query " << q
                        << ": " << err << " vs " << want.second;
                }
            }
        }
    }
}

TEST(Codebook, ReorderPermutesEntriesAndReturnsInverse)
{
    auto cb = Codebook::plain(smallEntries());
    std::vector<std::uint32_t> perm = {2, 0, 3, 1}; // new <- old
    auto inverse = cb.reorder(perm);
    // inverse[old] = new
    EXPECT_EQ(inverse[2], 0u);
    EXPECT_EQ(inverse[0], 1u);
    EXPECT_EQ(inverse[3], 2u);
    EXPECT_EQ(inverse[1], 3u);
    float out[2];
    cb.decode(0, out); // new entry 0 is old entry 2
    EXPECT_EQ(out[0], 3.0f);
    EXPECT_EQ(out[1], -3.0f);
}

TEST(CodebookDeath, RejectsInvalidInput)
{
    auto cb = Codebook::plain(smallEntries());
    float out[2];
    EXPECT_DEATH(cb.decode(4, out), "out of range");
    Tensor<float> bad({3, 2}); // not power of two
    EXPECT_DEATH(Codebook::lattice(bad), "power of two");
    std::vector<std::uint32_t> not_perm = {0, 0, 1, 2};
    EXPECT_DEATH(cb.reorder(not_perm), "permutation");
}

} // namespace
} // namespace vqllm::vq
