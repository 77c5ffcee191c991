/**
 * @file
 * Tests for the shared-memory bank-conflict model.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>
#include <set>

#include "common/parallel.h"
#include "gpusim/bank_conflict.h"

namespace vqllm::gpusim {
namespace {

/**
 * Reference transaction count: the direct per-phase bank -> set-of-
 * distinct-words construction the library's flat-array counter must
 * reproduce exactly.
 */
std::uint64_t
referenceWarpTransactions(const GpuSpec &spec,
                          const std::vector<std::uint32_t> &lane_byte_addrs,
                          unsigned bytes_per_lane)
{
    const unsigned word = 4;
    unsigned phases = (bytes_per_lane + word - 1) / word;
    std::uint64_t total = 0;
    for (unsigned p = 0; p < phases; ++p) {
        std::map<std::uint32_t, std::set<std::uint32_t>> bank_words;
        for (std::uint32_t addr : lane_byte_addrs) {
            std::uint32_t w = addr / word + p;
            bank_words[w % spec.smem_banks].insert(w);
        }
        std::size_t degree = 0;
        for (const auto &[bank, words] : bank_words)
            degree = std::max(degree, words.size());
        total += degree == 0 ? 1 : degree;
    }
    return total;
}

/** Reference Monte-Carlo multiplier over the reference counter, with
 *  the library's RNG draw sequence and arithmetic (no memo). */
double
referenceMultiplier(const GpuSpec &spec, const std::vector<double> &weights,
                    unsigned entry_bytes, int samples, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<double> cdf(weights.size());
    double acc = 0;
    for (std::size_t i = 0; i < weights.size(); ++i) {
        acc += weights[i];
        cdf[i] = acc;
    }
    unsigned phases = (entry_bytes + 3) / 4;
    std::uint64_t total = 0;
    std::vector<std::uint32_t> addrs(spec.warp_size);
    for (int s = 0; s < samples; ++s) {
        for (auto &a : addrs) {
            double r = rng.uniform() * acc;
            auto it = std::lower_bound(cdf.begin(), cdf.end(), r);
            a = static_cast<std::uint32_t>(it - cdf.begin()) * entry_bytes;
        }
        total += referenceWarpTransactions(spec, addrs, entry_bytes);
    }
    return static_cast<double>(total) / samples / phases;
}

std::vector<std::uint32_t>
sequentialAddrs(int lanes, std::uint32_t stride_bytes)
{
    std::vector<std::uint32_t> addrs(lanes);
    for (int i = 0; i < lanes; ++i)
        addrs[i] = static_cast<std::uint32_t>(i) * stride_bytes;
    return addrs;
}

TEST(BankConflict, UnitStrideIsConflictFree)
{
    const GpuSpec &spec = rtx4090();
    auto addrs = sequentialAddrs(32, 4);
    EXPECT_EQ(warpTransactions(spec, addrs, 4), 1u);
}

TEST(BankConflict, BroadcastIsFree)
{
    const GpuSpec &spec = rtx4090();
    std::vector<std::uint32_t> addrs(32, 128); // all lanes same word
    EXPECT_EQ(warpTransactions(spec, addrs, 4), 1u);
}

TEST(BankConflict, Stride2GivesTwoWay)
{
    const GpuSpec &spec = rtx4090();
    auto addrs = sequentialAddrs(32, 8); // stride 2 words -> 2-way
    EXPECT_EQ(warpTransactions(spec, addrs, 4), 2u);
}

TEST(BankConflict, Stride32WordsIsWorstCase)
{
    const GpuSpec &spec = rtx4090();
    auto addrs = sequentialAddrs(32, 128); // all lanes hit bank 0
    EXPECT_EQ(warpTransactions(spec, addrs, 4), 32u);
}

TEST(BankConflict, MultiWordAccessAddsPhases)
{
    const GpuSpec &spec = rtx4090();
    // 8-byte entries, unit entry stride: lanes at 0,8,16,... -> in each
    // 4-byte phase the stride is 2 words -> 2 transactions; 2 phases.
    auto addrs = sequentialAddrs(32, 8);
    EXPECT_EQ(warpTransactions(spec, addrs, 8), 4u);
}

TEST(BankConflict, SameWordDifferentFromSameBank)
{
    const GpuSpec &spec = rtx4090();
    // Two lanes on the same bank but different words: 2-way conflict.
    std::vector<std::uint32_t> conflict = {0, 128};
    EXPECT_EQ(warpTransactions(spec, conflict, 4), 2u);
    // Same word: broadcast, one transaction.
    std::vector<std::uint32_t> broadcast = {0, 0};
    EXPECT_EQ(warpTransactions(spec, broadcast, 4), 1u);
}

TEST(BankConflict, ExpectedMultiplierBounds)
{
    const GpuSpec &spec = rtx4090();
    // Random 4-byte entries across many entries: classic balls-in-bins,
    // expected max load for 32 balls/32 bins is ~3-4.
    double m = expectedConflictMultiplier(spec, 4096, 4);
    EXPECT_GT(m, 2.0);
    EXPECT_LT(m, 5.0);
}

TEST(BankConflict, SingleEntryBroadcasts)
{
    const GpuSpec &spec = rtx4090();
    // One entry resident: every lane reads the same words.
    double m = expectedConflictMultiplier(spec, 1, 8);
    EXPECT_DOUBLE_EQ(m, 1.0);
}

TEST(BankConflict, WiderEntriesConflictMore)
{
    const GpuSpec &spec = rtx4090();
    // An entry spanning multiple banks raises the conflict multiplier
    // (paper Sec. III: "a single codebook entry can occupy multiple
    // banks, exacerbating ... bank conflicts").
    double m8 = expectedConflictMultiplier(spec, 256, 8);   // CQ vec 4
    double m16 = expectedConflictMultiplier(spec, 256, 16); // QuiP# vec 8
    EXPECT_GT(m16, m8 * 0.95);
    // Both are well above conflict-free.
    EXPECT_GT(m8, 1.5);
}

TEST(BankConflict, SkewReducesConflicts)
{
    const GpuSpec &spec = rtx4090();
    // Hot-entry skew increases broadcast hits, lowering the multiplier —
    // this is why register-caching the hottest entries (O2) helps most
    // when the skew is strong.
    std::vector<double> uniform(256, 1.0);
    auto skew = powerLawWeights(256, 2.0);
    double mu = expectedConflictMultiplier(spec, uniform, 8);
    double ms = expectedConflictMultiplier(spec, skew, 8);
    EXPECT_LT(ms, mu);
}

TEST(BankConflict, DeterministicForSeed)
{
    const GpuSpec &spec = rtx4090();
    double a = expectedConflictMultiplier(spec, 256, 8, 256, 99);
    double b = expectedConflictMultiplier(spec, 256, 8, 256, 99);
    EXPECT_DOUBLE_EQ(a, b);
}

TEST(BankConflict, EmptyWarpCostsOneTransactionPerPhase)
{
    const GpuSpec &spec = rtx4090();
    EXPECT_EQ(warpTransactions(spec, {}, 8), 2u);
    EXPECT_EQ(referenceWarpTransactions(spec, {}, 8), 2u);
}

TEST(BankConflict, MatchesReferenceOnRandomWarps)
{
    // 12k seeded warps: 1-32 lanes, 1-32 bytes per lane, unaligned
    // byte addresses drawn either from a few entries (many broadcasts
    // and same-bank collisions) or spread over 64 KiB, on the stock
    // 32-bank spec and on a 16-bank variant.
    GpuSpec narrow = rtx4090();
    narrow.smem_banks = 16;
    Rng rng(2024);
    for (int trial = 0; trial < 12000; ++trial) {
        const GpuSpec &spec = trial % 4 == 3 ? narrow : rtx4090();
        auto lanes = static_cast<std::size_t>(1 + rng.uniformInt(32));
        auto bytes = static_cast<unsigned>(1 + rng.uniformInt(32));
        const bool clustered = trial % 2 == 0;
        const std::uint64_t pool = 1 + rng.uniformInt(6);
        const std::uint64_t stride = 1 + rng.uniformInt(160);
        std::vector<std::uint32_t> addrs(lanes);
        for (auto &a : addrs) {
            a = static_cast<std::uint32_t>(
                clustered ? rng.uniformInt(pool) * stride
                          : rng.uniformInt(65536));
        }
        ASSERT_EQ(warpTransactions(spec, addrs, bytes),
                  referenceWarpTransactions(spec, addrs, bytes))
            << "trial " << trial << ": " << lanes << " lanes x " << bytes
            << " bytes, " << (clustered ? "clustered" : "spread");
    }
}

TEST(BankConflict, MultiplierMatchesReferenceExactly)
{
    // The estimator must return bit-identical values to a Monte-Carlo
    // run over the reference counter with the same RNG draws.
    const GpuSpec &spec = rtx4090();
    const std::vector<double> uniform(256, 1.0);
    const auto skew = powerLawWeights(512, 1.2);
    EXPECT_EQ(expectedConflictMultiplier(spec, uniform, 8, 256, 7),
              referenceMultiplier(spec, uniform, 8, 256, 7));
    EXPECT_EQ(expectedConflictMultiplier(spec, skew, 12, 128, 8),
              referenceMultiplier(spec, skew, 12, 128, 8));
    EXPECT_EQ(expectedConflictMultiplier(spec, skew, 16, 64, 9),
              referenceMultiplier(spec, skew, 16, 64, 9));
    EXPECT_EQ(expectedConflictMultiplier(spec, 4096, 4, 96, 10),
              referenceMultiplier(spec, std::vector<double>(4096, 1.0), 4,
                                  96, 10));
}

// The estimator is a pure function: the memo in front of it lives in
// the kernel estimators, keyed by the histogram and cache boundaries
// (tests/kernels/test_histogram_estimates.cc).  These tests pin that
// every input decides the estimate and that callers share no state.

TEST(ConflictEstimator, WeightContentNotOnlySizeDecides)
{
    const GpuSpec &spec = rtx4090();
    const std::vector<double> uniform(256, 1.0);
    const auto skew = powerLawWeights(256, 2.0);
    // Same size, entry width, samples and seed: only content differs.
    double mu = expectedConflictMultiplier(spec, uniform, 8, 200, 31);
    double ms = expectedConflictMultiplier(spec, skew, 8, 200, 31);
    EXPECT_NE(mu, ms);
    EXPECT_EQ(ms, referenceMultiplier(spec, skew, 8, 200, 31));
}

TEST(ConflictEstimator, BankCountDecides)
{
    GpuSpec narrow = rtx4090();
    narrow.smem_banks = 16;
    double wide = expectedConflictMultiplier(rtx4090(), 256, 8, 200, 32);
    double m16 = expectedConflictMultiplier(narrow, 256, 8, 200, 32);
    EXPECT_NE(wide, m16);
    EXPECT_EQ(m16, referenceMultiplier(narrow, std::vector<double>(256, 1.0),
                                       8, 200, 32));
}

TEST(ConflictEstimator, ConcurrentCallsMatchSerial)
{
    // Inputs first computed serially and fresh inputs several chunks
    // compute at once through par:: must both return exactly the
    // serial values.
    const GpuSpec &spec = rtx4090();
    constexpr std::size_t kInputs = 8, kRepeats = 8;
    auto weightsFor = [](std::size_t i) {
        return powerLawWeights(64 + 32 * i, 0.5 + 0.25 * i);
    };
    std::vector<double> serial_hit(kInputs), serial_miss(kInputs);
    for (std::size_t i = 0; i < kInputs; ++i) {
        serial_hit[i] =
            expectedConflictMultiplier(spec, weightsFor(i), 8, 128, 500 + i);
        serial_miss[i] =
            referenceMultiplier(spec, weightsFor(i), 8, 128, 600 + i);
    }

    par::setThreads(4);
    std::vector<double> hit(kInputs * kRepeats), miss(kInputs * kRepeats);
    par::parallelFor(kInputs * kRepeats, 1, [&](const par::ChunkRange &c) {
        for (std::size_t j = c.begin; j < c.end; ++j) {
            const std::size_t i = j % kInputs;
            miss[j] = expectedConflictMultiplier(spec, weightsFor(i), 8,
                                                 128, 600 + i);
            hit[j] = expectedConflictMultiplier(spec, weightsFor(i), 8, 128,
                                                500 + i);
        }
    });
    par::setThreads(0);

    for (std::size_t j = 0; j < kInputs * kRepeats; ++j) {
        EXPECT_EQ(hit[j], serial_hit[j % kInputs]) << "call " << j;
        EXPECT_EQ(miss[j], serial_miss[j % kInputs]) << "call " << j;
    }
}

} // namespace
} // namespace vqllm::gpusim
