/**
 * @file
 * Property tests for the exact nearest-entry search: on seeded random
 * tables it must return exactly what the linear scans it replaced
 * returned — the same slot and the same float distance — including
 * ties, duplicates, ulp-close entries, extreme magnitudes and
 * non-finite rows and entries.  The scans are kept here as test-local
 * references.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/simd.h"
#include "vq/codebook.h"
#include "vq/kmeans.h"
#include "vq/nearest_entry.h"

namespace vqllm::vq {
namespace {

/** Reference: the k-means assignment scan (float best from FLT_MAX). */
std::pair<std::uint32_t, double>
refNearestCentroid(const float *row, const Tensor<float> &centroids)
{
    const std::size_t k = centroids.dim(0);
    const std::size_t dim = centroids.dim(1);
    float best = std::numeric_limits<float>::max();
    std::uint32_t best_c = 0;
    const float *cand = centroids.data();
    for (std::size_t c = 0; c < k; ++c, cand += dim) {
        float d = simd::squaredDistance(row, cand, dim);
        if (d < best) {
            best = d;
            best_c = static_cast<std::uint32_t>(c);
        }
    }
    return {best_c, static_cast<double>(best)};
}

/** Reference: the plain-codebook encode scan (double best from DBL_MAX). */
std::pair<std::uint32_t, double>
refPlainEncode(const float *sub, const Tensor<float> &entries)
{
    const std::size_t n = entries.dim(0);
    const std::size_t vec = entries.dim(1);
    double best = std::numeric_limits<double>::max();
    std::uint32_t best_idx = 0;
    const float *cand = entries.data();
    for (std::size_t e = 0; e < n; ++e, cand += vec) {
        double d = simd::squaredDistance(sub, cand, vec);
        if (d < best) {
            best = d;
            best_idx = static_cast<std::uint32_t>(e);
        }
    }
    return {best_idx, best};
}

/** Bitwise float equality (treats equal NaN payloads as equal). */
bool
sameBits(float a, float b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

/** Check every query row against both references. */
void
expectMatchesReferences(const Tensor<float> &table,
                        const Tensor<float> &queries,
                        const std::string &what)
{
    const NearestEntryIndex index(table);
    const std::size_t dim = table.dim(1);
    const auto assigned = assignToNearest(queries, table);
    for (std::size_t q = 0; q < queries.dim(0); ++q) {
        const float *row = queries.data() + q * dim;
        const auto got = index.nearest(table, row);
        const auto enc = refPlainEncode(row, table);
        ASSERT_EQ(got.index, enc.first) << what << " query " << q;
        ASSERT_TRUE(sameBits(got.distance, static_cast<float>(enc.second)))
            << what << " query " << q << ": " << got.distance << " vs "
            << enc.second;
        const auto km = refNearestCentroid(row, table);
        if (km.second < std::numeric_limits<float>::max()) {
            ASSERT_EQ(got.index, km.first) << what << " query " << q;
            ASSERT_EQ(static_cast<double>(got.distance), km.second)
                << what << " query " << q;
        }
        // The k-means entry point, including its FLT_MAX start for rows
        // with no finite distance.
        ASSERT_EQ(assigned[q], km.first)
            << what << " assignToNearest row " << q;
    }
}

Tensor<float>
gaussianTable(std::size_t k, std::size_t dim, double scale, Rng &rng)
{
    Tensor<float> t({k, dim});
    for (std::size_t i = 0; i < t.size(); ++i)
        t[i] = static_cast<float>(rng.normal(0.0, scale));
    return t;
}

/**
 * Queries that stress the search: random rows, copies of entries (zero
 * distance), entries nudged by one ulp, midpoints of entry pairs,
 * all-zero rows and rows far outside the table.
 */
Tensor<float>
stressQueries(const Tensor<float> &table, double scale, Rng &rng,
              std::size_t n = 96)
{
    const std::size_t k = table.dim(0);
    const std::size_t dim = table.dim(1);
    Tensor<float> q({n, dim});
    for (std::size_t i = 0; i < n; ++i) {
        float *row = q.data() + i * dim;
        const float *a = table.data() + rng.uniformInt(k) * dim;
        const float *b = table.data() + rng.uniformInt(k) * dim;
        for (std::size_t d = 0; d < dim; ++d) {
            switch (i % 6) {
              case 0:
                row[d] = static_cast<float>(rng.normal(0.0, scale));
                break;
              case 1:
                row[d] = a[d];
                break;
              case 2:
                row[d] = std::nextafter(
                    a[d], rng.uniform() < 0.5
                              ? -std::numeric_limits<float>::infinity()
                              : std::numeric_limits<float>::infinity());
                break;
              case 3:
                row[d] = a[d] / 2 + b[d] / 2;
                break;
              case 4:
                row[d] = 0.0f;
                break;
              default:
                row[d] = static_cast<float>(rng.normal(0.0, scale * 1e3));
                break;
            }
        }
    }
    return q;
}

TEST(NearestEntrySearch, MatchesLinearScansOnRandomTables)
{
    Rng rng(17);
    for (std::size_t dim : {1, 2, 4, 8, 16}) {
        for (std::size_t k : {1, 2, 255, 4096}) {
            for (double scale : {1.0, 1e-20, 1e18}) {
                // Distances at 1e-20 are float subnormals, which cost
                // ~70x more to compute: fewer queries there.
                auto table = gaussianTable(k, dim, scale, rng);
                auto queries =
                    stressQueries(table, scale, rng, scale < 1 ? 24 : 96);
                expectMatchesReferences(
                    table, queries,
                    "dim " + std::to_string(dim) + " k " +
                        std::to_string(k) + " scale " +
                        std::to_string(scale));
            }
        }
    }
}

TEST(NearestEntrySearch, DuplicateAndUlpCloseEntries)
{
    Rng rng(18);
    for (std::size_t dim : {1, 2, 4, 8, 16}) {
        for (std::size_t k : {2, 255, 4096}) {
            // A few distinct rows, each repeated or nudged by one ulp:
            // the shape k-means leaves when k exceeds the sampled rows.
            auto base = gaussianTable(std::max<std::size_t>(k / 3, 1), dim,
                                      1.0, rng);
            Tensor<float> table({k, dim});
            for (std::size_t i = 0; i < k; ++i) {
                const float *src =
                    base.data() + rng.uniformInt(base.dim(0)) * dim;
                const bool nudge = rng.uniform() < 0.3;
                for (std::size_t d = 0; d < dim; ++d)
                    table.at(i, d) =
                        nudge ? std::nextafter(src[d], 10.0f) : src[d];
            }
            auto queries = stressQueries(table, 1.0, rng);
            expectMatchesReferences(table, queries,
                                    "dup dim " + std::to_string(dim) +
                                        " k " + std::to_string(k));
        }
    }
}

TEST(NearestEntrySearch, ExactEquidistantTiesPickLowestSlot)
{
    // Small integers: every distance is exact, so queries on the integer
    // grid hit many exact ties, which must resolve to the lowest slot.
    Rng rng(19);
    for (std::size_t dim : {1, 2, 4, 8, 16}) {
        for (std::size_t k : {2, 255, 4096}) {
            Tensor<float> table({k, dim});
            for (std::size_t i = 0; i < table.size(); ++i)
                table[i] = static_cast<float>(rng.uniformInt(7)) - 3.0f;
            Tensor<float> queries({64, dim});
            for (std::size_t i = 0; i < queries.size(); ++i)
                queries[i] = static_cast<float>(rng.uniformInt(9)) - 4.0f;
            expectMatchesReferences(table, queries,
                                    "grid dim " + std::to_string(dim) +
                                        " k " + std::to_string(k));
        }
    }
    // One explicit tie: the query sits halfway between slots 1 and 0,
    // and slot 2 duplicates slot 0.
    Tensor<float> table({3, 2});
    const float vals[] = {1, 0, -1, 0, 1, 0};
    std::memcpy(table.data(), vals, sizeof vals);
    const NearestEntryIndex index(table);
    const float mid[2] = {0, 0};
    EXPECT_EQ(index.nearest(table, mid).index, 0u);
    EXPECT_EQ(index.nearest(table, mid).distance, 1.0f);
}

TEST(NearestEntrySearch, RoundedDistanceTiesPickLowestSlot)
{
    // Slot 0 is farther than slot 1 in exact arithmetic, but float
    // rounding gives both the same distance, so the scan keeps slot 0.
    // Whenever the sweep scores slot 1 first, the exact gap of slot 0
    // must not prune it: the relative margin covers the first pair,
    // where x - c rounds, and the absolute one the second, where the
    // squares round to subnormals.  Both mirror images run, so either
    // sweep order meets the tie.
    for (std::size_t dim : {1, 2, 8}) {
        for (float far : {1e6f, 0x1.8p-76f}) {
            for (float side : {1.0f, -1.0f}) {
                const float near = far == 1e6f ? 1e6f : 0x1.4p-76f;
                const float offset = far == 1e6f ? 1e-3f : 0.0f;
                Tensor<float> table({2, dim});
                table.fill(0.0f);
                table.at(std::size_t(0), std::size_t(0)) = -side * far;
                table.at(std::size_t(1), std::size_t(0)) = side * near;
                Tensor<float> query({1, dim});
                query.fill(0.0f);
                query.at(std::size_t(0), std::size_t(0)) = side * offset;
                const float *q = query.data();
                ASSERT_EQ(simd::squaredDistance(q, table.data(), dim),
                          simd::squaredDistance(q, table.data() + dim, dim));
                EXPECT_EQ(NearestEntryIndex(table).nearest(table, q).index,
                          0u)
                    << "dim " << dim << " far " << far << " side " << side;
                expectMatchesReferences(table, query,
                                        "rounded tie dim " +
                                            std::to_string(dim));
            }
        }
    }
}

TEST(NearestEntrySearch, NonFiniteRowsAndEntries)
{
    Rng rng(20);
    const float inf = std::numeric_limits<float>::infinity();
    const float nan = std::numeric_limits<float>::quiet_NaN();
    for (std::size_t dim : {1, 2, 4, 8, 16}) {
        for (std::size_t k : {1, 2, 255, 4096}) {
            // Finite table, non-finite query coordinates.
            auto table = gaussianTable(k, dim, 1.0, rng);
            auto queries = stressQueries(table, 1.0, rng);
            for (std::size_t q = 0; q < queries.dim(0); q += 3)
                queries.at(q, rng.uniformInt(dim)) =
                    q % 2 ? nan : (q % 4 ? inf : -inf);
            expectMatchesReferences(table, queries,
                                    "nonfinite rows dim " +
                                        std::to_string(dim) + " k " +
                                        std::to_string(k));
            // Non-finite entries (the linear path).
            for (std::size_t e = 0; e < k; e += 7)
                table.at(e, rng.uniformInt(dim)) =
                    e % 2 ? nan : (e % 3 ? inf : -inf);
            expectMatchesReferences(table, queries,
                                    "nonfinite entries dim " +
                                        std::to_string(dim) + " k " +
                                        std::to_string(k));
        }
    }
}

TEST(NearestEntrySearch, OverflowingDistancesMatch)
{
    // Finite inputs whose squared distances overflow float: infinite
    // distances never win, and a row with no finite distance goes to
    // slot 0.
    Rng rng(21);
    for (std::size_t dim : {1, 4, 16}) {
        auto table = gaussianTable(255, dim, 3e37, rng);
        auto queries = stressQueries(table, 3e37, rng);
        expectMatchesReferences(table, queries,
                                "overflow dim " + std::to_string(dim));
    }
}

TEST(NearestEntrySearch, PrunesLowDimensionalTables)
{
    // A full scan would be exact too; the point of the index is to
    // score a small share of the table.
    Rng rng(22);
    for (std::size_t dim : {1, 2}) {
        auto table = gaussianTable(4096, dim, 1.0, rng);
        auto queries = gaussianTable(200, dim, 1.0, rng);
        const NearestEntryIndex index(table);
        std::size_t scored = 0;
        for (std::size_t q = 0; q < queries.dim(0); ++q) {
            std::size_t s = 0;
            index.nearest(table, queries.data() + q * dim, &s);
            scored += s;
        }
        EXPECT_LT(scored, queries.dim(0) * 4096 / 10) << "dim " << dim;
    }
}

TEST(NearestEntrySearch, PlainCodebookEncodeMatchesReference)
{
    // Codebook::encode's plain branch goes through the book's own index;
    // it must agree with the scan over the FP16-rounded entries, also
    // after a reorder and in copies of the book.
    Rng rng(23);
    for (std::size_t dim : {2, 4, 8}) {
        for (std::size_t k : {1, 255, 4096}) {
            auto cb = Codebook::plain(gaussianTable(k, dim, 1.0, rng));
            std::vector<std::uint32_t> perm(k);
            for (std::size_t i = 0; i < k; ++i)
                perm[i] = static_cast<std::uint32_t>(k - 1 - i);
            Codebook reordered = cb;
            reordered.reorder(perm);
            for (const Codebook *book : {&cb, &reordered}) {
                const Codebook copy = *book;
                auto queries = stressQueries(copy.entries(), 1.0, rng);
                for (std::size_t q = 0; q < queries.dim(0); ++q) {
                    const float *row = queries.data() + q * dim;
                    double err = -1;
                    auto got = copy.encode(row, &err);
                    auto ref = refPlainEncode(row, copy.entries());
                    ASSERT_EQ(got, ref.first) << "k " << k << " q " << q;
                    double want = 0;
                    for (std::size_t d = 0; d < dim; ++d) {
                        double diff = static_cast<double>(row[d]) -
                                      copy.entries().at(std::size_t(got), d);
                        want += diff * diff;
                    }
                    ASSERT_EQ(err, want);
                }
            }
        }
    }
}

/** Number of rows of `t` with distinct bits. */
std::size_t
distinctRows(const Tensor<float> &t)
{
    const std::size_t bytes = t.dim(1) * sizeof(float);
    std::set<std::string> rows;
    for (std::size_t i = 0; i < t.dim(0); ++i)
        rows.emplace(reinterpret_cast<const char *>(t.data()) + i * bytes,
                     bytes);
    return rows.size();
}

/** Every query matches the references and scores distinct rows only. */
void
expectMatchesWithCopies(const Tensor<float> &table,
                        const Tensor<float> &queries,
                        const std::string &what)
{
    expectMatchesReferences(table, queries, what);
    const NearestEntryIndex index(table);
    const std::size_t distinct = distinctRows(table);
    for (std::size_t q = 0; q < queries.dim(0); ++q) {
        std::size_t scored = 0;
        index.nearest(table, queries.data() + q * table.dim(1), &scored);
        ASSERT_LE(scored, distinct) << what << " query " << q;
    }
}

TEST(NearestEntrySearch, KMeansShapedTablesWithCopies)
{
    // k-means with more centroids than sampled rows leaves exact copies
    // of rows at scattered slots; the index keeps the lowest slot of
    // each and must still answer exactly what the scans answer.
    Rng rng(25);
    for (std::size_t dim : {1, 2, 4, 8, 16}) {
        for (std::size_t k : {8, 255, 4096}) {
            const std::string at =
                " dim " + std::to_string(dim) + " k " + std::to_string(k);
            // Few distinct rows at random slots.  Rows 0 and 1 are
            // +0.0/-0.0 twins (equal distances, different bits), and the
            // -0.0 twin takes slot 0: it sorts after its twin, so the
            // lowest slot is not the first of the two in the sweep.
            auto base = gaussianTable(std::max<std::size_t>(k / 5, 4), dim,
                                      1.0, rng);
            base.at(std::size_t(0), std::size_t(0)) = 0.0f;
            for (std::size_t d = 0; d < dim; ++d)
                base.at(std::size_t(1), d) = base.at(std::size_t(0), d);
            base.at(std::size_t(1), std::size_t(0)) = -0.0f;
            Tensor<float> table({k, dim});
            for (std::size_t i = 0; i < k; ++i) {
                const std::size_t src =
                    i < 2 ? 1 - i : rng.uniformInt(base.dim(0));
                for (std::size_t d = 0; d < dim; ++d)
                    table.at(i, d) = base.at(src, d);
            }
            ASSERT_LT(distinctRows(table), k) << at;
            // stressQueries copies table rows; add the twins and the
            // origin, which is equidistant from both twins.
            auto queries = stressQueries(table, 1.0, rng);
            for (std::size_t q = 0; q < 3; ++q)
                for (std::size_t d = 0; d < dim; ++d)
                    queries.at(q, d) = q == 2 ? 0.0f : base.at(q, d);
            expectMatchesWithCopies(table, queries, "copies" + at);

            // A real fit with more centroids than sampled rows.
            KMeansOptions opts;
            opts.max_iters = 4;
            opts.sample_limit = std::max<std::size_t>(k / 4, 1);
            auto data = gaussianTable(2 * k, dim, 1.0, rng);
            auto fitted = kMeansCentroids(data, k, opts);
            auto fit_queries = stressQueries(fitted, 1.0, rng);
            expectMatchesWithCopies(fitted, fit_queries, "fit" + at);

            // Distinct float rows that collide after FP16 rounding.
            Tensor<float> close({k, dim});
            for (std::size_t i = 0; i < k; ++i)
                for (std::size_t d = 0; d < dim; ++d)
                    close.at(i, d) = base.at(i % base.dim(0), d) *
                                     (1.0f + 1e-5f * (i / base.dim(0)));
            const Codebook cb = Codebook::plain(close);
            ASSERT_LT(distinctRows(cb.entries()), distinctRows(close))
                << at;
            auto book_queries = stressQueries(cb.entries(), 1.0, rng);
            expectMatchesWithCopies(cb.entries(), book_queries,
                                    "fp16" + at);
            for (std::size_t q = 0; q < book_queries.dim(0); ++q) {
                const float *row = book_queries.data() + q * dim;
                ASSERT_EQ(cb.encode(row),
                          refPlainEncode(row, cb.entries()).first)
                    << "fp16 encode" << at << " query " << q;
            }
        }
    }
}

TEST(NearestEntrySearchDeath, RejectsMismatchedTable)
{
    Rng rng(24);
    auto table = gaussianTable(8, 4, 1.0, rng);
    auto other = gaussianTable(9, 4, 1.0, rng);
    const NearestEntryIndex index(table);
    const float q[4] = {0, 0, 0, 0};
    EXPECT_DEATH(index.nearest(other, q), "does not match");
    EXPECT_DEATH({ NearestEntryIndex empty{Tensor<float>({0, 4})}; },
                 "non-empty");
}

} // namespace
} // namespace vqllm::vq
