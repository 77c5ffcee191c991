#include "vq/nearest_entry.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>

#include "common/logging.h"
#include "common/simd.h"

namespace vqllm::vq {

/*
 * Why the sweep returns exactly what a linear scan returns.
 *
 * Let v be the stored axis and P(y) = v.y in exact arithmetic.  By
 * Cauchy-Schwarz every entry c satisfies ||x - c|| >= |P(x) - P(c)| / ||v||
 * for a query x.  Three kinds of rounding separate that bound from the
 * numbers the sweep compares:
 *
 *  1. The double projections.  A dim-term dot product errs by at most
 *     gamma_dim * sum_d |v_d y_d| (gamma_n ~ n * 2^-53), so the true gap is
 *     at least the computed gap minus `slack` = projErr(dim) * (that sum
 *     for x + its maximum over entries), with projErr several times
 *     gamma_dim.
 *  2. The float distance.  simd::squaredDistance rounds each term's
 *     subtraction and square, and each term passes through at most
 *     dim - 1 additions, so the computed distance is at least
 *     D * (1 - (dim + 1) * 2^-24) for the exact distance D, less an
 *     underflow residue under (dim + 2) * 2^-126 (with or without
 *     flush-to-zero).
 *  3. The double arithmetic of the test below: a few ulps.
 *
 * The sweep stops a direction at computed gap g once h = g - slack > 0
 * and h^2 * (1 - distErr(dim)) > best + kTau.  distErr is 16x the float
 * bound of (2) and also covers ||v|| != 1 and (3); kTau exceeds the
 * underflow residue for any dim below 2^20.  Every unscored entry in a
 * stopped direction has a gap no smaller than g (projections are sorted
 * and rounding is monotone), so its computed distance is strictly
 * greater than `best` then, and `best` only falls: it can neither beat
 * nor tie the final winner.  Ties are therefore always scored, and the
 * minimum of (distance, slot) over the scored entries is the linear
 * scan's first strict minimum.
 *
 * The index holds each distinct entry once, at its lowest slot.  An entry
 * whose bits equal those of a lower slot has the same distance to every
 * query, so the scan, which keeps the lowest slot on a tie, never picks
 * it; dropping it changes no answer.  Only equal bits count as copies:
 * +0.0 and -0.0 stay two entries, which is still exact.  Copies have
 * equal projections, so sorting by (projection, bits, slot) makes them
 * adjacent with the lowest slot first.  The order among equal
 * projections does not matter for the sweep, whose ties go by slot.
 *
 * Non-finite entries or queries break the argument (inf - inf, NaN
 * projections), so they take the linear scan, which is the reference.
 */

namespace {

/** Relative rounding allowance for the double projections (>= 8 gamma_dim). */
double
projErr(std::size_t dim)
{
    return static_cast<double>(dim + 2) * 0x1p-50;
}

/** Relative allowance for the float distance (16x its rounding bound). */
double
distErr(std::size_t dim)
{
    return static_cast<double>(dim + 2) * 0x1p-20;
}

/** Absolute allowance for float underflow in a distance. */
constexpr double kTau = 1e-30;

/** Power-iteration steps; any unit axis is exact, a better one prunes more. */
constexpr int kPowerIters = 24;

constexpr float kInf = std::numeric_limits<float>::infinity();

/** The reference: first strict minimum of a scan started from +inf. */
NearestEntryIndex::Match
linearScan(const float *table, std::size_t k, std::size_t dim,
           const float *query)
{
    NearestEntryIndex::Match best{0, kInf};
    for (std::size_t c = 0; c < k; ++c, table += dim) {
        float d = simd::squaredDistance(query, table, dim);
        if (d < best.distance)
            best = {static_cast<std::uint32_t>(c), d};
    }
    return best;
}

/**
 * Principal axis of the rows of a finite [k, dim] table: power iteration
 * on their covariance, in double, started from the covariance column of
 * the highest-variance coordinate.
 */
std::vector<double>
principalAxis(const float *table, std::size_t k, std::size_t dim)
{
    std::vector<double> mean(dim, 0.0);
    for (std::size_t i = 0; i < k; ++i)
        for (std::size_t d = 0; d < dim; ++d)
            mean[d] += table[i * dim + d];
    for (double &m : mean)
        m /= static_cast<double>(k);

    std::vector<double> cov(dim * dim, 0.0), centered(dim);
    for (std::size_t i = 0; i < k; ++i) {
        for (std::size_t d = 0; d < dim; ++d)
            centered[d] = table[i * dim + d] - mean[d];
        for (std::size_t a = 0; a < dim; ++a)
            for (std::size_t b = a; b < dim; ++b)
                cov[a * dim + b] += centered[a] * centered[b];
    }
    for (std::size_t a = 0; a < dim; ++a)
        for (std::size_t b = 0; b < a; ++b)
            cov[a * dim + b] = cov[b * dim + a];

    std::size_t start = 0;
    for (std::size_t d = 1; d < dim; ++d)
        if (cov[d * dim + d] > cov[start * dim + start])
            start = d;
    std::vector<double> axis(dim, 0.0);
    const double scale = cov[start * dim + start];
    if (!(scale > 0)) {
        axis[0] = 1.0; // all entries equal: every axis is as good
        return axis;
    }
    // The largest variance bounds every covariance; dividing by it
    // keeps the iteration clear of overflow and underflow.
    for (double &c : cov)
        c /= scale;
    for (std::size_t d = 0; d < dim; ++d)
        axis[d] = cov[d * dim + start];

    std::vector<double> next(dim);
    for (int it = 0; it <= kPowerIters; ++it) {
        double norm = 0;
        for (double a : axis)
            norm += a * a;
        norm = std::sqrt(norm);
        if (!(norm > 0))
            break;
        for (double &a : axis)
            a /= norm;
        if (it == kPowerIters)
            break;
        for (std::size_t a = 0; a < dim; ++a) {
            double acc = 0;
            for (std::size_t b = 0; b < dim; ++b)
                acc += cov[a * dim + b] * axis[b];
            next[a] = acc;
        }
        axis.swap(next);
    }
    return axis;
}

} // namespace

NearestEntryIndex::NearestEntryIndex(const Tensor<float> &table)
{
    vqllm_assert(table.rank() == 2 && table.dim(0) >= 1 &&
                     table.dim(1) >= 1,
                 "nearest-entry index needs a non-empty [k, dim] table");
    vqllm_assert(table.dim(0) <= std::numeric_limits<std::uint32_t>::max(),
                 "table too large for 32-bit slots");
    k_ = table.dim(0);
    dim_ = table.dim(1);
    const float *t = table.data();
    if (!std::all_of(t, t + table.size(),
                     [](float x) { return std::isfinite(x); }))
        return; // linear_ stays set

    axis_ = principalAxis(t, k_, dim_);
    std::vector<double> proj(k_);
    for (std::size_t i = 0; i < k_; ++i) {
        double p = 0, abs_terms = 0;
        for (std::size_t d = 0; d < dim_; ++d) {
            double term = axis_[d] * t[i * dim_ + d];
            p += term;
            abs_terms += std::abs(term);
        }
        proj[i] = p;
        maxAbsTerms_ = std::max(maxAbsTerms_, abs_terms);
    }
    const std::size_t row_bytes = dim_ * sizeof(float);
    auto row = [&](std::uint32_t s) { return t + s * dim_; };
    std::vector<std::uint32_t> order(k_);
    std::iota(order.begin(), order.end(), 0u);
    std::sort(order.begin(), order.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                  if (proj[a] != proj[b])
                      return proj[a] < proj[b];
                  const int bits = std::memcmp(row(a), row(b), row_bytes);
                  return bits != 0 ? bits < 0 : a < b;
              });
    for (std::size_t i = 0; i < k_; ++i) {
        const std::uint32_t s = order[i];
        if (i > 0 && std::memcmp(row(order[i - 1]), row(s), row_bytes) == 0)
            continue; // a copy of a lower slot
        slot_.push_back(s);
        proj_.push_back(proj[s]);
        entries_.insert(entries_.end(), row(s), row(s) + dim_);
    }
    linear_ = false;
}

NearestEntryIndex::Match
NearestEntryIndex::nearest(const Tensor<float> &table, const float *query,
                           std::size_t *scored) const
{
    vqllm_assert(table.rank() == 2 && table.dim(0) == k_ &&
                     table.dim(1) == dim_,
                 "table does not match its nearest-entry index");
    double px = 0, abs_terms = 0;
    if (!linear_) {
        for (std::size_t d = 0; d < dim_; ++d) {
            double term = axis_[d] * query[d];
            px += term;
            abs_terms += std::abs(term);
        }
    }
    // A non-finite query coordinate always makes its projection
    // non-finite (0 * inf is NaN), so this also routes such queries.
    if (linear_ || !std::isfinite(px)) {
        if (scored)
            *scored = k_;
        return linearScan(table.data(), k_, dim_, query);
    }

    const double slack = projErr(dim_) * (abs_terms + maxAbsTerms_);
    const double keep = 1.0 - distErr(dim_);
    const std::size_t n = proj_.size();
    Match best{0, kInf};
    double limit = std::numeric_limits<double>::infinity(); // best + kTau
    auto score = [&](std::size_t pos) {
        const std::uint32_t s = slot_[pos];
        const float d = simd::squaredDistance(
            query, entries_.data() + pos * dim_, dim_);
        if (d < best.distance || (d == best.distance && s < best.index)) {
            best = {s, d};
            limit = static_cast<double>(d) + kTau;
        }
    };
    auto pruned = [&](double gap) {
        const double h = gap - slack;
        return h > 0 && h * h * keep > limit;
    };
    // Score the nearest position below the query, sweep up from the
    // query's position, then down, each side until its gap prunes the
    // rest of it.  Each side walks consecutive positions of proj_ and
    // entries_, so the next load never waits on a distance.
    const std::size_t start =
        std::lower_bound(proj_.begin(), proj_.end(), px) - proj_.begin();
    std::size_t lo = start;
    if (lo > 0)
        score(--lo);
    std::size_t hi = start;
    for (; hi < n && !pruned(proj_[hi] - px); ++hi)
        score(hi);
    for (; lo > 0 && !pruned(px - proj_[lo - 1]); --lo)
        score(lo - 1);
    if (scored)
        *scored = hi - lo;
    return best;
}

} // namespace vqllm::vq
