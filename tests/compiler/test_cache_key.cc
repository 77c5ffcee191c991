/**
 * @file
 * Cache-key canonicalization tests: every plan-affecting request input
 * must separate keys (histogram presence, size and contents, level,
 * shape, kind, config), while equivalent spellings of one request
 * (attention kv_heads MHA default, the unused shape member, an equal
 * histogram at another address or built from equal counts) must
 * collide.
 * The struct key is checked against a reference string key on seeded
 * random request pairs.  The engine's planning policy is not part of
 * the key; the policy tests check that the engine owning it plans with
 * it.
 */
#include <gtest/gtest.h>

#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "common/hash.h"
#include "common/rng.h"
#include "compiler/engine.h"
#include "vq/profiler.h"

namespace vqllm::compiler {
namespace {

using engine::OptLevel;

KernelRequest
baseRequest()
{
    return KernelRequest::gemvOp({1, 4096, 4096}, vq::gptvq2(),
                                 OptLevel::O4);
}

/**
 * Reference key: the string the cache used to be keyed on, without its
 * engine-constant spec and policy suffix.  Two requests must share a
 * KernelKey exactly when they share this string.
 */
std::string
referenceKey(const KernelRequest &request)
{
    std::ostringstream key;
    key << "op=" << engine::opKindName(request.kind) << "|shape=";
    if (request.kind == engine::OpKind::AttentionDecode) {
        key << request.attn.batch << "," << request.attn.heads << ","
            << request.attn.seq_len << "," << request.attn.head_dim
            << "," << request.attn.kvHeads();
    } else {
        key << request.gemm.m << "," << request.gemm.n << ","
            << request.gemm.k;
    }
    const auto &cfg = request.config;
    key << "|cfg=" << cfg.name << "/" << cfg.vector_size << "/"
        << cfg.num_entries << "/" << cfg.residuals << "/"
        << static_cast<int>(cfg.scope) << "/" << (cfg.lattice ? 1 : 0)
        << "/" << cfg.lattice_base_entries;
    key << "|lvl=" << engine::optLevelName(request.level);
    key << "|hist=";
    if (request.histogram == nullptr) {
        key << "none";
    } else {
        const auto &counts = request.histogram->counts();
        key << counts.size() << ":" << std::hex
            << fnv1a(counts.data(), counts.size() * sizeof counts[0]);
    }
    return key.str();
}

/**
 * Histograms the random requests point at: two sizes times three
 * skews, each stored twice so equal contents sit at two addresses
 * (slots 2i and 2i + 1).
 */
std::vector<vq::AccessHistogram>
histogramPool()
{
    std::vector<vq::AccessHistogram> pool;
    for (std::size_t entries : {256, 512}) {
        for (double alpha : {0.5, 1.0, 1.5}) {
            auto hist = vq::syntheticZipfHistogram(entries, alpha);
            pool.push_back(hist);
            pool.push_back(hist);
        }
    }
    return pool;
}

template <typename T>
T
pick(Rng &rng, const std::vector<T> &values)
{
    return values[rng.uniformInt(values.size())];
}

OptLevel
randomLevel(Rng &rng)
{
    return engine::kAllOptLevels[rng.uniformInt(
        std::size(engine::kAllOptLevels))];
}

KernelRequest
randomRequest(Rng &rng, const std::vector<vq::AccessHistogram> &hists)
{
    KernelRequest r;
    r.kind = pick<engine::OpKind>(rng, {engine::OpKind::GeMM,
                                        engine::OpKind::GeMV,
                                        engine::OpKind::AttentionDecode});
    r.gemm = {pick<std::size_t>(rng, {1, 16, 4096}),
              pick<std::size_t>(rng, {4096, 11008}),
              pick<std::size_t>(rng, {4096, 11008})};
    r.attn.batch = pick<std::size_t>(rng, {1, 8});
    r.attn.heads = pick<std::size_t>(rng, {32, 64});
    r.attn.seq_len = pick<std::size_t>(rng, {1024, 4096});
    r.attn.head_dim = pick<std::size_t>(rng, {64, 128});
    r.attn.kv_heads = pick<std::size_t>(rng, {0, r.attn.heads, 8});
    r.config = pick(rng, vq::paperConfigs());
    r.level = randomLevel(rng);
    if (rng.uniformInt(3) != 0)
        r.histogram = &hists[rng.uniformInt(hists.size())];
    return r;
}

/** Change one field of `cfg` (every VQConfig field has a case). */
void
mutateConfig(Rng &rng, vq::VQConfig &cfg)
{
    switch (rng.uniformInt(7)) {
      case 0:
        cfg.name += "'";
        break;
      case 1:
        cfg.vector_size = cfg.vector_size == 4 ? 8 : 4;
        break;
      case 2:
        cfg.num_entries *= 2;
        break;
      case 3:
        cfg.residuals = cfg.residuals == 1 ? 2 : 1;
        break;
      case 4:
        cfg.scope = static_cast<vq::CodebookScope>(
            (static_cast<int>(cfg.scope) + 1) % 3);
        break;
      case 5:
        cfg.lattice = !cfg.lattice;
        break;
      default:
        cfg.lattice_base_entries *= 2;
        break;
    }
}

/**
 * Apply one random edit to `r`.  Some edits must change the key (a
 * single config field, one dimension of the active shape, the kind,
 * the histogram's size or contents), others must not (the unused shape
 * member, kv_heads between 0 and its explicit value, an equal
 * histogram at another address); level and kv_heads edits may land on
 * the old value.
 */
void
mutateRequest(Rng &rng, const std::vector<vq::AccessHistogram> &hists,
              KernelRequest &r)
{
    const bool attention = r.kind == engine::OpKind::AttentionDecode;
    const auto edit = rng.uniformInt(9);
    switch (edit) {
      case 0:
        r.level = randomLevel(rng);
        break;
      case 1:
        // GeMM <-> GeMV keeps the shape; attention swaps it.
        r.kind = attention ? engine::OpKind::GeMV
                 : r.kind == engine::OpKind::GeMM
                     ? engine::OpKind::GeMV
                     : engine::OpKind::GeMM;
        break;
      case 2:
      case 3:
        // One dimension of the active (case 2) or the unused (case 3)
        // shape member.
        if ((edit == 2) == attention) {
            std::size_t *dims[] = {&r.attn.batch, &r.attn.heads,
                                   &r.attn.seq_len, &r.attn.head_dim};
            *dims[rng.uniformInt(4)] += 1;
        } else {
            std::size_t *dims[] = {&r.gemm.m, &r.gemm.n, &r.gemm.k};
            *dims[rng.uniformInt(3)] += 1;
        }
        break;
      case 4:
        r.attn.kv_heads = pick<std::size_t>(rng, {0, r.attn.heads, 8});
        break;
      case 5:
        mutateConfig(rng, r.config);
        break;
      case 6:
        // Drop the histogram, or add one where there was none.
        r.histogram = r.histogram == nullptr ? &hists[0] : nullptr;
        break;
      case 7:
        // The equal-content twin at another address.
        if (r.histogram != nullptr)
            r.histogram = &hists[(r.histogram - hists.data()) ^ 1];
        break;
      default:
        // Any histogram of the pool: another size, another content or
        // the same one.
        if (r.histogram != nullptr)
            r.histogram = &hists[rng.uniformInt(hists.size())];
        break;
    }
}

TEST(CacheKey, MatchesReferenceStringKeyOnRandomPairs)
{
    const auto hists = histogramPool();
    constexpr int kPairs = 12000;
    Rng rng(1414);
    int equal = 0;
    for (int trial = 0; trial < kPairs; ++trial) {
        KernelRequest a = randomRequest(rng, hists);
        KernelRequest b = a;
        auto edits = rng.uniformInt(3);
        for (std::uint64_t e = 0; e < edits; ++e)
            mutateRequest(rng, hists, b);
        const std::string ref_a = referenceKey(a);
        const std::string ref_b = referenceKey(b);
        const bool same = ref_a == ref_b;
        ASSERT_EQ(Engine::cacheKey(a) == Engine::cacheKey(b), same)
            << "trial " << trial << "\n  a: " << ref_a
            << "\n  b: " << ref_b;
        equal += same;
    }
    // Both outcomes must be common, or the comparison proves little.
    EXPECT_GT(equal, kPairs / 5);
    EXPECT_LT(equal, kPairs * 4 / 5);
}

TEST(CacheKey, IdenticalRequestsShareAKey)
{
    EXPECT_EQ(Engine::cacheKey(baseRequest()),
              Engine::cacheKey(baseRequest()));
}

TEST(CacheKey, HistogramPresenceSeparatesKeys)
{
    auto hist = vq::syntheticZipfHistogram(256);
    auto with = baseRequest();
    with.histogram = &hist;
    EXPECT_NE(Engine::cacheKey(baseRequest()), Engine::cacheKey(with));
}

TEST(CacheKey, HistogramContentsSeparateKeys)
{
    auto flat = vq::syntheticZipfHistogram(256, 0.1);
    auto skewed = vq::syntheticZipfHistogram(256, 1.5);
    auto a = baseRequest();
    a.histogram = &flat;
    auto b = baseRequest();
    b.histogram = &skewed;
    EXPECT_NE(Engine::cacheKey(a), Engine::cacheKey(b));

    // Same contents at a different address: same key (content hash,
    // not pointer identity).
    auto flat_copy = flat;
    auto c = baseRequest();
    c.histogram = &flat_copy;
    EXPECT_EQ(Engine::cacheKey(a), Engine::cacheKey(c));
}

TEST(CacheKey, ShuffleThresholdChangesThePlan)
{
    // Policy is an engine constant and not part of the key, so each
    // engine must plan with its own.
    EngineOptions strict;
    strict.shuffle_threshold = 0;
    Engine defaults(gpusim::rtx4090());
    Engine no_shuffles(gpusim::rtx4090(), strict);
    // GPTVQ-2's GeMV needs 3 shuffles: fused by default, not at 0.
    auto fused = defaults.compile(baseRequest());
    auto unfused = no_shuffles.compile(baseRequest());
    EXPECT_EQ(fused->plan().fusion.level, engine::FusionLevel::Register);
    EXPECT_EQ(unfused->plan().fusion.level, engine::FusionLevel::Shared);
    EXPECT_NE(fused->plan().summary(), unfused->plan().summary());
}

TEST(CacheKey, HistogramsBuiltFromEqualCountsCollide)
{
    // Two histograms built separately from equal counts (not copies of
    // one value) derive the same digest, so they share a key.
    std::vector<std::uint64_t> counts(512);
    Rng rng(512);
    for (auto &c : counts)
        c = rng.uniformInt(100);
    const vq::AccessHistogram a(counts), b(counts);
    auto ra = baseRequest();
    ra.histogram = &a;
    auto rb = baseRequest();
    rb.histogram = &b;
    EXPECT_EQ(Engine::cacheKey(ra), Engine::cacheKey(rb));
    EXPECT_EQ(Engine::cacheKey(ra).histogram_digest, a.digest());
}

TEST(CacheKey, LevelShapeKindAndConfigSeparateKeys)
{
    auto base = Engine::cacheKey(baseRequest());

    EXPECT_NE(base,
              Engine::cacheKey(baseRequest().atLevel(OptLevel::O2)));

    auto wider = KernelRequest::gemvOp({1, 8192, 4096}, vq::gptvq2(),
                                       OptLevel::O4);
    EXPECT_NE(base, Engine::cacheKey(wider));

    auto gemm = KernelRequest::gemmOp({1, 4096, 4096}, vq::gptvq2(),
                                      OptLevel::O4);
    EXPECT_NE(base, Engine::cacheKey(gemm));

    auto quip = KernelRequest::gemvOp({1, 4096, 4096}, vq::quip4(),
                                      OptLevel::O4);
    EXPECT_NE(base, Engine::cacheKey(quip));
}

TEST(CacheKey, AttentionMhaDefaultIsCanonical)
{
    engine::AttnShape implicit{1, 32, 1024, 128}; // kv_heads = 0 (MHA)
    engine::AttnShape explicit_mha{1, 32, 1024, 128, 32};
    engine::AttnShape gqa{1, 32, 1024, 128, 8};
    auto key = [](const engine::AttnShape &s) {
        return Engine::cacheKey(
            KernelRequest::attentionOp(s, vq::cq2(), OptLevel::O4));
    };
    EXPECT_EQ(key(implicit), key(explicit_mha));
    EXPECT_NE(key(implicit), key(gqa));
}

TEST(CacheKey, GemmAndAttentionShapesDoNotLeakAcrossKinds)
{
    // The non-active shape member must not contribute: two GeMV
    // requests differing only in the attn member collide, as do two
    // attention requests differing only in gemm.
    auto a = baseRequest();
    auto b = baseRequest();
    b.attn = engine::AttnShape{7, 7, 7, 7};
    EXPECT_EQ(Engine::cacheKey(a), Engine::cacheKey(b));
}

} // namespace
} // namespace vqllm::compiler
