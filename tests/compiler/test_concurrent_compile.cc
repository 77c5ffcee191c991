/**
 * @file
 * Concurrent compiles of the Fig. 13 request matrix (QuiP#-4, AQLM-3
 * and GPTVQ-2 GeMM/GeMV, CQ-2 and CQ-4 decode attention, Llama-7B and
 * -65B shapes, all six levels: 252 requests) against histograms the
 * threads share.  Eight threads compile it through one shared engine,
 * then through eight private engines; every estimate, plan and symbol
 * must equal a serial run's.
 *
 * The test is the only one in its process, and the threads compile
 * first, so they make the first touches of the process-wide
 * bank-conflict memo (racing misses included).  Each phase compiles
 * against its own rotation of the counts.  A rotation keeps the
 * frequency-ranked counts, so the tier sums and conflict weights, and
 * (for these counts, whose rounded sigma threshold no count sits on)
 * the hot-entry count; it changes the content digest, so each phase
 * meets memo keys no earlier phase has filled.  The serial reference
 * comes last, on the unrotated counts.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "compiler/engine.h"

namespace vqllm::compiler {
namespace {

using engine::OptLevel;

constexpr std::size_t kThreads = 8;

const vq::VQConfig &
configNamed(const std::string &name)
{
    for (const auto &cfg : vq::paperConfigs())
        if (cfg.name == name)
            return cfg;
    ADD_FAILURE() << "no config " << name;
    return vq::paperConfigs()[0];
}

/** Seeded skewed counts per Tbl. II config, scattered over the entries. */
std::map<std::string, std::vector<std::uint64_t>>
baseCounts()
{
    std::map<std::string, std::vector<std::uint64_t>> counts;
    Rng rng(1313);
    for (const auto &cfg : vq::paperConfigs()) {
        auto &c = counts[cfg.name];
        c.resize(cfg.storedEntries());
        for (std::size_t i = 0; i < c.size(); ++i)
            c[i] = 100000 / (i + 1) + rng.uniformInt(5);
        for (std::size_t i = c.size(); i > 1; --i)
            std::swap(c[i - 1], c[rng.uniformInt(i)]);
    }
    return counts;
}

/** One histogram per config from `counts`, each rotated by `shift`. */
std::map<std::string, vq::AccessHistogram>
histograms(const std::map<std::string, std::vector<std::uint64_t>> &counts,
           std::size_t shift)
{
    std::map<std::string, vq::AccessHistogram> hists;
    for (const auto &[name, c] : counts) {
        auto rotated = c;
        std::rotate(rotated.begin(),
                    rotated.begin() + shift % rotated.size(),
                    rotated.end());
        hists.emplace(name, vq::AccessHistogram(std::move(rotated)));
    }
    return hists;
}

/** The Fig. 13 matrix against `hists`, every case at all six levels. */
std::vector<KernelRequest>
fig13Requests(const std::map<std::string, vq::AccessHistogram> &hists)
{
    std::vector<KernelRequest> cases;
    struct Model
    {
        std::size_t hidden, heads;
    };
    for (const Model &m : {Model{4096, 32}, Model{8192, 64}}) {
        for (const char *name : {"QuiP#-4", "AQLM-3", "GPTVQ-2"}) {
            const auto &cfg = configNamed(name);
            const auto *h = &hists.at(cfg.name);
            for (std::size_t rows : {4096, 1, 16}) {
                const engine::GemmShape shape{rows, m.hidden, m.hidden};
                cases.push_back(
                    rows == 4096
                        ? KernelRequest::gemmOp(shape, cfg, OptLevel::O4, h)
                        : KernelRequest::gemvOp(shape, cfg, OptLevel::O4,
                                                h));
            }
        }
        for (const char *name : {"CQ-2", "CQ-4"}) {
            const auto &cfg = configNamed(name);
            const auto *h = &hists.at(cfg.name);
            for (std::size_t batch : {1, 8})
                for (std::size_t seq : {1024, 4096, 16384})
                    cases.push_back(KernelRequest::attentionOp(
                        {batch, m.heads, seq, 128}, cfg, OptLevel::O4, h));
        }
    }
    std::vector<KernelRequest> requests;
    for (const auto &c : cases)
        for (OptLevel level : engine::kAllOptLevels)
            requests.push_back(c.atLevel(level));
    return requests;
}

using Artifacts = std::vector<std::shared_ptr<const CompiledKernel>>;

/** Compile every request, starting at `offset` and wrapping around;
 *  results are indexed like `requests`. */
Artifacts
compileAll(Engine &eng, const std::vector<KernelRequest> &requests,
           std::size_t offset)
{
    Artifacts out(requests.size());
    for (std::size_t i = 0; i < requests.size(); ++i) {
        const std::size_t r = (offset + i) % requests.size();
        out[r] = eng.compile(requests[r]);
    }
    return out;
}

std::uint64_t
bits(double x)
{
    return std::bit_cast<std::uint64_t>(x);
}

void
expectSameArtifact(const CompiledKernel &a, const CompiledKernel &b,
                   const std::string &what)
{
    EXPECT_EQ(a.symbolName(), b.symbolName()) << what;
    EXPECT_EQ(a.plan().summary(), b.plan().summary()) << what;
    EXPECT_EQ(a.plan().cache_plan.n_reg, b.plan().cache_plan.n_reg) << what;
    EXPECT_EQ(a.plan().cache_plan.n_shared, b.plan().cache_plan.n_shared)
        << what;
    const auto &x = a.estimate().latency, &y = b.estimate().latency;
    EXPECT_EQ(bits(x.total_us), bits(y.total_us)) << what;
    EXPECT_EQ(bits(x.dram_us), bits(y.dram_us)) << what;
    EXPECT_EQ(bits(x.smem_us), bits(y.smem_us)) << what;
    EXPECT_EQ(bits(x.compute_us), bits(y.compute_us)) << what;
    EXPECT_EQ(bits(x.latency_bound_us), bits(y.latency_bound_us)) << what;
    EXPECT_EQ(bits(x.reduce_us), bits(y.reduce_us)) << what;
    EXPECT_EQ(bits(x.launch_us), bits(y.launch_us)) << what;
    const auto &c = a.estimate().counters, &d = b.estimate().counters;
    EXPECT_EQ(c.smem_transactions, d.smem_transactions) << what;
    EXPECT_EQ(c.smem_ideal_transactions, d.smem_ideal_transactions) << what;
    EXPECT_EQ(c.dram_read_bytes, d.dram_read_bytes) << what;
    EXPECT_EQ(c.shared_to_reg_bytes, d.shared_to_reg_bytes) << what;
    EXPECT_EQ(c.global_to_shared_bytes, d.global_to_shared_bytes) << what;
}

TEST(ConcurrentCompile, Fig13MatrixMatchesSerialRun)
{
    const auto counts = baseCounts();
    const auto gpu = gpusim::rtx4090();

    // Phase 1: eight threads, one shared engine.
    const auto shared_hists = histograms(counts, 1);
    const auto shared_requests = fig13Requests(shared_hists);
    Engine shared_engine(gpu);
    std::vector<Artifacts> shared_out(kThreads);
    {
        std::vector<std::thread> threads;
        for (std::size_t t = 0; t < kThreads; ++t)
            threads.emplace_back([&, t] {
                shared_out[t] = compileAll(shared_engine, shared_requests,
                                           t * 31);
            });
        for (auto &th : threads)
            th.join();
    }

    // Phase 2: eight threads, a private engine each.
    const auto private_hists = histograms(counts, 2);
    const auto private_requests = fig13Requests(private_hists);
    std::vector<Artifacts> private_out(kThreads);
    {
        std::vector<std::thread> threads;
        for (std::size_t t = 0; t < kThreads; ++t)
            threads.emplace_back([&, t] {
                Engine own(gpu);
                private_out[t] =
                    compileAll(own, private_requests, t * 31);
            });
        for (auto &th : threads)
            th.join();
    }

    // The serial reference, on the unrotated counts.
    const auto serial_hists = histograms(counts, 0);
    const auto serial_requests = fig13Requests(serial_hists);
    ASSERT_EQ(serial_requests.size(), 252u);
    Engine serial_engine(gpu);
    const Artifacts serial = compileAll(serial_engine, serial_requests, 0);

    for (std::size_t t = 0; t < kThreads; ++t) {
        for (std::size_t r = 0; r < serial.size(); ++r) {
            const std::string what = "thread " + std::to_string(t) +
                                     " request " + std::to_string(r) +
                                     " " + serial[r]->symbolName();
            expectSameArtifact(*shared_out[t][r], *serial[r],
                               "shared engine, " + what);
            expectSameArtifact(*private_out[t][r], *serial[r],
                               "private engine, " + what);
            // One engine hands every thread the same artifact.
            EXPECT_EQ(shared_out[t][r], shared_out[0][r]) << what;
        }
    }
    const CacheStats stats = shared_engine.stats();
    EXPECT_EQ(stats.misses, serial.size());
    EXPECT_EQ(stats.hits, (kThreads - 1) * serial.size());
}

} // namespace
} // namespace vqllm::compiler
