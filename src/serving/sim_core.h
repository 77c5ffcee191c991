/**
 * @file
 * Stepping core of the serving simulator: one replica's event loop.
 *
 * The core owns the replica clock policy.  enqueue() hands it requests
 * that arrive later; advance() delivers the arrivals that are due,
 * fast-forwards an idle clock to the next arrival, then steps once;
 * nextEventUs() says when that next advance() happens.
 * ServingSimulator::run() enqueues its whole trace and advances until
 * nextEventUs() is +inf.  The fleet layer (src/fleet/) keeps one core
 * per replica on one global timeline, routes arrivals into them and
 * advances the core with the lowest nextEventUs().
 *
 * Beyond the bare loop the core adds the two hooks disaggregated
 * serving needs:
 *  - a request flagged kv_imported admits through the scheduler's
 *    imported-KV path (the sequence's cache arrives over the fleet
 *    link instead of being prefilled locally), and
 *  - load introspection (queued prefill/decode tokens, processed
 *    totals) plus takeFinished() for the router and the handoff
 *    protocol.
 */
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "compiler/engine.h"
#include "serving/kv_block_pool.h"
#include "serving/metrics.h"
#include "serving/prefix_cache.h"
#include "serving/scheduler.h"
#include "serving/simulator.h"

namespace vqllm::obs {
class Histogram;
class TraceRecorder;
}

namespace vqllm::serving {

/**
 * One replica's simulation state, advanced one scheduler iteration at
 * a time.  A driver enqueues requests, calls advance() while
 * nextEventUs() is finite, and finalizes exactly once when its trace
 * has drained.  submit / setNow / step are the advance() primitives,
 * public for drivers that time or trace each of them.
 *
 * Determinism: the core is single-threaded and every step is a pure
 * function of prior submissions — two identical call sequences produce
 * bit-identical reports (and byte-identical traces).
 */
class SimulatorCore
{
  public:
    explicit SimulatorCore(const SimulatorConfig &cfg);

    /** @return the replica-local simulated clock, microseconds. */
    double now() const { return now_us_; }

    /**
     * Queue a request for delivery at its arrival_us.  Undelivered
     * requests are held in (arrival_us, id) order, and advance()
     * submits each once the clock reaches its arrival, so requests
     * with equal timestamps deliver in id order.
     */
    void enqueue(Request *r);

    /**
     * @return the simulated time of the next advance(): now() while a
     * request is waiting or running, the earliest undelivered arrival
     * (never before now()) when idle, +inf when idle with nothing
     * queued.
     */
    double nextEventUs() const;

    /**
     * Deliver the queued arrivals that are due.  When that leaves the
     * replica idle, fast-forward the clock to the next queued arrival
     * and deliver again; then step once unless every delivered request
     * was rejected.  A no-op while nextEventUs() is +inf.
     */
    void advance();

    /** Fast-forward the idle clock (never backwards). */
    void setNow(double us);

    /**
     * Deliver one arrived request to the scheduler.  The request must
     * have arrival_us <= now().  A request flagged kv_imported admits
     * through the imported-KV path (full context mapped in, no prefill
     * compute).  Requests whose peak context can never fit are
     * rejected synchronously (r->state == Rejected on return).
     */
    void submit(Request *r);

    /** @return true when no request is waiting or running. */
    bool idle() const { return scheduler_.idle(); }

    /** Run one scheduler iteration: form, price, advance the clock,
     *  emit tokens, retire finished requests.  Requires !idle(). */
    void step();

    /** Assemble the final report, export metrics, and run the KV leak
     *  check.  Call exactly once, after the last step. */
    ServingReport finalize();

    // ---- Introspection for the fleet router ----

    std::uint64_t completedCount() const { return completed_; }
    std::uint64_t rejectedCount() const { return scheduler_.rejectedCount(); }

    /** Un-prefilled prompt tokens across the undelivered, waiting and
     *  running requests (imported requests carry none — their KV
     *  arrives by link). */
    std::uint64_t queuedPrefillTokens() const;

    /** Un-generated decode tokens across the undelivered, waiting and
     *  running requests. */
    std::uint64_t queuedDecodeTokens() const;

    /** Prefill + decode tokens processed so far. */
    std::uint64_t processedTokens() const;

    double busyUs() const { return busy_us_; }

    /** Requests finished since the last call (drained, in finish
     *  order).  The bare simulator never drains; the fleet layer does,
     *  to trigger KV handoffs and fleet-level completion tracking. */
    std::vector<Request *> takeFinished();

    /** Latency/token sample buffers of the run so far. */
    const MetricsCollector &collector() const { return metrics_; }

    /** Full (all-shard) KV bytes per cached token under the replica's
     *  KV scheme — what a fleet handoff streams per token. */
    std::uint64_t kvBytesPerToken() const { return total_bpt_; }

    const llm::LlamaConfig &model() const { return model_; }

  private:
    /** Submit every queued request whose arrival is due. */
    void deliverDue();

    SimulatorConfig cfg_;
    const llm::LlamaConfig &model_;
    std::size_t degree_;
    llm::KvScheme kv_scheme_;
    std::uint64_t total_bpt_ = 0;
    std::uint64_t kv_capacity_per_device_ = 0;
    std::uint64_t kv_capacity_bytes_ = 0;
    /** KV bytes per token on each TP device (its KV-head share). */
    std::vector<std::uint64_t> device_bpt_;
    /** One block table for every device, sized by device 0, the
     *  widest KV-head share. */
    KvBlockPool pool_;
    Scheduler scheduler_;
    /** Declared after the pool: the cache's destructor drops its block
     *  references and unregisters the reclaimer before the pool dies. */
    std::optional<PrefixCache> prefix_cache_;
    /** Private per-run engine unless one is injected (see
     *  SimulatorConfig::engine). */
    std::optional<compiler::Engine> local_engine_;
    compiler::Engine *eng_ = nullptr;
    compiler::CacheStats plan_stats_before_;
    std::optional<IterationPricer> pricer_;
    CodebookResidency residency_;
    bool has_codebooks_ = false;
    MetricsCollector metrics_;
    obs::TraceRecorder *trace_rec_ = nullptr;
    obs::Histogram *h_iter_us_ = nullptr;
    obs::Histogram *h_decode_batch_ = nullptr;

    double now_us_ = 0;
    double busy_us_ = 0;
    std::uint64_t completed_ = 0;
    std::uint64_t iterations_ = 0;
    std::uint64_t peak_running_ = 0;
    std::vector<std::uint64_t> groups_;
    std::vector<Request *> finished_;
    /** Enqueued, undelivered requests in (arrival_us, id) order. */
    std::deque<Request *> pending_;
    bool finalized_ = false;
};

} // namespace vqllm::serving
