/**
 * @file
 * TraceRecorder — structured tracing on the simulated clock.
 *
 * The serving simulator advances a simulated microsecond clock; this
 * recorder captures what happens on it as *spans* (named intervals:
 * scheduler iterations, prefill chunks, decode batches, ring
 * all-reduces, codebook uploads) and *instants* (point events: KV
 * alloc/extend/free, preemptions, plan-cache compiles), grouped into
 * per-component tracks (track 0 is the scheduler timeline; tensor-
 * parallel shard s records on track 1+s).
 *
 * The recorder is passive: emitters pass explicit timestamps, usually
 * derived from now(), which the simulator sets as its clock advances.
 * Components that observe events but do not own the clock (the KV
 * pool, the compile engine) read now() instead of threading the clock
 * through every call.
 *
 * Export is Chrome trace-event JSON (chromeJson() /
 * writeChromeJson()), the format Perfetto and chrome://tracing load
 * directly: spans become "X" (complete) events with microsecond
 * ts/dur, instants become "i" events, and track names are emitted as
 * "M" metadata records.  Serialization is fully deterministic — events
 * appear in recording order and numbers are printed with fixed
 * formatting — so two identical simulations produce byte-identical
 * traces regardless of host thread count.
 *
 * Tracing is opt-in and zero-cost when off: every instrumentation site
 * holds a `TraceRecorder *` that defaults to nullptr and checks it
 * before doing any work.  Recording methods are
 * mutex-guarded, so one recorder may observe components shared across
 * threads (a traced run itself is sequential, which is what keeps the
 * event order deterministic).
 */
#pragma once

#include <cstddef>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace vqllm::obs {

/** One named numeric event argument (ids, token counts, sizes). */
struct TraceArg
{
    std::string key;
    double value = 0;
};

/** One recorded event. */
struct TraceEvent
{
    enum class Phase {
        Span,    ///< interval with a duration ("X" complete event)
        Instant, ///< point event ("i")
    };

    Phase phase = Phase::Span;
    std::string name;
    std::string cat;
    /** Track the event renders on (0 = scheduler; 1+s = TP shard s). */
    int tid = 0;
    double ts_us = 0;
    /** Span duration; unused for instants. */
    double dur_us = 0;
    std::vector<TraceArg> args;
};

/** Records spans/instants on the simulated clock; exports Chrome
 *  trace-event JSON. */
class TraceRecorder
{
  public:
    /** Advance the recorder's simulated clock (the simulator calls
     *  this as its own clock moves). */
    void setNow(double us);

    /** @return the current simulated time, microseconds. */
    double now() const;

    /** Name a track (idempotent; later names win). */
    void nameTrack(int tid, const std::string &name);

    /** Record a span of [ts_us, ts_us + dur_us] on a track. */
    void span(const std::string &name, const std::string &cat, int tid,
              double ts_us, double dur_us,
              std::vector<TraceArg> args = {});

    /** Record a point event. */
    void instant(const std::string &name, const std::string &cat,
                 int tid, double ts_us, std::vector<TraceArg> args = {});

    /** @return number of recorded events (metadata excluded). */
    std::size_t eventCount() const;

    /** Snapshot of the recorded events, in recording order. */
    std::vector<TraceEvent> events() const;

    /** Sum of span durations over events whose category is `cat`. */
    double categoryDurationUs(const std::string &cat) const;

    /** Serialize as a Chrome trace-event JSON document. */
    void writeChromeJson(std::ostream &os) const;

    /** @return the Chrome trace-event JSON document as a string. */
    std::string chromeJson() const;

    /** Snapshot of the named tracks (tid → name). */
    std::map<int, std::string> tracks() const;

    /** Drop all events and track names (clock keeps its value). */
    void clear();

  private:
    mutable std::mutex mutex_;
    double now_us_ = 0;
    std::map<int, std::string> tracks_;
    std::vector<TraceEvent> events_;
};

/** One recorder's contribution to a merged Chrome trace. */
struct TraceMergePart
{
    const TraceRecorder *recorder = nullptr;
    /** Added to every event/track tid so parts never collide. */
    int tid_base = 0;
    /** Prepended to the part's track names ("r0/scheduler"). */
    std::string prefix;
};

/**
 * Serialize several recorders into one Chrome trace-event JSON
 * document on a shared timeline (the fleet simulator merges its
 * per-replica recorders this way: replica i offsets its tracks by
 * i*kTracksPerReplica and prefixes them "r<i>/").  Event order is
 * parts order, then recording order within a part — deterministic, so
 * identical runs produce byte-identical merged traces.
 */
void writeChromeJsonMerged(std::ostream &os,
                           const std::vector<TraceMergePart> &parts);

} // namespace vqllm::obs
