#include "obs/trace.h"

#include <cstdio>
#include <sstream>

namespace vqllm::obs {

namespace {

/** Escape a string for a JSON literal (names/cats are controlled
 *  identifiers, but ids and keys pass through user configs). */
std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"':  out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

/** Fixed-format number: integers print without a fraction so ids and
 *  token counts stay readable; fractional values keep full precision
 *  (%.17g round-trips doubles, keeping serialization bit-faithful). */
std::string
jsonNumber(double v)
{
    char buf[64];
    if (v == static_cast<double>(static_cast<long long>(v)) &&
        v >= -9.007199254740992e15 && v <= 9.007199254740992e15) {
        std::snprintf(buf, sizeof(buf), "%lld",
                      static_cast<long long>(v));
    } else {
        std::snprintf(buf, sizeof(buf), "%.17g", v);
    }
    return buf;
}

void
writeArgs(std::ostream &os, const std::vector<TraceArg> &args)
{
    os << "\"args\":{";
    for (std::size_t i = 0; i < args.size(); ++i) {
        if (i > 0)
            os << ",";
        os << "\"" << jsonEscape(args[i].key)
           << "\":" << jsonNumber(args[i].value);
    }
    os << "}";
}

/**
 * The Chrome trace-event records both exporters write: the document head
 * (opening with the process-name "M" record), one "M" record per named
 * track, one "X" (span) or "i" (instant) record per event, and the tail.
 * Metadata comes first, then events.
 */
void
writeHead(std::ostream &os, const char *process)
{
    os << "{\"traceEvents\":[\n";
    os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,"
          "\"tid\":0,\"args\":{\"name\":\""
       << process << "\"}}";
}

void
writeTrack(std::ostream &os, int tid, const std::string &name)
{
    os << ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,"
          "\"tid\":"
       << tid << ",\"args\":{\"name\":\"" << jsonEscape(name) << "\"}}";
}

void
writeEvent(std::ostream &os, const TraceEvent &e, int tid)
{
    os << ",\n{\"name\":\"" << jsonEscape(e.name) << "\",\"cat\":\""
       << jsonEscape(e.cat) << "\",\"ph\":\""
       << (e.phase == TraceEvent::Phase::Span ? "X" : "i")
       << "\",\"pid\":0,\"tid\":" << tid
       << ",\"ts\":" << jsonNumber(e.ts_us);
    if (e.phase == TraceEvent::Phase::Span)
        os << ",\"dur\":" << jsonNumber(e.dur_us);
    else
        os << ",\"s\":\"t\""; // thread-scoped instant
    os << ",";
    writeArgs(os, e.args);
    os << "}";
}

void
writeTail(std::ostream &os)
{
    os << "\n],\"displayTimeUnit\":\"ms\"}\n";
}

} // namespace

void
TraceRecorder::setNow(double us)
{
    std::lock_guard<std::mutex> lock(mutex_);
    now_us_ = us;
}

double
TraceRecorder::now() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return now_us_;
}

void
TraceRecorder::nameTrack(int tid, const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    tracks_[tid] = name;
}

void
TraceRecorder::span(const std::string &name, const std::string &cat,
                    int tid, double ts_us, double dur_us,
                    std::vector<TraceArg> args)
{
    std::lock_guard<std::mutex> lock(mutex_);
    events_.push_back({TraceEvent::Phase::Span, name, cat, tid, ts_us,
                       dur_us, std::move(args)});
}

void
TraceRecorder::instant(const std::string &name, const std::string &cat,
                       int tid, double ts_us, std::vector<TraceArg> args)
{
    std::lock_guard<std::mutex> lock(mutex_);
    events_.push_back({TraceEvent::Phase::Instant, name, cat, tid,
                       ts_us, 0.0, std::move(args)});
}

std::size_t
TraceRecorder::eventCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return events_.size();
}

std::vector<TraceEvent>
TraceRecorder::events() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return events_;
}

double
TraceRecorder::categoryDurationUs(const std::string &cat) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    double total = 0;
    for (const TraceEvent &e : events_)
        if (e.phase == TraceEvent::Phase::Span && e.cat == cat)
            total += e.dur_us;
    return total;
}

void
TraceRecorder::writeChromeJson(std::ostream &os) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    // One process, one named thread per track; std::map iteration gives
    // a deterministic tid order.
    writeHead(os, "vqllm serving simulation");
    for (const auto &[tid, name] : tracks_)
        writeTrack(os, tid, name);
    for (const TraceEvent &e : events_)
        writeEvent(os, e, e.tid);
    writeTail(os);
}

std::string
TraceRecorder::chromeJson() const
{
    std::ostringstream oss;
    writeChromeJson(oss);
    return oss.str();
}

std::map<int, std::string>
TraceRecorder::tracks() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return tracks_;
}

void
writeChromeJsonMerged(std::ostream &os,
                      const std::vector<TraceMergePart> &parts)
{
    // Same records as writeChromeJson, with each part's tids offset by
    // its base and its track names prefixed.  Taking snapshots
    // (tracks()/events()) keeps the recorders' own locking discipline.
    writeHead(os, "vqllm fleet simulation");
    for (const TraceMergePart &part : parts)
        for (const auto &[tid, name] : part.recorder->tracks())
            writeTrack(os, part.tid_base + tid, part.prefix + name);
    for (const TraceMergePart &part : parts)
        for (const TraceEvent &e : part.recorder->events())
            writeEvent(os, e, part.tid_base + e.tid);
    writeTail(os);
}

void
TraceRecorder::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    tracks_.clear();
    events_.clear();
}

} // namespace vqllm::obs
