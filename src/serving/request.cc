#include "serving/request.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <map>

#include "common/logging.h"

namespace vqllm::serving {

namespace {

/** Log-normal sample around a median, clamped to [lo, hi]. */
std::size_t
sampleLength(Rng &rng, std::size_t median, double sigma, std::size_t lo,
             std::size_t hi)
{
    double x = static_cast<double>(median) *
               std::exp(sigma * rng.normal());
    auto n = static_cast<std::size_t>(std::llround(x));
    return std::clamp(n, lo, hi);
}

/** Parse one flat JSONL object of numeric fields ({"key": number,
 *  ...}); any deviation is a hard error naming the offending line. */
std::map<std::string, double>
parseTraceLine(const std::string &line, std::size_t lineno,
               const std::string &path)
{
    auto fail = [&](const char *what) {
        vqllm_fatal("malformed trace line ", lineno, " in ", path, " (",
                    what, "): ", line);
    };
    std::map<std::string, double> fields;
    const char *p = line.c_str();
    auto skip = [&] {
        while (*p != '\0' && std::isspace(static_cast<unsigned char>(*p)))
            ++p;
    };
    skip();
    if (*p != '{')
        fail("expected '{'");
    ++p;
    skip();
    if (*p == '}') {
        ++p;
    } else {
        while (true) {
            if (*p != '"')
                fail("expected quoted key");
            ++p;
            const char *key_begin = p;
            while (*p != '\0' && *p != '"')
                ++p;
            if (*p != '"')
                fail("unterminated key");
            std::string key(key_begin, p);
            ++p;
            skip();
            if (*p != ':')
                fail("expected ':'");
            ++p;
            skip();
            char *end = nullptr;
            double value = std::strtod(p, &end);
            if (end == p)
                fail("expected numeric value");
            p = end;
            if (!fields.emplace(key, value).second)
                fail("duplicate key");
            skip();
            if (*p == ',') {
                ++p;
                skip();
                continue;
            }
            if (*p == '}') {
                ++p;
                break;
            }
            fail("expected ',' or '}'");
        }
    }
    skip();
    if (*p != '\0')
        fail("trailing characters");
    return fields;
}

/** Integral field check for token counts and group ids: 0..2^53, the
 *  range in which a double holds every integer (beyond it, and for inf,
 *  the conversion to an integer count would wrap or be undefined). */
std::uint64_t
traceCount(double value, const char *key, std::size_t lineno,
           const std::string &path)
{
    // Negated so NaN fails too.
    if (!(value >= 0 && value <= 0x1p53) || value != std::floor(value))
        vqllm_fatal("malformed trace line ", lineno, " in ", path,
                    ": field '", key,
                    "' must be a non-negative integer of at most 2^53, "
                    "got ", value);
    return static_cast<std::uint64_t>(value);
}

} // namespace

const char *
arrivalPatternName(ArrivalPattern p)
{
    switch (p) {
      case ArrivalPattern::Poisson: return "poisson";
      case ArrivalPattern::Bursty:  return "bursty";
      case ArrivalPattern::Diurnal: return "diurnal";
    }
    return "?";
}

std::optional<ArrivalPattern>
parseArrivalPattern(const std::string &s)
{
    if (s == "poisson")
        return ArrivalPattern::Poisson;
    if (s == "bursty")
        return ArrivalPattern::Bursty;
    if (s == "diurnal")
        return ArrivalPattern::Diurnal;
    return std::nullopt;
}

std::vector<Request>
loadWorkloadTrace(const WorkloadConfig &cfg)
{
    std::ifstream in(cfg.trace_path);
    if (!in)
        vqllm_fatal("cannot open workload trace ", cfg.trace_path);

    std::vector<Request> trace;
    std::string line;
    std::size_t lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        if (line.find_first_not_of(" \t\r") == std::string::npos)
            continue; // blank line
        auto fields = parseTraceLine(line, lineno, cfg.trace_path);
        auto need = [&](const char *key) {
            auto it = fields.find(key);
            if (it == fields.end())
                vqllm_fatal("malformed trace line ", lineno, " in ",
                            cfg.trace_path, ": missing field '", key,
                            "'");
            return it->second;
        };
        Request r;
        double arrival = need("arrival_us");
        if (!(arrival >= 0) || !std::isfinite(arrival))
            vqllm_fatal("malformed trace line ", lineno, " in ",
                        cfg.trace_path,
                        ": 'arrival_us' must be finite and >= 0, got ",
                        arrival);
        r.arrival_us = arrival;
        r.prompt_len = static_cast<std::size_t>(traceCount(
            need("prompt_len"), "prompt_len", lineno, cfg.trace_path));
        r.max_new_tokens = static_cast<std::size_t>(traceCount(
            need("output_len"), "output_len", lineno, cfg.trace_path));
        if (r.prompt_len == 0 || r.max_new_tokens == 0)
            vqllm_fatal("malformed trace line ", lineno, " in ",
                        cfg.trace_path,
                        ": prompt_len and output_len must be positive");
        auto group = fields.find("group");
        if (group != fields.end())
            r.codebook_group = traceCount(group->second, "group", lineno,
                                          cfg.trace_path);
        r.ttft_deadline_us = cfg.ttft_deadline_us;
        r.tbt_deadline_us = cfg.tbt_deadline_us;
        trace.push_back(r);
    }

    // The simulator consumes arrival-ordered traces with ids 0..n-1;
    // stable sort keeps equal-arrival requests in file order.
    std::stable_sort(trace.begin(), trace.end(),
                     [](const Request &a, const Request &b) {
                         return a.arrival_us < b.arrival_us;
                     });
    for (std::size_t i = 0; i < trace.size(); ++i)
        trace[i].id = i;
    return trace;
}

std::vector<Request>
generateWorkload(const WorkloadConfig &cfg)
{
    if (!cfg.trace_path.empty())
        return loadWorkloadTrace(cfg);

    Rng rng(cfg.seed);
    auto group_weights =
        powerLawWeights(cfg.num_codebook_groups, cfg.group_zipf_alpha);

    // Modulated patterns (bursty/diurnal) sample candidate arrivals at
    // the pattern's *peak* rate and thin each against the instantaneous
    // rate — the textbook construction for an inhomogeneous Poisson
    // process.  Plain Poisson takes peak == mean and skips the thinning
    // draw, so its RNG sequence (and every pre-pattern trace) is
    // bit-identical.
    // A non-positive or NaN rate never advances the clock past the
    // horizon, and neither does a NaN horizon: the loop below would
    // append requests until memory runs out.
    if (!(std::isfinite(cfg.qps) && cfg.qps > 0))
        vqllm_fatal("qps must be finite and > 0, got ", cfg.qps);
    if (!(std::isfinite(cfg.duration_s) && cfg.duration_s >= 0))
        vqllm_fatal("duration_s must be finite and >= 0, got ",
                    cfg.duration_s);
    double peak_qps = cfg.qps;
    if (cfg.arrival == ArrivalPattern::Bursty) {
        if (!(cfg.burst_period_s > 0))
            vqllm_fatal("burst_period_s must be positive, got ",
                        cfg.burst_period_s);
        if (!(cfg.burst_duty > 0 && cfg.burst_duty < 1))
            vqllm_fatal("burst_duty must lie in (0, 1), got ",
                        cfg.burst_duty);
        if (cfg.burst_peak < 1)
            vqllm_fatal("burst_peak must be >= 1, got ", cfg.burst_peak);
        if (cfg.burst_duty * cfg.burst_peak > 1)
            vqllm_fatal("burst_duty * burst_peak must be <= 1 so the "
                        "trough rate that preserves the mean stays "
                        "non-negative, got ",
                        cfg.burst_duty * cfg.burst_peak);
        peak_qps = cfg.qps * cfg.burst_peak;
    } else if (cfg.arrival == ArrivalPattern::Diurnal) {
        if (!(cfg.diurnal_period_s > 0))
            vqllm_fatal("diurnal_period_s must be positive, got ",
                        cfg.diurnal_period_s);
        if (!(cfg.diurnal_amplitude >= 0 && cfg.diurnal_amplitude < 1))
            vqllm_fatal("diurnal_amplitude must lie in [0, 1), got ",
                        cfg.diurnal_amplitude);
        peak_qps = cfg.qps * (1 + cfg.diurnal_amplitude);
    }
    auto rate_qps_at = [&cfg](double t_us) {
        switch (cfg.arrival) {
          case ArrivalPattern::Poisson:
            return cfg.qps;
          case ArrivalPattern::Bursty: {
            double phase = std::fmod(t_us / 1e6, cfg.burst_period_s);
            if (phase < cfg.burst_duty * cfg.burst_period_s)
                return cfg.qps * cfg.burst_peak;
            // Trough rate chosen so the cycle mean stays at qps.
            return cfg.qps * (1 - cfg.burst_duty * cfg.burst_peak) /
                   (1 - cfg.burst_duty);
          }
          case ArrivalPattern::Diurnal:
            return cfg.qps *
                   (1 + cfg.diurnal_amplitude *
                            std::sin(2.0 * 3.14159265358979323846 *
                                     t_us /
                                     (cfg.diurnal_period_s * 1e6)));
        }
        return cfg.qps;
    };

    std::vector<Request> trace;
    double now_us = 0;
    const double horizon_us = cfg.duration_s * 1e6;
    const double mean_gap_us = 1e6 / peak_qps;
    while (true) {
        // Exponential inter-arrival gap (Poisson process).  uniform()
        // contracts [0, 1) but clamp anyway: a sample that rounds to
        // 1.0 would make the gap -log(0) = inf and silently truncate
        // the rest of the trace.
        double u = std::min(rng.uniform(), std::nextafter(1.0, 0.0));
        now_us += -std::log(1.0 - u) * mean_gap_us;
        if (now_us >= horizon_us)
            break;
        if (cfg.arrival != ArrivalPattern::Poisson &&
            rng.uniform() * peak_qps >= rate_qps_at(now_us))
            continue; // thinned candidate
        Request r;
        r.id = trace.size();
        r.arrival_us = now_us;
        r.prompt_len =
            sampleLength(rng, cfg.prompt_len_median, cfg.prompt_len_sigma,
                         cfg.prompt_len_min, cfg.prompt_len_max);
        r.max_new_tokens =
            sampleLength(rng, cfg.gen_tokens_median, cfg.gen_tokens_sigma,
                         cfg.gen_tokens_min, cfg.gen_tokens_max);
        r.codebook_group = rng.weightedIndex(group_weights);
        if (cfg.priority_levels > 1)
            r.priority = static_cast<int>(
                rng.uniformInt(cfg.priority_levels));
        if (cfg.prefix_groups > 0 && cfg.prefix_tokens > 0) {
            // The sampled prompt becomes the per-request tail behind
            // the group's shared system prompt.
            r.prefix_group = static_cast<std::int64_t>(
                rng.uniformInt(cfg.prefix_groups));
            r.prefix_tokens = cfg.prefix_tokens;
            r.prompt_len += cfg.prefix_tokens;
        }
        r.ttft_deadline_us = cfg.ttft_deadline_us;
        r.tbt_deadline_us = cfg.tbt_deadline_us;
        trace.push_back(r);
    }
    return trace;
}

} // namespace vqllm::serving
