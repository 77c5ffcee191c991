/**
 * @file
 * Command-line parsing for the simulator programs (serving_sim,
 * fleet_sim).  The 24 flags both programs accept are parsed here once,
 * into a serving::SimulatorConfig (a fleet's per-replica config) and a
 * serving::WorkloadConfig; each program parses only its own flags.
 *
 * Values are strict: the whole token must parse, counts take no sign,
 * reals must be finite and an enum must name one of its values.  A bad
 * value or an unknown flag is a usage error that names it (exit code
 * 2) — never a silent wrap-around, a truncated suffix or an uncaught
 * exception.
 */
#pragma once

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>

#include "gpusim/gpu_spec.h"
#include "llm/model_config.h"
#include "serving/simulator.h"

namespace vqllm::cli {

/** Usage lines of the shared flags; printf placeholders take the
 *  caller's chunk-tokens, qps, duration and seed defaults. */
inline constexpr char kSharedUsage[] =
    "  --scheme fp16|ewq4|vq4|vq2   weight scheme (default vq2)\n"
    "  --kv-scheme fp16|int4|vq4|vq2  KV-cache storage scheme\n"
    "                               (default: follows --scheme)\n"
    "  --model 7b|65b|70b           model configuration (default 7b)\n"
    "  --gpu 4090|a40               per-GPU hardware model (default 4090)\n"
    "  --tp-degree N                tensor-parallel degree, >= 1 (default 1)\n"
    "  --hbm-gb G                   per-GPU HBM capacity, GB (default 24,\n"
    "                               or 48 with --gpu a40)\n"
    "  --chunk-tokens N             chunked-prefill token budget, 0 = off\n"
    "                               (default %zu)\n"
    "  --max-batch N                max concurrent sequences\n"
    "  --qps N                      mean arrival rate (default %g)\n"
    "  --duration S                 arrival window, seconds (default %g)\n"
    "  --seed N                     workload seed (default %llu)\n"
    "  --arrival poisson|bursty|diurnal\n"
    "                               arrival process shape (default\n"
    "                               poisson; all preserve the mean rate)\n"
    "  --burst-period S             bursty: cycle length, seconds\n"
    "  --burst-duty F               bursty: burst fraction, in (0,1)\n"
    "  --burst-peak M               bursty: burst rate multiplier, >= 1\n"
    "  --diurnal-period S           diurnal: cycle length, seconds\n"
    "  --diurnal-amplitude A        diurnal: rate swing, in [0,1)\n"
    "  --prompt-median N            median prompt length, tokens\n"
    "  --prefix-groups N            shared-prefix tenants in the trace\n"
    "                               (0 = no shared prefixes, the default)\n"
    "  --prefix-tokens N            shared system-prompt length, tokens, > 0\n"
    "  --prefix-cache on|off        cross-request KV prefix caching\n"
    "                               (default off)\n"
    "  --trace-out FILE             write a Chrome/Perfetto trace JSON\n"
    "  --metrics-json FILE          write report + metrics as JSON\n"
    "  --help                       print this message and exit\n";

/**
 * One simulator program's command line: parses the shared flags into
 * the configs it was given, hands every other flag to the program, and
 * gives the program strict value readers that exit 2 naming the flag.
 */
class SimFlags
{
  public:
    /**
     * @param program   name that prefixes usage errors
     * @param own_usage the program's usage header and own flag lines
     * @param sim       filled by the shared flags; its values here are
     *                  the defaults --help shows
     * @param workload  likewise
     */
    SimFlags(const char *program, const std::string &own_usage,
             serving::SimulatorConfig &sim,
             serving::WorkloadConfig &workload)
        : sim_(sim), workload_(workload), program_(program),
          usage_(own_usage)
    {
        // %zu and %llu print at most 20 digits and %g at most 13
        // characters, so 64 bytes of slack always fit.
        std::string shared(sizeof kSharedUsage + 64, '\0');
        shared.resize(static_cast<std::size_t>(std::snprintf(
            shared.data(), shared.size(), kSharedUsage,
            sim.scheduler.chunk_tokens, workload.qps, workload.duration_s,
            static_cast<unsigned long long>(workload.seed))));
        usage_ += shared;
    }

    /**
     * Parses argv[1..]: each shared flag here, every other through
     * @p own, which returns false for a flag it does not know.  Then an
     * A40 gets its 48 GB of HBM unless --hbm-gb was given.
     */
    template <typename OwnFlag>
    void
    parse(int argc, char **argv, OwnFlag &&own)
    {
        argc_ = argc;
        argv_ = argv;
        for (i_ = 1; i_ < argc_; ++i_) {
            flag_ = argv_[i_];
            if (!applyShared() && !own())
                usageError("unknown flag '" + flag_ + "'");
        }
        if (!hbm_set_ && sim_.spec == &gpusim::teslaA40())
            sim_.hbm_gb = 48.0;
    }

    /** The flag being parsed. */
    const std::string &flag() const { return flag_; }

    /** @return the flag's value: the next argument. */
    std::string
    value()
    {
        if (i_ + 1 >= argc_)
            usageError("flag " + flag_ + " needs a value");
        return argv_[++i_];
    }

    /** @return the value as a count in [min, max]: decimal digits only. */
    std::uint64_t
    count(std::uint64_t min = 0,
          std::uint64_t max = std::numeric_limits<std::uint64_t>::max())
    {
        const std::string text = value();
        // strtoull would skip whitespace and accept a sign, turning
        // "-1" into 2^64 - 1; only plain digits are a count.
        const bool digits =
            !text.empty() &&
            text.find_first_not_of("0123456789") == std::string::npos;
        errno = 0;
        const std::uint64_t v =
            digits ? std::strtoull(text.c_str(), nullptr, 10) : 0;
        if (!digits || errno == ERANGE)
            usageError(flag_ + " expects a non-negative integer, got '" +
                       text + "'");
        if (v < min)
            usageError(flag_ + " must be >= " + std::to_string(min) +
                       ", got " + text);
        if (v > max)
            usageError(flag_ + " must be <= " + std::to_string(max) +
                       ", got " + text);
        return v;
    }

    /** @return the value as a finite real (the whole token parsed). */
    double
    real()
    {
        const std::string text = value();
        char *end = nullptr;
        const double v = std::strtod(text.c_str(), &end);
        if (text.empty() || std::isspace(static_cast<unsigned char>(
                                text.front())) ||
            end != text.c_str() + text.size() || !std::isfinite(v))
            usageError(flag_ + " expects a finite number, got '" + text +
                       "'");
        return v;
    }

    /** @return true for "on", false for "off". */
    bool
    onOff()
    {
        const std::string v = value();
        if (v != "on" && v != "off")
            badChoice(v, "on|off");
        return v == "on";
    }

    /** Usage error: @p got is not one of the flag's @p choices. */
    [[noreturn]] void
    badChoice(const std::string &got, const char *choices) const
    {
        usageError(flag_ + " expects " + choices + ", got '" + got + "'");
    }

    /** Prints @p message and the usage text to stderr; exits 2. */
    [[noreturn]] void
    usageError(const std::string &message) const
    {
        std::fprintf(stderr, "%s: %s\n%s", program_, message.c_str(),
                     usage_.c_str());
        std::exit(2);
    }

    /** --trace-out FILE; empty when not given. */
    std::string trace_out;
    /** --metrics-json FILE; empty when not given. */
    std::string metrics_out;

  private:
    /** Applies the flag if it is a shared one; false otherwise. */
    bool
    applyShared()
    {
        if (flag_ == "--scheme") {
            const std::string v = value();
            if (!llm::parseQuantScheme(v, &sim_.scheme))
                badChoice(v, "fp16|ewq4|vq4|vq2");
        } else if (flag_ == "--kv-scheme") {
            const std::string v = value();
            llm::KvScheme kv;
            if (!llm::parseKvScheme(v, &kv))
                badChoice(v, "fp16|int4|vq4|vq2");
            sim_.kv_scheme = kv;
        } else if (flag_ == "--model") {
            const std::string v = value();
            if (v == "7b")
                sim_.model = &llm::llama7b();
            else if (v == "65b")
                sim_.model = &llm::llama65b();
            else if (v == "70b")
                sim_.model = &llm::llama70b();
            else
                badChoice(v, "7b|65b|70b");
        } else if (flag_ == "--gpu") {
            const std::string v = value();
            if (v == "4090")
                sim_.spec = &gpusim::rtx4090();
            else if (v == "a40")
                sim_.spec = &gpusim::teslaA40();
            else
                badChoice(v, "4090|a40");
        } else if (flag_ == "--tp-degree") {
            sim_.tp.degree = static_cast<int>(
                count(1, std::numeric_limits<int>::max()));
        } else if (flag_ == "--hbm-gb") {
            sim_.hbm_gb = real();
            hbm_set_ = true;
        } else if (flag_ == "--chunk-tokens") {
            sim_.scheduler.chunk_tokens = count();
        } else if (flag_ == "--max-batch") {
            sim_.scheduler.max_batch = count(1);
        } else if (flag_ == "--prefix-cache") {
            sim_.prefix_cache = onOff();
        } else if (flag_ == "--qps") {
            workload_.qps = real();
        } else if (flag_ == "--duration") {
            workload_.duration_s = real();
        } else if (flag_ == "--seed") {
            workload_.seed = count();
        } else if (flag_ == "--arrival") {
            const std::string v = value();
            auto p = serving::parseArrivalPattern(v);
            if (!p)
                badChoice(v, "poisson|bursty|diurnal");
            workload_.arrival = *p;
        } else if (flag_ == "--burst-period") {
            workload_.burst_period_s = real();
        } else if (flag_ == "--burst-duty") {
            workload_.burst_duty = real();
        } else if (flag_ == "--burst-peak") {
            workload_.burst_peak = real();
        } else if (flag_ == "--diurnal-period") {
            workload_.diurnal_period_s = real();
        } else if (flag_ == "--diurnal-amplitude") {
            workload_.diurnal_amplitude = real();
        } else if (flag_ == "--prompt-median") {
            workload_.prompt_len_median = count();
        } else if (flag_ == "--prefix-groups") {
            workload_.prefix_groups = count();
        } else if (flag_ == "--prefix-tokens") {
            workload_.prefix_tokens = count(1);
        } else if (flag_ == "--trace-out") {
            trace_out = value();
        } else if (flag_ == "--metrics-json") {
            metrics_out = value();
        } else if (flag_ == "--help" || flag_ == "-h") {
            std::printf("%s", usage_.c_str());
            std::exit(0);
        } else {
            return false;
        }
        return true;
    }

    serving::SimulatorConfig &sim_;
    serving::WorkloadConfig &workload_;
    const char *program_;
    std::string usage_;
    int argc_ = 0;
    char **argv_ = nullptr;
    int i_ = 0;
    std::string flag_;
    bool hbm_set_ = false;
};

} // namespace vqllm::cli
