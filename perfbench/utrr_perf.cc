/**
 * @file
 * The workload program of the repository benchmark (see README.md here).
 *
 * Usage: utrr_perf --workload battery|synth|fuzz|mitigate --seed N
 *                  --seconds S --trace 0|1 [--t0-ns NS] [--setup-only]
 *
 * One process runs one workload. It sets up, then repeats the
 * workload's fixed-size timed phase until the next repetition would
 * overrun --seconds (at least once), and prints a single JSON line:
 * the wall time of every repetition, the set-up time, peak RSS, the
 * attempted/failed item counts, the output and its digest, every failed
 * correctness property and, with --trace 1, the per-layer metrics.
 *
 * The set-up time runs from --t0-ns (a CLOCK_MONOTONIC stamp taken by
 * the caller just before it spawned this process; main() entry when
 * absent) to the start of the timed phase. --setup-only stops there.
 *
 * With --trace 1 the repetitions alternate untraced and traced (span
 * profiler armed); per-layer self times come from the traced ones and
 * obs.trace_overhead_ratio compares the two kinds.
 *
 * Only public entry points are called: CampaignRunner::run with
 * makeIdentifyJob, runSynthCampaign, runFuzzCampaign and
 * sweepCustomPattern.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "attack/sweep.hh"
#include "attack/synth.hh"
#include "check/fuzz_campaign.hh"
#include "check/fuzzer.hh"
#include "common/logging.hh"
#include "core/mapping_reveng.hh"
#include "mitigation/blockhammer.hh"
#include "mitigation/graphene.hh"
#include "mitigation/para.hh"
#include "obs/profiler.hh"
#include "runner/campaign.hh"
#include "runner/profile_cache.hh"
#include "runner/reveng_job.hh"
#include "softmc/host.hh"

using namespace utrr;

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

double
msSince(Clock::time_point start)
{
    return secondsSince(start) * 1e3;
}

/** Linear-interpolated quantile (q in [0, 1]); 0 for an empty set. */
double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

double
ratio(double num, double den)
{
    return den == 0.0 ? 0.0 : num / den;
}

/** FNV-1a 64 as 16 hex digits: the output digest. */
std::string
digestOf(const std::string &text)
{
    std::uint64_t h = 1469598103934665603ULL;
    for (const unsigned char c : text) {
        h ^= c;
        h *= 1099511628211ULL;
    }
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

/** Sum of every counter named @p name, bare or "<prefix>.<name>". */
std::uint64_t
sumCounter(const MetricsRegistry &registry, const std::string &name)
{
    const std::string suffix = "." + name;
    std::uint64_t total = 0;
    for (const auto &[key, counter] : registry.counters()) {
        if (key == name ||
            (key.size() > suffix.size() &&
             key.compare(key.size() - suffix.size(), suffix.size(),
                         suffix) == 0))
            total += counter.value;
    }
    return total;
}

ModuleSpec
spec(const char *name)
{
    const auto found = findModuleSpec(name);
    if (!found)
        throw std::runtime_error(std::string("unknown module ") + name);
    return *found;
}

/**
 * Every per-layer metric, with its unit, in BENCHMARK.json order. A
 * workload fills the ones its layers reach; the rest read 0 (the layer
 * did no work, or a ratio's base is 0).
 */
const std::vector<std::pair<std::string, std::string>> &
layerCatalog()
{
    static const std::vector<std::pair<std::string, std::string>> list = {
        {"runner.job_ms_p50", "ms"},
        {"runner.job_ms_p75", "ms"},
        {"runner.jobs_timed", "count"},
        {"runner.parallel_efficiency", "ratio"},
        {"runner.job_wall_s", "s"},
        {"runner.workers", "count"},
        {"runner.watchdog_retries", "count"},
        {"runner.profile_cache_hit_ratio", "ratio"},
        {"runner.profile_cache_lookups", "count"},
        {"core.row_scout_self_s", "s"},
        {"core.trr_analyzer_self_s", "s"},
        {"core.reveng_self_s", "s"},
        {"core.row_scout_evictions", "count"},
        {"core.trr_analyzer_read_votes", "count"},
        {"softmc.hammer_interleaved_self_s", "s"},
        {"softmc.hammer_self_s", "s"},
        {"softmc.hammer_multibank_self_s", "s"},
        {"softmc.execute_self_s", "s"},
        {"softmc.wait_refresh_self_s", "s"},
        {"softmc.host_ns_per_act", "ns"},
        {"softmc.sim_s_per_host_s", "ratio"},
        {"softmc.sim_s", "s"},
        {"dram.ref_self_s", "s"},
        {"dram.acts", "count"},
        {"dram.refs", "count"},
        {"dram.restore_fast_ratio", "ratio"},
        {"dram.restores", "count"},
        {"dram.readout_cow_copies", "count"},
        {"attack.synth_search_self_s", "s"},
        {"attack.synth_verify_self_s", "s"},
        {"attack.synth_minimize_self_s", "s"},
        {"attack.synth_sweep_self_s", "s"},
        {"attack.synth_attempts", "count"},
        {"attack.beaten_ratio", "ratio"},
        {"attack.sweep_ms_p50", "ms"},
        {"check.oracle_suite_self_s", "s"},
        {"check.oracle_snapshot_self_s", "s"},
        {"check.oracle_determinism_self_s", "s"},
        {"check.oracle_execution_self_s", "s"},
        {"check.oracle_timing_self_s", "s"},
        {"check.oracle_differential_self_s", "s"},
        {"check.oracle_accounting_self_s", "s"},
        {"check.fuzz_ops", "count"},
        {"check.ops_per_s", "1/s"},
        {"mitigation.hook_slowdown", "ratio"},
        {"mitigation.hook_slowdown_A5", "ratio"},
        {"mitigation.hook_slowdown_B8", "ratio"},
        {"mitigation.hook_slowdown_C9", "ratio"},
        {"mitigation.control_sweep_ms", "ms"},
        {"mitigation.refreshes_ordered", "count"},
        {"mitigation.delay_ms", "ms"},
        {"obs.trace_overhead_ratio", "ratio"},
        {"obs.traced_wall_s", "s"},
        {"obs.untraced_wall_s", "s"},
    };
    return list;
}

/**
 * Span labels grouped into per-layer self-time metrics. A trailing
 * '*' matches a label prefix.
 */
const std::vector<std::pair<std::string, std::vector<std::string>>> &
spanGroups()
{
    static const std::vector<
        std::pair<std::string, std::vector<std::string>>>
        groups = {
            {"core.row_scout_self_s", {"row_scout.*"}},
            {"core.trr_analyzer_self_s", {"trr_analyzer.*"}},
            {"core.reveng_self_s", {"reveng.*"}},
            {"softmc.hammer_interleaved_self_s",
             {"softmc.hammer_interleaved"}},
            {"softmc.hammer_self_s", {"softmc.hammer"}},
            {"softmc.hammer_multibank_self_s",
             {"softmc.hammer_multibank"}},
            {"softmc.execute_self_s", {"softmc.execute"}},
            {"softmc.wait_refresh_self_s", {"softmc.wait_refresh"}},
            {"dram.ref_self_s", {"dram.ref", "refresh_engine.*"}},
            {"attack.synth_search_self_s", {"synth.search"}},
            {"attack.synth_verify_self_s", {"synth.verify"}},
            {"attack.synth_minimize_self_s", {"synth.minimize"}},
            {"attack.synth_sweep_self_s", {"synth.sweep"}},
            {"check.oracle_suite_self_s", {"oracle.suite"}},
            {"check.oracle_snapshot_self_s", {"oracle.snapshot"}},
            {"check.oracle_determinism_self_s", {"oracle.determinism"}},
            {"check.oracle_execution_self_s", {"oracle.execution"}},
            {"check.oracle_timing_self_s", {"oracle.timing"}},
            {"check.oracle_differential_self_s", {"oracle.differential"}},
            {"check.oracle_accounting_self_s", {"oracle.accounting"}},
        };
    return groups;
}

bool
labelMatches(const std::string &label, const std::string &pattern)
{
    if (!pattern.empty() && pattern.back() == '*')
        return label.compare(0, pattern.size() - 1, pattern, 0,
                             pattern.size() - 1) == 0;
    return label == pattern;
}

/** What one repetition of a workload produced. */
struct RepResult
{
    /** Deterministic output text; its digest is the correctness gate. */
    std::string output;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** Seed-independent properties that did not hold. */
    std::vector<std::string> violations;
    /** Per-layer values measured outside the profiler. */
    std::map<std::string, double> layers;
};

/** A workload: set up once, then run its fixed-size phase. */
class Workload
{
  public:
    virtual ~Workload() = default;
    Workload() = default;
    Workload(const Workload &) = delete;
    Workload &operator=(const Workload &) = delete;

    /** Worker threads the timed phase uses. */
    virtual int jobs() const = 0;
    virtual RepResult run() = 0;
};

/** Accumulate the layer values every campaign result exposes. */
void
addCampaignLayers(const CampaignResult &result, RepResult &rep)
{
    double job_wall_ms = 0.0;
    Time sim_ns = 0;
    for (const ModuleResult &m : result.modules) {
        job_wall_ms += m.wallMs;
        sim_ns += m.simNs;
    }
    auto &l = rep.layers;
    l["runner.job_wall_s"] += job_wall_ms / 1e3;
    l["runner.workers_x_wall_s"] +=
        result.jobsUsed * result.wallMs / 1e3;
    l["runner.workers"] = std::max(l["runner.workers"],
                                   static_cast<double>(result.jobsUsed));
    l["runner.watchdog_retries"] +=
        static_cast<double>(result.watchdogRetries);
    l["softmc.sim_s"] += static_cast<double>(sim_ns) / 1e9;
    l["campaign.wall_s"] += result.wallMs / 1e3;
    for (const char *name : {"dram.acts", "dram.refs",
                             "dram.readout.cow_copies",
                             "dram.restore.fast_path",
                             "dram.restore.slow_path",
                             "row_scout.evictions",
                             "trr_analyzer.read_votes", "synth.attempts",
                             "synth.beaten", "fuzz.ops"})
        l[name] += static_cast<double>(sumCounter(result.merged, name));
}

/** The 45-module identification battery at jobs 1, cold cache. */
class Battery : public Workload
{
  public:
    explicit Battery(std::uint64_t seed)
        : specs(allModuleSpecs()), job(makeIdentifyJob(
                                       IdentifyJobConfig::battery()))
    {
        cfg.jobs = 1;
        cfg.seed = seed;
        cfg.maxWatchdogRetries = 2;
        cfg.contentTag = "identify:battery:v1";
    }

    int jobs() const override { return cfg.jobs; }

    RepResult
    run() override
    {
        ProfileCache profiles;
        CampaignConfig run_cfg = cfg;
        run_cfg.profileCache = &profiles;
        const CampaignRunner runner(run_cfg);

        // Per-job wall time, measured around the job body itself (one
        // slot per job index, so workers never share a slot).
        std::vector<double> job_ms(specs.size(), 0.0);
        const JobFn timed = [this, &job_ms](JobContext &ctx) {
            const auto start = Clock::now();
            try {
                JobOutcome out = job(ctx);
                job_ms[ctx.index] += msSince(start);
                return out;
            } catch (...) {
                job_ms[ctx.index] += msSince(start);
                throw;
            }
        };
        const CampaignResult result = runner.run(specs, timed);

        RepResult rep;
        rep.output = result.verdicts().dump();
        rep.attempted = specs.size();
        for (const ModuleResult &m : result.modules)
            rep.failed += (!m.completed || !m.ok || m.quarantined) ? 1 : 0;
        if (result.modules.size() != specs.size() || !result.allOk() ||
            result.quarantinedJobs != 0)
            rep.violations.push_back(
                "battery: " + std::to_string(specs.size() - rep.failed) +
                "/" + std::to_string(specs.size()) +
                " modules identified");
        addCampaignLayers(result, rep);
        rep.layers["runner.job_ms_p50"] = quantile(job_ms, 0.5);
        rep.layers["runner.job_ms_p75"] = quantile(job_ms, 0.75);
        rep.layers["runner.jobs_timed"] =
            static_cast<double>(job_ms.size());
        double job_wall_ms = 0.0;
        for (const double ms : job_ms)
            job_wall_ms += ms;
        // The body time replaces the runner's per-job figure, which
        // also counts device construction.
        rep.layers["runner.job_wall_s"] = job_wall_ms / 1e3;
        const ProfileCache::Stats stats = profiles.stats();
        rep.layers["runner.profile_cache_lookups"] =
            static_cast<double>(stats.hits + stats.misses);
        rep.layers["runner.profile_cache_hit_ratio"] =
            ratio(static_cast<double>(stats.hits),
                  static_cast<double>(stats.hits + stats.misses));
        return rep;
    }

  private:
    const std::vector<ModuleSpec> specs;
    const JobFn job;
    CampaignConfig cfg;
};

/** Pattern synthesis over one module of each of the 8 TRR versions. */
class Synth : public Workload
{
  public:
    explicit Synth(std::uint64_t seed)
    {
        for (const char *name :
             {"A0", "A13", "B0", "B9", "B13", "C0", "C9", "C12"})
            specs.push_back(spec(name));
        cfg.jobs = 1;
        cfg.seed = seed;
        // The library's default budget (SynthConfig::attempts). The
        // search stops at the first win, which for most seeds is the
        // third draw or earlier, but C9 needs up to 25 draws on some
        // (17 on seed 19): a budget of 8 left it unbeaten there.
    }

    int jobs() const override { return cfg.jobs; }

    RepResult
    run() override
    {
        const CampaignResult result = runSynthCampaign(specs, cfg);
        RepResult rep;
        rep.output = bypassTable(result, specs).dump();
        rep.attempted = specs.size();
        for (const ModuleResult &m : result.modules) {
            const Json *beaten = m.verdict.find("beaten");
            const bool ok = m.completed && beaten != nullptr &&
                beaten->asBool();
            if (!ok) {
                ++rep.failed;
                rep.violations.push_back("synth: module " + m.module +
                                         " not beaten");
            }
        }
        if (result.modules.size() != specs.size())
            rep.violations.push_back("synth: missing module results");
        addCampaignLayers(result, rep);
        return rep;
    }

  private:
    std::vector<ModuleSpec> specs;
    SynthCampaignConfig cfg;
};

/**
 * Differential fuzzing of one module per vendor, on several workers.
 *
 * A program's host cost is dominated by the REFs it issues (REF path,
 * then the oracles replaying it), and that count varies widely between
 * programs. So each module's size is a REF budget instead of a program
 * count: set-up generates the seed's programs in order and keeps as
 * many as it takes to issue kRefBudget REFs (explicit REFs plus one per
 * tREFI of refresh-on waits). The seed changes the programs, not the
 * amount of work.
 */
class Fuzz : public Workload
{
  public:
    explicit Fuzz(std::uint64_t seed)
    {
        for (const char *name : {"A0", "B0", "C4"}) {
            FuzzCampaignOptions opts;
            opts.jobs = std::min(CampaignRunner::hardwareConcurrency(), 4);
            // Programs depend on the fuzz seed, not the module, so each
            // module draws its own stream.
            opts.fuzzSeed = Rng(seed).fork(name).next();
            opts.count = 0;
            const ModuleSpec s = spec(name);
            const ProgramFuzzer fuzzer(s, opts.fuzz);
            const Time refi = opts.oracle.timing.tREFI;
            for (std::uint64_t refs = 0; refs < kRefBudget; ++opts.count) {
                const Program program =
                    fuzzer.generate(opts.fuzzSeed, opts.count);
                for (const Instr &instr : program.instructions()) {
                    if (instr.op == Op::kRef)
                        ++refs;
                    else if (instr.op == Op::kWaitRef)
                        refs += static_cast<std::uint64_t>(
                            instr.waitNs / refi);
                }
            }
            campaigns.emplace_back(s, opts);
        }
    }

    int jobs() const override { return campaigns.front().second.jobs; }

    RepResult
    run() override
    {
        RepResult rep;
        std::vector<double> job_ms;
        std::ostringstream out;
        for (const auto &[s, opts] : campaigns) {
            const FuzzCampaignResult result = runFuzzCampaign(s, opts);
            out << s.name << " violating=" << result.violating << " "
                << result.campaign.verdicts().dump() << "\n";
            rep.attempted += result.programs;
            rep.failed += result.violating;
            if (!result.clean())
                rep.violations.push_back(
                    "fuzz: " + std::to_string(result.violating) +
                    " violating program(s) on " + s.name);
            if (!result.campaign.allOk())
                rep.violations.push_back("fuzz: campaign on " + s.name +
                                         " did not complete");
            // The oracle suite runs each program on devices of its own,
            // so the runner's simNs is 0; the verdict carries the span.
            for (const ModuleResult &m : result.campaign.modules) {
                job_ms.push_back(m.wallMs);
                if (const Json *end = m.verdict.find("end_ns"))
                    rep.layers["softmc.sim_s"] +=
                        static_cast<double>(end->asInt()) / 1e9;
            }
            addCampaignLayers(result.campaign, rep);
        }
        rep.output = out.str();
        rep.layers["runner.job_ms_p50"] = quantile(job_ms, 0.5);
        rep.layers["runner.job_ms_p75"] = quantile(job_ms, 0.75);
        rep.layers["runner.jobs_timed"] =
            static_cast<double>(job_ms.size());
        return rep;
    }

  private:
    /** REFs issued per module. */
    static constexpr std::uint64_t kRefBudget = 3'500'000;

    std::vector<std::pair<ModuleSpec, FuzzCampaignOptions>> campaigns;
};

/** The custom pattern against TRR alone and four controller policies. */
class Mitigate : public Workload
{
  public:
    explicit Mitigate(std::uint64_t seed) : seed(seed)
    {
        for (const char *name : {"A5", "B8", "C9"})
            specs.push_back(spec(name));
        sweep.positions = 5;
    }

    int jobs() const override { return 1; }

    RepResult
    run() override
    {
        RepResult rep;
        std::ostringstream out;
        std::vector<double> sweep_ms;
        double control_total = 0.0;
        double hooked_total = 0.0;
        for (const ModuleSpec &s : specs) {
            double control_ms = 0.0;
            double hooked_ms = 0.0;
            for (const Policy policy : kPolicies) {
                std::unique_ptr<ControllerMitigation> hook =
                    makePolicy(policy, s);
                DramModule module(s, seed);
                SoftMcHost host(module);
                if (hook)
                    host.attachMitigation(hook.get());
                const DiscoveredMapping mapping(s.scramble, s.rowsPerBank);
                ++rep.attempted;
                const auto start = Clock::now();
                SweepResult result;
                try {
                    ProfSpan span("bench.sweep");
                    result = sweepCustomPattern(
                        host, mapping, defaultCustomParams(s), sweep);
                } catch (const std::exception &e) {
                    ++rep.failed;
                    rep.violations.push_back(
                        "mitigate: sweep " + s.name + "/" +
                        policyName(policy) + " threw: " + e.what());
                    continue;
                }
                const double ms = msSince(start);
                sweep_ms.push_back(ms);
                (hook ? hooked_ms : control_ms) += ms;
                const std::uint64_t refreshes =
                    hook ? hook->refreshesOrdered() : 0;
                const Time delay = hook ? hook->delayInjected() : 0;
                out << s.name << " " << policyName(policy)
                    << " vulnerable=" << result.vulnerableRows << "/"
                    << result.victimRowsTested
                    << " max_flips=" << result.maxRowFlips
                    << " refreshes=" << refreshes << " delay_ns=" << delay
                    << "\n";
                const bool must_protect = policy != Policy::kTrrOnly &&
                    policy != Policy::kParaWeak;
                if (must_protect && result.vulnerableRows != 0)
                    rep.violations.push_back(
                        "mitigate: " + s.name + " " + policyName(policy) +
                        " left " + std::to_string(result.vulnerableRows) +
                        " vulnerable row(s)");
                rep.layers["mitigation.refreshes_ordered"] +=
                    static_cast<double>(refreshes);
                rep.layers["mitigation.delay_ms"] +=
                    static_cast<double>(delay) / 1e6;
            }
            // Four hooked sweeps per module against its one control.
            rep.layers["mitigation.hook_slowdown_" + s.name] =
                ratio(hooked_ms / 4.0, control_ms);
            control_total += control_ms;
            hooked_total += hooked_ms;
        }
        rep.output = out.str();
        rep.layers["attack.sweep_ms_p50"] = quantile(sweep_ms, 0.5);
        rep.layers["mitigation.control_sweep_ms"] = control_total;
        rep.layers["mitigation.hook_slowdown"] =
            ratio(hooked_total / 4.0, control_total);
        return rep;
    }

  private:
    enum class Policy
    {
        kTrrOnly,
        kParaWeak,
        kParaStrong,
        kGraphene,
        kBlockHammer,
    };
    static constexpr Policy kPolicies[] = {
        Policy::kTrrOnly, Policy::kParaWeak, Policy::kParaStrong,
        Policy::kGraphene, Policy::kBlockHammer};

    static const char *
    policyName(Policy policy)
    {
        switch (policy) {
          case Policy::kTrrOnly: return "trr_only";
          case Policy::kParaWeak: return "para_1e-4";
          case Policy::kParaStrong: return "para_1e-2";
          case Policy::kGraphene: return "graphene_2000";
          case Policy::kBlockHammer: return "blockhammer_1024";
        }
        return "?";
    }

    /** bench_mitigations' parameters; nullptr for TRR only. */
    std::unique_ptr<ControllerMitigation>
    makePolicy(Policy policy, const ModuleSpec &s) const
    {
        switch (policy) {
          case Policy::kTrrOnly:
            return nullptr;
          case Policy::kParaWeak:
          case Policy::kParaStrong: {
            Para::Params params;
            params.probability =
                policy == Policy::kParaWeak ? 0.0001 : 0.01;
            return std::make_unique<Para>(params, seed);
          }
          case Policy::kGraphene: {
            Graphene::Params params;
            params.threshold = 2'000;
            return std::make_unique<Graphene>(s.banks, params);
          }
          case Policy::kBlockHammer: {
            BlockHammer::Params params;
            params.blacklistThreshold = 1'024;
            return std::make_unique<BlockHammer>(s.banks, params);
          }
        }
        return nullptr;
    }

    std::uint64_t seed;
    std::vector<ModuleSpec> specs;
    SweepConfig sweep;
};

std::unique_ptr<Workload>
makeWorkload(const std::string &name, std::uint64_t seed)
{
    if (name == "battery")
        return std::make_unique<Battery>(seed);
    if (name == "synth")
        return std::make_unique<Synth>(seed);
    if (name == "fuzz")
        return std::make_unique<Fuzz>(seed);
    if (name == "mitigate")
        return std::make_unique<Mitigate>(seed);
    return nullptr;
}

/** Exclusive profiler wall seconds per span label. */
std::map<std::string, double>
collectSelfSeconds()
{
    std::map<std::string, double> self;
    for (const ProfileRankEntry &e :
         Profiler::instance().collect().ranking())
        self[e.label] += static_cast<double>(e.exclusiveWallNs) / 1e9;
    return self;
}

/** Per-layer metrics from the last untraced repetition, the averaged
 *  span self times of the traced ones and both kinds' wall times. */
std::map<std::string, double>
layerMetrics(const RepResult &rep,
             const std::map<std::string, double> &self_s,
             double untraced_wall_s, double traced_wall_s)
{
    std::map<std::string, double> out;
    for (const auto &[name, unit] : layerCatalog())
        out[name] = 0.0;
    auto in = [&rep](const std::string &key) {
        const auto it = rep.layers.find(key);
        return it == rep.layers.end() ? 0.0 : it->second;
    };
    for (const auto &[key, value] : rep.layers)
        if (out.count(key) != 0)
            out[key] = value;

    for (const auto &[metric, patterns] : spanGroups()) {
        double total = 0.0;
        for (const auto &[label, seconds] : self_s)
            for (const std::string &pattern : patterns)
                if (labelMatches(label, pattern))
                    total += seconds;
        out[metric] = total;
    }

    out["runner.parallel_efficiency"] =
        ratio(in("runner.job_wall_s"), in("runner.workers_x_wall_s"));
    out["core.row_scout_evictions"] = in("row_scout.evictions");
    out["core.trr_analyzer_read_votes"] = in("trr_analyzer.read_votes");
    out["dram.acts"] = in("dram.acts");
    out["dram.refs"] = in("dram.refs");
    out["dram.readout_cow_copies"] = in("dram.readout.cow_copies");
    const double restores =
        in("dram.restore.fast_path") + in("dram.restore.slow_path");
    out["dram.restores"] = restores;
    out["dram.restore_fast_ratio"] =
        ratio(in("dram.restore.fast_path"), restores);
    double hammer_s = 0.0;
    for (const auto &[label, seconds] : self_s)
        if (labelMatches(label, "softmc.hammer*"))
            hammer_s += seconds;
    out["softmc.host_ns_per_act"] = ratio(hammer_s * 1e9, in("dram.acts"));
    out["softmc.sim_s_per_host_s"] =
        ratio(in("softmc.sim_s"), in("campaign.wall_s"));
    out["attack.synth_attempts"] = in("synth.attempts");
    out["attack.beaten_ratio"] =
        ratio(in("synth.beaten"), in("synth.attempts"));
    out["check.fuzz_ops"] = in("fuzz.ops");
    out["check.ops_per_s"] = ratio(in("fuzz.ops"), untraced_wall_s);
    out["obs.untraced_wall_s"] = untraced_wall_s;
    out["obs.traced_wall_s"] = traced_wall_s;
    out["obs.trace_overhead_ratio"] =
        ratio(traced_wall_s, untraced_wall_s);
    return out;
}

std::string
jsonString(const std::string &s)
{
    return Json(s).dump();
}

std::string
jsonNumber(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

/**
 * Peak resident set of this process image in MB: VmHWM, which starts
 * afresh at exec (ru_maxrss would also count the spawning parent).
 */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    rusage self{};
    getrusage(RUSAGE_SELF, &self);
    return static_cast<double>(self.ru_maxrss) / 1024.0;
}

[[noreturn]] void
usage(const std::string &msg)
{
    std::cerr << "utrr_perf: " << msg
              << "\nusage: utrr_perf --workload battery|synth|fuzz|"
                 "mitigate --seed N --seconds S --trace 0|1 "
                 "[--t0-ns NS] [--setup-only]\n";
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    Clock::time_point t0 = Clock::now();
    std::string workload_name;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool setup_only = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(arg + " needs a value");
            return argv[++i];
        };
        if (arg == "--workload") {
            workload_name = next();
        } else if (arg == "--seed") {
            seed = std::strtoull(next().c_str(), nullptr, 10);
        } else if (arg == "--seconds") {
            seconds = std::strtod(next().c_str(), nullptr);
        } else if (arg == "--trace") {
            trace = next() == "1";
        } else if (arg == "--t0-ns") {
            // steady_clock is CLOCK_MONOTONIC, shared with the caller.
            t0 = Clock::time_point(std::chrono::nanoseconds(
                std::strtoll(next().c_str(), nullptr, 10)));
        } else if (arg == "--setup-only") {
            setup_only = true;
        } else {
            usage("unknown argument " + arg);
        }
    }
    if (seconds <= 0.0)
        usage("--seconds must be positive");
    setLogLevel(LogLevel::kSilent);

    const std::unique_ptr<Workload> workload =
        makeWorkload(workload_name, seed);
    if (!workload)
        usage("unknown workload '" + workload_name + "'");
    const double setup_s = secondsSince(t0);
    if (setup_only) {
        std::cout << "{\"setup_s\": " << jsonNumber(setup_s) << "}\n";
        return 0;
    }

    // Repeat until the next repetition (of each kind, when tracing)
    // would overrun the budget; at least once.
    std::vector<double> untraced_s;
    std::vector<double> traced_s;
    std::map<std::string, double> self_s;
    std::vector<RepResult> reps;
    std::size_t last_untraced = 0;
    const auto phase = Clock::now();
    double round_s = 0.0;
    while (reps.empty() || secondsSince(phase) + round_s <= seconds) {
        const auto round = Clock::now();
        auto start = Clock::now();
        reps.push_back(workload->run());
        untraced_s.push_back(secondsSince(start));
        last_untraced = reps.size() - 1;
        if (trace) {
            Profiler::instance().reset();
            Profiler::setEnabled(true);
            start = Clock::now();
            reps.push_back(workload->run());
            traced_s.push_back(secondsSince(start));
            Profiler::setEnabled(false);
            for (const auto &[label, s] : collectSelfSeconds())
                self_s[label] += s;
        }
        round_s = secondsSince(round);
    }
    for (auto &[label, s] : self_s)
        s /= static_cast<double>(traced_s.size());

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> violations;
    for (std::size_t i = 0; i < reps.size(); ++i) {
        attempted += reps[i].attempted;
        failed += reps[i].failed;
        for (const std::string &v : reps[i].violations)
            violations.push_back(v);
        if (reps[i].output != reps[0].output)
            violations.push_back("repetition " + std::to_string(i) +
                                 " output differs from repetition 0");
    }
    std::sort(violations.begin(), violations.end());
    violations.erase(std::unique(violations.begin(), violations.end()),
                     violations.end());

    const double peak_rss_mb = peakRssMb();

    if (trace) {
        // Span labels by exclusive wall time, for reading.
        std::cout << "span ranking (exclusive wall, mean of "
                  << traced_s.size() << " traced repetition(s)):\n";
        std::vector<std::pair<double, std::string>> ranked;
        double total = 0.0;
        for (const auto &[label, s] : self_s) {
            ranked.emplace_back(s, label);
            total += s;
        }
        std::sort(ranked.rbegin(), ranked.rend());
        for (std::size_t i = 0; i < ranked.size() && i < 12; ++i) {
            char line[128];
            std::snprintf(line, sizeof(line), "  %-32s %9.3f s %5.1f%%\n",
                          ranked[i].second.c_str(), ranked[i].first,
                          100.0 * ratio(ranked[i].first, total));
            std::cout << line;
        }
    }

    std::ostringstream js;
    js << "{\"workload\": " << jsonString(workload_name)
       << ", \"seed\": " << seed << ", \"jobs\": " << workload->jobs()
       << ", \"nproc\": " << CampaignRunner::hardwareConcurrency()
       << ", \"compiler\": " << jsonString("g++ " __VERSION__)
       << ", \"build_type\": " << jsonString(UTRR_PERF_BUILD_TYPE)
       << ", \"setup_s\": " << jsonNumber(setup_s)
       << ", \"peak_rss_mb\": " << jsonNumber(peak_rss_mb)
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"digest\": " << jsonString(digestOf(reps[0].output))
       << ", \"output\": " << jsonString(reps[0].output)
       << ", \"wall_s\": [";
    for (std::size_t i = 0; i < untraced_s.size(); ++i)
        js << (i ? ", " : "") << jsonNumber(untraced_s[i]);
    js << "], \"violations\": [";
    for (std::size_t i = 0; i < violations.size(); ++i)
        js << (i ? ", " : "") << jsonString(violations[i]);
    js << "]";
    if (trace) {
        const std::map<std::string, double> layers =
            layerMetrics(reps[last_untraced], self_s,
                         quantile(untraced_s, 0.5), quantile(traced_s, 0.5));
        js << ", \"layers\": {";
        bool first = true;
        for (const auto &[name, unit] : layerCatalog()) {
            js << (first ? "" : ", ") << jsonString(name)
               << ": {\"value\": " << jsonNumber(layers.at(name))
               << ", \"unit\": " << jsonString(unit) << "}";
            first = false;
        }
        js << "}";
    }
    js << "}";
    std::cout << js.str() << std::endl;
    return 0;
}
