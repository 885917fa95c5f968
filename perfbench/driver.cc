/**
 * @file
 * Benchmark driver: runs one workload serially (one thread, one
 * simulation thread) for a given time, checks every point's validity
 * and determinism digest, and prints the end-to-end metrics, or with
 * --trace 1 the per-layer metrics, ending with one JSON result line.
 *
 *   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
 *                    [--digests FILE] [--emit-digests FILE]
 *                    [--spans-out FILE] [--tiny]
 */

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>

#include "bench.hh"
#include "sim/prof.hh"

namespace perfbench
{

using namespace affalloc;
using namespace affalloc::workloads;

/** Seed at which digests of seeded workloads are recorded. */
constexpr std::uint64_t defaultSeed = 1;

// ------------------------------------------------------------ spans

int
SpanLog::open(const std::string &name, std::uint64_t id, int parent,
              const std::string &detail)
{
    const double now = secondsBetween(origin_, Clock::now());
    spans_.push_back({name, detail, id, parent, now, now});
    return static_cast<int>(spans_.size()) - 1;
}

void
SpanLog::close(int index)
{
    spans_.at(index).end = secondsBetween(origin_, Clock::now());
}

std::vector<std::pair<std::string, double>>
SpanLog::selfTimes() const
{
    // Children run one after another on one thread, so the part of a
    // parent they cover is the sum of their durations.
    std::vector<double> covered(spans_.size(), 0.0);
    for (const Span &s : spans_)
        if (s.parent >= 0)
            covered[s.parent] += s.end - s.start;
    std::map<std::string, double> self;
    for (std::size_t i = 0; i < spans_.size(); ++i)
        self[spans_[i].name] +=
            spans_[i].end - spans_[i].start - covered[i];
    return {self.begin(), self.end()};
}

bool
SpanLog::writeJson(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fputs("[\n", f);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::fprintf(f,
                     "  {\"name\": \"%s\", \"detail\": \"%s\", \"id\": %llu, "
                     "\"parent\": %d, \"start_s\": %.9f, \"end_s\": %.9f}%s\n",
                     s.name.c_str(), s.detail.c_str(),
                     static_cast<unsigned long long>(s.id), s.parent,
                     s.start, s.end, i + 1 < spans_.size() ? "," : "");
    }
    std::fputs("]\n", f);
    const bool ok = !std::ferror(f);
    return std::fclose(f) == 0 && ok;
}

namespace
{

// ------------------------------------------------------------- args

struct Args
{
    std::string workload;
    std::uint64_t seed = defaultSeed;
    double seconds = 10;
    bool trace = false;
    bool tiny = false;
    std::string digestsIn;
    std::string digestsOut;
    std::string spansOut;
};

Args
parseArgs(int argc, char **argv)
{
    Args a;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--tiny") {
            a.tiny = true;
            continue;
        }
        if (i + 1 >= argc)
            throw std::invalid_argument("missing value for " + flag);
        const std::string v = argv[++i];
        if (flag == "--workload") {
            a.workload = v;
            have_workload = true;
        } else if (flag == "--seed") {
            a.seed = std::stoull(v);
        } else if (flag == "--seconds") {
            a.seconds = std::stod(v);
        } else if (flag == "--trace") {
            if (v != "0" && v != "1")
                throw std::invalid_argument("--trace takes 0 or 1");
            a.trace = v == "1";
        } else if (flag == "--digests") {
            a.digestsIn = v;
        } else if (flag == "--emit-digests") {
            a.digestsOut = v;
        } else if (flag == "--spans-out") {
            a.spansOut = v;
        } else {
            throw std::invalid_argument("unknown flag " + flag);
        }
    }
    if (!have_workload)
        throw std::invalid_argument("--workload is required");
    if (!(a.seconds > 0))
        throw std::invalid_argument("--seconds must be positive");
    return a;
}

// ------------------------------------------------------------ passes

struct PointRun
{
    /** Reference seconds of each step; rawS is their host-time sum. */
    double bootS = 0, runS = 0, finishS = 0, rawS = 0;
    RunResult result;
    alloc::AllocStats alloc;
};

struct PassRun
{
    /** Reference seconds: input generation, and all steps of the pass. */
    double generateS = 0, wallS = 0;
    bool traced = false;
    std::vector<PointRun> points;
};

/** Open a span when tracing; a no-op index otherwise. */
int
openSpan(SpanLog *log, const std::string &name, std::uint64_t id,
         int parent, const std::string &detail = "")
{
    return log ? log->open(name, id, parent, detail) : -1;
}

void
closeSpan(SpanLog *log, int index)
{
    if (log)
        log->close(index);
}

/**
 * One serial pass over every point of the family: generate inputs,
 * then boot, run and finish each point. With @p log set, every step is
 * a span, and finish re-packages the result (RunContext::finish) to
 * time it from outside and confirm it reproduces the run's digest.
 *
 * Host-speed slices bracket every step; each step's time is divided by
 * the mean slowdown of its two slices (reference seconds). The pass
 * wall is the sum of its steps, so it excludes the slices.
 */
PassRun
runPass(const Family &family, std::uint64_t pass_no, SpanLog *log,
        HostSpeed &speed)
{
    PassRun pr;
    pr.traced = log != nullptr;
    const std::uint64_t pass_id = pass_no * 1000;
    const int pass_span = openSpan(log, "pass", pass_id, -1);
    double before = speed.sample();
    // Slowdown over the step that just ended.
    const auto stepSlowdown = [&] {
        const double after = speed.sample();
        const double f = 0.5 * (before + after);
        before = after;
        return f;
    };

    Inputs inputs;
    const auto t_gen = Clock::now();
    for (const GraphSpec &g : family.graphs) {
        const int s = openSpan(log, "graph.generate", pass_id, pass_span,
                               g.tag);
        inputs.graphs.push_back(generateGraph(g));
        closeSpan(log, s);
    }
    if (!family.graphs.empty())
        pr.generateS = secondsBetween(t_gen, Clock::now()) / stepSlowdown();
    pr.wallS = pr.generateS;

    std::uint64_t id = pass_id;
    for (const Point &point : family.points) {
        ++id;
        PointRun run;
        const int ps = openSpan(log, "point", id, pass_span, point.label());

        const int boot = openSpan(log, "os.boot", id, ps);
        const auto t0 = Clock::now();
        auto ctx = std::make_unique<RunContext>(runConfig(point.mode));
        const auto t1 = Clock::now();
        closeSpan(log, boot);

        const int rs = openSpan(log, "workloads.run_" + point.kernel, id, ps);
        run.result = point.run(*ctx, inputs);
        run.alloc = ctx->allocator.allocStats();
        const auto t2 = Clock::now();
        closeSpan(log, rs);

        const int fs = openSpan(log, "finish", id, ps);
        if (log) {
            const RunResult again =
                ctx->finish(run.result.workload, run.result.valid);
            if (again.digest() != run.result.digest())
                run.result.valid = false;
        }
        ctx.reset();
        const auto t3 = Clock::now();
        closeSpan(log, fs);
        closeSpan(log, ps);

        run.rawS = secondsBetween(t0, t3);
        const double f = stepSlowdown();
        run.bootS = secondsBetween(t0, t1) / f;
        run.runS = secondsBetween(t1, t2) / f;
        run.finishS = secondsBetween(t2, t3) / f;
        pr.wallS += run.bootS + run.runS + run.finishS;
        pr.points.push_back(std::move(run));
    }
    closeSpan(log, pass_span);
    return pr;
}

// --------------------------------------------------------- statistics

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

template <typename Fn>
double
medianOver(const std::vector<const PassRun *> &passes, Fn fn)
{
    std::vector<double> v;
    for (const PassRun *p : passes)
        v.push_back(fn(*p));
    return median(v);
}

/**
 * The time of a pass in which every point took its median time over
 * @p passes: per-point medians, summed. Noise bursts on a shared host
 * hit different points in different passes; this drops them point by
 * point instead of pass by pass.
 */
template <typename Fn>
double
summedMedians(const std::vector<const PassRun *> &passes, std::size_t np,
              Fn point_time)
{
    double s = 0;
    for (std::size_t i = 0; i < np; ++i) {
        std::vector<double> v;
        for (const PassRun *p : passes)
            v.push_back(point_time(i, p->points[i]));
        s += median(v);
    }
    return s;
}

double
pointSeconds(std::size_t, const PointRun &r)
{
    return r.bootS + r.runS + r.finishS;
}

double
runSeconds(std::size_t, const PointRun &r)
{
    return r.runS;
}

double
bootSeconds(std::size_t, const PointRun &r)
{
    return r.bootS;
}

double
generateSeconds(const std::vector<const PassRun *> &passes)
{
    return medianOver(passes, [](const PassRun &p) { return p.generateS; });
}

/** Median-based pass wall: input generation plus every point. */
double
passWall(const std::vector<const PassRun *> &passes, std::size_t np)
{
    return generateSeconds(passes) + summedMedians(passes, np, pointSeconds);
}

double
geomeanOf(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    double logs = 0;
    for (const double x : v)
        logs += std::log(x);
    return std::exp(logs / double(v.size()));
}

std::uint64_t
messagesOf(const sim::Stats &s)
{
    std::uint64_t messages = 0;
    for (const std::uint64_t m : s.messages)
        messages += m;
    return messages;
}

double
geomeanOfKernels(const std::map<std::string, std::vector<double>> &by_kernel)
{
    std::vector<double> per_kernel;
    for (const auto &[kernel, values] : by_kernel)
        per_kernel.push_back(geomeanOf(values));
    return geomeanOf(per_kernel);
}

/** Simulated events of one run: cache accesses, NoC messages, DRAM. */
std::uint64_t
eventsOf(const sim::Stats &s)
{
    return s.l1Accesses + s.l2Accesses + s.l3Accesses + messagesOf(s) +
           s.dramAccesses;
}

// ---------------------------------------------------------- digests

using DigestMap = std::map<std::string, std::uint64_t>;

/** Lines "workload label 0xdigest"; only this workload's are kept. */
DigestMap
loadDigests(const std::string &path, const std::string &workload)
{
    DigestMap out;
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot read digests file " + path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ls(line);
        std::string wl, label, hex;
        if (!(ls >> wl >> label >> hex))
            throw std::runtime_error("malformed digest line: " + line);
        if (wl == workload)
            out[label] = std::stoull(hex, nullptr, 16);
    }
    return out;
}

void
emitDigests(const std::string &path, const Family &family,
            const PassRun &pass)
{
    std::ofstream out(path);
    for (std::size_t i = 0; i < family.points.size(); ++i) {
        char hex[32];
        std::snprintf(hex, sizeof hex, "0x%016llx",
                      static_cast<unsigned long long>(
                          pass.points[i].result.digest()));
        out << family.name << ' ' << family.points[i].label() << ' ' << hex
            << '\n';
    }
    if (!out)
        throw std::runtime_error("cannot write digests file " + path);
}

// ----------------------------------------------------------- output

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

void
printResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
            const std::vector<Metric> &metrics)
{
    for (const Metric &m : metrics)
        std::printf("  %-34s %22.9g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (std::size_t i = 0; i < metrics.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(),
                    metrics[i].value, metrics[i].unit.c_str());
    std::printf("}}\n");
}

/** Paper speedups over Near-L3, read off Fig. 12 (EXPERIMENTS.md). */
const std::map<std::string, double> paperSpeedup = {
    {"pathfinder", 2.2}, {"hotspot", 2.5},   {"srad", 3.2},
    {"hotspot3d", 1.5},  {"pr_push", 2.5},   {"bfs", 3.0},
    {"sssp", 2.5},       {"link_list", 1.7}, {"hash_join", 2.0},
    {"bin_tree", 1.3}};

/** Every kernel any workload runs (per-layer run-time metrics). */
const char *const allKernels[] = {
    "pathfinder", "hotspot", "srad",      "hotspot3d", "bfs",     "sssp",
    "pr_push",    "link_list", "hash_join", "churn_list", "bin_tree"};

/** Sum of inclusive ns of the first nodes (top-down) matching @p pred. */
template <typename Pred>
std::uint64_t
profSum(const std::vector<prof::PhaseNode> &nodes, Pred pred)
{
    std::uint64_t ns = 0;
    for (const prof::PhaseNode &n : nodes)
        ns += pred(n.name) ? n.inclusiveNs : profSum(n.children, pred);
    return ns;
}

int
runMain(const Args &args)
{
    const Family family = makeFamily(args.workload, args.seed, args.tiny);
    const std::size_t np = family.points.size();

    DigestMap expected;
    const bool check_recorded =
        !args.digestsIn.empty() &&
        (family.seedFree || args.seed == defaultSeed);
    if (check_recorded)
        expected = loadDigests(args.digestsIn, family.name);

    // The first pass warms host allocators and page mappings; it is
    // checked like every other pass but not timed.
    HostSpeed speed;
    rusage ru_base{};
    getrusage(RUSAGE_SELF, &ru_base);
    std::vector<PassRun> passes;
    passes.push_back(runPass(family, 0, nullptr, speed));
    // Peak RSS of one pass beyond what the process held before it
    // (binary, runtime and the host-speed table). Later passes only
    // add host-allocator fragmentation.
    rusage ru_pass{};
    getrusage(RUSAGE_SELF, &ru_pass);
    const double peak_rss_mb =
        double(ru_pass.ru_maxrss - ru_base.ru_maxrss) / 1024.0;
    if (!args.digestsOut.empty())
        emitDigests(args.digestsOut, family, passes[0]);

    SpanLog spans;
    const std::size_t minPasses = args.trace ? 4 : 3;
    const auto t_start = Clock::now();
    for (std::uint64_t n = 1;
         passes.size() - 1 < minPasses ||
         secondsBetween(t_start, Clock::now()) < args.seconds;
         ++n) {
        // Traced runs alternate untraced and traced passes so the
        // tracing overhead is measured under the same conditions.
        const bool traced = args.trace && n % 2 == 0;
        prof::setEnabled(traced);
        passes.push_back(
            runPass(family, n, traced ? &spans : nullptr, speed));
    }
    prof::setEnabled(false);

    // Correctness: valid, equal to the first pass, and equal to the
    // recorded digest where one applies.
    std::uint64_t attempted = 0, failed = 0;
    std::set<std::string> bad;
    for (const PassRun &p : passes) {
        for (std::size_t i = 0; i < np; ++i) {
            const RunResult &r = p.points[i].result;
            const std::string label = family.points[i].label();
            bool ok = r.valid &&
                      r.digest() == passes[0].points[i].result.digest();
            if (check_recorded) {
                const auto it = expected.find(label);
                ok &= it != expected.end() && it->second == r.digest();
            }
            ++attempted;
            if (!ok) {
                ++failed;
                bad.insert(label);
            }
        }
    }
    for (const std::string &label : bad)
        std::fprintf(stderr, "FAILED point %s (invalid or digest mismatch)\n",
                     label.c_str());

    std::vector<const PassRun *> timed, untraced, traced;
    for (std::size_t i = 1; i < passes.size(); ++i) {
        timed.push_back(&passes[i]);
        (passes[i].traced ? traced : untraced).push_back(&passes[i]);
    }
    const PassRun &first = passes[0];

    // Exact simulated counts come from the first pass (all passes agree
    // bit-for-bit when no point failed).
    sim::Stats sum;
    alloc::AllocStats asum;
    std::uint64_t events = 0;
    double util_cycles = 0;
    std::map<std::string, std::pair<const RunResult *, const RunResult *>>
        pairs;
    for (std::size_t i = 0; i < np; ++i) {
        const RunResult &r = first.points[i].result;
        const alloc::AllocStats &a = first.points[i].alloc;
        sum += r.stats;
        events += eventsOf(r.stats);
        util_cycles += r.nocUtilization * double(r.stats.cycles);
        asum.affineAllocs += a.affineAllocs;
        asum.irregularAllocs += a.irregularAllocs;
        asum.fallbacks += a.fallbacks;
        asum.frees += a.frees;
        const Point &pt = family.points[i];
        auto &pair = pairs[pt.kernel + "/" + pt.input];
        (pt.mode == ExecMode::nearL3 ? pair.first : pair.second) = &r;
    }
    // Per kernel, over its inputs; the workload figures are geomeans of
    // the kernel geomeans, so a kernel with several inputs counts once.
    std::map<std::string, std::vector<double>> kernel_speedups,
        kernel_traffic;
    std::printf("workload %s seed %llu: %zu points x %zu passes "
                "(1 warm-up + %zu timed), inputs: %s\n",
                family.name.c_str(), static_cast<unsigned long long>(args.seed),
                np, passes.size(), timed.size(), family.sizeNote.c_str());
    for (const auto &[key, pr] : pairs) {
        const double sp = double(pr.first->cycles()) / double(pr.second->cycles());
        const double tr = double(pr.second->stats.totalFlitHops()) /
                          double(pr.first->stats.totalFlitHops());
        const std::string kernel = key.substr(0, key.find('/'));
        kernel_speedups[kernel].push_back(sp);
        kernel_traffic[kernel].push_back(tr);
        std::printf("  pair %-16s cycles near %llu aff %llu  aff_speedup %.4f  "
                    "aff_traffic_ratio %.4f%s\n",
                    key.c_str(),
                    static_cast<unsigned long long>(pr.first->cycles()),
                    static_cast<unsigned long long>(pr.second->cycles()), sp,
                    tr,
                    sp < 1.0 ? "  [known deviation at reduced scale: "
                               "Aff-Alloc slower than Near-L3]"
                             : "");
    }

    {
        std::vector<double> sd = speed.samples();
        std::sort(sd.begin(), sd.end());
        std::printf("host slowdown vs nominal: median %.3f, min %.3f, max "
                    "%.3f over %zu slices\n",
                    median(sd), sd.front(), sd.back(), sd.size());
    }
    std::printf("timed pass walls (reference s):");
    for (const PassRun *p : timed)
        std::printf(" %.4f%s", p->wallS, p->traced ? "t" : "");
    std::printf("\n");

    if (!args.trace) {
        // Per point: median over passes of its boot + run + finish.
        double slowest = 0;
        for (std::size_t i = 0; i < np; ++i) {
            std::vector<double> v;
            for (const PassRun *p : timed) {
                const PointRun &r = p->points[i];
                v.push_back(r.bootS + r.runS + r.finishS);
            }
            const double point_median = median(v);
            std::printf("  point %-22s median %.4f s\n",
                        family.points[i].label().c_str(), point_median);
            slowest = std::max(slowest, point_median);
        }
        const std::vector<Metric> m = {
            {"wall_s", passWall(timed, np), "s"},
            {"slowest_point_s", slowest, "s"},
            {"setup_s",
             generateSeconds(timed) + summedMedians(timed, np, bootSeconds),
             "s"},
            {"sim_events_per_s",
             double(events) / summedMedians(timed, np, runSeconds), "1/s"},
            {"peak_rss_mb", peak_rss_mb, "MB"},
            {"valid_frac", 1.0 - double(failed) / double(attempted), "ratio"},
            {"aff_speedup", geomeanOfKernels(kernel_speedups), "x"},
            {"aff_traffic_ratio", geomeanOfKernels(kernel_traffic), "x"},
        };
        std::printf("per-point medians over %zu timed passes; %llu "
                    "simulated events per pass\n",
                    timed.size(), static_cast<unsigned long long>(events));
        printResult(failed == 0, attempted, failed, m);
        return 0;
    }

    // ------------------------------------------------ traced run only
    Inputs inputs;
    for (const GraphSpec &g : family.graphs)
        inputs.graphs.push_back(generateGraph(g));
    const ProbeTimes probe = runProbes(family, inputs, &spans, speed);

    const double traced_raw_total = [&] {
        double s = 0;
        for (const PassRun *p : traced)
            for (const PointRun &r : p->points)
                s += r.rawS;
        return s;
    }();

    const prof::Snapshot snap = prof::harvest();
    const double per_traced = 1e-9 / double(traced.size());
    const double prof_record =
        double(profSum(snap.phases, [](const std::string &n) {
            return n == "machine/epoch.record";
        })) * per_traced;
    const double prof_alloc =
        double(profSum(snap.phases, [](const std::string &n) {
            return n.rfind("alloc/", 0) == 0;
        })) * per_traced;
    std::uint64_t prof_roots = 0;
    for (const prof::PhaseNode &n : snap.phases)
        prof_roots += n.inclusiveNs;
    const double prof_vs_wall = double(prof_roots) * 1e-9 / traced_raw_total;

    const std::uint64_t allocs =
        asum.affineAllocs + asum.irregularAllocs + asum.fallbacks;
    const double attributed_ns =
        double(sum.l1Accesses + sum.l2Accesses + sum.l3Accesses) *
            probe.cacheAccessNs +
        double(sum.tlbAccesses) * probe.translateNs +
        double(messagesOf(sum)) * probe.sendNs +
        double(allocs) * probe.mallocNs + double(asum.frees) * probe.freeNs;
    const double run_traced = summedMedians(traced, np, runSeconds);

    double paper_log_err = 0;
    int paper_kernels = 0;
    for (const auto &[kernel, sps] : kernel_speedups) {
        const auto it = paperSpeedup.find(kernel);
        if (it == paperSpeedup.end())
            continue;
        paper_log_err += std::fabs(std::log(geomeanOf(sps) / it->second));
        ++paper_kernels;
    }

    std::vector<Metric> m = {
        {"graph.generate_s", generateSeconds(traced), "s"},
        {"graph.reference_s", probe.referenceS, "s"},
        {"os.boot_s", summedMedians(traced, np, bootSeconds), "s"},
        {"ds.build_s", probe.dsBuildS, "s"},
        {"alloc.affine_allocs", double(asum.affineAllocs), "count"},
        {"alloc.irregular_allocs", double(asum.irregularAllocs), "count"},
        {"alloc.frees", double(asum.frees), "count"},
        {"alloc.fallbacks", double(asum.fallbacks), "count"},
        {"alloc.fallback_frac",
         allocs ? double(asum.fallbacks) / double(allocs) : 0.0, "ratio"},
        {"alloc.malloc_ns", probe.mallocNs, "ns"},
        {"alloc.free_ns", probe.freeNs, "ns"},
        {"mem.l1_accesses", double(sum.l1Accesses), "count"},
        {"mem.l2_accesses", double(sum.l2Accesses), "count"},
        {"mem.l3_accesses", double(sum.l3Accesses), "count"},
        {"mem.l3_misses", double(sum.l3Misses), "count"},
        {"mem.l3_miss_rate", sum.l3MissRate(), "ratio"},
        {"mem.tlb_accesses", double(sum.tlbAccesses), "count"},
        {"mem.tlb_walks", double(sum.tlbWalks), "count"},
        {"mem.dram_accesses", double(sum.dramAccesses), "count"},
        {"mem.cache_access_ns", probe.cacheAccessNs, "ns"},
        {"mem.translate_ns", probe.translateNs, "ns"},
        {"mem.range_lookup_ns", probe.rangeLookupNs, "ns"},
        {"noc.messages", double(messagesOf(sum)), "count"},
        {"noc.flit_hops", double(sum.totalFlitHops()), "count"},
        {"noc.utilization",
         sum.cycles ? util_cycles / double(sum.cycles) : 0.0, "ratio"},
        {"noc.send_ns", probe.sendNs, "ns"},
        {"nsc.epochs", double(sum.epochs), "count"},
        {"nsc.sim_cycles", double(sum.cycles), "count"},
        {"nsc.se_ops", double(sum.seOps), "count"},
        {"nsc.core_ops", double(sum.coreOps), "count"},
        {"nsc.host_ns_per_event", run_traced * 1e9 / double(events), "ns"},
        {"nsc.paper_speedup_err",
         paper_kernels ? std::exp(paper_log_err / paper_kernels) : 0.0, "x"},
    };
    for (const char *kernel : allKernels) {
        const std::string k = kernel;
        m.push_back({"workloads.run_s." + k,
                     summedMedians(traced, np,
                                   [&](std::size_t i, const PointRun &r) {
                                       return family.points[i].kernel == k
                                                  ? r.runS
                                                  : 0.0;
                                   }),
                     "s"});
    }
    m.push_back({"workloads.unattributed_s", run_traced - attributed_ns * 1e-9,
                 "s"});
    m.push_back({"sim.trace_overhead_frac",
                 passWall(traced, np) / passWall(untraced, np) - 1.0, "ratio"});
    m.push_back({"sim.prof_record_s", prof_record, "s"});
    m.push_back({"sim.prof_alloc_s", prof_alloc, "s"});
    m.push_back({"sim.prof_vs_wall", prof_vs_wall, "ratio"});
    m.push_back({"sim.host_slowdown", median(speed.samples()), "ratio"});

    std::printf("traced run: %zu untraced + %zu traced passes; probes on "
                "the same inputs\n",
                untraced.size(), traced.size());
    std::printf("  nsc.paper_speedup_err compares speedups at this "
                "benchmark's reduced scale (%s) with the paper's "
                "full-scale Fig. 12 values\n",
                family.sizeNote.c_str());
    if (prof_vs_wall > 1.0)
        std::printf("  known deviation: sim.prof_vs_wall %.3f > 1; the "
                    "profiler's sampled allocator scopes scale the "
                    "always-timed cold first entry by count/timedCount\n",
                    prof_vs_wall);
    std::printf("  self time by span (all traced passes and probes):\n");
    for (const auto &[name, self] : spans.selfTimes())
        std::printf("    %-28s %12.6f s\n", name.c_str(), self);
    if (!args.spansOut.empty() && !spans.writeJson(args.spansOut))
        throw std::runtime_error("cannot write spans to " + args.spansOut);
    printResult(failed == 0, attempted, failed, m);
    return 0;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    try {
        return perfbench::runMain(perfbench::parseArgs(argc, argv));
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 2;
    }
}
