/**
 * @file
 * Shared types of the benchmark driver: workload families, their
 * points, and the host-time span recorder. Everything here sits
 * *outside* the simulator library and only calls its public API.
 */

#ifndef AFFALLOC_PERFBENCH_BENCH_HH
#define AFFALLOC_PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "graph/csr.hh"
#include "workloads/run_context.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** Every run is serial: one simulation thread (`--sim-threads 1`). */
inline affalloc::workloads::RunConfig
runConfig(affalloc::ExecMode mode)
{
    auto rc = affalloc::workloads::RunConfig::forMode(mode);
    rc.machine.simThreads = 1;
    return rc;
}

/**
 * Host-speed calibration. On a shared host the simulator's speed drifts
 * by up to ~1.8x over tens of seconds, as neighbours contend for the
 * shared last-level cache and memory. A fixed slice of random lookups
 * in a ~40 MB hash table slows down with the simulator (per-pass
 * correlation ~0.9, against ~0.5 for a pure compute loop). Every timed
 * step is bracketed by slices and divided by their mean slowdown
 * against a nominal slice time, which turns host seconds into
 * *reference seconds*: host seconds at the host's uncontended speed.
 */
class HostSpeed
{
  public:
    /** Builds the table (not timed; before any pass). */
    HostSpeed();

    /** Run one slice; returns and records its slowdown (1 = nominal). */
    double sample();

    /** Every slowdown sampled so far. */
    const std::vector<double> &samples() const { return samples_; }

  private:
    std::unordered_map<std::uint64_t, std::uint64_t> table_;
    std::uint64_t state_ = 0x9e3779b97f4a7c15ULL;
    std::uint64_t sink_ = 0;
    std::vector<double> samples_;
};

/** Inputs regenerated at the start of every pass (timed as setup). */
struct Inputs
{
    std::vector<affalloc::graph::Csr> graphs;
};

/** One seeded power-law graph of a workload. */
struct GraphSpec
{
    std::string tag;
    affalloc::graph::VertexId vertices = 0;
    std::uint64_t edges = 0;
    std::uint64_t seed = 0;
};

/**
 * What a probe's allocation pattern leaves behind: every block it
 * allocated (freed, timed, afterwards) and the pointer hops between
 * blocks that the kernel later chases, as (from, to) host pointers.
 */
struct AllocTrace
{
    std::vector<void *> blocks;
    std::vector<std::pair<const void *, const void *>> hops;
    /** Host seconds spent inside mallocAff, and how many calls. */
    double mallocS = 0.0;
    std::uint64_t mallocs = 0;
};

/**
 * One (kernel, input, mode) run. Points that share kernel and input
 * but differ in mode form a Near-L3 / Aff-Alloc pair.
 */
struct Point
{
    std::string kernel;
    /** Input tag, e.g. "fit", "8x", "D4". */
    std::string input;
    affalloc::ExecMode mode = affalloc::ExecMode::affAlloc;
    /** Index into Inputs::graphs (graph kernels only). */
    int graph = -1;
    std::function<affalloc::workloads::RunResult(
        affalloc::workloads::RunContext &, const Inputs &)>
        run;
    /** Probe: the kernel's reference solver on the same input. */
    std::function<void(const Inputs &)> reference;
    /**
     * Probe: build the kernel's `ds` structure with its own inputs;
     * returns the host seconds of construction alone.
     */
    std::function<double(affalloc::workloads::RunContext &,
                         const Inputs &)>
        buildDs;
    /** Probe: replay the kernel's allocation pattern (Aff-Alloc only). */
    std::function<void(affalloc::workloads::RunContext &, const Inputs &,
                       AllocTrace &)>
        allocPattern;

    std::string label() const;
};

/** A named workload: its inputs, its points and a size statement. */
struct Family
{
    std::string name;
    std::vector<GraphSpec> graphs;
    std::vector<Point> points;
    /** Inputs do not depend on the seed (digests recorded once). */
    bool seedFree = false;
    /** Human-readable input size (printed beside throughput). */
    std::string sizeNote;
};

/** Build the named workload at the given seed; tiny shrinks inputs. */
Family makeFamily(const std::string &name, std::uint64_t seed, bool tiny);

/** Generate a family's graphs (the timed `graph.generate` step). */
affalloc::graph::Csr generateGraph(const GraphSpec &spec);

/**
 * Host-time spans recorded by the traced run. Spans of one point share
 * an id; parents are indexes into the same vector. Kept in memory and
 * written once at exit.
 */
struct Span
{
    std::string name;
    /** Point label or other context; not part of the span's name. */
    std::string detail;
    std::uint64_t id = 0;
    int parent = -1;
    double start = 0.0;
    double end = 0.0;
};

class SpanLog
{
  public:
    SpanLog() : origin_(Clock::now()) {}

    /** Open a span; returns its index for close() and children. */
    int open(const std::string &name, std::uint64_t id, int parent,
             const std::string &detail = "");
    void close(int index);

    /** Self time of every span name: duration minus covered children. */
    std::vector<std::pair<std::string, double>> selfTimes() const;
    /** Write all spans as a JSON array; false on I/O error. */
    bool writeJson(const std::string &path) const;

  private:
    Clock::time_point origin_;
    std::vector<Span> spans_;
};

/** Per-layer numbers measured by driving a layer's public functions. */
struct ProbeTimes
{
    double referenceS = 0.0;
    double dsBuildS = 0.0;
    double mallocNs = 0.0;
    double freeNs = 0.0;
    double cacheAccessNs = 0.0;
    double translateNs = 0.0;
    double rangeLookupNs = 0.0;
    double sendNs = 0.0;
};

/**
 * Run every layer probe of a family on the same inputs its points use.
 * Probes run on throwaway RunContexts and never touch the timed passes.
 * Times are in reference units (see HostSpeed).
 */
ProbeTimes runProbes(const Family &family, const Inputs &inputs,
                     SpanLog *spans, HostSpeed &speed);

} // namespace perfbench

#endif // AFFALLOC_PERFBENCH_BENCH_HH
