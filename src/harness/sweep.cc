#include "harness/sweep.hh"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <system_error>
#include <thread>

#include "sim/log.hh"
#include "sim/prof.hh"

namespace affalloc::harness
{

namespace
{

/** Same cap as affalloc_cli's count-valued flags. */
constexpr unsigned long maxJobs = 1024;

/**
 * Strict decimal parse of a job count: the whole value must be digits
 * and at most maxJobs, so "abc", "4x" and "-3" fail instead of
 * turning into some other count. 0 means one per hardware thread.
 */
unsigned
validateJobs(const char *text, const char *origin)
{
    bool ok = *text != '\0';
    for (const char *c = text; *c; ++c)
        ok = ok && *c >= '0' && *c <= '9';
    unsigned long v = 0;
    if (ok) {
        errno = 0;
        v = std::strtoul(text, nullptr, 10);
        ok = errno == 0 && v <= maxJobs;
    }
    if (!ok) {
        SIM_FATAL("harness",
                  "%s: '%s' is not a job count (need an integer in "
                  "[0, %lu]; 0 = one per hardware thread)",
                  origin, text, maxJobs);
    }
    if (v == 0) {
        const unsigned hw = std::thread::hardware_concurrency();
        return hw == 0 ? 1 : hw;
    }
    return static_cast<unsigned>(v);
}

} // namespace

unsigned
parseJobs(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strcmp(arg, "--jobs") == 0) {
            if (i + 1 >= argc)
                SIM_FATAL("harness", "--jobs requires a value");
            return validateJobs(argv[i + 1], "--jobs");
        }
        if (std::strncmp(arg, "--jobs=", 7) == 0)
            return validateJobs(arg + 7, "--jobs");
    }
    if (const char *env = std::getenv("AFFALLOC_JOBS"); env && *env)
        return validateJobs(env, "AFFALLOC_JOBS");
    return 1;
}

namespace
{

/** The --prof-out destination, held open from parse time to exit. */
std::FILE *profOut_ = nullptr;
std::string profOutPath_;

void
writeProfAtExit()
{
    if (!profOut_)
        return;
    const prof::Snapshot snap = prof::harvest();
    const bool wrote = prof::writeJson(profOut_, snap);
    const bool closed = std::fclose(profOut_) == 0;
    profOut_ = nullptr;
    if (!wrote || !closed) {
        // atexit context: throwing SIM_FATAL here would terminate();
        // report and fail the process directly.
        std::fprintf(stderr,
                     "fatal: [harness] failed writing profile to '%s': "
                     "%s\n",
                     profOutPath_.c_str(), std::strerror(errno));
        std::_Exit(1);
    }
}

void
openProfOut(const char *path)
{
    if (!path || *path == '\0')
        SIM_FATAL("harness", "--prof-out: empty path");
    if (profOut_)
        SIM_FATAL("harness", "--prof-out given twice");
    profOut_ = std::fopen(path, "w");
    if (!profOut_) {
        SIM_FATAL("harness", "--prof-out: cannot open '%s': %s", path,
                  std::strerror(errno));
    }
    profOutPath_ = path;
    std::atexit(&writeProfAtExit);
    prof::setEnabled(true);
}

double
validateProgressInterval(const char *text, const char *origin)
{
    char *end = nullptr;
    const double v = std::strtod(text, &end);
    if (end == text || *end != '\0')
        SIM_FATAL("harness", "%s: '%s' is not a number", origin, text);
    if (!(v > 0.0) || v > 86400.0) {
        SIM_FATAL("harness",
                  "%s: %g is not a usable heartbeat interval (need "
                  "0 < seconds <= 86400)",
                  origin, v);
    }
    return v;
}

} // namespace

bool
applyProfFlags(int argc, char **argv)
{
    const char *prof_path = nullptr;
    bool progress = false;
    double interval = 5.0;
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strcmp(arg, "--prof-out") == 0) {
            if (i + 1 >= argc)
                SIM_FATAL("harness", "--prof-out requires a value");
            prof_path = argv[++i];
        } else if (std::strncmp(arg, "--prof-out=", 11) == 0) {
            prof_path = arg + 11;
        } else if (std::strcmp(arg, "--progress") == 0) {
            progress = true;
        } else if (std::strncmp(arg, "--progress=", 11) == 0) {
            progress = true;
            interval = validateProgressInterval(arg + 11, "--progress");
        }
    }
    if (!prof_path) {
        if (const char *env = std::getenv("AFFALLOC_PROF_OUT");
            env && *env)
            prof_path = env;
    }
    if (!progress) {
        if (const char *env = std::getenv("AFFALLOC_PROGRESS");
            env && *env && std::strcmp(env, "0") != 0) {
            progress = true;
            if (std::strcmp(env, "1") != 0)
                interval =
                    validateProgressInterval(env, "AFFALLOC_PROGRESS");
        }
    }
    if (prof_path) {
        openProfOut(prof_path);
        if (!prof::compiledIn) {
            std::fprintf(stderr,
                         "warning: [harness] this build has "
                         "AFFALLOC_PROF=OFF; '%s' will carry an empty "
                         "profile\n",
                         prof_path);
        }
    }
    if (progress)
        prof::progressEnable(interval);
    return prof_path != nullptr;
}

void
runSweepTasks(unsigned jobs, std::vector<std::function<void()>> tasks)
{
    const std::size_t n = tasks.size();
    if (n == 0)
        return;
    PROF_SCOPE("harness/sweep");
    prof::counterMax("sweep/max_batch_tasks", n);
    if (jobs <= 1 || n == 1) {
        // Inline execution: identical to the pre-parallel bench loops.
        for (auto &task : tasks)
            task();
        return;
    }

    const unsigned workers =
        static_cast<unsigned>(std::min<std::size_t>(jobs, n));
    // Sampled once so that every worker of a batch agrees on it.
    const bool timed = prof::enabled();
    std::atomic<std::size_t> next{0};
    std::vector<std::exception_ptr> errors(n);
    std::vector<std::uint64_t> busyNs(workers);

    auto worker = [&](unsigned w) {
        const std::uint64_t t0 = timed ? prof::nowNs() : 0;
        for (;;) {
            const std::size_t i = next.fetch_add(1);
            if (i >= n)
                break;
            try {
                tasks[i]();
            } catch (...) {
                errors[i] = std::current_exception();
            }
        }
        if (timed)
            busyNs[w] = prof::nowNs() - t0;
    };

    // Nested and concurrent sweeps take this same path. The calling
    // thread is the last worker, so tasks it runs nest under this
    // sweep's phase scope.
    std::vector<std::thread> threads;
    threads.reserve(workers - 1);
    try {
        for (unsigned w = 0; w + 1 < workers; ++w)
            threads.emplace_back(worker, w);
    } catch (const std::system_error &) {
        // Out of host threads: the workers already running drain the
        // batch, as would the caller alone.
    }
    worker(workers - 1);
    for (auto &t : threads)
        t.join();
    if (timed)
        prof::noteSweepBatch(busyNs);

    // Deterministic error reporting: the lowest-indexed failure wins,
    // exactly as it would have surfaced from the serial loop.
    for (std::size_t i = 0; i < n; ++i) {
        if (errors[i])
            std::rethrow_exception(errors[i]);
    }
}

} // namespace affalloc::harness
