/**
 * @file
 * Shared pieces of perfbench-measure: the seeded generator, the
 * in-memory span recorder, cold-process spawning, and the result
 * record every workload fills in.
 *
 * perfbench-measure is benchmark code, not part of accelwall: it calls the
 * library's public functions and the built tools exactly as a user
 * would, and everything it times is bracketed here.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench
{

/** Set-up repetitions of every workload; setup_s is their median. */
constexpr int kSetupReps = 5;

/** Monotonic nanoseconds (std::chrono::steady_clock). */
inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/**
 * splitmix64. The benchmark's only source of randomness, kept here
 * rather than borrowed from the library so that a change to the
 * program can never change the inputs it is measured on.
 */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed) : state_(seed) {}

    std::uint64_t
    next()
    {
        std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

    /** Uniform in [0, 1). */
    double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

    /** Uniform in [0, n). */
    std::size_t below(std::size_t n) { return next() % n; }

    /** Fisher-Yates. */
    template <typename T>
    void
    shuffle(std::vector<T> &v)
    {
        for (std::size_t i = v.size(); i > 1; --i)
            std::swap(v[i - 1], v[below(i)]);
    }

  private:
    std::uint64_t state_;
};

/** One recorded span; parent is -1 for a root. */
struct Span
{
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;
};

/**
 * Spans kept in memory and written out with the result. Disabled
 * tracers record nothing, so untraced runs pay one branch per call.
 * Single-threaded by design: every caller records from one thread.
 */
class Tracer
{
  public:
    bool enabled = false;

    /** Open a span now; returns its id, or -1 when disabled. */
    int
    begin(const std::string &name, int parent = -1)
    {
        if (!enabled)
            return -1;
        spans.push_back({name, nowNs(), 0, parent});
        return static_cast<int>(spans.size()) - 1;
    }

    void
    end(int id)
    {
        if (id >= 0)
            spans[static_cast<std::size_t>(id)].end_ns = nowNs();
    }

    /** Record a span whose bounds were measured elsewhere. */
    int
    add(const std::string &name, std::int64_t start_ns,
        std::int64_t end_ns, int parent = -1)
    {
        if (!enabled)
            return -1;
        spans.push_back({name, start_ns, end_ns, parent});
        return static_cast<int>(spans.size()) - 1;
    }

    std::vector<Span> spans;
};

/** What one workload run hands back to run.py. */
struct Result
{
    /** Time of each set-up repetition, seconds (net of steal for the
     *  cold-process workloads). */
    std::vector<double> setup_s;
    /** Timed samples per operation class, ms. */
    std::map<std::string, std::vector<double>> samples;
    /** Samples of the primary class split by tracing state. */
    std::vector<double> traced, untraced;
    /** User + system CPU of the timed phase, ms. */
    double cpu_ms = 0.0;
    std::uint64_t ops = 0;
    std::uint64_t failed = 0;
    /** Outputs that differed from the set-up reference. */
    std::uint64_t mismatches = 0;
    long peak_rss_kb = 0;
    /** Failed correctness checks, one line each. */
    std::vector<std::string> errors;
    /** Per-layer metrics (traced runs only). */
    std::map<std::string, double> layers;
};

/** One finished cold process. */
struct Proc
{
    std::string out;
    double wall_ms = 0.0;
    double cpu_ms = 0.0;
    long maxrss_kb = 0;
    /** True iff the process exited 0. */
    bool ok = false;
};

/**
 * Spawn argv (argv[0] a path) with stdin from /dev/null, stdout
 * captured, stderr inherited, and the given extra environment
 * entries; wait for it. The clock runs from spawn to reap.
 */
Proc runCold(const std::vector<std::string> &argv,
             const std::vector<std::string> &env);

/** 64-bit FNV-1a over a byte string. */
std::uint64_t fnv1a(const std::string &data);

/** Median of a non-empty sample (copies). */
double median(std::vector<double> v);

/** Everything the workloads read from the command line. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string sweep_tool;
    std::vector<std::string> figures;
    /** Canonical outputs are written here for the digest. */
    std::string outputs_path;
    /** Self-test fault: "corrupt" or "refuse". */
    std::string inject;
};

/** One POST the serve workloads send. */
struct Post
{
    std::string target;
    std::string body;
};

/** One open-loop arrival: when it is due and what it sends. */
struct Arrival
{
    /** Offset from the start of the load, ns. */
    std::int64_t due_ns = 0;
    /** Index into the post list. */
    std::size_t post = 0;
};

/** The bytes of one request for @p p, as the generator sends them. */
std::string wire(const Post &p);

/** The cache-warmed request bodies: fixed, seed-independent. */
std::vector<Post> hitSet();

/**
 * A seeded /v1/sweep body for @p kernel that differs from every body
 * in @p seen (which it joins) and stays within the default 512-cell
 * limit.
 */
Post missPost(Rng &rng, const std::string &kernel,
              std::vector<std::string> &seen);

/**
 * A Poisson schedule over @p seconds at 100 arrivals per second: one
 * in four gets a fresh missPost() (appended to @p posts), the others
 * one of the first @p hits posts.
 */
std::vector<Arrival> poissonSchedule(Rng &rng, double seconds,
                                     std::size_t hits,
                                     std::vector<Post> &posts);

/** What an open-loop load measured. */
struct LoadStats
{
    std::vector<double> hit_ms, miss_ms, late_ms;
    /** Hit latencies split by tracing state (traced runs). */
    std::vector<double> traced_hit_ms, untraced_hit_ms;
    std::uint64_t sent = 0, ok = 0, failed = 0, mismatches = 0;
    /** Per-arrival FNV-1a of miss bodies (0 for hits), for the digest. */
    std::vector<std::uint64_t> miss_hash;
    /** CPU time of the generator thread itself, ms. */
    double generator_cpu_ms = 0.0;
};

/**
 * Send @p arrivals open loop to 127.0.0.1:@p port from the calling
 * thread, one connection per request, each timed from when it was
 * due. Posts
 * below @p hits must answer X-Cache: hit with @p hit_refs bytes;
 * the rest must answer a miss. When @p refuse_one, the third arrival
 * goes to a closed port instead (self-test of failure counting).
 */
LoadStats openLoop(int port, const std::vector<Post> &posts,
                   const std::vector<Arrival> &arrivals, std::size_t hits,
                   const std::vector<std::string> &hit_refs, Tracer &tracer,
                   bool refuse_one);

Result runSweepCli(const Options &opts, Tracer &tracer);
Result runFigures(const Options &opts, Tracer &tracer);
Result runServeOpen(const Options &opts, Tracer &tracer);

/** The per-layer probes of a traced run; fills result.layers. */
void runLayerProbes(const Options &opts, Tracer &tracer, Result &result);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
