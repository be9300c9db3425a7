/**
 * @file
 * The two cold-process workloads: sweep_cli (accelwall-sweep runs)
 * and figures (full passes over the paper's figure binaries).
 */

#include <fcntl.h>
#include <sched.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <functional>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include "bench.hh"
#include "kernels/kernels.hh"

extern char **environ;

namespace perfbench
{

namespace
{

/** Latency recorded for an operation that failed: past every limit. */
constexpr double kFailMs = 60000.0;

/** Rows in a --grid paper sweep: 7 nodes x 20 partitions x 13. */
constexpr std::size_t kPaperRows = 1820;

/** Busy and stolen ticks of the CPUs this process may run on. */
struct CpuTicks
{
    long long busy = 0;
    long long steal = 0;
};

/**
 * Sum the per-CPU lines of /proc/stat over the CPUs in this process's
 * affinity mask, which run.py has pinned and every child inherits.
 * Busy is user + nice + system + irq + softirq + steal: the time the
 * vCPUs wanted to run, of which steal is the share the hypervisor gave
 * to someone else.
 */
CpuTicks
pinnedTicks()
{
    cpu_set_t mask;
    CPU_ZERO(&mask);
    if (sched_getaffinity(0, sizeof mask, &mask) != 0)
        throw std::runtime_error("sched_getaffinity failed");
    std::ifstream f("/proc/stat");
    CpuTicks t;
    std::string line;
    while (std::getline(f, line)) {
        if (line.rfind("cpu", 0) != 0 || line.size() < 4 ||
            line[3] < '0' || line[3] > '9')
            continue;
        std::istringstream in(line.substr(3));
        int cpu = 0;
        long long v[8] = {};
        in >> cpu;
        for (long long &x : v)
            in >> x;
        if (!in || !CPU_ISSET(cpu, &mask))
            continue;
        t.busy += v[0] + v[1] + v[2] + v[5] + v[6] + v[7];
        t.steal += v[7];
    }
    return t;
}

/**
 * Wall time net of steal: @p wall_ms scaled by the share of the pinned
 * CPUs' busy time between @p a and @p b that was not stolen. Spread
 * over two busy vCPUs, stolen time slows the pass in proportion.
 */
double
netOfSteal(double wall_ms, const CpuTicks &a, const CpuTicks &b)
{
    long long busy = b.busy - a.busy;
    if (busy <= 0)
        return wall_ms;
    return wall_ms * (1.0 - static_cast<double>(b.steal - a.steal) /
                                static_cast<double>(busy));
}

double
ms(const timeval &tv)
{
    return static_cast<double>(tv.tv_sec) * 1e3 +
           static_cast<double>(tv.tv_usec) / 1e3;
}

struct ColdOp
{
    /** Display name, e.g. "csv:RED". */
    std::string name;
    /** Class its wall times are sampled under, for reading. */
    std::string cls;
    std::vector<std::string> argv;
};

/** Returns "" when a reference output passes, else why it does not. */
using CheckFn = std::function<std::string(const ColdOp &, const std::string &)>;

/**
 * A reference output, kept as length and hash so this process stays
 * small: children spawned through vfork start from the spawner's
 * peak RSS, which would otherwise floor their measured peak.
 */
struct Ref
{
    std::size_t size = 0;
    std::uint64_t hash = 0;

    bool
    matches(const std::string &out) const
    {
        return out.size() == size && fnv1a(out) == hash;
    }
};

/**
 * Set-up, then timed passes until the deadline. Set-up runs every op
 * kSetupReps times in canonical order: the first repetition checks
 * the outputs, records them as references and writes them to the
 * digest file, the later ones must repeat them byte for byte. Each timed pass runs every op once in an order
 * shuffled from the seed, so each pass has the same operation mix.
 *
 * One operation is a whole pass: its wall time net of steal (ms) is a
 * "pass" sample, split by tracing state for the overhead, its raw wall
 * time a "pass_wall" one, and each process adds a sample (ms) to its
 * own class for reading. Set-ups are timed net of steal too.
 */
Result
runColdWorkload(const Options &opts, Tracer &tracer,
                const std::string &workload, const std::vector<ColdOp> &ops,
                const std::vector<std::string> &env, const CheckFn &check)
{
    Result r;
    std::vector<Ref> refs(ops.size());
    std::ofstream outputs(opts.outputs_path, std::ios::binary | std::ios::trunc);
    for (int rep = 0; rep < kSetupReps; ++rep) {
        CpuTicks k0 = pinnedTicks();
        std::int64_t t0 = nowNs();
        for (std::size_t i = 0; i < ops.size(); ++i) {
            Proc p = runCold(ops[i].argv, env);
            if (!p.ok) {
                r.errors.push_back(ops[i].name + ": failed in set-up");
            } else if (rep == 0) {
                std::string why = check(ops[i], p.out);
                if (!why.empty())
                    r.errors.push_back(ops[i].name + ": " + why);
                refs[i] = {p.out.size(), fnv1a(p.out)};
                outputs << p.out;
            } else if (!refs[i].matches(p.out)) {
                r.errors.push_back(ops[i].name +
                                   ": output differs between set-ups");
            }
        }
        double wall_ms = static_cast<double>(nowNs() - t0) / 1e6;
        r.setup_s.push_back(netOfSteal(wall_ms, k0, pinnedTicks()) / 1e3);
    }
    if (!outputs.flush())
        throw std::runtime_error("cannot write " + opts.outputs_path);

    Rng rng(opts.seed);
    std::vector<std::size_t> order(ops.size());
    std::iota(order.begin(), order.end(), 0);
    bool corrupt = opts.inject == "corrupt";
    std::int64_t deadline =
        nowNs() + static_cast<std::int64_t>(opts.seconds * 1e9);
    for (std::uint64_t pass = 0; nowNs() < deadline; ++pass) {
        rng.shuffle(order);
        // Traced runs alternate traced and untraced passes, so both
        // halves see the same host conditions.
        bool traced = opts.trace && pass % 2 == 0;
        tracer.enabled = traced;
        int pass_span = tracer.begin(workload + ".pass");
        CpuTicks k0 = pinnedTicks();
        std::int64_t p0 = nowNs();
        bool pass_ok = true;
        for (std::size_t i : order) {
            const ColdOp &op = ops[i];
            int span = tracer.begin(workload + "." + op.name, pass_span);
            Proc p = runCold(op.argv, env);
            tracer.end(span);
            if (corrupt && !p.out.empty()) {
                p.out[p.out.size() / 2] ^= 1;
                corrupt = false;
            }
            r.cpu_ms += p.cpu_ms;
            r.peak_rss_kb = std::max(r.peak_rss_kb, p.maxrss_kb);
            if (p.ok && !refs[i].matches(p.out))
                ++r.mismatches;
            pass_ok = pass_ok && p.ok;
            r.samples[op.cls].push_back(p.ok ? p.wall_ms : kFailMs);
        }
        tracer.end(pass_span);
        double wall_ms = static_cast<double>(nowNs() - p0) / 1e6;
        double pass_ms =
            pass_ok ? netOfSteal(wall_ms, k0, pinnedTicks()) : kFailMs;
        r.samples["pass"].push_back(pass_ms);
        r.samples["pass_wall"].push_back(pass_ok ? wall_ms : kFailMs);
        ++r.ops;
        r.failed += pass_ok ? 0 : 1;
        (traced ? r.traced : r.untraced).push_back(pass_ms);
    }
    tracer.enabled = opts.trace;
    return r;
}

std::string
checkSweepOutput(const ColdOp &op, const std::string &out)
{
    if (op.cls == "table") {
        std::string kernel = op.name.substr(op.name.find(':') + 1);
        return out.rfind("kernel " + kernel + ":", 0) == 0
                   ? ""
                   : "table output does not start with the kernel line";
    }
    std::size_t rows = 0, bad = 0, pos = out.find('\n');
    while (pos != std::string::npos && pos + 1 < out.size()) {
        std::size_t next = out.find('\n', pos + 1);
        std::size_t end = next == std::string::npos ? out.size() : next;
        ++rows;
        if (end - pos < 4 || out.compare(end - 3, 3, ",ok") != 0)
            ++bad;
        pos = next;
    }
    if (rows != kPaperRows)
        return "CSV has " + std::to_string(rows) + " rows, want " +
               std::to_string(kPaperRows);
    return bad == 0 ? "" : std::to_string(bad) + " CSV rows not ok";
}

} // namespace

Proc
runCold(const std::vector<std::string> &argv,
        const std::vector<std::string> &env)
{
    std::vector<char *> av;
    for (const std::string &a : argv)
        av.push_back(const_cast<char *>(a.c_str()));
    av.push_back(nullptr);
    // The caller's environment minus any accelwall knob (fault
    // injection, engine or job overrides), plus the workload's own.
    std::vector<std::string> envs;
    for (char **e = environ; *e != nullptr; ++e)
        if (std::strncmp(*e, "ACCELWALL_", 10) != 0)
            envs.emplace_back(*e);
    envs.insert(envs.end(), env.begin(), env.end());
    std::vector<char *> ev;
    for (std::string &e : envs)
        ev.push_back(e.data());
    ev.push_back(nullptr);

    int fds[2];
    if (pipe2(fds, O_CLOEXEC) != 0)
        throw std::runtime_error(std::string("pipe2: ") + std::strerror(errno));
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_addopen(&fa, 0, "/dev/null", O_RDONLY, 0);
    posix_spawn_file_actions_adddup2(&fa, fds[1], 1);

    Proc p;
    std::int64_t t0 = nowNs();
    pid_t pid = 0;
    int rc = posix_spawn(&pid, av[0], &fa, nullptr, av.data(), ev.data());
    posix_spawn_file_actions_destroy(&fa);
    close(fds[1]);
    if (rc != 0) {
        close(fds[0]);
        return p;
    }
    char buf[1 << 16];
    for (;;) {
        ssize_t n = read(fds[0], buf, sizeof buf);
        if (n > 0)
            p.out.append(buf, static_cast<std::size_t>(n));
        else if (n == 0 || errno != EINTR)
            break;
    }
    close(fds[0]);
    int status = 0;
    struct rusage ru{};
    while (wait4(pid, &status, 0, &ru) < 0 && errno == EINTR) {
    }
    p.wall_ms = static_cast<double>(nowNs() - t0) / 1e6;
    p.cpu_ms = ms(ru.ru_utime) + ms(ru.ru_stime);
    p.maxrss_kb = ru.ru_maxrss;
    p.ok = WIFEXITED(status) && WEXITSTATUS(status) == 0;
    return p;
}

std::uint64_t
fnv1a(const std::string &data)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : data) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

Result
runSweepCli(const Options &opts, Tracer &tracer)
{
    // Canonical order (the digest's): kernel table order, CSV first.
    std::vector<ColdOp> ops;
    for (const auto &k : accelwall::kernels::kernelTable()) {
        std::vector<std::string> argv = {opts.sweep_tool, k.abbrev, "--grid",
                                         "paper", "--jobs", "2"};
        ops.push_back({"csv:" + k.abbrev, "csv", argv});
        ops.back().argv.push_back("--csv");
        ops.push_back({"table:" + k.abbrev, "table", argv});
    }
    return runColdWorkload(opts, tracer, "sweep_cli", ops, {},
                           checkSweepOutput);
}

Result
runFigures(const Options &opts, Tracer &tracer)
{
    std::vector<ColdOp> ops;
    for (const std::string &path : opts.figures) {
        std::string name = path.substr(path.rfind('/') + 1);
        ops.push_back({name, name, {path}});
    }
    auto nonEmpty = [](const ColdOp &, const std::string &out) {
        return out.empty() ? std::string("empty output") : std::string();
    };
    return runColdWorkload(opts, tracer, "figures", ops,
                           {"ACCELWALL_JOBS=2"}, nonEmpty);
}

} // namespace perfbench
