/**
 * @file
 * serve_open: an in-process serve::Server on loopback under a seeded
 * open-loop Poisson load of cache hits and unique sweep misses.
 */

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/timerfd.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <ctime>
#include <cstdio>
#include <fstream>
#include <memory>
#include <stdexcept>

#include "bench.hh"
#include "kernels/kernels.hh"
#include "serve/client.hh"
#include "serve/server.hh"

namespace perfbench
{

namespace
{

/** Mean arrival rate: keeps back-to-back runs far below the TIME_WAIT knee. */
constexpr double kRate = 100.0;
/** One set-up takes ~15 ms, too short for kSetupReps to give a steady median. */
constexpr int kServeSetupReps = 15;
/** Per-request budget; a request past it failed. */
constexpr std::int64_t kDeadlineNs = 5'000'000'000;
/** Latency recorded for a failed request: the deadline, past every limit. */
constexpr double kFailMs = 5000.0;
/** Sleep until this close to a due time, then poll, for precise sends. */
constexpr std::int64_t kSpinNs = 200'000;

const char *const kNodes[] = {"45", "32", "22", "14", "10", "7", "5"};

/** Pick @p count distinct indices below @p n, ascending. */
std::vector<int>
pick(Rng &rng, int n, int count)
{
    std::vector<int> all(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i)
        all[static_cast<std::size_t>(i)] = i;
    rng.shuffle(all);
    all.resize(static_cast<std::size_t>(count));
    std::sort(all.begin(), all.end());
    return all;
}

std::string
joinInts(const std::vector<int> &v, int (*f)(int))
{
    std::string s;
    for (int x : v)
        s += (s.empty() ? "" : ", ") + std::to_string(f(x));
    return s;
}

double
cpuMs()
{
    struct rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) * 1e3 +
           static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e3;
}

/** A port nothing listens on: bind an ephemeral one, then close it. */
int
closedPort()
{
    int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    sockaddr_in a{};
    a.sin_family = AF_INET;
    a.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof a;
    bool ok = fd >= 0 &&
              bind(fd, reinterpret_cast<sockaddr *>(&a), len) == 0 &&
              getsockname(fd, reinterpret_cast<sockaddr *>(&a), &len) == 0;
    if (fd >= 0)
        close(fd);
    if (!ok)
        throw std::runtime_error("cannot reserve a closed port");
    return ntohs(a.sin_port);
}

/**
 * Draws from a seeded shuffle of 0..n-1, reshuffled every n draws, so
 * each value comes up equally often whatever the seed: the mix of a
 * run varies only in order, not in proportions.
 */
class Deck
{
  public:
    explicit Deck(std::size_t n) : order_(n)
    {
        for (std::size_t i = 0; i < n; ++i)
            order_[i] = i;
    }

    std::size_t
    draw(Rng &rng)
    {
        if (next_ == 0)
            rng.shuffle(order_);
        std::size_t v = order_[next_];
        next_ = (next_ + 1) % order_.size();
        return v;
    }

  private:
    std::vector<std::size_t> order_;
    std::size_t next_ = 0;
};

/** One in-flight request of the open loop. */
struct Conn
{
    int fd = -1;
    std::int64_t due = 0;
    std::int64_t start = 0;
    bool connected = false;
    std::size_t sent = 0;
    std::string in;
};

} // namespace

std::string
wire(const Post &p)
{
    return "POST " + p.target +
           " HTTP/1.1\r\nHost: 127.0.0.1\r\n"
           "Content-Type: application/json\r\nContent-Length: " +
           std::to_string(p.body.size()) + "\r\n\r\n" + p.body;
}

std::vector<Post>
hitSet()
{
    const std::string spec =
        R"("spec": {"node_nm": 7, "area_mm2": 700, "freq_ghz": 1.0, "tdp_w": 300})";
    return {
        {"/v1/sweep", R"({"kernel": "RED", "nodes": [45, 14, 5], "partitions": [1, 4, 16, 64], "simplifications": [1, 4, 8, 13]})"},
        {"/v1/sweep", R"({"kernel": "FFT", "nodes": [32, 10], "partitions": [1, 2, 8, 32, 128], "simplifications": [1, 2, 3]})"},
        {"/v1/sweep", R"({"kernel": "SMV", "nodes": [22, 7], "partitions": [1, 16, 256], "simplifications": [1, 6, 12]})"},
        {"/v1/sweep", R"({"kernel": "BTC", "nodes": [45, 5], "partitions": [2, 4, 8], "simplifications": [1, 13]})"},
        {"/v1/sweep", R"({"kernel": "AES", "nodes": [14], "partitions": [1, 2, 4, 8, 16], "simplifications": [1, 2, 4, 8]})"},
        {"/v1/sweep", R"({"kernel": "S3D", "nodes": [45, 22, 10, 5], "partitions": [1, 64], "simplifications": [1, 7]})"},
        {"/v1/gains", R"({"spec": {"node_nm": 16, "area_mm2": 100, "freq_ghz": 1.5, "tdp_w": 250}})"},
        {"/v1/gains", R"({"spec": {"node_nm": 7, "area_mm2": 600}, "ref": {"node_nm": 28, "area_mm2": 300}})"},
        {"/v1/gains", R"({"spec": {"node_nm": 5, "area_mm2": 50, "freq_ghz": 2.0, "tdp_w": 15}})"},
        {"/v1/gains", R"({"spec": {"node_nm": 45, "area_mm2": 25}})"},
        {"/v1/csr", R"({"metric": "throughput", "chips": [{"name": "g1", "node_nm": 130, "area_mm2": 100, "freq_ghz": 0.2, "tdp_w": 50, "gain": 1}, {"name": "g2", "node_nm": 28, "area_mm2": 150, "freq_ghz": 0.7, "tdp_w": 150, "gain": 400}]})"},
        {"/v1/csr", R"({"metric": "throughput", "chips": [{"name": "a", "node_nm": 65, "area_mm2": 80, "gain": 1}, {"name": "b", "node_nm": 40, "area_mm2": 90, "gain": 3}, {"name": "c", "node_nm": 16, "area_mm2": 120, "gain": 20}]})"},
        {"/v1/csr", R"({"metric": "throughput", "chips": [{"name": "x", "node_nm": 90, "area_mm2": 200, "freq_ghz": 0.5, "tdp_w": 100, "gain": 2}, {"name": "y", "node_nm": 12, "area_mm2": 400, "freq_ghz": 1.2, "tdp_w": 250, "gain": 90}]})"},
        {"/v1/chiplet", "{" + spec + R"(, "chiplets": [1, 4], "nodes": [14, 7]})"},
        {"/v1/chiplet", "{" + spec + R"(, "chiplets": [1, 2, 4, 8], "nodes": [22, 14, 7, 5]})"},
        {"/v1/chiplet", "{" + spec + R"(, "chiplets": [2, 3], "nodes": [10], "link_pj_per_bit": 1.5})"},
    };
}

Post
missPost(Rng &rng, const std::string &kernel, std::vector<std::string> &seen)
{
    for (;;) {
        // 4 to 36 cells (1-2 nodes x 2-6 partitions x 2-3
        // simplifications), far inside the server's 512-cell limit.
        // Kept small: with up to 320 cells the miss time varied with
        // each seed's draw and with host steal, and miss_p90 spread
        // 0.26 between runs against 0.15 at this size.
        auto nodes = pick(rng, 7, 1 + static_cast<int>(rng.below(2)));
        auto parts = pick(rng, 20, 2 + static_cast<int>(rng.below(5)));
        auto simps = pick(rng, 13, 2 + static_cast<int>(rng.below(2)));
        std::string n;
        for (int i : nodes)
            n += (n.empty() ? "" : ", ") + std::string(kNodes[i]);
        std::string body =
            R"({"kernel": ")" + kernel + R"(", "nodes": [)" + n +
            R"(], "partitions": [)" +
            joinInts(parts, [](int i) { return 1 << i; }) +
            R"(], "simplifications": [)" +
            joinInts(simps, [](int i) { return i + 1; }) + "]}";
        if (std::find(seen.begin(), seen.end(), body) != seen.end())
            continue;
        seen.push_back(body);
        return {"/v1/sweep", body};
    }
}

std::vector<Arrival>
poissonSchedule(Rng &rng, double seconds, std::size_t hits,
                std::vector<Post> &posts)
{
    const auto &table = accelwall::kernels::kernelTable();
    std::vector<std::string> seen;
    for (const Post &p : posts)
        seen.push_back(p.body);
    // One miss in every four arrivals, each hit body and each miss
    // kernel equally often.
    Deck kind(4), hit(hits), kernel(table.size());
    std::vector<Arrival> out;
    double t = 0.0;
    for (;;) {
        t += -std::log(1.0 - rng.uniform()) / kRate;
        if (t >= seconds)
            return out;
        Arrival a;
        a.due_ns = static_cast<std::int64_t>(t * 1e9);
        if (kind.draw(rng) == 0) {
            const std::string &k = table[kernel.draw(rng)].abbrev;
            posts.push_back(missPost(rng, k, seen));
            a.post = posts.size() - 1;
        } else {
            a.post = hit.draw(rng);
        }
        out.push_back(a);
    }
}

LoadStats
openLoop(int port, const std::vector<Post> &posts,
         const std::vector<Arrival> &arrivals, std::size_t hits,
         const std::vector<std::string> &hit_refs, Tracer &tracer,
         bool refuse_one)
{
    std::vector<std::string> wires;
    for (const Post &p : posts)
        wires.push_back(wire(p));
    int refused_port = refuse_one ? closedPort() : 0;

    LoadStats st;
    st.miss_hash.assign(arrivals.size(), 0);
    // Precise timer wake-ups: the default 50 us slack would land in
    // every request's send time.
    prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
    int ep = epoll_create1(EPOLL_CLOEXEC);
    int tfd = timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK | TFD_CLOEXEC);
    if (ep < 0 || tfd < 0)
        throw std::runtime_error("epoll/timerfd setup failed");
    epoll_event tev{};
    tev.events = EPOLLIN;
    tev.data.u64 = UINT64_MAX;
    epoll_ctl(ep, EPOLL_CTL_ADD, tfd, &tev);
    timespec cpu0{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &cpu0);

    std::vector<Conn> conns(arrivals.size());
    std::vector<std::size_t> active;
    const bool alternate = tracer.enabled;

    auto finish = [&](std::size_t i, bool transport_ok) {
        Conn &c = conns[i];
        std::int64_t end = nowNs();
        close(c.fd);
        c.fd = -1;
        active.erase(std::find(active.begin(), active.end(), i));
        const Arrival &a = arrivals[i];
        bool hit = a.post < hits;
        int status = 0;
        std::string cache, body;
        std::string in = std::move(c.in);
        std::size_t head_end = in.find("\r\n\r\n");
        if (transport_ok && in.rfind("HTTP/1.1 ", 0) == 0 &&
            head_end != std::string::npos) {
            status = std::atoi(in.c_str() + 9);
            std::size_t x = in.find("\r\nX-Cache: ");
            if (x != std::string::npos && x < head_end)
                cache = in.substr(x + 11, in.find("\r\n", x + 2) - x - 11);
            body = in.substr(head_end + 4);
        }
        double lat = static_cast<double>(end - c.due) / 1e6;
        if (status != 200) {
            ++st.failed;
            lat = kFailMs;
        } else {
            ++st.ok;
            static const std::string clean = "\"failed\": 0}}";
            bool good = hit ? cache == "hit" && body == hit_refs[a.post]
                            : cache == "miss" && body.size() > clean.size() &&
                                  body.compare(body.size() - clean.size(),
                                               clean.size(), clean) == 0;
            st.mismatches += good ? 0 : 1;
            if (!hit)
                st.miss_hash[i] = fnv1a(body);
        }
        (hit ? st.hit_ms : st.miss_ms).push_back(lat);
        st.late_ms.push_back(static_cast<double>(c.start - c.due) / 1e6);
        // Traced runs trace every other request, so the overhead is
        // the traced minus the untraced hit latency of the same run.
        bool traced = alternate && i % 2 == 0;
        if (traced) {
            int req = tracer.add(hit ? "serve.hit" : "serve.miss", c.due, end);
            tracer.add("serve.late", c.due, c.start, req);
            tracer.add("serve.exchange", c.start, end, req);
        }
        if (hit && alternate)
            (traced ? st.traced_hit_ms : st.untraced_hit_ms).push_back(lat);
    };

    auto launch = [&](std::size_t i, std::int64_t base) {
        Conn &c = conns[i];
        c.due = base + arrivals[i].due_ns;
        c.start = nowNs();
        ++st.sent;
        c.fd = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
        active.push_back(i);
        if (c.fd < 0)
            return finish(i, false);
        int one = 1;
        setsockopt(c.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
        sockaddr_in a{};
        a.sin_family = AF_INET;
        a.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        a.sin_port = htons(static_cast<std::uint16_t>(
            refuse_one && i == 2 ? refused_port : port));
        int rc = connect(c.fd, reinterpret_cast<sockaddr *>(&a), sizeof a);
        if (rc != 0 && errno != EINPROGRESS)
            return finish(i, false);
        epoll_event ev{};
        ev.events = EPOLLOUT | EPOLLIN | EPOLLRDHUP;
        ev.data.u64 = i;
        epoll_ctl(ep, EPOLL_CTL_ADD, c.fd, &ev);
    };

    auto onEvent = [&](std::size_t i, std::uint32_t events) {
        Conn &c = conns[i];
        if (c.fd < 0)
            return;
        if (!c.connected) {
            int err = 0;
            socklen_t len = sizeof err;
            getsockopt(c.fd, SOL_SOCKET, SO_ERROR, &err, &len);
            if (err != 0)
                return finish(i, false);
            if (!(events & EPOLLOUT))
                return;
            c.connected = true;
        }
        const std::string &w = wires[arrivals[i].post];
        if (c.sent < w.size() && (events & EPOLLOUT)) {
            ssize_t n = send(c.fd, w.data() + c.sent, w.size() - c.sent,
                             MSG_NOSIGNAL);
            if (n < 0 && errno != EAGAIN)
                return finish(i, false);
            c.sent += n > 0 ? static_cast<std::size_t>(n) : 0;
            if (c.sent == w.size()) {
                epoll_event ev{};
                ev.events = EPOLLIN | EPOLLRDHUP;
                ev.data.u64 = i;
                epoll_ctl(ep, EPOLL_CTL_MOD, c.fd, &ev);
            }
        }
        if (events & (EPOLLIN | EPOLLRDHUP | EPOLLHUP | EPOLLERR)) {
            char buf[1 << 16];
            for (;;) {
                ssize_t n = recv(c.fd, buf, sizeof buf, 0);
                if (n > 0) {
                    c.in.append(buf, static_cast<std::size_t>(n));
                } else if (n == 0) {
                    return finish(i, true);
                } else if (errno == EAGAIN) {
                    break;
                } else if (errno != EINTR) {
                    return finish(i, false);
                }
            }
        }
    };

    // The generator sleeps on a timer until just before each due time
    // and polls from there, so requests leave on time; a response that
    // lands while it sleeps wakes it through epoll.
    std::int64_t base = nowNs() + 10'000'000;
    std::size_t next = 0;
    epoll_event evs[64];
    while (next < arrivals.size() || !active.empty()) {
        std::int64_t now = nowNs();
        while (next < arrivals.size() && base + arrivals[next].due_ns <= now) {
            launch(next++, base);
            now = nowNs();
        }
        int timeout = 100;
        if (next < arrivals.size()) {
            std::int64_t wake = base + arrivals[next].due_ns - kSpinNs;
            if (wake <= now) {
                timeout = 0;
            } else {
                itimerspec its{};
                its.it_value.tv_sec = wake / 1'000'000'000;
                its.it_value.tv_nsec = wake % 1'000'000'000;
                timerfd_settime(tfd, TFD_TIMER_ABSTIME, &its, nullptr);
                timeout = -1;
            }
        }
        int n = epoll_wait(ep, evs, 64, timeout);
        for (int k = 0; k < n; ++k) {
            if (evs[k].data.u64 == UINT64_MAX) {
                std::uint64_t expirations = 0;
                (void)!read(tfd, &expirations, sizeof expirations);
                continue;
            }
            onEvent(static_cast<std::size_t>(evs[k].data.u64), evs[k].events);
        }
        now = nowNs();
        for (std::size_t j = active.size(); j-- > 0;) {
            std::size_t i = active[j];
            if (now - conns[i].start > kDeadlineNs)
                finish(i, false);
        }
    }
    close(tfd);
    close(ep);
    timespec cpu1{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &cpu1);
    st.generator_cpu_ms =
        static_cast<double>(cpu1.tv_sec - cpu0.tv_sec) * 1e3 +
        static_cast<double>(cpu1.tv_nsec - cpu0.tv_nsec) / 1e6;
    return st;
}

Result
runServeOpen(const Options &opts, Tracer &tracer)
{
    using namespace accelwall;
    Result r;
    std::vector<Post> posts = hitSet();
    const std::size_t hits = posts.size();
    Rng rng(opts.seed);
    std::vector<Arrival> arrivals =
        poissonSchedule(rng, opts.seconds, hits, posts);

    serve::ServerOptions so;
    so.workers = 2;
    so.service.sweep_jobs = 1;
    std::vector<std::string> refs(hits);
    std::unique_ptr<serve::Server> server;
    for (int rep = 0; rep < kServeSetupReps; ++rep) {
        if (server)
            server->stop();
        std::int64_t t0 = nowNs();
        server = std::make_unique<serve::Server>(so);
        auto started = server->start();
        if (!started.ok())
            throw std::runtime_error(started.error().str());
        // Each warm body twice: the miss fills the cache, the hit must
        // repeat it byte for byte.
        for (std::size_t i = 0; i < hits; ++i) {
            for (const char *want : {"miss", "hit"}) {
                auto res = serve::httpRequest("127.0.0.1", server->port(),
                                              "POST", posts[i].target,
                                              posts[i].body);
                if (!res.ok() || res.value().status != 200) {
                    r.errors.push_back(posts[i].target + " warm-up failed");
                    continue;
                }
                const auto &v = res.value();
                auto x = v.headers.find("x-cache");
                if (x == v.headers.end() || x->second != want)
                    r.errors.push_back(posts[i].target +
                                       " warm-up: X-Cache is not " + want);
                if (rep == 0 && refs[i].empty())
                    refs[i] = v.body;
                else if (v.body != refs[i])
                    r.errors.push_back(posts[i].target +
                                       " warm-up: body differs");
            }
        }
        r.setup_s.push_back(static_cast<double>(nowNs() - t0) / 1e9);
    }

    double cpu0 = cpuMs();
    LoadStats st = openLoop(server->port(), posts, arrivals, hits, refs,
                            tracer, opts.inject == "refuse");
    r.cpu_ms = cpuMs() - cpu0 - st.generator_cpu_ms;
    server->stop();

    r.ops = st.sent;
    r.failed = st.failed;
    r.mismatches = st.mismatches;
    r.samples["hit"] = st.hit_ms;
    r.samples["miss"] = st.miss_ms;
    r.traced = st.traced_hit_ms;
    r.untraced = st.untraced_hit_ms;
    struct rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    r.peak_rss_kb = ru.ru_maxrss;

    std::ofstream f(opts.outputs_path, std::ios::binary | std::ios::trunc);
    for (const std::string &ref : refs)
        f << ref << '\n';
    char line[64];
    for (std::size_t i = 0; i < arrivals.size(); ++i) {
        if (arrivals[i].post < hits)
            continue;
        std::snprintf(line, sizeof line, "miss %zu %016llx\n", i,
                      static_cast<unsigned long long>(st.miss_hash[i]));
        f << line;
    }
    if (!f)
        throw std::runtime_error("cannot write " + opts.outputs_path);
    return r;
}

} // namespace perfbench
