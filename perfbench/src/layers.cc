/**
 * @file
 * Per-layer probes of a traced run: each layer's public functions
 * called and timed directly, from the benchmark's own code. Every
 * traced run runs the same probes, whatever its workload, so the
 * layer numbers of different runs compare.
 */

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "aladdin/attribution.hh"
#include "aladdin/simulator.hh"
#include "aladdin/soa_engine.hh"
#include "aladdin/sweep.hh"
#include "bench.hh"
#include "chiplet/cost.hh"
#include "chiplet/sweep.hh"
#include "kernels/kernels.hh"
#include "potential/model.hh"
#include "serve/client.hh"
#include "serve/http.hh"
#include "serve/server.hh"
#include "serve/service.hh"
#include "util/csv.hh"
#include "util/error.hh"
#include "util/format.hh"
#include "util/json.hh"
#include "util/parallel.hh"

namespace perfbench
{

namespace
{

using namespace accelwall;

/** Repetitions of the kernel/sweep probes; each metric is their median. */
constexpr int kReps = 3;
/** The figure binaries the paper pass is broken down by. */
const char *const kNamedFigures[][2] = {
    {"bench_fig14_gain_attribution", "figures.fig14_ms"},
    {"bench_ablation_video_dse", "figures.ablation_video_dse_ms"},
    {"bench_ablation_algorithm", "figures.ablation_algorithm_ms"},
    {"bench_fig13_stencil_sweep", "figures.fig13_ms"},
};

double
sinceMs(std::int64_t t0)
{
    return static_cast<double>(nowNs() - t0) / 1e6;
}

double
nearestRank(std::vector<double> v, double p)
{
    std::sort(v.begin(), v.end());
    return v[static_cast<std::size_t>(p * static_cast<double>(v.size() - 1))];
}

/** The CSV accelwall-sweep --csv prints, built the way it builds it. */
std::string
sweepCsv(const std::vector<aladdin::SweepPoint> &points)
{
    CsvWriter out({"node_nm", "partition", "simplification", "runtime_ns",
                   "energy_pj", "power_mw", "area_um2", "efficiency_opj",
                   "lane_utilization", "status"});
    for (const auto &p : points) {
        out.addRow({fmtFixed(p.dp.node_nm, 0), std::to_string(p.dp.partition),
                    std::to_string(p.dp.simplification),
                    fmtFixed(p.res.runtime_ns, 3), fmtFixed(p.res.energy_pj, 3),
                    fmtFixed(p.res.power_mw, 4), fmtFixed(p.res.area_um2, 1),
                    fmtFixed(p.res.efficiency_opj, 0),
                    fmtFixed(p.res.lane_utilization, 4),
                    p.ok ? "ok" : errorCodeName(p.error_code)});
    }
    std::ostringstream os;
    out.write(os);
    return os.str();
}

/** Kernel build, lowering, cell evaluation, sweeps, attribution, CSV. */
void
probeSweepCore(Tracer &tracer, std::map<std::string, std::vector<double>> &acc)
{
    const auto paper = aladdin::SweepConfig::paper();
    for (int rep = 0; rep < kReps; ++rep) {
        std::map<std::string, double> m;
        int rep_span = tracer.begin("probe.sweep_core");

        // Chain-invariant costs do not depend on the kernel.
        std::int64_t t0 = nowNs();
        int sc = tracer.begin("aladdin.cell_costs", rep_span);
        std::size_t calls = 0;
        for (double node : paper.nodes) {
            for (int s : paper.simplifications) {
                aladdin::DesignPoint dp;
                dp.node_nm = node;
                dp.simplification = s;
                volatile double sink = aladdin::deriveCellCosts(dp).period;
                (void)sink;
                ++calls;
            }
        }
        tracer.end(sc);
        m["aladdin.cell_costs_us"] = sinceMs(t0) * 1e3 / static_cast<double>(calls);

        double cells = 0.0, eval_ms = 0.0, sweep2 = 0.0, sweep1 = 0.0;
        for (const auto &k : kernels::kernelTable()) {
            t0 = nowNs();
            int s = tracer.begin("kernels.make", rep_span);
            dfg::Graph g = kernels::makeKernel(k.abbrev);
            tracer.end(s);
            m["kernels.make_ms"] += sinceMs(t0);
            m["kernels.dfg_nodes"] += static_cast<double>(g.numNodes());

            t0 = nowNs();
            s = tracer.begin("aladdin.simulator", rep_span);
            aladdin::Simulator sim(std::move(g));
            tracer.end(s);
            m["aladdin.simulator_ms"] += sinceMs(t0);

            t0 = nowNs();
            s = tracer.begin("aladdin.plan_lower", rep_span);
            aladdin::SweepPlan plan(sim.graph(), sim.analysis());
            tracer.end(s);
            m["aladdin.plan_lower_ms"] += sinceMs(t0);

            // Serial cell evaluation over a fixed corner sample.
            aladdin::PlanScratch scratch;
            for (double node : {45.0, 14.0, 5.0}) {
                for (int simp : {1, 7, 13}) {
                    aladdin::DesignPoint dp;
                    dp.node_nm = node;
                    dp.simplification = simp;
                    aladdin::CellCosts costs = aladdin::deriveCellCosts(dp);
                    for (int part : {1, 16, 256}) {
                        dp.partition = part;
                        t0 = nowNs();
                        s = tracer.begin("aladdin.eval_cell", rep_span);
                        volatile double sink =
                            aladdin::evalPlanCell(plan, costs, dp, scratch)
                                .runtime_ns;
                        (void)sink;
                        tracer.end(s);
                        eval_ms += sinceMs(t0);
                        cells += 1.0;
                    }
                }
            }

            for (int jobs : {2, 1}) {
                aladdin::SweepOptions o;
                o.jobs = jobs;
                t0 = nowNs();
                s = tracer.begin(jobs == 2 ? "aladdin.sweep" : "aladdin.sweep_1j",
                                 rep_span);
                auto outcome = aladdin::runSweepChecked(sim, paper, o);
                tracer.end(s);
                (jobs == 2 ? sweep2 : sweep1) += sinceMs(t0);
                if (!outcome.ok())
                    throw std::runtime_error(outcome.error().str());
                if (jobs == 1)
                    continue;
                m["aladdin.chains"] += static_cast<double>(outcome.value().report.chains);
                m["aladdin.chains_evaluated"] +=
                    static_cast<double>(outcome.value().report.evaluated);

                t0 = nowNs();
                s = tracer.begin("util.csv_write", rep_span);
                std::string csv = sweepCsv(outcome.value().points);
                tracer.end(s);
                m["util.csv_write_ms"] += sinceMs(t0);
                m["util.csv_bytes"] += static_cast<double>(csv.size());
            }

            for (auto target : {aladdin::Target::Performance,
                                aladdin::Target::EnergyEfficiency}) {
                bool perf = target == aladdin::Target::Performance;
                t0 = nowNs();
                s = tracer.begin(perf ? "aladdin.attribute_perf"
                                      : "aladdin.attribute_eff",
                                 rep_span);
                volatile double sink =
                    aladdin::attribute(sim, paper, target).total_gain;
                (void)sink;
                tracer.end(s);
                m[perf ? "aladdin.attribute_perf_ms" : "aladdin.attribute_eff_ms"] +=
                    sinceMs(t0);
            }
        }
        tracer.end(rep_span);
        m["aladdin.eval_cell_us"] = eval_ms * 1e3 / cells;
        m["aladdin.sweep_ms"] = sweep2;
        m["aladdin.sweep_1j_ms"] = sweep1;
        m["aladdin.sweep_scaling"] = sweep1 / sweep2;
        m["aladdin.attribute_per_sweep"] =
            m["aladdin.attribute_perf_ms"] / sweep2;
        for (const auto &[name, v] : m)
            acc[name].push_back(v);
    }
}

serve::HttpRequest
request(const Post &p)
{
    serve::HttpRequest req;
    req.method = "POST";
    req.target = p.target;
    req.version = "HTTP/1.1";
    req.headers["content-length"] = std::to_string(p.body.size());
    req.body = p.body;
    return req;
}

/** HTTP parse, JSON parse, Service::handle, chiplet sweep, round trips. */
void
probeServe(const Options &opts, Tracer &tracer,
           std::map<std::string, std::vector<double>> &acc)
{
    std::vector<Post> posts = hitSet();
    const std::size_t hits = posts.size();
    Rng rng(opts.seed ^ 0x6c61796572ULL);
    std::vector<std::string> seen;
    const auto &table = kernels::kernelTable();
    for (std::size_t i = 0; i < 20; ++i)
        posts.push_back(missPost(rng, table[i % table.size()].abbrev, seen));

    constexpr int kIters = 200;
    std::int64_t t0 = nowNs();
    int s = tracer.begin("util.json_parse");
    for (int it = 0; it < kIters; ++it)
        for (const Post &p : posts)
            if (!parseJson(p.body).ok())
                throw std::runtime_error("probe body does not parse");
    tracer.end(s);
    acc["util.json_parse_us"].push_back(sinceMs(t0) * 1e3 /
                                        (kIters * static_cast<double>(posts.size())));

    std::vector<std::string> heads;
    for (const Post &p : posts) {
        std::string w = wire(p);
        heads.push_back(w.substr(0, w.find("\r\n\r\n") + 4));
    }
    t0 = nowNs();
    s = tracer.begin("serve.parse_head");
    for (int it = 0; it < kIters; ++it)
        for (const std::string &h : heads)
            if (!serve::parseRequestHead(h).ok())
                throw std::runtime_error("probe head does not parse");
    tracer.end(s);
    acc["serve.parse_head_us"].push_back(sinceMs(t0) * 1e3 /
                                         (kIters * static_cast<double>(heads.size())));

    serve::ServiceOptions so;
    so.sweep_jobs = 1;
    serve::Service service(so);
    std::vector<serve::HttpRequest> reqs;
    for (const Post &p : posts)
        reqs.push_back(request(p));
    for (std::size_t i = 0; i < hits; ++i)
        service.handle(reqs[i]);
    t0 = nowNs();
    s = tracer.begin("serve.handle_hit");
    for (int it = 0; it < kIters; ++it)
        for (std::size_t i = 0; i < hits; ++i)
            if (service.handle(reqs[i]).status != 200)
                throw std::runtime_error("probe hit failed");
    tracer.end(s);
    double handle_hit_us =
        sinceMs(t0) * 1e3 / (kIters * static_cast<double>(hits));
    acc["serve.handle_hit_us"].push_back(handle_hit_us);

    t0 = nowNs();
    s = tracer.begin("serve.handle_miss");
    for (std::size_t i = hits; i < posts.size(); ++i)
        if (service.handle(reqs[i]).status != 200)
            throw std::runtime_error("probe miss failed");
    tracer.end(s);
    acc["serve.handle_miss_ms"].push_back(sinceMs(t0) /
                                          static_cast<double>(posts.size() - hits));

    // The largest warmed /v1/chiplet body, straight into the library.
    chiplet::SweepConfig cc;
    using namespace units::literals;
    cc.base = potential::ChipSpec{7.0_nm, 700.0_mm2, 1.0_ghz, 300.0_w};
    cc.chiplets = {1, 2, 4, 8};
    for (double n : {22.0, 14.0, 7.0, 5.0})
        cc.nodes.push_back(units::Nanometers{n});
    cc.jobs = 1;
    potential::PotentialModel model;
    t0 = nowNs();
    s = tracer.begin("chiplet.run_sweep");
    for (int it = 0; it < kIters; ++it)
        if (!chiplet::runSweep(model, chiplet::shippedCostTable(), cc).ok())
            throw std::runtime_error("probe chiplet sweep failed");
    tracer.end(s);
    acc["chiplet.run_sweep_us"].push_back(sinceMs(t0) * 1e3 / kIters);

    // Loopback: closed-loop hit round trips, then a short open-loop
    // burst of the serve_open mix.
    serve::ServerOptions sopts;
    sopts.workers = 2;
    sopts.service.sweep_jobs = 1;
    serve::Server server(sopts);
    if (!server.start().ok())
        throw std::runtime_error("probe server did not start");
    std::vector<std::string> refs;
    for (std::size_t i = 0; i < hits; ++i) {
        auto res = serve::httpRequest("127.0.0.1", server.port(), "POST",
                                      posts[i].target, posts[i].body);
        if (!res.ok())
            throw std::runtime_error(res.error().str());
        refs.push_back(res.value().body);
    }
    std::vector<double> rtt;
    for (int it = 0; it < 300; ++it) {
        const Post &p = posts[static_cast<std::size_t>(it) % hits];
        t0 = nowNs();
        s = tracer.begin("serve.roundtrip_hit");
        auto res = serve::httpRequest("127.0.0.1", server.port(), "POST",
                                      p.target, p.body);
        tracer.end(s);
        if (!res.ok() || res.value().status != 200)
            throw std::runtime_error("probe round trip failed");
        rtt.push_back(sinceMs(t0) * 1e3);
    }
    double rtt_us = median(rtt);
    acc["serve.roundtrip_hit_us"].push_back(rtt_us);
    acc["serve.transport_us"].push_back(rtt_us - handle_hit_us);

    std::vector<Post> burst = hitSet();
    Rng brng(opts.seed);
    // 5 s: ~125 misses, so even their p90 has ten samples beyond it.
    auto arrivals = poissonSchedule(brng, 5.0, hits, burst);
    bool was = tracer.enabled;
    tracer.enabled = false;
    LoadStats st = openLoop(server.port(), burst, arrivals, hits, refs,
                            tracer, false);
    tracer.enabled = was;
    acc["serve.hit_p50_ms"].push_back(nearestRank(st.hit_ms, 0.5));
    acc["serve.hit_p90_ms"].push_back(nearestRank(st.hit_ms, 0.9));
    acc["serve.miss_p50_ms"].push_back(nearestRank(st.miss_ms, 0.5));
    acc["serve.miss_p90_ms"].push_back(nearestRank(st.miss_ms, 0.9));
    acc["serve.late_p99_ms"].push_back(nearestRank(st.late_ms, 0.99));
    acc["serve.requests_sent"].push_back(static_cast<double>(st.sent));
    acc["serve.requests_ok"].push_back(static_cast<double>(st.ok));
    acc["serve.requests_failed"].push_back(static_cast<double>(st.failed));
    acc["serve.cache_hit_ratio"].push_back(
        server.service().cache().stats().hitRatio());
    server.stop();
}

/** Process start, and the figure pass broken down by binary. */
void
probeProcesses(const Options &opts, Tracer &tracer,
               std::map<std::string, std::vector<double>> &acc)
{
    std::vector<double> spawn;
    for (int i = 0; i < 20; ++i) {
        int s = tracer.begin("cli.spawn");
        Proc p = runCold({opts.sweep_tool, "--version"}, {});
        tracer.end(s);
        if (!p.ok)
            throw std::runtime_error("accelwall-sweep --version failed");
        spawn.push_back(p.wall_ms);
    }
    acc["cli.spawn_ms"].push_back(median(spawn));

    std::map<std::string, std::vector<double>> per_bin;
    for (int rep = 0; rep < kReps; ++rep) {
        for (const std::string &path : opts.figures) {
            std::string name = path.substr(path.rfind('/') + 1);
            int s = tracer.begin("figures." + name);
            Proc p = runCold({path}, {"ACCELWALL_JOBS=2"});
            tracer.end(s);
            if (!p.ok)
                throw std::runtime_error(name + " failed");
            per_bin[name].push_back(p.wall_ms);
        }
    }
    double rest = 0.0;
    for (const auto &[name, v] : per_bin) {
        const char *metric = nullptr;
        for (const auto &nf : kNamedFigures)
            if (name == nf[0])
                metric = nf[1];
        if (metric != nullptr)
            acc[metric].push_back(median(v));
        else
            rest += median(v);
    }
    acc["figures.rest_ms"].push_back(rest);
}

} // namespace

void
runLayerProbes(const Options &opts, Tracer &tracer, Result &result)
{
    // attribute() sweeps on the default job count; match the CLI's.
    util::setDefaultJobs(2);
    std::map<std::string, std::vector<double>> acc;
    probeSweepCore(tracer, acc);
    probeServe(opts, tracer, acc);
    probeProcesses(opts, tracer, acc);
    for (const auto &[name, v] : acc)
        result.layers[name] = median(v);
}

} // namespace perfbench
