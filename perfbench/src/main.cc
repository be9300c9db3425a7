/**
 * @file
 * perfbench-measure: runs one workload (and, traced, the per-layer
 * probes) and writes raw samples, counters and spans as JSON for
 * perfbench/run.py, which turns them into metrics.
 *
 * Usage:
 *   perfbench-measure --workload sweep_cli|figures|serve_open
 *       --seed N --seconds S --trace 0|1 --sweep PATH
 *       [--figure PATH]... --outputs FILE --out FILE
 *       [--inject corrupt|refuse]
 *
 * Exit codes: 0 result written, 1 the workload could not run, 2 usage.
 */

#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <string>

#include "bench.hh"
#include "util/json.hh"

using namespace perfbench;

namespace
{

int
usage()
{
    std::cerr << "usage: perfbench-measure --workload W --seed N --seconds S\n"
                 "           --trace 0|1 --sweep PATH [--figure PATH]...\n"
                 "           --outputs FILE --out FILE\n"
                 "           [--inject corrupt|refuse]\n";
    return 2;
}

void
writeResult(const std::string &path, const Result &r, const Tracer &tracer)
{
    accelwall::JsonWriter w;
    w.beginObject();
    w.key("setup_s").beginArray();
    for (double v : r.setup_s)
        w.value(v);
    w.endArray();
    w.key("samples").beginObject();
    for (const auto &[cls, v] : r.samples) {
        w.key(cls).beginArray();
        for (double x : v)
            w.value(x);
        w.endArray();
    }
    w.endObject();
    for (const auto &[key, v] : {std::pair{"traced", &r.traced},
                                 std::pair{"untraced", &r.untraced}}) {
        w.key(key).beginArray();
        for (double x : *v)
            w.value(x);
        w.endArray();
    }
    w.key("cpu_ms").value(r.cpu_ms);
    w.key("ops").value(static_cast<unsigned long long>(r.ops));
    w.key("failed").value(static_cast<unsigned long long>(r.failed));
    w.key("mismatches").value(static_cast<unsigned long long>(r.mismatches));
    w.key("peak_rss_kb").value(r.peak_rss_kb);
    w.key("errors").beginArray();
    for (const std::string &e : r.errors)
        w.value(e);
    w.endArray();
    w.key("layers").beginObject();
    for (const auto &[name, v] : r.layers)
        w.key(name).value(v);
    w.endObject();
    w.key("spans").beginArray();
    for (const Span &s : tracer.spans) {
        w.beginArray()
            .value(s.name)
            .value(static_cast<long long>(s.start_ns))
            .value(static_cast<long long>(s.end_ns))
            .value(s.parent)
            .endArray();
    }
    w.endArray();
    w.endObject();
    std::ofstream f(path, std::ios::trunc);
    f << w.str() << '\n';
    if (!f)
        throw std::runtime_error("cannot write " + path);
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts;
    std::string out;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (i + 1 >= argc)
            return usage();
        std::string val = argv[++i];
        if (arg == "--workload")
            opts.workload = val;
        else if (arg == "--seed")
            opts.seed = std::strtoull(val.c_str(), nullptr, 10);
        else if (arg == "--seconds")
            opts.seconds = std::atof(val.c_str());
        else if (arg == "--trace")
            opts.trace = val == "1";
        else if (arg == "--sweep")
            opts.sweep_tool = val;
        else if (arg == "--figure")
            opts.figures.push_back(val);
        else if (arg == "--outputs")
            opts.outputs_path = val;
        else if (arg == "--out")
            out = val;
        else if (arg == "--inject")
            opts.inject = val;
        else
            return usage();
    }
    if (out.empty() || opts.outputs_path.empty() || opts.sweep_tool.empty() ||
        !(opts.seconds > 0.0))
        return usage();

    try {
        Tracer tracer;
        tracer.enabled = opts.trace;
        Result r;
        if (opts.workload == "sweep_cli")
            r = runSweepCli(opts, tracer);
        else if (opts.workload == "figures")
            r = runFigures(opts, tracer);
        else if (opts.workload == "serve_open")
            r = runServeOpen(opts, tracer);
        else
            return usage();
        if (opts.trace)
            runLayerProbes(opts, tracer, r);
        writeResult(out, r, tracer);
    } catch (const std::exception &e) {
        std::cerr << "perfbench-measure: " << e.what() << "\n";
        return 1;
    }
    return 0;
}
