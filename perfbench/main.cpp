// revec_perfbench: one benchmark for the whole Fig. 2 flow.
//
//   revec_perfbench --workload paper_flow|fast_compile|svc_stream --seed N
//                   --seconds S --trace 0|1 [--tiny] [--state-dir DIR]
//                   [--rate R]
//
// With --trace 0 it prints every end-to-end metric; with --trace 1 it runs
// the same workload traced and prints the per-layer metrics instead. Human-
// readable lines ("kernel ...", "metric ...", "layer ...") come first; the
// last line of standard output is the JSON result. perfbench/README.md
// defines every metric and maps each layer to the end-to-end metric it
// should move.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "bench.hpp"

namespace perfbench {
namespace {

/// Latency limit behind goodput_rps, in every workload.
constexpr double kLatencyLimitMs = 1000.0;

const std::vector<std::string> kFamilies = {"MATMUL", "QRD", "ARF", "DETECT", "rand"};

struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
    std::string note;  ///< sample count and percentile, where one applies
};

std::string n_note(std::size_t n) { return "n=" + std::to_string(n); }

/// Sample count and, for a tail, the percentile it landed on.
std::string tail_note(const std::vector<double>& v) {
    double percentile = 0;
    (void)tail(v, &percentile);
    char q[32];
    std::snprintf(q, sizeof q, " p%.1f", percentile);
    return n_note(v.size()) + q;
}

std::vector<Metric> end_to_end(const Outcome& o) {
    std::vector<const Job*> kernels;
    std::size_t failed = 0;
    for (const Job& j : o.jobs) {
        if (j.kernel) kernels.push_back(&j);
        if (!j.ok) ++failed;
    }
    // The distributions take one value per input (its median over
    // repeats), so the percentile a tail lands on does not depend on how
    // many rounds fit in the run.
    std::map<std::string, std::pair<std::vector<double>, std::vector<double>>> per_input;
    std::size_t optimal = 0, good = 0;
    for (const Job* j : kernels) {
        per_input[j->input].first.push_back(j->compile_ms);
        per_input[j->input].second.push_back(j->req_ms);
        if (j->optimal) ++optimal;
        if (j->ok && j->req_ms <= kLatencyLimitMs) ++good;
    }
    std::vector<double> compile, req;
    for (const auto& [input, times] : per_input) {
        compile.push_back(median(times.first));
        req.push_back(median(times.second));
    }
    std::vector<Metric> m;
    m.push_back({"setup_s", o.setup_s, "s", n_note(static_cast<std::size_t>(o.setup_n))});
    for (const std::string& f : kFamilies) {
        if (f == "rand") continue;
        std::vector<double> v;
        for (const Job* j : kernels) {
            if (j->family != f) continue;
            if (j->compile_samples.empty()) v.push_back(j->compile_ms);
            v.insert(v.end(), j->compile_samples.begin(), j->compile_samples.end());
        }
        m.push_back({"compile_ms." + f, median(v), "ms", n_note(v.size())});
    }
    const double n_kernels = static_cast<double>(kernels.size());
    // Closed loop: distinct inputs per second of flow time, each at its
    // median, so repeats taken for timing do not count as work. Open loop:
    // answers per second of the stream, which falls below the offered rate
    // when a backlog builds.
    double compile_s = 0;
    for (const double ms : compile) compile_s += ms / 1000.0;
    m.push_back({"kernels_per_s",
                 o.open_loop ? n_kernels / o.measured_s
                             : static_cast<double>(compile.size()) / compile_s,
                 "kernels/s", n_note(compile.size())});
    m.push_back({"compile_ms_p50", median(compile), "ms", n_note(compile.size())});
    m.push_back({"compile_ms_p99", tail(compile), "ms", tail_note(compile)});
    m.push_back({"gen_cycles", static_cast<double>(o.gen_cycles), "cc", ""});
    m.push_back({"loop_ii_cc", static_cast<double>(o.loop_ii_cc), "cc", ""});
    m.push_back({"req_ms_p50", median(req), "ms", n_note(req.size())});
    m.push_back({"req_ms_p99", tail(req), "ms", tail_note(req)});
    m.push_back({"goodput_rps", static_cast<double>(good) / o.measured_s, "1/s",
                 n_note(kernels.size())});
    m.push_back({"optimal_share", kernels.empty() ? 0 : static_cast<double>(optimal) / n_kernels,
                 "share", n_note(kernels.size())});
    const double attempted = static_cast<double>(o.jobs.size());
    m.push_back({"ok_share", 1.0 - static_cast<double>(failed) / attempted, "share",
                 n_note(o.jobs.size())});
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    m.push_back({"peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MB", ""});
    return m;
}

/// The per-layer metrics, in the order of BENCHMARK.json.
std::vector<Metric> per_layer(const Ledger& l) {
    std::vector<std::pair<std::string, std::string>> names = {
        {"dsl.trace_ms", "ms"},          {"dsl.ir_nodes", "count"},
        {"ir.merge_ms", "ms"},           {"ir.fused_ops", "count"},
        {"model.lower_ms", "ms"},        {"model.check_ms", "ms"},
        {"model.lb_gap_cc", "cc"},       {"heur.ms", "ms"},
        {"heur.rungs", "count"},         {"heur.no_schedule", "count"},
        {"heur.seed_gap_cc", "cc"},
    };
    for (const std::string& f : kFamilies) {
        for (const auto& [name, unit] : std::vector<std::pair<std::string, std::string>>{
                 {"cp.emit_ms", "ms"},
                 {"cp.search_ms", "ms"},
                 {"cp.nodes", "count"},
                 {"cp.failures", "count"},
                 {"cp.solutions", "count"},
                 {"cp.cutoff_prunes", "count"},
                 {"cp.propagations", "count"},
                 {"cp.trail_bytes", "bytes"},
                 {"cp.nodes_per_s", "1/s"}}) {
            names.emplace_back(name + "." + f, unit);
        }
    }
    for (const auto& nu : std::vector<std::pair<std::string, std::string>>{
             {"sched.ms", "ms"},
             {"sched.status.optimal", "count"},
             {"sched.status.sat_timeout", "count"},
             {"sched.status.timeout", "count"},
             {"sched.status.heuristic_fallback", "count"},
             {"sched.status.unsat", "count"},
             {"pipeline.modulo_ms", "ms"},
             {"pipeline.modulo_nodes", "count"},
             {"codegen.gen_ms", "ms"},
             {"codegen.encode_ms", "ms"},
             {"codegen.bytes", "bytes"},
             {"sim.ms", "ms"},
             {"sim.cycles", "cc"},
             {"sim.reconfigs", "count"},
             {"sim.faults", "count"},
             {"sim.mismatch", "count"},
             {"svc.protocol_ms", "ms"},
             {"svc.lookup_ms", "ms"},
             {"svc.adapt_ms", "ms"},
             {"svc.queue_wait_ms", "ms"},
             {"svc.solve_ms", "ms"},
             {"svc.cache.hit_share", "share"},
             {"svc.cache.near_share", "share"},
             {"svc.cache.miss_share", "share"},
             {"svc.reuse.adapted_share", "share"},
             {"svc.shed_share", "share"},
             {"svc.gen_lag_ms", "ms"},
             {"obs.trace_overhead_pct", "%"},
             {"obs.profile_overhead_pct", "%"},
             {"determinism.diffs", "count"}}) {
        names.push_back(nu);
    }
    std::vector<Metric> m;
    for (const auto& [name, unit] : names) m.push_back({name, l.value(name), unit, ""});
    return m;
}

std::string json_number(double v) {
    if (!std::isfinite(v)) v = 0;
    std::ostringstream os;
    os.precision(17);
    os << v;
    return os.str();
}

int usage(const char* why) {
    std::cerr << "revec_perfbench: " << why
              << "\nusage: revec_perfbench --workload paper_flow|fast_compile|svc_stream "
                 "--seed N --seconds S --trace 0|1 [--tiny] [--state-dir DIR] [--rate R]\n";
    return 2;
}

int run(int argc, char** argv) {
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const bool has_value = i + 1 < argc;
        if (a == "--tiny") {
            args.tiny = true;
        } else if (!has_value) {
            return usage(("missing value for " + a).c_str());
        } else if (a == "--workload") {
            args.workload = argv[++i];
        } else if (a == "--seed") {
            args.seed = std::stoull(argv[++i]);
        } else if (a == "--seconds") {
            args.seconds = std::stod(argv[++i]);
        } else if (a == "--trace") {
            args.trace = std::string(argv[++i]) == "1";
        } else if (a == "--state-dir") {
            args.state_dir = argv[++i];
        } else if (a == "--rate") {
            args.rate = std::stod(argv[++i]);
        } else {
            return usage(("unknown argument " + a).c_str());
        }
    }
    Outcome (*workload)(const Args&) = nullptr;
    if (args.workload == "paper_flow") workload = paper_flow;
    if (args.workload == "fast_compile") workload = fast_compile;
    if (args.workload == "svc_stream") workload = svc_stream;
    if (workload == nullptr) return usage("unknown workload");
    if (!(args.seconds > 0)) return usage("--seconds must be positive");
    if (args.rate < 0) return usage("--rate must not be negative");

    Outcome o = workload(args);
    if (args.trace) o.ledger.set("obs.profile_overhead_pct", profile_overhead_pct(args.tiny ? 1 : 3));
    o.ledger.set("determinism.diffs", o.determinism_diffs);

    std::cout << "workload " << args.workload << " seed " << args.seed << " seconds "
              << args.seconds << " trace " << args.trace << '\n';
    for (const std::string& row : o.kernel_rows) std::cout << "kernel " << row << '\n';
    for (const std::string& p : o.problems) std::cout << "INCORRECT: " << p << '\n';

    std::size_t failed = 0;
    for (const Job& j : o.jobs) failed += j.ok ? 0 : 1;
    const std::vector<Metric> e2e = end_to_end(o);
    for (const Metric& m : e2e) {
        std::cout << "metric " << m.name << ' ' << json_number(m.value) << ' ' << m.unit << ' '
                  << m.note << '\n';
    }
    // failed_share is the complement of ok_share, printed for readers; the
    // result carries ok_share because a metric of the result is never 0.
    std::cout << "metric failed_share "
              << json_number(static_cast<double>(failed) / static_cast<double>(o.jobs.size()))
              << " share " << n_note(o.jobs.size()) << '\n';
    const std::vector<Metric> layers = per_layer(o.ledger);
    if (args.trace) {
        for (const Metric& m : layers) {
            std::cout << "layer " << m.name << ' ' << json_number(m.value) << ' ' << m.unit << '\n';
        }
    }

    std::ostringstream js;
    js << "{\"correct\": " << (o.correct ? "true" : "false") << ", \"attempted\": " << o.jobs.size()
       << ", \"failed\": " << failed << ", \"metrics\": {";
    const std::vector<Metric>& shown = args.trace ? layers : e2e;
    for (std::size_t i = 0; i < shown.size(); ++i) {
        js << (i == 0 ? "" : ", ") << '"' << shown[i].name << "\": {\"value\": "
           << json_number(shown[i].value) << ", \"unit\": \"" << shown[i].unit << "\"}";
    }
    js << "}}";
    std::cout << js.str() << std::endl;
    return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
    try {
        return perfbench::run(argc, argv);
    } catch (const std::exception& e) {
        std::cerr << "revec_perfbench: " << e.what() << '\n';
        return 1;
    }
}
