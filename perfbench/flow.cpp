// The compile flow of Fig. 2 as the benchmark drives it, timed layer by
// layer around each module's public calls, plus the trace-span reader that
// attributes the heuristic and CP phases the program already emits.
#include <algorithm>
#include <array>
#include <chrono>
#include <exception>
#include <optional>
#include <sstream>

#include "bench.hpp"
#include "revec/apps/arf.hpp"
#include "revec/apps/detect.hpp"
#include "revec/apps/matmul.hpp"
#include "revec/apps/qrd.hpp"
#include "revec/apps/random_kernel.hpp"
#include "revec/codegen/codegen.hpp"
#include "revec/codegen/encode.hpp"
#include "revec/ir/passes.hpp"
#include "revec/model/check.hpp"
#include "revec/pipeline/modulo.hpp"
#include "revec/sched/model.hpp"
#include "revec/sim/simulator.hpp"
#include "revec/svc/protocol.hpp"

namespace perfbench {

using namespace revec;
using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point since) {
    return std::chrono::duration<double, std::milli>(Clock::now() - since).count();
}

double median(std::vector<double> v) {
    if (v.empty()) return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

double tail(std::vector<double> v, double* percentile) {
    if (v.empty()) return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    const std::size_t p99 = (99 * n + 99) / 100 - 1;  // nearest rank
    const std::size_t k = n > 10 ? std::min(p99, n - 11) : n - 1;
    if (percentile != nullptr) {
        *percentile = 100.0 * static_cast<double>(k + 1) / static_cast<double>(n);
    }
    return v[k];
}

double Ledger::value(const std::string& name) const {
    if (const auto it = means_.find(name); it != means_.end()) {
        return it->second.n > 0 ? it->second.sum / static_cast<double>(it->second.n) : 0.0;
    }
    const auto it = totals_.find(name);
    return it == totals_.end() ? 0.0 : it->second;
}

namespace {

const arch::ArchSpec& eit() {
    static const arch::ArchSpec spec = arch::ArchSpec::eit();
    return spec;
}

/// Times consecutive steps of one job into the ledger (no-op without one).
class Laps {
public:
    explicit Laps(Ledger* ledger) : ledger_(ledger), last_(Clock::now()) {}
    double lap(const char* name) {
        const Clock::time_point now = Clock::now();
        const double ms = std::chrono::duration<double, std::milli>(now - last_).count();
        last_ = now;
        if (ledger_ != nullptr) ledger_->sample(name, ms);
        return ms;
    }

private:
    Ledger* ledger_;
    Clock::time_point last_;
};

struct Checked {
    std::string failure;
    double check_ms = 0;
    int cycles = 0;
    long long bytes = 0;
};

/// check_schedule, then (with a graph) codegen, encoding and simulation.
/// A simulator exception is caught and reported as a failure.
Checked check_schedule_and_run(const model::KernelModel& km, const ir::Graph* g,
                               const sched::Schedule& s, Ledger* ledger) {
    Checked c;
    Laps laps(ledger);
    const std::vector<std::string> violations =
        model::check_schedule(km, s.start, s.slot, s.makespan);
    c.check_ms = laps.lap("model.check_ms");
    if (!violations.empty()) {
        c.failure = "check_schedule rejected: " + violations.front();
        return c;
    }
    if (g == nullptr) return c;
    const codegen::MachineProgram prog = codegen::generate_code(eit(), *g, s);
    laps.lap("codegen.gen_ms");
    const std::vector<codegen::ConfigBundle> bundles = codegen::encode_program(*g, prog);
    c.bytes = static_cast<long long>(codegen::encoded_size_bytes(bundles));
    laps.lap("codegen.encode_ms");
    if (ledger != nullptr) ledger->sample("codegen.bytes", static_cast<double>(c.bytes));
    try {
        const sim::SimResult run = sim::simulate(eit(), *g, prog);
        laps.lap("sim.ms");
        c.cycles = run.cycles;
        if (ledger != nullptr) {
            ledger->sample("sim.cycles", run.cycles);
            ledger->sample("sim.reconfigs", run.reconfigurations);
        }
        if (!run.outputs_match) {
            c.failure = "simulator mismatch";
            if (ledger != nullptr) ledger->add("sim.mismatch", 1);
        } else if (!run.violations.empty()) {
            c.failure = "simulator violation: " + run.violations.front();
        }
    } catch (const std::exception& e) {
        laps.lap("sim.ms");
        c.failure = std::string("simulator exception: ") + e.what();
        if (ledger != nullptr) ledger->add("sim.faults", 1);
    }
    return c;
}

std::string optimum_problem(const Input& in, const sched::Schedule& s) {
    if (in.optimum <= 0) return {};
    if (s.makespan < in.optimum) {
        return "makespan " + std::to_string(s.makespan) + " below the proven optimum " +
               std::to_string(in.optimum);
    }
    if (s.proven_optimal() && s.makespan != in.optimum) {
        return "proved makespan " + std::to_string(s.makespan) + ", optimum is " +
               std::to_string(in.optimum);
    }
    return {};
}

}  // namespace

std::vector<Input> paper_inputs(Rng& rng) {
    // Only the data values depend on the seed; the graphs, and so every
    // schedule and counter, are the paper's.
    std::array<std::array<ir::Complex, ir::kVecLen>, 4> a{};
    for (auto& row : a) {
        for (ir::Complex& v : row) v = ir::Complex(rng.unit(), rng.unit());
    }
    apps::QrdOptions qrd;
    qrd.seed = static_cast<unsigned>(rng.next());
    const auto arf_seed = static_cast<unsigned>(rng.next());
    const auto detect_seed = static_cast<unsigned>(rng.next());
    // Optima from the proofs recorded in ROADMAP.md (sequential exact solve).
    return {
        {"MATMUL", "MATMUL", [a] { return apps::build_matmul(a); }, 11},
        {"QRD", "QRD", [qrd] { return apps::build_qrd(qrd); }, 142},
        {"ARF", "ARF", [arf_seed] { return apps::build_arf(arf_seed); }, 57},
        {"DETECT", "DETECT", [detect_seed] { return apps::build_detect(detect_seed); }, 34},
    };
}

Input random_input(unsigned seed, int num_ops) {
    apps::RandomKernelOptions o;
    o.seed = seed;
    o.num_ops = num_ops;
    o.use_matrix = true;
    o.use_fusable = true;
    return {"rand-" + std::to_string(seed) + "-" + std::to_string(num_ops), "rand",
            [o] { return apps::build_random_kernel(o); }, 0};
}

std::string FlowResult::digest() const {
    std::ostringstream os;
    os << "makespan=" << makespan << " status=" << svc::status_name(status)
       << " nodes=" << stats.nodes << " failures=" << stats.failures
       << " solutions=" << stats.solutions << " cycles=" << cycles << " bytes=" << bytes;
    if (rungs >= 0) os << " rungs=" << rungs;
    os << " failure=" << (failure.empty() ? "none" : failure);
    return os.str();
}

FlowResult run_flow(const Input& in, bool heuristic_only, Ledger* ledger) {
    FlowResult r;
    r.job.family = in.family;
    r.job.input = in.id;
    std::optional<obs::TraceSink> sink;
    if (ledger != nullptr) sink.emplace(obs::TraceLevel::Phase);
    const Clock::time_point start = Clock::now();
    double check_ms = 0;
    double harness_ms = 0;  // reading the trace back; not part of the flow
    try {
        Laps laps(ledger);
        const ir::Graph raw = in.build();
        laps.lap("dsl.trace_ms");
        ir::PassStats ps;
        const ir::Graph g = ir::merge_pipeline_ops(raw, &ps);
        laps.lap("ir.merge_ms");
        sched::ScheduleOptions so;
        so.spec = eit();
        so.heuristic_only = heuristic_only;
        const model::KernelModel km = sched::lower_for_schedule(g, so);
        laps.lap("model.lower_ms");
        sched::ModelSolveOptions mo = sched::model_solve_options(so);
        if (sink) mo.solver.trace = &*sink;
        const sched::Schedule s = sched::schedule_model(km, mo);
        laps.lap("sched.ms");

        r.status = s.status;
        r.stats = s.stats;
        if (s.feasible()) r.makespan = s.makespan;
        if (ledger != nullptr) {
            ledger->sample("dsl.ir_nodes", raw.num_nodes());
            ledger->sample("ir.fused_ops", ps.fused_pre + ps.fused_post);
            ledger->add(std::string("sched.status.") + svc::status_name(s.status), 1);
            const Clock::time_point read_start = Clock::now();
            const std::vector<SolveSpans> solves = read_solves(parse_sink(*sink).tracks.at(0));
            harness_ms += ms_since(read_start);
            if (!solves.empty()) {
                r.rungs = solves.back().instants.count("heur_rung") > 0
                              ? solves.back().instants.at("heur_rung")
                              : 0;
                ledger_solve_spans(*ledger, in.family, solves.back(), r.makespan);
            }
            if (!heuristic_only) {
                const std::string f = "." + in.family;
                ledger->sample("cp.failures" + f, static_cast<double>(s.stats.failures));
                ledger->sample("cp.solutions" + f, static_cast<double>(s.stats.solutions));
                ledger->sample("cp.cutoff_prunes" + f,
                               static_cast<double>(s.stats.cutoff_prunes));
                ledger->sample("cp.propagations" + f,
                               static_cast<double>(s.prop_stats.propagations));
                ledger->sample("cp.trail_bytes" + f,
                               static_cast<double>(s.prop_stats.trail_bytes));
            }
        }

        if (!s.feasible()) {
            r.failure = "no schedule";
        } else {
            if (ledger != nullptr) ledger->sample("model.lb_gap_cc", s.makespan - km.critical_path);
            const Checked c = check_schedule_and_run(km, &g, s, ledger);
            check_ms = c.check_ms;
            r.failure = c.failure;
            r.cycles = c.cycles;
            r.bytes = c.bytes;
            if (r.failure.empty()) r.failure = optimum_problem(in, s);
            r.job.optimal = s.proven_optimal() || s.makespan == km.critical_path;
        }
    } catch (const std::exception& e) {
        r.failure = std::string("exception: ") + e.what();
    }
    r.job.req_ms = ms_since(start) - harness_ms;
    r.job.compile_ms = r.job.req_ms - check_ms;
    r.job.ok = r.failure.empty();
    if (!r.job.ok) r.job.optimal = false;
    return r;
}

long long table3_scans(const std::vector<Input>& paper, bool heuristic_only,
                       std::vector<Job>& jobs, Ledger* ledger) {
    long long ii_sum = 0;
    for (const char* name : {"QRD", "ARF", "MATMUL"}) {
        const auto it = std::find_if(paper.begin(), paper.end(),
                                     [name](const Input& in) { return in.id == name; });
        const ir::Graph g = ir::merge_pipeline_ops(it->build());
        for (const bool include_reconfigs : {false, true}) {
            pipeline::ModuloOptions mo;
            mo.spec = eit();
            mo.include_reconfigs = include_reconfigs;
            mo.timeout_ms = 60000;
            mo.heuristic_only = heuristic_only;
            Job job;
            job.family = name;
            job.kernel = false;
            const Clock::time_point start = Clock::now();
            try {
                const pipeline::ModuloResult r = pipeline::modulo_schedule(g, mo);
                job.ok = r.feasible();
                job.optimal = r.status == cp::SolveStatus::Optimal;
                if (job.ok) ii_sum += r.actual_ii;
                if (ledger != nullptr) {
                    ledger->sample("pipeline.modulo_nodes", static_cast<double>(r.stats.nodes));
                }
            } catch (const std::exception&) {
                job.ok = false;
            }
            job.compile_ms = job.req_ms = ms_since(start);
            if (ledger != nullptr) ledger->sample("pipeline.modulo_ms", job.compile_ms);
            jobs.push_back(job);
        }
    }
    return ii_sum;
}

std::string check_served(const model::KernelModel& km, const ir::Graph* g,
                         const sched::Schedule& s, int* cycles, Ledger* ledger) {
    try {
        const Checked c = check_schedule_and_run(km, g, s, ledger);
        if (cycles != nullptr) *cycles = c.cycles;
        return c.failure;
    } catch (const std::exception& e) {
        return std::string("exception: ") + e.what();
    }
}

obs::ParsedTrace parse_sink(const obs::TraceSink& sink) {
    std::ostringstream os;
    sink.write_jsonl(os);
    return obs::parse_trace(os.str());
}

std::vector<SolveSpans> read_solves(const obs::ParsedTrack& track) {
    std::vector<SolveSpans> solves(1);
    std::map<std::string, std::int64_t> open;  // span name -> begin timestamp
    const auto arg = [](const obs::ParsedEvent& e, const char* key) -> const std::int64_t* {
        const auto it = e.args.find(key);
        return it == e.args.end() ? nullptr : &it->second;
    };
    for (const obs::ParsedEvent& e : track.events) {
        SolveSpans& cur = solves.back();
        if (e.kind == 'I') {
            if (e.name == "rid") {
                solves.emplace_back().rid = *arg(e, "rid");
                open.clear();
            } else {
                ++cur.instants[e.name];
            }
        } else if (e.kind == 'B') {
            open[e.name] = e.ts_us;
            if (e.name == "heuristic") cur.heuristic_ran = true;
        } else if (e.kind == 'E') {
            const auto it = open.find(e.name);
            if (it == open.end()) continue;
            cur.span_ms[e.name] += static_cast<double>(e.ts_us - it->second) / 1000.0;
            open.erase(it);
            if (e.name == "heuristic" && arg(e, "makespan") != nullptr) {
                cur.heuristic_makespan = static_cast<int>(*arg(e, "makespan"));
            }
            if (e.name == "search" && arg(e, "nodes") != nullptr) {
                cur.search_nodes = *arg(e, "nodes");
            }
        }
    }
    // Drop an empty leading segment (no solve before the first rid).
    if (solves.size() > 1 && solves.front().span_ms.empty() && !solves.front().heuristic_ran) {
        solves.erase(solves.begin());
    }
    return solves;
}

void ledger_solve_spans(Ledger& ledger, const std::string& family, const SolveSpans& sp,
                        int final_makespan) {
    if (sp.heuristic_ran) {
        ledger.sample("heur.ms", sp.span_ms.count("heuristic") ? sp.span_ms.at("heuristic") : 0);
        ledger.sample("heur.rungs", sp.instants.count("heur_rung") ? sp.instants.at("heur_rung") : 0);
        if (sp.heuristic_makespan < 0) {
            ledger.add("heur.no_schedule", 1);
        } else if (final_makespan > 0) {
            ledger.sample("heur.seed_gap_cc", sp.heuristic_makespan - final_makespan);
        }
    }
    if (sp.span_ms.count("search") == 0) return;
    const std::string f = "." + family;
    const double search_ms = sp.span_ms.at("search");
    ledger.sample("cp.emit_ms" + f, sp.span_ms.count("emit_cp") ? sp.span_ms.at("emit_cp") : 0);
    ledger.sample("cp.search_ms" + f, search_ms);
    ledger.sample("cp.nodes" + f, static_cast<double>(sp.search_nodes));
    if (search_ms > 0) {
        ledger.sample("cp.nodes_per_s" + f,
                      static_cast<double>(sp.search_nodes) / (search_ms / 1000.0));
    }
}

double profile_overhead_pct(int pairs) {
    const ir::Graph g = ir::merge_pipeline_ops(apps::build_matmul());
    sched::ScheduleOptions so;
    so.spec = eit();
    const model::KernelModel km = sched::lower_for_schedule(g, so);
    std::vector<double> off;
    std::vector<double> on;
    for (int i = 0; i < pairs; ++i) {
        for (const bool profile : {false, true}) {
            sched::ModelSolveOptions mo = sched::model_solve_options(so);
            mo.solver.profile = profile;
            const Clock::time_point start = Clock::now();
            (void)sched::schedule_model(km, mo);
            (profile ? on : off).push_back(ms_since(start));
        }
    }
    std::sort(off.begin(), off.end());
    std::sort(on.begin(), on.end());
    return (on[on.size() / 2] / off[off.size() / 2] - 1.0) * 100.0;
}

}  // namespace perfbench
