// The two closed-loop compile workloads. Each runs rounds of compile jobs
// (a kernel is due when the previous job finishes) until --seconds is
// spent, always finishing a started round. Within a round a short kernel
// is compiled again after every job (see kProbeMs) so that its timing is a
// median over samples spread across the round:
//
//  * paper_flow: MATMUL, QRD, ARF and DETECT through the exact flow
//    (threads=1, warm start on) plus both Table-3 modulo scans.
//  * fast_compile: a frozen draw of build_random_kernel kernels (20-120 ops)
//    plus the paper kernels, all heuristic-only, plus heuristic-only
//    Table-3 scans.
#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>

#include "bench.hpp"
#include "revec/ir/passes.hpp"
#include "revec/sched/model.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

namespace {

struct Plan {
    std::vector<Input> items;  ///< compiled in this order every round
    std::vector<Input> paper;  ///< for the Table-3 scans
};

/// An input whose last compile took under kProbeMs is short: it gets one
/// more timing sample after every job of the round. Its time is easily
/// swayed by a burst of load from other processes on the host; samples
/// taken at many points of the run, between the long compiles, follow the
/// host's average speed, where samples taken back to back each round
/// followed whatever the host did at that moment (up to 2x apart).
constexpr double kProbeMs = 20.0;

/// Size of the frozen fast_compile draw. Its kernels are fixed (drawn once
/// from kSuiteSeed) so that every run compiles the same heavy tail: a
/// per-seed draw of this population spreads kernels/s by tens of percent
/// between seeds, because a few kernels take seconds in the slot-allocation
/// ladder and the rest take a millisecond.
constexpr int kSuiteSize = 24;
constexpr std::uint64_t kSuiteSeed = 2015;

/// The kernel that gets a heuristic-only schedule which passes
/// check_schedule yet makes the simulator throw "premature reuse" (a known
/// defect). It stays in the draw so the failure is always counted.
constexpr unsigned kFixtureSeed = 43;
constexpr int kFixtureOps = 47;

std::vector<Input> suite(bool tiny) {
    std::vector<Input> out{random_input(kFixtureSeed, kFixtureOps)};
    if (tiny) {
        out.push_back(random_input(1, 20));
        return out;
    }
    Rng rng(kSuiteSeed);
    for (int i = 0; i < kSuiteSize; ++i) {
        const int ops = 20 + rng.below(101);
        out.push_back(random_input(static_cast<unsigned>(rng.next() & 0x7fffffffu), ops));
    }
    return out;
}

Plan make_plan(const Args& args, bool heuristic_only) {
    Rng rng(args.seed);
    Plan plan;
    plan.paper = paper_inputs(rng);
    if (!heuristic_only) {
        plan.items = {plan.paper[3], plan.paper[0], plan.paper[1], plan.paper[2]};
        return plan;
    }
    // The draw runs in a fixed order: each kernel starts from the heap and
    // cache state the kernels before it leave, and with a per-seed order
    // the sub-millisecond compiles varied by up to 2x between runs.
    plan.items = suite(args.tiny);
    plan.items.insert(plan.items.end(), plan.paper.begin(), plan.paper.end());
    return plan;
}

/// Set-up: derive the inputs from the seed and take each through the DSL
/// trace, the IR pass and lowering once, so lazy initialisation and cold
/// caches are paid before timing. Repeated; the median is reported.
Plan set_up(const Args& args, bool heuristic_only, Outcome& out) {
    std::vector<double> times;
    Plan plan;
    out.setup_n = 5;
    for (int rep = 0; rep < out.setup_n; ++rep) {
        const Clock::time_point start = Clock::now();
        plan = make_plan(args, heuristic_only);
        for (const Input& in : plan.items) {
            (void)revec::sched::lower_for_schedule(revec::ir::merge_pipeline_ops(in.build()));
        }
        times.push_back(ms_since(start) / 1000.0);
    }
    std::sort(times.begin(), times.end());
    out.setup_s = times[times.size() / 2];
    return plan;
}

/// Exact counters per input: repeats within the run must agree, and an
/// earlier run of the same binary with the same seed left its counters in
/// the state directory (run.py keys that directory by the binary's hash).
class Determinism {
public:
    explicit Determinism(const Args& args) {
        if (args.state_dir.empty()) return;
        std::ostringstream name;
        name << args.state_dir << "/digest-" << args.workload << "-" << args.seed << "-t"
             << args.trace << (args.tiny ? "-tiny" : "") << ".txt";
        path_ = name.str();
        std::ifstream in(path_);
        std::string id, line;
        while (in >> id && std::getline(in, line)) previous_[id] = line;
    }

    void record(const std::string& id, const std::string& digest, Outcome& out) {
        const std::string line = " " + digest;
        const auto [it, fresh] = current_.emplace(id, line);
        if (!fresh && it->second != line) flag(id, "repeat in this run", it->second, line, out);
        if (fresh) {
            const auto prev = previous_.find(id);
            if (prev != previous_.end() && prev->second != line) {
                flag(id, "earlier run with this seed", prev->second, line, out);
            }
        }
    }

    void save() const {
        if (path_.empty()) return;
        std::ofstream os(path_);
        for (const auto& [id, line] : current_) os << id << line << '\n';
    }

private:
    static void flag(const std::string& id, const char* against, const std::string& was,
                     const std::string& now, Outcome& out) {
        std::cout << "DETERMINISM: " << id << " differs from " << against << ":\n  was" << was
                  << "\n  now" << now << '\n';
        ++out.determinism_diffs;
    }

    std::string path_;
    std::map<std::string, std::string> previous_;
    std::map<std::string, std::string> current_;
};

Outcome run_compile(const Args& args, bool heuristic_only) {
    Outcome out;
    const Plan plan = set_up(args, heuristic_only, out);
    Determinism determinism(args);
    std::map<std::string, std::vector<double>> times;  // per input id
    std::map<std::string, FlowResult> first;           // per input id
    std::set<std::string> reported;                    // ids with a failure printed
    double untraced_ms = 0;
    double traced_ms = 0;
    long traced_jobs = 0;
    int rounds = 0;
    const Clock::time_point start = Clock::now();
    std::vector<double> last_ms(plan.items.size(), kProbeMs);  // latest compile per input
    while (true) {
        const Clock::time_point round_start = Clock::now();
        // One job per input and round; every compile of it in the round is
        // a timing sample, and a failure of any of them fails the job.
        std::vector<Job> jobs(plan.items.size());
        std::vector<std::vector<double>> req_ms(plan.items.size());
        const auto compile = [&](std::size_t i, bool twin) {
            const Input& in = plan.items[i];
            // In the traced run each job's first compile gets a traced
            // twin, the two in alternating order: the twin records the
            // per-layer values (once per job, so counts are per job), the
            // pair gives the tracing overhead.
            const bool traced_first = twin && (traced_jobs++ % 2 == 1);
            FlowResult t;
            if (traced_first) t = run_flow(in, heuristic_only, &out.ledger);
            FlowResult r = run_flow(in, heuristic_only, nullptr);
            if (twin && !traced_first) t = run_flow(in, heuristic_only, &out.ledger);
            determinism.record(in.id, r.digest(), out);
            if (twin) {
                untraced_ms += r.job.compile_ms;
                traced_ms += t.job.compile_ms;
                determinism.record(in.id + "#traced", t.digest(), out);
                r.rungs = t.rungs;
            }
            last_ms[i] = r.job.compile_ms;
            Job& job = jobs[i];
            if (job.compile_samples.empty()) job = r.job;
            job.ok = job.ok && r.job.ok;
            job.optimal = job.optimal && r.job.optimal;
            job.compile_samples.push_back(r.job.compile_ms);
            req_ms[i].push_back(r.job.req_ms);
            times[in.id].push_back(r.job.compile_ms);
            if (first.count(in.id) == 0) first.emplace(in.id, r);
            if (!r.failure.empty() && reported.insert(in.id).second) {
                std::cout << "failed: " << in.id << ": " << r.failure << '\n';
                // Random kernels carry the known defects this workload
                // counts; a paper kernel has a proven, checked answer.
                if (in.family != "rand") {
                    out.correct = false;
                    out.problems.push_back(in.id + ": " + r.failure);
                }
            }
        };
        for (std::size_t i = 0; i < plan.items.size(); ++i) {
            compile(i, args.trace);
            if (args.tiny) continue;
            for (std::size_t k = 0; k < plan.items.size(); ++k) {
                if (last_ms[k] < kProbeMs) compile(k, false);
            }
        }
        for (std::size_t i = 0; i < plan.items.size(); ++i) {
            jobs[i].compile_ms = median(jobs[i].compile_samples);
            jobs[i].req_ms = median(req_ms[i]);
            out.jobs.push_back(std::move(jobs[i]));
        }
        const long long ii = table3_scans(plan.paper, heuristic_only, out.jobs,
                                          args.trace ? &out.ledger : nullptr);
        if (rounds == 0) out.loop_ii_cc = ii;
        ++rounds;
        const double elapsed_s = ms_since(start) / 1000.0;
        const double round_s = ms_since(round_start) / 1000.0;
        if (elapsed_s + round_s > args.seconds) break;
    }
    out.measured_s = ms_since(start) / 1000.0;
    determinism.save();
    for (const auto& [id, r] : first) {
        if (r.job.ok) out.gen_cycles += r.cycles;
    }
    // Scan failures of the paper kernels are correctness failures too.
    for (const Job& j : out.jobs) {
        if (!j.kernel && !j.ok) {
            out.correct = false;
            out.problems.push_back(j.family + ": Table-3 scan found no schedule");
            break;
        }
    }
    for (const Input& in : plan.items) {
        const FlowResult& r = first.at(in.id);
        std::ostringstream row;
        row << in.id << " n=" << times[in.id].size() << " median_ms=" << median(times[in.id])
            << " " << r.digest();
        out.kernel_rows.push_back(row.str());
    }
    if (args.trace) {
        out.ledger.per_pass(rounds);
        out.ledger.set("obs.trace_overhead_pct", (traced_ms / untraced_ms - 1.0) * 100.0);
    }
    return out;
}

}  // namespace

Outcome paper_flow(const Args& args) { return run_compile(args, false); }
Outcome fast_compile(const Args& args) { return run_compile(args, true); }

}  // namespace perfbench
