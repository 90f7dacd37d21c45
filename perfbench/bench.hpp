// Shared types of the end-to-end benchmark: run arguments, the per-job
// record every workload produces, the per-layer ledger of the traced run,
// and the compile flow (DSL trace -> IR -> KernelModel -> schedule ->
// codegen -> encoding -> simulation) that the compile workloads run and the
// service workload uses to check served schedules.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "revec/arch/spec.hpp"
#include "revec/ir/graph.hpp"
#include "revec/model/kernel_model.hpp"
#include "revec/obs/trace.hpp"
#include "revec/obs/trace_read.hpp"
#include "revec/sched/schedule.hpp"

namespace perfbench {

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /// Shrinks every workload to a few inputs (the self-test's size).
    bool tiny = false;
    /// svc_stream's offered rate in requests/s; 0 keeps the default. Only
    /// for capacity sweeps (perfbench/README.md).
    double rate = 0;
    /// Directory where same-seed runs of the same binary leave their exact
    /// counters for the determinism check; empty disables the cross-run
    /// comparison.
    std::string state_dir;
};

/// Deterministic stream of 64-bit values derived from the run seed. Only
/// raw engine output is used (never std distributions), so inputs are the
/// same on every standard library.
class Rng {
public:
    explicit Rng(std::uint64_t seed) : engine_(seed) {}
    std::uint64_t next() { return engine_(); }
    int below(int n) { return static_cast<int>(next() % static_cast<std::uint64_t>(n)); }
    double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53 * 2.0 - 1.0; }

private:
    std::mt19937_64 engine_;
};

/// One unit of user-visible work: a kernel compile (closed loop) or a
/// service request (open loop).
struct Job {
    std::string family;     ///< MATMUL, QRD, ARF, DETECT, or rand
    std::string input;      ///< the input compiled; repeats of one input share it
    bool kernel = true;     ///< a kernel compile or request (false: a Table-3 scan)
    double compile_ms = 0;  ///< flow time, or service-side time of a request
    double req_ms = 0;      ///< latency from the job's due time, checks included
    /// Compile-time samples behind compile_ms (their median); repeats of a
    /// short kernel within a round each add one.
    std::vector<double> compile_samples;
    bool ok = false;        ///< produced a schedule that passed every check
    bool optimal = false;   ///< proven optimal (CP proof or critical-path bound)
};

/// Per-layer values of the traced run. `mean` names report the mean of
/// their samples, `total` names the sum.
class Ledger {
public:
    void sample(const std::string& name, double v) {
        Acc& a = means_[name];
        a.sum += v;
        ++a.n;
    }
    void add(const std::string& name, double v) { totals_[name] += v; }
    void set(const std::string& name, double v) { totals_[name] = v; }
    /// Turn totals over several passes into totals per pass (divided, not
    /// multiplied by the reciprocal, so whole counts stay whole).
    void per_pass(int passes) {
        for (auto& [name, v] : totals_) v /= passes;
    }
    /// The metric's value, 0 when nothing was recorded under it.
    double value(const std::string& name) const;

private:
    struct Acc {
        double sum = 0;
        std::int64_t n = 0;
    };
    std::map<std::string, Acc> means_;
    std::map<std::string, double> totals_;
};

/// What a workload hands back to main for reporting.
struct Outcome {
    double setup_s = 0;      ///< median over setup_n set-ups
    int setup_n = 0;
    std::vector<Job> jobs;
    double measured_s = 0;   ///< wall time of the measured phase
    bool open_loop = false;  ///< jobs were due on a schedule, not one after another
    long long gen_cycles = 0;
    long long loop_ii_cc = 0;
    int determinism_diffs = 0;
    bool correct = true;
    std::vector<std::string> problems;  ///< why correct is false
    /// Human-readable per-kernel rows (exact counters beside timings).
    std::vector<std::string> kernel_rows;
    Ledger ledger;
};

// -- the compile flow ---------------------------------------------------------

/// One compile input: a kernel family and its DSL trace.
struct Input {
    std::string id;      ///< stable name in reports and digests
    std::string family;  ///< MATMUL, QRD, ARF, DETECT, or rand
    std::function<revec::ir::Graph()> build;
    int optimum = 0;     ///< proven optimal makespan; 0 = unknown
};

/// The four paper kernels, with input data drawn from `rng`.
std::vector<Input> paper_inputs(Rng& rng);

/// A build_random_kernel input (matrix and fusable ops on).
Input random_input(unsigned seed, int num_ops);

/// Per-job result of run_flow.
struct FlowResult {
    Job job;
    int makespan = 0;
    int cycles = 0;
    long long bytes = 0;
    revec::cp::SolveStatus status = revec::cp::SolveStatus::Unsat;
    revec::cp::SearchStats stats;
    /// Heuristic ladder rungs tried (-1 when the run was not traced).
    int rungs = -1;
    std::string failure;  ///< empty when ok
    /// Exact counters for the determinism check.
    std::string digest() const;
};

/// Compile `in` through the whole Fig. 2 flow: exact (threads=1, warm start)
/// or heuristic-only. Every failure is caught and classified; nothing
/// throws. With a ledger the call is traced and each layer is timed.
FlowResult run_flow(const Input& in, bool heuristic_only, Ledger* ledger);

/// The Table-3 scans (QRD, ARF, MATMUL; reconfigurations excluded and
/// included). Returns the sum of actual II; a scan without a schedule adds
/// a failed job.
long long table3_scans(const std::vector<Input>& paper, bool heuristic_only,
                       std::vector<Job>& jobs, Ledger* ledger);

/// Check a schedule produced outside run_flow (the service's answers):
/// model check, then code generation, encoding and simulation when `g` is
/// given. Returns the failure text, empty when clean.
std::string check_served(const revec::model::KernelModel& km, const revec::ir::Graph* g,
                         const revec::sched::Schedule& s, int* cycles, Ledger* ledger);

/// Phase spans of one solve read back from a trace track: span time per
/// name, instant counts, and the heuristic / search end payloads.
struct SolveSpans {
    std::int64_t rid = 0;
    std::map<std::string, double> span_ms;
    std::map<std::string, int> instants;
    int heuristic_makespan = -1;  ///< -1: the ladder produced no schedule
    bool heuristic_ran = false;
    long long search_nodes = 0;
};

/// Split a parsed trace track into solves: a new solve starts at each "rid"
/// instant. Spans are read back from the serialized trace, the same bytes
/// a user's --trace file holds.
std::vector<SolveSpans> read_solves(const revec::obs::ParsedTrack& track);

/// Serialize a sink and parse it back.
revec::obs::ParsedTrace parse_sink(const revec::obs::TraceSink& sink);

/// Record a solve's spans under heur.* and cp.* in the ledger.
void ledger_solve_spans(Ledger& ledger, const std::string& family, const SolveSpans& spans,
                        int final_makespan);

// -- workloads ------------------------------------------------------------------

Outcome paper_flow(const Args& args);
Outcome fast_compile(const Args& args);
Outcome svc_stream(const Args& args);

/// Trace-run probe shared by every workload: the cost of the per-propagator
/// profiler on MATMUL's exact solve, in percent.
double profile_overhead_pct(int pairs);

/// Median (the mean of the middle two for an even count); 0 when empty.
double median(std::vector<double> v);

/// The tail: p99 when at least ten samples lie beyond it, otherwise the
/// highest percentile that has ten beyond it (the maximum below 11
/// samples). `percentile` receives the percentile used.
double tail(std::vector<double> v, double* percentile = nullptr);

/// Milliseconds since `since`.
double ms_since(std::chrono::steady_clock::time_point since);

}  // namespace perfbench
