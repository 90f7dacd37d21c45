// svc_stream: an open-loop NDJSON request stream into one in-process
// svc::Service through handle_line, so protocol parse and serialize are in
// every measurement. Requests are due at a fixed rate; three session
// threads (the main thread among them) take them in order, and with the
// single pool worker the process runs four threads. Latency is timed from
// each request's due time, so a stall also delays the requests behind it.
//
// The seeded mix: exact repeats of the warmed MATMUL/QRD/ARF models (cache
// reads), one-op latency edits of them (near hit: adapt, then a warm exact
// solve), novel small random kernels (miss, cold solve, insert), and
// heuristic-only DETECT requests (never cached, always through the pool).
// Every answer is checked after the stream: check_schedule against the
// requested model, and for unedited models code generation plus simulation.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "revec/ir/passes.hpp"
#include "revec/sched/model.hpp"
#include "revec/support/json.hpp"
#include "revec/svc/service.hpp"

namespace perfbench {

using namespace revec;
using Clock = std::chrono::steady_clock;

namespace {

/// Offered rate, set from a measured capacity (README "Offered rate"): on
/// a 4-core x86-64 host this stream's answered rate saturates at ~220-230
/// req/s, and it starts to back up between 100 and 150 req/s (median
/// latency 1.5 ms at 100, 83 ms at 150). 25 req/s is a sixth of that 150
/// and a quarter of 100; latency there is the unloaded latency, so
/// req_ms_* measure the service, not a queue. At 50 and 75 req/s a long
/// proof often held all three sessions, so requests went out late by an
/// amount that followed the host's speed, and req_ms_p50 spread 0.30 and
/// 0.21 (quartile distance over median) over ten runs.
constexpr double kRatePerS = 25.0;
/// Four threads in all (no more than nproc on the 4-core reference
/// host): three sessions, so a cache read is answered while up
/// to two others wait on the pool, and one pool worker (the Service
/// default is 2), so every solve is sequential like the compile workloads.
/// Giving the repeats a session of their own and the pool requests the
/// other two made the latencies less steady between runs (README).
constexpr int kSessions = 3;
constexpr int kPoolWorkers = 1;
/// Far above every warm solve (MATMUL edits take ~0.1-0.2 s) and the
/// queue waits in front of them, so these requests end optimal every time.
constexpr std::int64_t kDeadlineMs = 5000;
/// Novel kernels solve in a few milliseconds, except a few percent whose
/// proofs take from ~0.2 s to many seconds; this deadline sits between the
/// two, so those few end as verified heuristic answers instead of holding
/// the single worker.
constexpr std::int64_t kNovelDeadlineMs = 100;
/// Latency limit for goodput_rps; a later answer misses.
constexpr double kLatencyLimitMs = 1000.0;
constexpr std::uint64_t kWarmRid = 1u << 30;

enum class Kind { Repeat, Edit, Novel, Detect };

struct Request {
    Kind kind = Kind::Repeat;
    std::string family;
    double due_ms = 0;
    std::string line;
    const model::KernelModel* km = nullptr;
    const ir::Graph* graph = nullptr;  ///< null for edits: the model no longer matches it
    int optimum = 0;
};

struct Base {
    std::string family;
    ir::Graph graph;
    model::KernelModel km;
    int optimum = 0;
    std::vector<int> multi_cycle_ops;  ///< edit targets
};

/// Inputs, request lines and the warmed service of one run.
struct Stream {
    std::deque<Base> bases;  ///< MATMUL, QRD, ARF, DETECT
    std::deque<ir::Graph> graphs;
    std::deque<model::KernelModel> models;
    std::vector<Request> requests;
};

std::string request_line(const model::KernelModel& km, std::uint64_t rid,
                         std::int64_t deadline_ms, bool heuristic_only) {
    svc::Request req;
    req.kind = svc::RequestKind::Solve;
    req.id = static_cast<std::int64_t>(rid);
    req.rid = rid;
    req.deadline_ms = deadline_ms;
    req.params.heuristic_only = heuristic_only;
    req.model = km;
    return svc::serialize_request(req);
}

model::KernelModel lower(const ir::Graph& g) {
    return sched::lower_for_schedule(g, sched::ScheduleOptions{});
}

/// A one-op edit: the op's latency drops by `by` (1-3), consistently on the
/// node and its out-edges (the shape an iterative kernel tuner makes).
/// Downward edits keep the lowered horizon valid; MATMUL has 16 multi-cycle
/// ops, so the three drops give 48 distinct near-hit solves of ~0.1 s,
/// enough that they keep arriving through the whole stream.
model::KernelModel edited(const Base& base, int op, int by) {
    model::KernelModel m = base.km;
    const int latency = m.nodes[static_cast<std::size_t>(op)].latency - by;
    m.nodes[static_cast<std::size_t>(op)].latency = latency;
    for (model::ModelEdge& e : m.edges) {
        if (e.src == op) e.latency = latency;
    }
    return m;
}

Stream make_stream(const Args& args) {
    Stream st;
    Rng rng(args.seed);
    for (const Input& in : paper_inputs(rng)) {
        Base& b = st.bases.emplace_back();
        b.family = in.family;
        b.graph = ir::merge_pipeline_ops(in.build());
        b.km = lower(b.graph);
        b.optimum = in.optimum;
        for (const int op : b.km.ops) {
            if (b.km.node(op).latency > 1) b.multi_cycle_ops.push_back(op);
        }
    }
    // The mix is stratified: every block of 20 consecutive requests
    // holds the same kinds in a seeded order, so the share of each kind,
    // and with it the latency distribution, does not drift between seeds.
    // The shares are assumptions, not taken from a recorded workload: a
    // warm cache answers most requests (12 repeats), an iterative tuner
    // sends edits (3) and new kernels arrive (3). The 2 DETECT requests
    // give compile_ms.DETECT a measured, nonzero value on this workload;
    // they are heuristic-only because DETECT's exact proof takes ~5.7 s,
    // beyond the 1000 ms latency limit.
    std::vector<std::pair<Kind, int>> block;  // kind and base index
    for (int k = 0; k < 4; ++k) {
        for (int base = 0; base < 3; ++base) block.emplace_back(Kind::Repeat, base);
    }
    for (int base = 0; base < 3; ++base) block.emplace_back(Kind::Edit, base);
    for (int k = 0; k < 3; ++k) block.emplace_back(Kind::Novel, 0);
    for (int k = 0; k < 2; ++k) block.emplace_back(Kind::Detect, 3);
    const double rate = args.rate > 0 ? args.rate : kRatePerS;
    const int n = std::max(1, static_cast<int>(rate * args.seconds));
    st.requests.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
        const std::size_t slot = static_cast<std::size_t>(i) % block.size();
        if (slot == 0) {
            for (std::size_t j = block.size(); j > 1; --j) {
                std::swap(block[j - 1], block[static_cast<std::size_t>(rng.below(static_cast<int>(j)))]);
            }
        }
        const auto rid = static_cast<std::uint64_t>(i + 1);
        const auto [kind, base] = block[slot];
        const Base& b = st.bases[static_cast<std::size_t>(base)];
        Request r{kind, b.family, 1000.0 * i / rate, {}, &b.km, &b.graph, b.optimum};
        std::int64_t deadline_ms = kDeadlineMs;
        if (kind == Kind::Edit) {
            const int op = b.multi_cycle_ops[static_cast<std::size_t>(
                rng.below(static_cast<int>(b.multi_cycle_ops.size())))];
            const int by = 1 + rng.below(std::min(3, b.km.node(op).latency - 1));
            r.km = &st.models.emplace_back(edited(b, op, by));
            r.graph = nullptr;
            r.optimum = 0;
        } else if (kind == Kind::Novel) {
            const Input in = random_input(static_cast<unsigned>(rng.next() & 0x7fffffffu),
                                          8 + rng.below(9));
            r.family = in.family;
            r.graph = &st.graphs.emplace_back(ir::merge_pipeline_ops(in.build()));
            r.km = &st.models.emplace_back(lower(*r.graph));
            r.optimum = 0;
            deadline_ms = kNovelDeadlineMs;
        }
        r.line = request_line(*r.km, rid, deadline_ms, kind == Kind::Detect);
        st.requests.push_back(std::move(r));
    }
    return st;
}

std::unique_ptr<svc::Service> warmed_service(const Stream& st, obs::TraceSink* sink) {
    svc::Service::Config config;
    config.pool_workers = kPoolWorkers;
    config.trace = sink;
    auto service = std::make_unique<svc::Service>(config);
    for (std::size_t i = 0; i < 3; ++i) {
        const svc::Response r = svc::parse_response(service->handle_line(
            request_line(st.bases[i].km, kWarmRid + i, kDeadlineMs, false)));
        if (!r.ok || r.status != cp::SolveStatus::Optimal) {
            throw std::runtime_error("warming " + st.bases[i].family + " did not end optimal");
        }
    }
    return service;
}

json::Value metrics(const svc::Service& service) { return json::parse(service.metrics_json()); }

double counter_delta(const json::Value& before, const json::Value& after, const char* name) {
    const auto get = [name](const json::Value& doc) {
        const json::Value* c = doc.find("counters");
        const json::Value* v = c == nullptr ? nullptr : c->find(name);
        return v == nullptr ? 0.0 : v->number;
    };
    return get(after) - get(before);
}

/// Mean of a histogram's samples added between the two snapshots.
double hist_mean_delta(const json::Value& before, const json::Value& after, const char* name) {
    const auto get = [name](const json::Value& doc, const char* field) {
        const json::Value* h = doc.find("histograms");
        const json::Value* v = h == nullptr ? nullptr : h->find(name);
        const json::Value* f = v == nullptr ? nullptr : v->find(field);
        return f == nullptr ? 0.0 : f->number;
    };
    const double n = get(after, "count") - get(before, "count");
    return n > 0 ? (get(after, "sum") - get(before, "sum")) / n : 0.0;
}

struct Served {
    std::string line;
    double latency_ms = 0;   ///< from due time to the answer
    double handle_ms = 0;    ///< inside handle_line
    double lag_ms = 0;       ///< how late the request was sent
};

/// Send the stream's first `count` requests open-loop: each is sent at its
/// due time by whichever session is free.
std::vector<Served> send(svc::Service& service, const Stream& st, std::size_t count,
                         obs::TraceSink* sink) {
    std::vector<Served> served(count);
    std::atomic<std::size_t> next{0};
    std::vector<obs::TraceBuffer*> tracks(kSessions, nullptr);
    if (sink != nullptr) {
        for (int k = 0; k < kSessions; ++k) tracks[static_cast<std::size_t>(k)] =
            sink->new_track("session-" + std::to_string(k));
    }
    const Clock::time_point t0 = Clock::now();
    const auto session = [&](obs::TraceBuffer* track) {
        for (std::size_t i = next++; i < count; i = next++) {
            const Clock::time_point due =
                t0 + std::chrono::microseconds(static_cast<std::int64_t>(st.requests[i].due_ms * 1000));
            // Sleep to just before the due time, then spin: a plain sleep
            // wakes late by a scheduler-dependent amount that would show up
            // as latency. On a busy virtualised host wake-ups came more
            // than 0.3 ms late often enough to add ~0.3 ms to req_ms_p50 in
            // some runs, so the spin starts 2 ms early (5% of a core at
            // 25 req/s).
            std::this_thread::sleep_until(due - std::chrono::milliseconds(2));
            while (Clock::now() < due) {
            }
            const Clock::time_point sent = Clock::now();
            try {
                served[i].line = service.handle_line(st.requests[i].line, track);
            } catch (const std::exception& e) {
                svc::Response refused;
                refused.error = e.what();
                served[i].line = svc::serialize_response(refused);
            }
            served[i].handle_ms = ms_since(sent);
            served[i].latency_ms = ms_since(due);
            served[i].lag_ms = std::chrono::duration<double, std::milli>(sent - due).count();
        }
    };
    std::vector<std::thread> threads;
    for (int k = 1; k < kSessions; ++k) threads.emplace_back(session, tracks[static_cast<std::size_t>(k)]);
    session(tracks[0]);
    for (std::thread& t : threads) t.join();
    return served;
}

/// Closed-loop replay of the first `count` requests on a fresh warmed
/// service; returns the summed service-side time.
double replay_ms(const Stream& st, std::size_t count, bool traced) {
    std::optional<obs::TraceSink> sink;
    if (traced) sink.emplace(obs::TraceLevel::Phase);
    auto service = warmed_service(st, traced ? &*sink : nullptr);
    obs::TraceBuffer* track = traced ? sink->new_track("replay") : nullptr;
    double total = 0;
    for (std::size_t i = 0; i < count; ++i) {
        const Clock::time_point start = Clock::now();
        (void)service->handle_line(st.requests[i].line, track);
        total += ms_since(start);
    }
    return total;
}

}  // namespace

Outcome svc_stream(const Args& args) {
    Outcome out;
    out.open_loop = true;
    std::optional<obs::TraceSink> sink;
    if (args.trace) sink.emplace(obs::TraceLevel::Phase);

    // Set-up: inputs, request lines and a warmed service, three times
    // before the stream and twice more after it (those two are timed
    // only), so the median is not one moment's host speed.
    std::vector<double> setups;
    Stream st;
    std::unique_ptr<svc::Service> service;
    out.setup_n = 5;
    for (int rep = 0; rep < 3; ++rep) {
        const Clock::time_point start = Clock::now();
        service.reset();
        st = make_stream(args);
        service = warmed_service(st, rep == 2 && sink ? &*sink : nullptr);
        setups.push_back(ms_since(start) / 1000.0);
    }

    const json::Value before = metrics(*service);
    const Clock::time_point start = Clock::now();
    const std::vector<Served> served =
        send(*service, st, st.requests.size(), sink ? &*sink : nullptr);
    out.measured_s = ms_since(start) / 1000.0;
    const json::Value after = metrics(*service);

    Ledger* const ledger = args.trace ? &out.ledger : nullptr;
    std::vector<double> lags;
    std::map<std::uint64_t, std::string> family_of;  // rid -> family
    std::map<std::uint64_t, int> makespan_of;
    std::map<std::string, int> cycles_of;            // first clean repeat per family
    for (std::size_t i = 0; i < served.size(); ++i) {
        const Request& req = st.requests[i];
        const Served& sv = served[i];
        Job job;
        job.family = req.family;
        job.input = "request-" + std::to_string(i + 1);
        job.compile_ms = sv.handle_ms;
        job.req_ms = sv.latency_ms;
        lags.push_back(sv.lag_ms);
        std::string failure;
        try {
            const svc::Response r = svc::parse_response(sv.line);
            family_of[r.rid] = req.family;
            makespan_of[r.rid] = r.makespan;
            if (ledger != nullptr) {
                // The wire protocol's own cost: parsing this request and
                // serializing its answer, timed apart from the stream.
                const Clock::time_point proto = Clock::now();
                (void)svc::parse_request(req.line);
                (void)svc::serialize_response(r);
                ledger->sample("svc.protocol_ms", ms_since(proto));
                if (r.ok) ledger->add(std::string("sched.status.") + svc::status_name(r.status), 1);
            }
            if (!r.ok) {
                failure = "refused: " + r.error;
            } else if (!r.has_schedule()) {
                failure = "no schedule";
            } else {
                sched::Schedule s;
                s.start = r.start;
                s.slot = r.slot;
                s.makespan = r.makespan;
                s.slots_used = r.slots_used;
                s.status = r.status;
                int cycles = 0;
                failure = check_served(*req.km, req.graph, s, &cycles, ledger);
                if (failure.empty() && req.optimum > 0 &&
                    (r.makespan < req.optimum ||
                     (r.status == cp::SolveStatus::Optimal && r.makespan != req.optimum))) {
                    failure = "makespan " + std::to_string(r.makespan) + ", optimum is " +
                              std::to_string(req.optimum);
                }
                if (failure.empty() && req.graph != nullptr && req.optimum > 0) {
                    cycles_of.emplace(req.family, cycles);
                }
                job.optimal = r.status == cp::SolveStatus::Optimal ||
                              r.makespan == req.km->critical_path;
            }
        } catch (const std::exception& e) {
            failure = std::string("unreadable response: ") + e.what();
        }
        if (failure.empty() && sv.latency_ms > kLatencyLimitMs) failure = "late";
        job.ok = failure.empty();
        if (!job.ok) {
            job.optimal = false;
            std::cout << "failed: request " << i + 1 << " (" << req.family << "): " << failure
                      << '\n';
            if (req.family != "rand" && failure != "late") {
                out.correct = false;
                out.problems.push_back("request " + std::to_string(i + 1) + ": " + failure);
            }
        }
        out.jobs.push_back(job);
    }
    for (const auto& [family, cycles] : cycles_of) out.gen_cycles += cycles;
    // The stream has no loop path; its Table-3 scans run after the stream so
    // every workload reports loop_ii_cc.
    {
        Rng rng(args.seed);
        std::vector<Job> scans;
        out.loop_ii_cc = table3_scans(paper_inputs(rng), false, scans, ledger);
        for (const Job& j : scans) {
            if (!j.ok) {
                out.correct = false;
                out.problems.push_back(j.family + ": Table-3 scan found no schedule");
            }
        }
        out.jobs.insert(out.jobs.end(), scans.begin(), scans.end());
    }
    for (const auto& [family, cycles] : cycles_of) {
        out.kernel_rows.push_back(family + " cycles=" + std::to_string(cycles));
    }

    if (ledger != nullptr) {
        const double requests = counter_delta(before, after, "svc.req.count");
        const auto share = [&](const char* name) {
            return requests > 0 ? counter_delta(before, after, name) / requests : 0.0;
        };
        ledger->set("svc.lookup_ms", hist_mean_delta(before, after, "svc.phase.lookup_ms"));
        ledger->set("svc.adapt_ms", hist_mean_delta(before, after, "svc.phase.adapt_ms"));
        ledger->set("svc.queue_wait_ms",
                    hist_mean_delta(before, after, "svc.phase.queue_wait_ms"));
        ledger->set("svc.solve_ms", hist_mean_delta(before, after, "svc.phase.solve_ms"));
        ledger->set("svc.cache.hit_share", share("svc.cache.hit"));
        ledger->set("svc.cache.near_share", share("svc.cache.near_hit"));
        ledger->set("svc.cache.miss_share", share("svc.cache.miss"));
        ledger->set("svc.shed_share", share("svc.queue.shed"));
        const double adapted = counter_delta(before, after, "svc.reuse.adapted");
        const double attempts = adapted + counter_delta(before, after, "svc.reuse.adapt_rejected") +
                                counter_delta(before, after, "svc.reuse.no_donor");
        ledger->set("svc.reuse.adapted_share", attempts > 0 ? adapted / attempts : 0.0);
        ledger->set("svc.gen_lag_ms", tail(lags));

        // Heuristic and CP phases of every solve, from the worker and
        // session tracks, attributed to request families through the rid.
        for (const obs::ParsedTrack& track : parse_sink(*sink).tracks) {
            for (const SolveSpans& sp : read_solves(track)) {
                const auto it = family_of.find(static_cast<std::uint64_t>(sp.rid));
                if (it == family_of.end()) continue;
                ledger_solve_spans(*ledger, it->second, sp, makespan_of[it->first]);
            }
        }
        // Three untraced/traced replay pairs in alternating order; the
        // median pair ratio is the overhead.
        const std::size_t replayed = std::min<std::size_t>(st.requests.size(), 100);
        std::vector<double> ratios;
        for (int pair = 0; pair < 3; ++pair) {
            const bool traced_first = pair % 2 == 1;
            const double first = replay_ms(st, replayed, traced_first);
            const double second = replay_ms(st, replayed, !traced_first);
            ratios.push_back(traced_first ? first / second : second / first);
        }
        ledger->set("obs.trace_overhead_pct", (median(ratios) - 1.0) * 100.0);
    }
    service.reset();
    for (int rep = 3; rep < out.setup_n; ++rep) {
        const Clock::time_point start = Clock::now();
        const Stream again = make_stream(args);
        const auto warm = warmed_service(again, nullptr);
        setups.push_back(ms_since(start) / 1000.0);
    }
    out.setup_s = median(setups);
    return out;
}

}  // namespace perfbench
