/**
 * @file
 * The repository benchmark program. It runs one workload's fixed batch of
 * simulations back to back on one thread (a closed loop with a single
 * client: the next simulation starts when the previous one returns),
 * repeats the batch until the measuring time is used, and prints the
 * result as one JSON object on the last line of standard output.
 *
 *   perfbench --workload paper16|serve64|scale256 --seed N --seconds S
 *             --trace 0|1 --reference DIR [--spans FILE] [--record]
 *
 * --trace 0 reports the end-to-end metrics; --trace 1 adds a traced
 * pass, an oracle-checked pass and the layer probes, and reports the
 * per-layer metrics. Every simulation is checked: validate() must pass
 * and, at the default seed, a digest of its simulated output must match
 * the reference in DIR/<workload>.txt (--record rewrites that file).
 * perfbench/README.md describes the workloads and metrics.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "apps/apps.hh"
#include "apps/serve/serve.hh"
#include "dsm/system.hh"
#include "dsm/workload.hh"
#include "harness/runner.hh"
#include "probes.hh"
#include "speed.hh"
#include "sim/logging.hh"
#include "sim/quantile.hh"

namespace
{

using Clock = std::chrono::steady_clock;

/// The seed whose simulated outputs the reference digests record.
constexpr std::uint64_t default_seed = 1;
/// Trace ring size for the traced pass (24 bytes per record).
constexpr std::size_t trace_capacity = std::size_t{1} << 22;
/// A typical perfbench::calibrationOver() on the reference host, a
/// 4-vCPU Xeon VM; reported host times are corrected to that speed.
constexpr double reference_calibration_s = 0.00072;
/// CPU seconds between two host-speed samples.
constexpr double speed_interval_s = 0.05;
/// Across repeats on a shared 4-vCPU VM, a simulation's host time grew
/// as the calibration kernel's time to a power of 1.0 to 1.9, about 1.2
/// pooled over each workload's batch; the speed factor uses that power.
constexpr double speed_exponent = 1.2;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
pct(double part, double whole)
{
    return whole > 0 ? 100.0 * part / whole : 0.0;
}

// --------------------------------------------------------------------
// The workloads
// --------------------------------------------------------------------

/** One simulation of a batch. */
struct SimSpec
{
    std::string label;
    dsm::SysConfig cfg;
    std::function<std::unique_ptr<dsm::Workload>()> make;
};

dsm::SysConfig
machine(unsigned procs, const std::string &proto, std::uint64_t seed)
{
    dsm::SysConfig cfg;
    cfg.num_procs = procs;
    cfg.seed = seed;
    if (proto == "AURC") {
        cfg.protocol = dsm::ProtocolKind::aurc;
    } else if (proto == "I+P+D") {
        cfg.mode.offload = true;
        cfg.mode.prefetch = true;
        cfg.mode.hw_diffs = true;
    }
    return cfg;
}

std::vector<SimSpec>
paper16(std::uint64_t seed)
{
    std::vector<SimSpec> out;
    for (const std::string &app : apps::names()) {
        // Radix alone takes about 8 s at the paper's input; it and TSP
        // run at the small preset, the other four at the paper's inputs.
        const apps::Scale scale = app == "Radix" || app == "TSP"
                                      ? apps::Scale::small
                                      : apps::Scale::standard;
        for (const std::string proto : {"Base", "I+P+D", "AURC"}) {
            out.push_back({app + "/" + proto, machine(16, proto, seed),
                           [app, scale] { return apps::make(app, scale); }});
        }
    }
    return out;
}

std::vector<SimSpec>
serve64(std::uint64_t seed)
{
    std::vector<SimSpec> out;
    const std::pair<const char *, unsigned> runs[] = {
        {"I+P+D", 95}, {"I+P+D", 50}, {"AURC", 50}};
    for (const auto &[proto, reads] : runs) {
        apps::ServeApp::Params p;
        p.shared = true;
        p.stripes = 16;
        p.streams = 2;
        p.load.seed = seed;
        p.load.keys_log2 = 10;
        p.load.requests_per_node = 256;
        p.load.read_pct = reads;
        p.load.zipf_theta = 0.9;
        p.load.arrival = apps::serve::Arrival::poisson;
        out.push_back({std::string("Serve/") + proto + "/r=" +
                           std::to_string(reads),
                       machine(64, proto, seed),
                       [p] { return std::make_unique<apps::ServeApp>(p); }});
    }
    return out;
}

std::vector<SimSpec>
scale256(std::uint64_t seed)
{
    std::vector<SimSpec> out;
    for (const std::string app : {"Em3d", "Water"}) {
        dsm::SysConfig cfg = machine(256, "Base", seed);
        cfg.barrier_radix = 8;
        cfg.mesh_cluster = 16;
        out.push_back({app + "/Base/p=256", cfg, [app] {
                           return apps::make(app, apps::Scale::small);
                       }});
    }
    return out;
}

// --------------------------------------------------------------------
// Running one simulation
// --------------------------------------------------------------------

/**
 * Forwards to the wrapped workload and times, in CPU seconds, the two
 * host-side phases System::run performs around the event loop.
 */
class TimedWorkload : public dsm::Workload
{
  public:
    explicit TimedWorkload(dsm::Workload &w) : w_(w) {}

    std::string name() const override { return w_.name(); }

    void
    plan(dsm::GlobalHeap &heap, const dsm::SysConfig &cfg) override
    {
        const auto t0 = Clock::now();
        const double c0 = perfbench::cpuSeconds();
        w_.plan(heap, cfg);
        plan_s = perfbench::cpuSeconds() - c0;
        plan_wall_s = secondsSince(t0);
    }

    void run(dsm::Proc &p) override { w_.run(p); }

    void
    validate(dsm::System &sys) override
    {
        const double c0 = perfbench::cpuSeconds();
        w_.validate(sys);
        validate_s = perfbench::cpuSeconds() - c0;
    }

    const sim::StatGroup *statGroup() const override
    {
        return w_.statGroup();
    }
    bool pdesSafe() const override { return w_.pdesSafe(); }

    double plan_s = 0;
    double plan_wall_s = 0;
    double validate_s = 0;

  private:
    dsm::Workload &w_;
};

/** FNV-1a over the simulated outputs of a run. */
class Digest
{
  public:
    void
    bytes(const void *p, std::size_t n)
    {
        const auto *b = static_cast<const unsigned char *>(p);
        for (std::size_t i = 0; i < n; ++i) {
            h_ ^= b[i];
            h_ *= 0x100000001b3ULL;
        }
    }
    void u(std::uint64_t v) { bytes(&v, sizeof v); }
    void d(double v) { bytes(&v, sizeof v); }
    void s(const std::string &v) { bytes(v.data(), v.size() + 1); }

    void
    snapshot(const sim::StatSnapshot &g)
    {
        s(g.name);
        for (const auto &c : g.counters) {
            s(c.name);
            d(c.value);
        }
        for (const auto &a : g.accums) {
            s(a.name);
            d(a.sum);
            u(a.samples);
        }
        for (const auto &h : g.hists) {
            s(h.name);
            u(h.total);
            d(h.mean);
            d(h.max);
            for (std::uint64_t c : h.counts)
                u(c);
        }
        for (const auto &q : g.sketches) {
            s(q.name);
            for (std::uint64_t v : {q.count, q.sum, q.max, q.p50, q.p99,
                                    q.p999})
                u(v);
        }
        for (const auto &child : g.children)
            snapshot(child);
    }

    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::uint64_t
digestOf(const dsm::RunResult &r)
{
    Digest dg;
    dg.u(r.exec_ticks);
    for (const dsm::Breakdown &b : r.bd) {
        for (std::uint64_t c : b.cycles)
            dg.u(c);
        dg.u(b.diff_op_cycles);
        dg.u(b.diff_op_ctrl_cycles);
    }
    dg.u(r.net.messages);
    dg.u(r.net.bytes);
    dg.u(r.net.latency_cycles);
    dg.u(r.net.contention_cycles);
    dg.snapshot(r.stats);
    dg.snapshot(r.app_stats);
    return dg.value();
}

/** Simulated spans summarised from the event trace of one run. */
struct TraceSpans
{
    double fault_cycles = 0, faults = 0;
    double lock_cycles = 0, grants = 0;
    double msg_cycles = 0, msgs = 0;
    double epoch_cycles = 0, epochs = 0;
    double queue_depth = 0, queue_samples = 0;

    void
    add(const std::vector<sim::TraceRecord> &trace, unsigned nprocs)
    {
        std::vector<std::int64_t> fault_at(nprocs, -1), epoch_at(nprocs, -1);
        std::map<std::pair<unsigned, std::uint64_t>, sim::Tick> lock_at;
        std::int64_t send_at = -1;
        for (const sim::TraceRecord &r : trace) {
            const auto tick = static_cast<std::int64_t>(r.tick);
            switch (r.kind) {
              case sim::TraceKind::page_fault:
                fault_at[r.node] = tick;
                break;
              case sim::TraceKind::fault_done:
                if (fault_at[r.node] >= 0) {
                    fault_cycles += static_cast<double>(tick -
                                                        fault_at[r.node]);
                    ++faults;
                    fault_at[r.node] = -1;
                }
                break;
              case sim::TraceKind::lock_acquire:
                lock_at[{r.node, r.arg}] = r.tick;
                break;
              case sim::TraceKind::lock_grant: {
                const auto it = lock_at.find({r.node, r.arg});
                if (it != lock_at.end()) {
                    lock_cycles += static_cast<double>(r.tick - it->second);
                    ++grants;
                    lock_at.erase(it);
                }
                break;
              }
              case sim::TraceKind::msg_send:
                send_at = tick;
                break;
              case sim::TraceKind::msg_deliver:
                // send() emits a message's delivery right after its
                // departure; a clustered mesh may emit one per segment,
                // of which the first pairs with the departure.
                if (send_at >= 0) {
                    msg_cycles += static_cast<double>(tick - send_at);
                    ++msgs;
                    send_at = -1;
                }
                break;
              case sim::TraceKind::barrier_epoch:
                if (epoch_at[r.node] >= 0) {
                    epoch_cycles += static_cast<double>(tick -
                                                        epoch_at[r.node]);
                    ++epochs;
                }
                epoch_at[r.node] = tick;
                break;
              case sim::TraceKind::ctrl_queue:
                queue_depth += static_cast<double>(r.arg);
                ++queue_samples;
                break;
              default:
                break;
            }
        }
    }
};

/** Deterministic outputs and counters of one simulation. */
struct Counts
{
    std::uint64_t digest = 0;
    unsigned nprocs = 0;
    bool tmk = false, hw_diffs = false;
    double exec_ticks = 0, events = 0, yields = 0;
    double tlb_hits = 0, tlb_misses = 0, cache_hits = 0, cache_misses = 0;
    double wbuf_stall = 0;
    double ctrl_commands = 0, ctrl_busy = 0, ctrl_queue = 0, dma_busy = 0;
    double interrupts = 0;
    net::NetStats net;
    std::map<std::string, double> stats; ///< protocol + app counters
    dsm::Breakdown bd;
    double diff_size_mean = 0; ///< words per captured diff
    double words_checked = 0;
    double trace_records = 0;
    TraceSpans spans;

    double
    stat(const std::string &key) const
    {
        const auto it = stats.find(key);
        return it == stats.end() ? 0.0 : it->second;
    }
};

/** Host seconds of one simulation's phases, in perfbench::cpuSeconds(). */
struct Sample
{
    double ctor = 0, plan = 0, loop = 0, validate = 0, teardown = 0;
    double wall = 0; ///< wall seconds of loop, validate and teardown
    /// Host speed relative to the reference host while this simulation
    /// ran: reference calibration time over the mean calibration of the
    /// host-speed samples taken meanwhile, to the power speed_exponent.
    double speed = 1;
    Clock::time_point start;
    double cpu_begin = 0, cpu_end = 0; ///< span in cpuSeconds()

    double setup() const { return ctor + plan; }
    double host() const { return loop + validate + teardown; }
};

struct Outcome
{
    Sample t;
    Counts c;
    std::string error;
};

void
collect(dsm::System &sys, const dsm::RunResult &r, Counts &c)
{
    const dsm::SysConfig &cfg = sys.cfg();
    c.nprocs = cfg.num_procs;
    c.tmk = cfg.protocol == dsm::ProtocolKind::treadmarks;
    c.hw_diffs = c.tmk && cfg.mode.hw_diffs;
    c.exec_ticks = static_cast<double>(r.exec_ticks);
    for (unsigned i = 0; i < cfg.num_procs; ++i) {
        dsm::Node &n = sys.node(i);
        c.events += static_cast<double>(sys.sched().queue(i).executed());
        c.yields += static_cast<double>(n.cpu.yields());
        c.tlb_hits += static_cast<double>(n.tlb.hits());
        c.tlb_misses += static_cast<double>(n.tlb.misses());
        c.cache_hits += static_cast<double>(n.cache.hits());
        c.cache_misses += static_cast<double>(n.cache.misses());
        c.wbuf_stall += static_cast<double>(n.wbuf.stallCycles());
        c.ctrl_commands += static_cast<double>(n.controller.commandsRun());
        c.ctrl_busy += static_cast<double>(n.controller.coreBusyCycles());
        c.ctrl_queue += static_cast<double>(n.controller.queueCycles());
        c.dma_busy += static_cast<double>(n.controller.dmaBusyCycles());
        c.interrupts += static_cast<double>(n.cpu.interrupts());
    }
    c.net = r.net;
    c.stats = r.stats.flat();
    for (const auto &[k, v] : r.app_stats.flat())
        c.stats[k] = v;
    c.bd = r.total();
    for (const auto &h : r.stats.hists)
        if (h.name == "diff_size")
            c.diff_size_mean = h.mean;
    c.digest = digestOf(r);
    if (check::LrcOracle *o = sys.oracle())
        c.words_checked = static_cast<double>(o->wordsChecked());
    if (!r.trace.empty()) {
        c.trace_records = static_cast<double>(r.trace.size()) +
                          static_cast<double>(r.trace_dropped);
        c.spans.add(r.trace, cfg.num_procs);
    }
}

/**
 * Build, run, check and tear down one simulation, timing each phase.
 * Serving runs also merge their request-latency sketch into @p latency.
 */
Outcome
runSim(const SimSpec &spec, bool trace, bool check,
       sim::QuantileSketch *latency)
{
    Outcome o;
    dsm::SysConfig cfg = spec.cfg;
    cfg.trace_capacity = trace ? trace_capacity : 0;
    cfg.check = check;

    o.t.start = Clock::now();
    const double c0 = perfbench::cpuSeconds();
    o.t.cpu_begin = c0;
    std::unique_ptr<dsm::Workload> w = spec.make();
    TimedWorkload tw(*w);
    auto sys = std::make_unique<dsm::System>(cfg, harness::makeProtocol(cfg));
    o.t.ctor = perfbench::cpuSeconds() - c0;

    const auto t1 = Clock::now();
    const double c1 = perfbench::cpuSeconds();
    try {
        const dsm::RunResult r = sys->run(tw);
        const double run_s = perfbench::cpuSeconds() - c1;
        o.t.wall = secondsSince(t1) - tw.plan_wall_s;
        o.t.plan = tw.plan_s;
        o.t.validate = tw.validate_s;
        o.t.loop = run_s - tw.plan_s - tw.validate_s;
        collect(*sys, r, o.c);
        if (latency)
            if (const auto *s = dynamic_cast<apps::ServeApp *>(w.get()))
                latency->merge(s->latencySketch());
    } catch (const std::exception &e) {
        o.error = e.what();
    }

    const auto t2 = Clock::now();
    const double c2 = perfbench::cpuSeconds();
    sys.reset();
    o.t.cpu_end = perfbench::cpuSeconds();
    o.t.teardown = o.t.cpu_end - c2;
    o.t.wall += secondsSince(t2);
    return o;
}

// --------------------------------------------------------------------
// The batch
// --------------------------------------------------------------------

using Reference = std::map<std::string, std::uint64_t>;

Reference
loadReference(const std::string &path)
{
    Reference ref;
    std::ifstream is(path);
    std::string label, hex;
    while (is >> label >> hex)
        ref[label] = std::stoull(hex, nullptr, 16);
    return ref;
}

/** All runs of every simulation of the batch, plus the failure tally. */
struct BatchRuns
{
    std::vector<std::vector<Sample>> samples; ///< [sim][rep]
    std::vector<Counts> counts;               ///< [sim], first rep
    sim::QuantileSketch latency;              ///< serving requests, rep 0
    unsigned attempted = 0;
    unsigned failed = 0;
    double wall_s = 0;

    double
    medianOf(std::size_t sim, double (*f)(const Sample &)) const
    {
        std::vector<double> v;
        for (const Sample &s : samples[sim])
            v.push_back(f(s));
        return median(v);
    }

    /** Sum over the batch of each simulation's median of @p f. */
    double
    total(double (*f)(const Sample &)) const
    {
        double t = 0;
        for (std::size_t i = 0; i < samples.size(); ++i)
            t += medianOf(i, f);
        return t;
    }
};

class Checker
{
  public:
    Checker(const Reference *ref, bool record) : ref_(ref), record_(record)
    {
    }

    /** True when @p o passed validate() and matched its digests. */
    bool
    ok(const SimSpec &spec, const Outcome &o)
    {
        if (!o.error.empty()) {
            std::cout << "FAIL " << spec.label << ": " << o.error << "\n";
            return false;
        }
        // Every repeat of a simulation must reproduce the first.
        const auto [it, fresh] = seen_.emplace(spec.label, o.c.digest);
        if (!fresh && it->second != o.c.digest) {
            std::cout << "FAIL " << spec.label
                      << ": simulated output differs between repeats\n";
            return false;
        }
        if (!ref_ || record_)
            return true;
        const auto r = ref_->find(spec.label);
        if (r == ref_->end() || r->second != o.c.digest) {
            std::cout << "FAIL " << spec.label
                      << ": digest differs from the reference\n";
            return false;
        }
        return true;
    }

  private:
    const Reference *ref_;
    bool record_;
    std::map<std::string, std::uint64_t> seen_; ///< first digest per label
};

/**
 * Run the batch @p min_reps times, then again while another whole batch
 * still fits in @p seconds; optionally with tracing or the oracle on.
 */
BatchRuns
runBatch(const std::vector<SimSpec> &specs, double seconds,
         unsigned min_reps, bool trace, bool check, Checker &checker)
{
    BatchRuns b;
    b.samples.resize(specs.size());
    b.counts.resize(specs.size());
    const auto t0 = Clock::now();
    perfbench::startSpeedSampling(speed_interval_s);
    for (unsigned rep = 0;
         rep < min_reps || secondsSince(t0) * (rep + 1) / rep <= seconds;
         ++rep) {
        for (std::size_t i = 0; i < specs.size(); ++i) {
            Outcome o = runSim(specs[i], trace, check,
                               rep == 0 ? &b.latency : nullptr);
            ++b.attempted;
            if (!checker.ok(specs[i], o))
                ++b.failed;
            if (rep == 0)
                b.counts[i] = o.c;
            b.samples[i].push_back(o.t);
        }
    }
    // Let one more sample land after the last simulation, for a last
    // simulation too short to contain one.
    const double last = perfbench::cpuSeconds();
    volatile std::uint64_t spin = 0;
    while (perfbench::cpuSeconds() < last + speed_interval_s)
        spin = spin + 1;
    perfbench::stopSpeedSampling();
    for (auto &sims : b.samples) {
        for (Sample &s : sims) {
            const double c =
                perfbench::calibrationOver(s.cpu_begin, s.cpu_end);
            s.speed = c > 0 ? std::pow(reference_calibration_s / c,
                                       speed_exponent)
                            : 1.0;
        }
    }
    b.wall_s = secondsSince(t0);
    return b;
}

// --------------------------------------------------------------------
// Output
// --------------------------------------------------------------------

class Metrics
{
  public:
    void
    add(const std::string &name, double value, const std::string &unit)
    {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.10g", value);
        if (!body_.empty())
            body_ += ", ";
        body_ += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" +
                 unit + "\"}";
    }

    const std::string &json() const { return body_; }

  private:
    std::string body_;
};

double
peakRssMb()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

double ctorOf(const Sample &s) { return s.ctor; }
double planOf(const Sample &s) { return s.plan; }
double loopOf(const Sample &s) { return s.loop; }
double validateOf(const Sample &s) { return s.validate; }
double teardownOf(const Sample &s) { return s.teardown; }
double hostOf(const Sample &s) { return s.host(); }
double wallOf(const Sample &s) { return s.wall; }
// Host times corrected to the reference host's speed (see Sample).
double setupRefOf(const Sample &s) { return s.setup() * s.speed; }
double hostRefOf(const Sample &s) { return s.host() * s.speed; }

void
endToEnd(Metrics &m, const BatchRuns &b)
{
    double mcycles = 0;
    for (const Counts &c : b.counts)
        mcycles += c.exec_ticks / 1e6;
    m.add("host_s", b.total(hostRefOf), "s");
    m.add("setup_s", b.total(setupRefOf), "s");
    m.add("peak_rss_mb", peakRssMb(), "MB");
    m.add("sim_mcycles", mcycles, "Mcycles");
}

/** I+P+D as % of Base for the four apps run at the paper's inputs. */
void
printAccuracy(const std::vector<SimSpec> &specs, const BatchRuns &b)
{
    const std::pair<const char *, double> paper[] = {
        {"Water", 89}, {"Barnes", 71}, {"Em3d", 57}, {"Ocean", 49}};
    std::map<std::string, double> ticks;
    for (std::size_t i = 0; i < specs.size(); ++i)
        ticks[specs[i].label] = b.counts[i].exec_ticks;
    std::cout << "accuracy (not gated): I+P+D execution time as % of Base, "
                 "16 nodes, paper inputs\n";
    std::printf("  %-8s %8s %8s %8s\n", "app", "sim", "paper", "diff");
    for (const auto &[app, ref] : paper) {
        const double base = ticks[std::string(app) + "/Base"];
        const double ipd = ticks[std::string(app) + "/I+P+D"];
        const double sim = pct(ipd, base);
        std::printf("  %-8s %8.1f %8.0f %+8.1f\n", app, sim, ref, sim - ref);
    }
    std::cout << "  every other simulated figure in this benchmark is "
                 "unvalidated against the paper\n";
}

/** Counters summed over the batch (first repeat of each simulation). */
double
sum(const BatchRuns &b, const std::function<double(const Counts &)> &f)
{
    double t = 0;
    for (const Counts &c : b.counts)
        t += f(c);
    return t;
}

void
perLayer(Metrics &m, const BatchRuns &b,
         const BatchRuns &traced, const BatchRuns &checked,
         const perfbench::ProbeResult &pr)
{
    auto S = [&b](const char *key) {
        return sum(b, [key](const Counts &c) { return c.stat(key); });
    };
    const double loop_s = b.total(loopOf);
    const double host_s = b.total(hostRefOf);
    std::vector<double> speeds;
    for (const auto &sims : b.samples)
        for (const Sample &s : sims)
            speeds.push_back(s.speed);

    m.add("host.wall_s", b.total(wallOf), "s");
    m.add("host.speed_factor", median(speeds), "ratio");

    m.add("setup.system_ctor_s", b.total(ctorOf), "s");
    m.add("setup.plan_s", b.total(planOf), "s");
    m.add("dsm.teardown_s", b.total(teardownOf), "s");
    m.add("apps.validate_s", b.total(validateOf), "s");

    const double events = sum(b, [](const Counts &c) { return c.events; });
    const double yields = sum(b, [](const Counts &c) { return c.yields; });
    m.add("sim.loop_s", loop_s, "s");
    m.add("sim.events", events, "count");
    m.add("sim.host_ns_per_event", events > 0 ? loop_s * 1e9 / events : 0,
          "ns");
    m.add("sim.fiber_switches", yields, "count");

    const double tlb_hits = sum(b, [](const Counts &c) { return c.tlb_hits; });
    const double tlb_miss =
        sum(b, [](const Counts &c) { return c.tlb_misses; });
    const double c_hits = sum(b, [](const Counts &c) { return c.cache_hits; });
    const double c_miss =
        sum(b, [](const Counts &c) { return c.cache_misses; });
    m.add("mem.tlb_miss_pct", pct(tlb_miss, tlb_hits + tlb_miss), "%");
    m.add("mem.cache_miss_pct", pct(c_miss, c_hits + c_miss), "%");
    m.add("mem.wbuf_stall_cycles",
          sum(b, [](const Counts &c) { return c.wbuf_stall; }), "cycles");

    const double accesses = tlb_hits + tlb_miss;
    m.add("dsm.shared_accesses", accesses, "count");
    m.add("dsm.faults",
          S("tmk.read_faults") + S("tmk.write_faults") +
              S("aurc.page_fetches") + S("aurc.write_faults"),
          "count");
    m.add("dsm.page_fetches", S("tmk.page_fetches") + S("aurc.page_fetches"),
          "count");
    m.add("dsm.diffs_created", S("tmk.diffs_created"), "count");
    m.add("dsm.diffs_applied", S("tmk.diffs_applied"), "count");
    m.add("dsm.diff_words", S("tmk.diff_words"), "count");
    m.add("dsm.twins", S("tmk.twins"), "count");
    m.add("dsm.invalidations",
          S("tmk.invalidations") + S("aurc.invalidations"), "count");

    m.add("tmk.intervals", S("tmk.intervals"), "count");
    m.add("tmk.write_notices", S("tmk.write_notices"), "count");
    m.add("tmk.barriers", S("tmk.barriers") + S("aurc.barriers"), "count");
    m.add("tmk.lock_acquires", S("tmk.lock_acquires") + S("aurc.lock_acquires"),
          "count");
    m.add("tmk.lock_fast_grant_pct",
          pct(S("tmk.lock_fast_grants"), S("tmk.lock_acquires")), "%");
    m.add("tmk.prefetch_useful_pct",
          pct(S("tmk.prefetches") - S("tmk.prefetches_useless"),
              S("tmk.prefetches")),
          "%");
    m.add("tmk.stale_shipments_dropped", S("tmk.stale_shipments_dropped"),
          "count");

    m.add("aurc.updates_sent", S("aurc.updates_sent"), "count");
    m.add("aurc.update_words", S("aurc.update_words"), "count");
    // Every write-cache miss claims a slot that later leaves as one
    // update, so hits + updates approximates the stores pushed.
    m.add("aurc.wcache_hit_pct",
          pct(S("aurc.wcache_hits"),
              S("aurc.wcache_hits") + S("aurc.updates_sent")),
          "%");
    m.add("aurc.pair_replacements", S("aurc.pair_replacements"), "count");
    m.add("aurc.updates_dropped",
          S("aurc.updates_dropped_absent") + S("aurc.updates_stamp_rejected"),
          "count");

    const double node_cycles =
        sum(b, [](const Counts &c) { return c.exec_ticks * c.nprocs; });
    m.add("ctrl.commands",
          sum(b, [](const Counts &c) { return c.ctrl_commands; }), "count");
    m.add("ctrl.core_busy_pct",
          pct(sum(b, [](const Counts &c) { return c.ctrl_busy; }),
              node_cycles),
          "%");
    m.add("ctrl.queue_cycles",
          sum(b, [](const Counts &c) { return c.ctrl_queue; }), "cycles");
    m.add("ctrl.dma_busy_cycles",
          sum(b, [](const Counts &c) { return c.dma_busy; }), "cycles");
    m.add("cpu.interrupts",
          sum(b, [](const Counts &c) { return c.interrupts; }), "count");

    const double msgs = sum(
        b, [](const Counts &c) { return static_cast<double>(c.net.messages); });
    const double lat = sum(b, [](const Counts &c) {
        return static_cast<double>(c.net.latency_cycles);
    });
    m.add("net.messages", msgs, "count");
    m.add("net.kbytes",
          sum(b, [](const Counts &c) {
              return static_cast<double>(c.net.bytes);
          }) / 1024.0,
          "KB");
    m.add("net.mean_latency_cycles", msgs > 0 ? lat / msgs : 0, "cycles");
    m.add("net.contention_pct",
          pct(sum(b, [](const Counts &c) {
                  return static_cast<double>(c.net.contention_cycles);
              }),
              lat),
          "%");
    m.add("net.host_ns_per_message", msgs > 0 ? loop_s * 1e9 / msgs : 0,
          "ns");

    const double reqs = S("serve.requests");
    const double svc = S("serve.service_cycles");
    m.add("serve.requests", reqs, "count");
    m.add("serve.queue_delay_mean",
          reqs > 0 ? S("serve.queue_delay_cycles") / reqs : 0, "cycles");
    m.add("serve.service_mean", reqs > 0 ? svc / reqs : 0, "cycles");
    m.add("serve.svc_busy_pct", pct(S("serve.svc_busy_cycles"), svc), "%");
    m.add("serve.svc_data_pct", pct(S("serve.svc_data_cycles"), svc), "%");
    m.add("serve.svc_synch_pct", pct(S("serve.svc_synch_cycles"), svc), "%");
    m.add("serve.svc_ipc_pct", pct(S("serve.svc_ipc_cycles"), svc), "%");
    m.add("sim_p50_cycles", static_cast<double>(b.latency.quantile(1, 2)),
          "cycles");
    m.add("sim_p999_cycles",
          static_cast<double>(b.latency.quantile(999, 1000)), "cycles");

    const double words =
        sum(checked, [](const Counts &c) { return c.words_checked; });
    const double checked_s = checked.total(hostRefOf);
    m.add("check.words_checked", words, "count");
    m.add("check.overhead_pct", pct(checked_s - host_s, host_s), "%");
    m.add("check.host_ns_per_word",
          words > 0 ? (checked_s - host_s) * 1e9 / words : 0, "ns");
    m.add("trace.records",
          sum(traced, [](const Counts &c) { return c.trace_records; }),
          "count");
    m.add("trace.overhead_pct", pct(traced.total(hostRefOf) - host_s, host_s),
          "%");

    TraceSpans sp;
    for (const Counts &c : traced.counts) {
        sp.fault_cycles += c.spans.fault_cycles;
        sp.faults += c.spans.faults;
        sp.lock_cycles += c.spans.lock_cycles;
        sp.grants += c.spans.grants;
        sp.msg_cycles += c.spans.msg_cycles;
        sp.msgs += c.spans.msgs;
        sp.epoch_cycles += c.spans.epoch_cycles;
        sp.epochs += c.spans.epochs;
        sp.queue_depth += c.spans.queue_depth;
        sp.queue_samples += c.spans.queue_samples;
    }
    auto mean = [](double s, double n) { return n > 0 ? s / n : 0.0; };
    m.add("span.fault_mean_cycles", mean(sp.fault_cycles, sp.faults),
          "cycles");
    m.add("span.lock_wait_mean_cycles", mean(sp.lock_cycles, sp.grants),
          "cycles");
    m.add("span.msg_mean_cycles", mean(sp.msg_cycles, sp.msgs), "cycles");
    m.add("span.barrier_epoch_mean_cycles",
          mean(sp.epoch_cycles, sp.epochs), "cycles");
    m.add("span.ctrl_queue_mean_depth",
          mean(sp.queue_depth, sp.queue_samples), "count");

    const dsm::Breakdown bd = [&b] {
        dsm::Breakdown t;
        for (const Counts &c : b.counts)
            t += c.bd;
        return t;
    }();
    const double bd_total = static_cast<double>(
        bd.get(dsm::Cat::busy) + bd.get(dsm::Cat::data) +
        bd.get(dsm::Cat::synch) + bd.get(dsm::Cat::ipc) + bd.others());
    auto bdp = [&](std::uint64_t v) {
        return pct(static_cast<double>(v), bd_total);
    };
    m.add("bd.busy_pct", bdp(bd.get(dsm::Cat::busy)), "%");
    m.add("bd.data_pct", bdp(bd.get(dsm::Cat::data)), "%");
    m.add("bd.synch_pct", bdp(bd.get(dsm::Cat::synch)), "%");
    m.add("bd.ipc_pct", bdp(bd.get(dsm::Cat::ipc)), "%");
    m.add("bd.others_pct", bdp(bd.others()), "%");

    m.add("probe.event_ns", pr.event_ns, "ns");
    m.add("probe.fiber_switch_ns", pr.fiber_ns, "ns");
    m.add("probe.mesh_send_ns", pr.mesh_send_ns, "ns");
    m.add("probe.diff_twin_ns", pr.diff_twin_ns, "ns");
    m.add("probe.diff_bits_ns", pr.diff_bits_ns, "ns");
    m.add("probe.access_hit_ns", pr.access_hit_ns, "ns");
    m.add("probe.sketch_add_ns", pr.sketch_add_ns, "ns");

    // Outside-in layer profile: probe cost times the run's count of
    // that operation, as a share of the event loop.
    const double twin_diffs = sum(b, [](const Counts &c) {
        return c.tmk && !c.hw_diffs ? c.stat("tmk.diffs_created") : 0.0;
    });
    const double bit_diffs = sum(b, [](const Counts &c) {
        return c.hw_diffs ? c.stat("tmk.diffs_created") : 0.0;
    });
    const double loop_ns = loop_s * 1e9;
    const std::pair<const char *, double> est[] = {
        {"est.event_queue_pct", events * pr.event_ns},
        {"est.fiber_pct", yields * pr.fiber_ns},
        {"est.mesh_pct", msgs * pr.mesh_send_ns},
        {"est.diff_pct",
         twin_diffs * pr.diff_twin_ns + bit_diffs * pr.diff_bits_ns},
        {"est.access_pct", accesses * pr.access_hit_ns},
        // Each served request samples three per-node sketches.
        {"est.sketch_pct", 3 * reqs * pr.sketch_add_ns},
    };
    double attributed = 0;
    for (const auto &[name, ns] : est) {
        m.add(name, pct(ns, loop_ns), "%");
        attributed += pct(ns, loop_ns);
    }
    m.add("est.unattributed_pct", 100.0 - attributed, "%");
}

/**
 * Host spans of every simulation, as Chrome trace events. Each
 * simulation's spans start at its wall-clock start and last the CPU
 * seconds of their phases.
 */
void
writeSpans(const std::string &path, const std::vector<SimSpec> &specs,
           const BatchRuns &b, Clock::time_point origin)
{
    std::ofstream os(path);
    os << std::fixed << std::setprecision(3) << "{\"traceEvents\": [";
    bool first = true;
    auto span = [&](const std::string &name, const std::string &sim,
                    double start_s, double dur_s) {
        os << (first ? "\n" : ",\n") << "{\"name\": \"" << name
           << "\", \"cat\": \"" << sim << "\", \"ph\": \"X\", \"pid\": 0, "
           << "\"tid\": 0, \"ts\": " << start_s * 1e6
           << ", \"dur\": " << dur_s * 1e6 << "}";
        first = false;
    };
    for (std::size_t i = 0; i < specs.size(); ++i) {
        for (const Sample &s : b.samples[i]) {
            double t = std::chrono::duration<double>(s.start - origin).count();
            span("simulation", specs[i].label, t,
                 s.ctor + s.plan + s.loop + s.validate + s.teardown);
            span("system_ctor", specs[i].label, t, s.ctor);
            t += s.ctor;
            span("plan", specs[i].label, t, s.plan);
            t += s.plan;
            span("event_loop", specs[i].label, t, s.loop);
            t += s.loop;
            span("validate", specs[i].label, t, s.validate);
            t += s.validate;
            span("teardown", specs[i].label, t, s.teardown);
        }
    }
    os << "\n]}\n";
}

struct Args
{
    std::string workload;
    std::uint64_t seed = default_seed;
    double seconds = 10;
    bool trace = false;
    std::string reference;
    std::string spans;
    bool record = false;
};

[[noreturn]] void
usage(const char *msg)
{
    std::cerr << "perfbench: " << msg
              << "\nusage: perfbench --workload paper16|serve64|scale256 "
                 "--seed N --seconds S --trace 0|1 --reference DIR "
                 "[--spans FILE] [--record]\n";
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        if (k == "--record") {
            a.record = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(("missing value for " + k).c_str());
        const std::string v = argv[++i];
        try {
            if (k == "--workload")
                a.workload = v;
            else if (k == "--seed")
                a.seed = std::stoull(v);
            else if (k == "--seconds")
                a.seconds = std::stod(v);
            else if (k == "--trace")
                a.trace = std::stoi(v) != 0;
            else if (k == "--reference")
                a.reference = v;
            else if (k == "--spans")
                a.spans = v;
            else
                usage(("unknown option " + k).c_str());
        } catch (const std::logic_error &) {
            usage(("bad value for " + k).c_str());
        }
    }
    if (a.reference.empty())
        usage("--reference is required");
    return a;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    sim::setQuiet(true);

    std::vector<SimSpec> specs;
    if (args.workload == "paper16")
        specs = paper16(args.seed);
    else if (args.workload == "serve64")
        specs = serve64(args.seed);
    else if (args.workload == "scale256")
        specs = scale256(args.seed);
    else
        usage("unknown workload");

    // The reference digests hold for the default seed only.
    const std::string ref_path =
        args.reference + "/" + args.workload + ".txt";
    const Reference ref = loadReference(ref_path);
    const bool at_default = args.seed == default_seed;
    Checker checker(at_default ? &ref : nullptr, args.record);

    const auto origin = Clock::now();
    // Three repeats at least, so every simulation's host time is a
    // median of three or more.
    const BatchRuns b =
        runBatch(specs, args.seconds, 3, false, false, checker);
    unsigned attempted = b.attempted, failed = b.failed;

    std::cout << args.workload << ": " << specs.size() << " simulations x "
              << b.samples[0].size() << " repeats in " << b.wall_s
              << " s (seed " << args.seed << "); host wall "
              << b.total(wallOf) << " s, CPU " << b.total(hostOf)
              << " s, corrected " << b.total(hostRefOf) << " s\n";
    for (std::size_t i = 0; i < specs.size(); ++i) {
        std::printf("  %-24s host %8.4f s  setup %8.4f s  exec %12.0f "
                    "cycles  digest %016" PRIx64 "\n",
                    specs[i].label.c_str(), b.medianOf(i, hostRefOf),
                    b.medianOf(i, setupRefOf), b.counts[i].exec_ticks,
                    b.counts[i].digest);
    }
    if (args.workload == "paper16")
        printAccuracy(specs, b);

    if (args.record) {
        if (!at_default)
            usage("--record needs the default seed");
        std::ofstream os(ref_path);
        for (std::size_t i = 0; i < specs.size(); ++i) {
            char hex[17];
            std::snprintf(hex, sizeof hex, "%016" PRIx64, b.counts[i].digest);
            os << specs[i].label << " " << hex << "\n";
        }
        std::cout << "recorded " << ref_path << "\n";
    }

    Metrics m;
    if (!args.trace) {
        endToEnd(m, b);
    } else {
        const BatchRuns traced =
            runBatch(specs, 0, 1, true, false, checker);
        const BatchRuns checked =
            runBatch(specs, 0, 1, false, true, checker);
        attempted += traced.attempted + checked.attempted;
        failed += traced.failed + checked.failed;

        perfbench::ProbeShape shape;
        shape.nodes = specs[0].cfg.num_procs;
        shape.mesh_cluster = specs[0].cfg.mesh_cluster;
        double msgs = 0, bytes = 0, diffs = 0, diff_words = 0;
        for (const Counts &c : b.counts) {
            msgs += static_cast<double>(c.net.messages);
            bytes += static_cast<double>(c.net.bytes);
            diffs += c.stat("tmk.diffs_created");
            diff_words += c.diff_size_mean * c.stat("tmk.diffs_created");
        }
        if (msgs > 0)
            shape.msg_bytes = static_cast<unsigned>(bytes / msgs + 0.5);
        if (diffs > 0)
            shape.diff_words = static_cast<unsigned>(diff_words / diffs + 0.5);
        const perfbench::ProbeResult pr = perfbench::runProbes(shape);
        perLayer(m, b, traced, checked, pr);
        if (!args.spans.empty())
            writeSpans(args.spans, specs, b, origin);
    }

    std::cout << "{\"correct\": " << (failed == 0 ? "true" : "false")
              << ", \"attempted\": " << attempted
              << ", \"failed\": " << failed << ", \"metrics\": {" << m.json()
              << "}}" << std::endl;
    return 0;
}
