#include "probes.hh"

#include <algorithm>
#include <chrono>
#include <functional>
#include <vector>

#include "dsm/page.hh"
#include "dsm/proc.hh"
#include "dsm/system.hh"
#include "dsm/workload.hh"
#include "harness/runner.hh"
#include "net/mesh.hh"
#include "sim/event_queue.hh"
#include "sim/fiber.hh"
#include "sim/quantile.hh"
#include "sim/rng.hh"

namespace perfbench
{

namespace
{

using Clock = std::chrono::steady_clock;

constexpr unsigned trials = 7;

double
nsSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
}

/**
 * Median over trials of the per-item time of @p fn, which performs
 * @p items operations per call. The median, not the best, because the
 * estimate is multiplied by a count from a real run, which pays the
 * typical cost.
 */
template <typename Fn>
double
perItemNs(unsigned items, Fn &&fn)
{
    fn(); // warm caches and lazy allocations
    std::vector<double> ns;
    for (unsigned t = 0; t < trials; ++t) {
        const auto t0 = Clock::now();
        fn();
        ns.push_back(nsSince(t0) / items);
    }
    std::nth_element(ns.begin(), ns.begin() + trials / 2, ns.end());
    return ns[trials / 2];
}

double
probeEventQueue()
{
    // Rounds of 1024 pending events at near-future delays like the
    // simulator's memory, bus and hop latencies, with every 16th event
    // past the ring horizon.
    constexpr unsigned batch = 1024, rounds = 64;
    volatile std::uint64_t sink = 0;
    sim::EventQueue eq;
    return perItemNs(batch * rounds, [&] {
        for (unsigned r = 0; r < rounds; ++r) {
            for (unsigned i = 0; i < batch; ++i) {
                const sim::Cycles delay = (i % 16 == 0) ? 8192 + i : i % 97;
                eq.scheduleIn(delay, [&sink] { sink = sink + 1; });
            }
            eq.run();
        }
    });
}

double
probeFiber()
{
    constexpr unsigned n = 1 << 16;
    bool stop = false;
    sim::Fiber f([&stop] {
        while (!stop)
            sim::Fiber::yield();
    });
    const double ns = perItemNs(n, [&] {
        for (unsigned i = 0; i < n; ++i)
            f.resume();
    });
    stop = true;
    f.resume();
    return ns;
}

double
probeMesh(const ProbeShape &shape)
{
    constexpr unsigned n = 1 << 15;
    net::MeshNetwork mesh(shape.nodes, net::NetTiming{}, shape.mesh_cluster,
                          net::NetTiming{});
    std::vector<std::pair<sim::NodeId, sim::NodeId>> pairs(n);
    sim::Rng rng(7);
    for (auto &p : pairs) {
        p.first = static_cast<sim::NodeId>(rng.below(shape.nodes));
        p.second = static_cast<sim::NodeId>(rng.below(shape.nodes));
    }
    // Departures spaced so links stay lightly loaded, as in most of a
    // run; the clock keeps advancing across trials.
    sim::Tick t = 0;
    volatile sim::Tick sink = 0;
    return perItemNs(n, [&] {
        for (const auto &p : pairs) {
            t += 50;
            sink = mesh.send(t, p.first, p.second, shape.msg_bytes);
        }
    });
}

/** A page with @p dirty words modified at a uniform stride. */
struct DiffFixture
{
    dsm::PageStore store{4096, 1 << 20, 4};
    dsm::NodePage *pg = nullptr;

    DiffFixture(unsigned dirty, bool bits)
    {
        pg = &store.materialize(0);
        if (bits)
            store.armWriteBits(*pg);
        else
            store.makeTwin(*pg);
        auto *w = reinterpret_cast<std::uint32_t *>(pg->data.get());
        const unsigned stride = 1024 / dirty;
        for (unsigned i = 0; i < dirty; ++i) {
            w[i * stride] = i + 1;
            if (bits)
                dsm::PageStore::snoopWrite(*pg, i * stride);
        }
    }
};

double
probeDiff(unsigned dirty, bool bits)
{
    constexpr unsigned n = 4096;
    DiffFixture fx(std::clamp(dirty, 1u, 1024u), bits);
    dsm::Diff d;
    volatile unsigned sink = 0;
    return perItemNs(n, [&] {
        for (unsigned i = 0; i < n; ++i) {
            if (bits)
                fx.store.diffFromBits(0, *fx.pg, d);
            else
                fx.store.diffFromTwin(0, *fx.pg, d);
            sink = sink + d.words();
        }
    });
}

/**
 * Times get/put hits from inside proc 0's fiber (the access path needs
 * fiber context). The first pass faults the pages in and installs
 * write descriptors; the quantum is raised so that no flush, and thus
 * no event or fiber switch, lands inside the timed loops.
 */
class AccessProbe : public dsm::Workload
{
  public:
    static constexpr unsigned elems = 4096; // 4 pages of uint32

    std::string name() const override { return "access_probe"; }
    void plan(dsm::GlobalHeap &heap, const dsm::SysConfig &) override
    {
        base_ = heap.allocPages(elems * 4);
    }
    void validate(dsm::System &) override {}

    void
    run(dsm::Proc &p) override
    {
        if (p.id() != 0)
            return;
        for (unsigned i = 0; i < elems; ++i)
            p.put<std::uint32_t>(base_ + 4ull * i, i);
        ns = perItemNs(2 * elems, [&] {
            for (unsigned i = 0; i < elems; ++i)
                sink_ = sink_ + p.get<std::uint32_t>(base_ + 4ull * i);
            for (unsigned i = 0; i < elems; ++i)
                p.put<std::uint32_t>(base_ + 4ull * i, i);
        });
    }

    double ns = 0;

  private:
    sim::GAddr base_ = 0;
    volatile std::uint64_t sink_ = 0;
};

double
probeAccess()
{
    dsm::SysConfig cfg;
    cfg.num_procs = 2;
    cfg.heap_bytes = 1u << 20;
    cfg.time_quantum = 1ull << 40;
    AccessProbe w;
    dsm::System sys(cfg, harness::makeProtocol(cfg));
    sys.run(w);
    return w.ns;
}

double
probeSketch()
{
    constexpr unsigned n = 1 << 16;
    std::vector<std::uint64_t> v(n);
    sim::Rng rng(11);
    for (auto &x : v)
        x = 100 + rng.below(1u << 16);
    sim::QuantileSketch q;
    volatile std::uint64_t sink = 0;
    return perItemNs(n, [&] {
        for (std::uint64_t x : v)
            q.sample(x);
        sink = sink + q.quantile(1, 2);
    });
}

} // namespace

ProbeResult
runProbes(const ProbeShape &shape)
{
    ProbeResult r;
    r.event_ns = probeEventQueue();
    r.fiber_ns = probeFiber();
    r.mesh_send_ns = probeMesh(shape);
    r.diff_twin_ns = probeDiff(shape.diff_words, false);
    r.diff_bits_ns = probeDiff(shape.diff_words, true);
    r.access_hit_ns = probeAccess();
    r.sketch_add_ns = probeSketch();
    return r;
}

} // namespace perfbench
