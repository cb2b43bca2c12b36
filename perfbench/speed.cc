#include "speed.hh"

#include <sched.h>
#include <signal.h>
#include <sys/time.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdint>

namespace perfbench
{

namespace
{

/// Kernel steps per sample, about 0.7 ms on a 4-vCPU Xeon VM.
constexpr unsigned kernel_steps = 10000;
/// A sample this much slower than the fastest one so far moves the
/// thread to the next allowed CPU.
constexpr double slow_ratio = 1.12;
constexpr std::size_t max_samples = std::size_t{1} << 18;

/** One sample: when it began and how long the kernel took. */
struct SpeedSample
{
    double at = 0; ///< cpuSeconds() when the sample began
    double seconds = 0;
};

SpeedSample samples[max_samples];
std::atomic<std::size_t> sample_count{0};
/// Nanoseconds of CPU time spent in the handler so far.
std::atomic<std::int64_t> handler_ns{0};
/// Set while a handler runs, so that a second thread's handler skips
/// its sample instead of sharing the kernel's data.
std::atomic_flag sampling = ATOMIC_FLAG_INIT;

// The kernel's data. The handler allocates nothing.
constexpr unsigned heap_items = 1024;
constexpr std::size_t table_items = std::size_t{1} << 15; // 256 KB
std::uint64_t heap[heap_items];
std::uint64_t table[table_items];
std::uint64_t lcg = 1;

// The CPUs the process may run on, and the one the thread is on now.
cpu_set_t allowed;
int cpus[CPU_SETSIZE];
int ncpus = 0, current = 0;
std::int64_t fastest_ns = INT64_MAX;

/**
 * CPU time of the calling thread. The process-wide clock would not do:
 * while an ITIMER_PROF timer is armed, Linux advances it only at
 * scheduler ticks.
 */
std::int64_t
rawNs()
{
    timespec ts;
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return std::int64_t{ts.tv_sec} * 1000000000 + ts.tv_nsec;
}

/**
 * An event loop in miniature: pop the earliest of 1024 pending events
 * from a binary heap, touch a 256 KB table, and push the event back a
 * little later. Like the simulator, it is branchy integer code that
 * mostly hits the private caches.
 */
void
kernel()
{
    for (unsigned i = 0; i < kernel_steps; ++i) {
        const std::uint64_t top = heap[0];
        lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
        const std::uint64_t x = lcg;
        table[(x >> 20) & (table_items - 1)] += top & 1023;
        const std::uint64_t key =
            (top >> 10) + ((x >> 50) & 127) +
            3 * (table[(x >> 33) & (table_items - 1)] & 1);
        const std::uint64_t item = key << 10 | (top & 1023);
        unsigned pos = 0;
        for (;;) {
            unsigned c = 2 * pos + 1;
            if (c >= heap_items)
                break;
            if (c + 1 < heap_items && heap[c + 1] < heap[c])
                ++c;
            if (heap[c] >= item)
                break;
            heap[pos] = heap[c];
            pos = c;
        }
        heap[pos] = item;
    }
}

/** Moves the calling thread to the next allowed CPU. */
void
moveOn()
{
    current = (current + 1) % ncpus;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus[current], &one);
    sched_setaffinity(0, sizeof one, &one);
}

void
onSample(int)
{
    const int saved_errno = errno;
    const std::int64_t t0 = rawNs();
    const std::size_t i = sample_count.load(std::memory_order_relaxed);
    if (i < max_samples && !sampling.test_and_set()) {
        kernel();
        const std::int64_t ns = rawNs() - t0;
        samples[i].at = 1e-9 * static_cast<double>(t0 - handler_ns.load());
        samples[i].seconds = 1e-9 * static_cast<double>(ns);
        sample_count.store(i + 1, std::memory_order_release);
        fastest_ns = std::min(fastest_ns, ns);
        if (ncpus > 1 &&
            static_cast<double>(ns) > slow_ratio * static_cast<double>(fastest_ns))
            moveOn();
        sampling.clear();
    }
    handler_ns.fetch_add(rawNs() - t0);
    errno = saved_errno;
}

void
install()
{
    for (unsigned i = 0; i < heap_items; ++i)
        heap[i] = std::uint64_t{i} << 10 | i; // sorted, so a valid heap
    sched_getaffinity(0, sizeof allowed, &allowed);
    for (int c = 0; c < CPU_SETSIZE; ++c)
        if (CPU_ISSET(c, &allowed))
            cpus[ncpus++] = c;

    // The handler runs on its own stack, whichever fiber it interrupts.
    static char alt_stack[64 << 10];
    stack_t ss{};
    ss.ss_sp = alt_stack;
    ss.ss_size = sizeof alt_stack;
    sigaltstack(&ss, nullptr);

    struct sigaction sa{};
    sa.sa_handler = &onSample;
    sigemptyset(&sa.sa_mask);
    sa.sa_flags = SA_RESTART | SA_ONSTACK;
    sigaction(SIGPROF, &sa, nullptr);
}

void
setTimer(double interval_s)
{
    itimerval it{};
    const auto us = static_cast<long>(interval_s * 1e6);
    it.it_interval.tv_sec = us / 1000000;
    it.it_interval.tv_usec = us % 1000000;
    it.it_value = it.it_interval;
    setitimer(ITIMER_PROF, &it, nullptr);
}

} // namespace

void
startSpeedSampling(double interval_s)
{
    static const bool installed = (install(), true);
    (void)installed;
    sample_count.store(0);
    setTimer(interval_s);
}

void
stopSpeedSampling()
{
    setTimer(0);
    sched_setaffinity(0, sizeof allowed, &allowed);
}

double
cpuSeconds()
{
    for (;;) {
        const std::int64_t h0 = handler_ns.load();
        const std::int64_t t = rawNs();
        if (handler_ns.load() == h0)
            return 1e-9 * static_cast<double>(t - h0);
    }
}

double
calibrationOver(double begin, double end)
{
    const std::size_t n =
        std::min(sample_count.load(std::memory_order_acquire), max_samples);
    double sum = 0;
    unsigned inside = 0;
    const SpeedSample *before = nullptr, *after = nullptr;
    for (std::size_t i = 0; i < n; ++i) {
        const SpeedSample &s = samples[i];
        if (s.at < begin) {
            before = &s;
        } else if (s.at > end) {
            if (!after)
                after = &s;
        } else {
            sum += s.seconds;
            ++inside;
        }
    }
    if (inside)
        return sum / inside;
    if (before && after)
        return 0.5 * (before->seconds + after->seconds);
    if (before || after)
        return (before ? before : after)->seconds;
    return 0;
}

} // namespace perfbench
