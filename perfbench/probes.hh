/**
 * @file
 * Layer probes for the outside-in host profile: host nanoseconds per
 * call of each simulator layer's hot operation, measured in isolation
 * on the geometry and sizes of the workload being profiled. bench.cc
 * multiplies each by the run's matching count to estimate that layer's
 * share of the event loop.
 */

#ifndef NCP2_PERFBENCH_PROBES_HH
#define NCP2_PERFBENCH_PROBES_HH

#include <cstdint>

namespace perfbench
{

/** What the probes need to know about the profiled workload. */
struct ProbeShape
{
    unsigned nodes = 16;         ///< mesh size
    unsigned mesh_cluster = 0;   ///< SysConfig::mesh_cluster
    unsigned msg_bytes = 64;     ///< mean payload per message
    unsigned diff_words = 64;    ///< mean words per captured diff
};

/** Host nanoseconds per call; each is the median of several trials. */
struct ProbeResult
{
    double event_ns = 0;      ///< EventQueue schedule + dispatch
    double fiber_ns = 0;      ///< Fiber resume + yield pair
    double mesh_send_ns = 0;  ///< MeshNetwork::send
    double diff_twin_ns = 0;  ///< PageStore::diffFromTwin
    double diff_bits_ns = 0;  ///< PageStore::diffFromBits
    double access_hit_ns = 0; ///< warmed Proc get/put (mean of the two)
    double sketch_add_ns = 0; ///< QuantileSketch::sample
};

ProbeResult runProbes(const ProbeShape &shape);

} // namespace perfbench

#endif // NCP2_PERFBENCH_PROBES_HH
