/**
 * @file
 * Host-speed sampling. On a shared host the simulator's speed drifts by
 * up to 1.7x within a second, with contention from other tenants for
 * the cores the host's virtual CPUs run on, and each virtual CPU drifts
 * on its own. The benchmark samples the host's speed while it runs:
 * every few tens of milliseconds of CPU time a SIGPROF handler times a
 * fixed calibration kernel of about 0.7 ms. The kernel calls no
 * simulator code, so a faster simulator does not make it faster. A
 * simulation's speed is the mean of the samples taken while it ran,
 * and the handler's own CPU time is taken out of every host time. When
 * a sample runs well below the fastest speed seen, the handler also
 * moves the thread to the next CPU it may run on, so that the thread
 * spends most of its time on a quiet one.
 */

#ifndef NCP2_PERFBENCH_SPEED_HH
#define NCP2_PERFBENCH_SPEED_HH

namespace perfbench
{

/**
 * Starts sampling every @p interval_s seconds of process CPU time. The
 * samples of an earlier sampling period are discarded.
 */
void startSpeedSampling(double interval_s);

/**
 * Stops sampling and lets the thread run on any allowed CPU again; the
 * samples taken stay available.
 */
void stopSpeedSampling();

/**
 * CPU seconds used so far by the calling thread, less the time spent in
 * the sampling handler. Unlike wall time, CPU time leaves out the time
 * the thread waits for a core. This is the clock of every host time the
 * benchmark reports except host.wall_s, and the time axis of the
 * samples. The simulator's default executor runs on the calling thread.
 */
double cpuSeconds();

/**
 * Calibration kernel seconds over the span [@p begin, @p end] of
 * cpuSeconds(): the mean over the samples taken in that span or, when
 * there are none, over the last one before it and the first one after
 * it. Returns 0 when no sample exists at all.
 */
double calibrationOver(double begin, double end);

} // namespace perfbench

#endif // NCP2_PERFBENCH_SPEED_HH
