// Host-speed probe. The benchmark shares its host with other tenants, whose
// load changes how fast the same code runs by tens of percent over minutes.
// Timed runs measure a fixed kernel next to the workload and report times
// scaled to a reference host speed, so that drift cancels and a change to the
// simulator does not.
#pragma once

#include <cstddef>

namespace perfbench {

/// The probe's time on the reference host (the 4-vCPU Xeon VM the benchmark
/// was written on, at four threads). Scaled times are in seconds of a host
/// on which host_probe_s() returns this.
inline constexpr double kReferenceProbeS = 0.07;

/// Run the probe kernel on `threads` threads at once and return the median
/// thread's wall time. The kernel is a hold loop on a binary min-heap of
/// 8192 keys (the shape of an event queue's work) fed by splitmix64, and
/// calls no simulator code.
double host_probe_s(std::size_t threads);

}  // namespace perfbench
