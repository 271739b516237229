// Per-layer cost probes: each times calls into one layer's public functions
// from outside the program, on inputs matched to a workload. Every probe
// returns the median over several batches or calls.
#pragma once

#include <cstddef>
#include <cstdint>

#include "scenario/spec.hpp"

namespace perfbench {

/// The spec's first admission-controlled link (its first link if none is).
const eac::scenario::LinkSpec& admission_link(
    const eac::scenario::ScenarioSpec& spec);

/// sim: Simulator::schedule_after + run in the hold model — every executed
/// event schedules one successor — at a constant pending-set `depth`.
double hold_ns(std::size_t depth, std::uint64_t seed);

/// net: one QueueDisc::enqueue + dequeue pair on the admission queue the
/// builder gives `spec`'s admission link (two-band strict priority, wrapped in
/// the virtual-queue marker for marking designs), held half full of
/// packets of the spec's size, one in ten of them a probe.
double ac_queue_ns(const eac::scenario::ScenarioSpec& spec);

/// traffic: one exponential draw from RandomStream (`compact` false) or
/// CompactRandomStream (`compact` true).
double draw_ns(bool compact, std::uint64_t seed);

/// eac: one FlowTable::release + allocate pair at a steady `population`.
double flow_table_ns(std::size_t population, std::uint64_t seed);

/// mbac: one MeasuredSumEstimator::fits call on a link of `rate_bps`.
double fits_ns(double rate_bps);

/// scenario: one partition_spec call at the spec's requested domain count,
/// in seconds.
double partition_s(const eac::scenario::ScenarioSpec& spec);

}  // namespace perfbench
