// The benchmark's two workloads: the specs each one runs, how they fan
// out, and the checks every simulated result must pass.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "scenario/spec.hpp"

namespace perfbench {

enum class Workload { kLossLoadSweep, kMultihopPdes4 };

/// Parse a --workload name; false on an unknown one.
bool parse_workload(std::string_view name, Workload& out);
const char* workload_name(Workload w);

/// What a workload runs: one run_scenario call per spec, fanned over
/// `threads` SweepRunner threads (1 = a plain serial loop).
struct Plan {
  std::vector<eac::scenario::ScenarioSpec> specs;
  std::vector<std::string> labels;  ///< one per spec ("drop-inband/0.01", ...)
  std::size_t threads = 1;
};

/// Build the workload's specs from the workload seed. `horizon_scale`
/// multiplies every duration and warm-up (1 for measured runs, small for
/// the smoke test).
Plan make_plan(Workload w, std::uint64_t seed, double horizon_scale);

/// The same specs cut to a near-zero horizon: build, routes, partition,
/// prewarm and teardown, with almost no simulated time.
Plan setup_plan(const Plan& plan);

/// Outcome of checking one run_scenario call.
struct Check {
  bool ok = true;
  std::string reason;       ///< first broken invariant; empty when ok
  std::uint64_t hash = 0;   ///< fingerprint of the deterministic fields
};

/// Check one result's invariants (data_received <= data_sent plus the
/// packets in flight when the measurement window opens, accepts <=
/// attempts, admission-link utilization in (0, 1], at least one event) and
/// fingerprint its deterministic fields: to_json of the result with every
/// observational block cleared.
Check check_result(const eac::scenario::ScenarioSpec& spec,
                   const eac::scenario::ScenarioResult& res);

/// Fold per-call fingerprints, in spec order, into one workload hash.
std::uint64_t combine(const std::vector<Check>& checks);

/// Lowercase 16-digit hex.
std::string hex(std::uint64_t v);

/// Logical CPUs this process may run on (what nproc reports).
std::size_t usable_cpus();

}  // namespace perfbench
