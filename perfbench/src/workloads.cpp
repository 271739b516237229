#include "workloads.hpp"

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <thread>

#include "eac/config.hpp"
#include "scenario/report.hpp"
#include "scenario/runner.hpp"
#include "sim/random.hpp"
#include "traffic/catalog.hpp"

namespace perfbench {

using namespace eac;

namespace {

/// One EXP1 class arriving every `interarrival_s` on average and probing at
/// its token rate, as the figure benches build it.
scenario::RunConfig exp1_run(double interarrival_s, double duration_s,
                             double warmup_s, std::uint64_t seed) {
  scenario::RunConfig cfg;
  FlowClass c;
  c.arrival_rate_per_s = 1.0 / interarrival_s;
  c.onoff = traffic::exp1();
  c.packet_size = traffic::kOnOffPacketBytes;
  c.probe_rate_bps = c.onoff.burst_rate_bps;
  cfg.classes = {c};
  cfg.duration_s = duration_s;
  cfg.warmup_s = warmup_s;
  cfg.seed = seed;
  return cfg;
}

/// Figure 2: the four prototype designs over the section 3.2 epsilon grids
/// plus the Measured Sum targets, 28 independent points. Each point draws
/// its own seed from the workload seed, so the sweep's total work averages
/// over 28 independent traffic samples instead of repeating one.
void sweep_specs(Plan& p, std::uint64_t seed, double scale) {
  const scenario::RunConfig base = exp1_run(3.5, 90 * scale, 30 * scale, seed);
  struct Design {
    const char* name;
    EacConfig cfg;
  };
  const Design designs[] = {{"drop-inband", drop_in_band()},
                            {"drop-outofband", drop_out_of_band()},
                            {"mark-inband", mark_in_band()},
                            {"mark-outofband", mark_out_of_band()}};
  char label[64];
  for (const Design& d : designs) {
    const bool in_band = d.cfg.band == ProbeBand::kInBand;
    const double* eps = in_band ? kInBandEpsilons : kOutOfBandEpsilons;
    const std::size_t n = in_band ? std::size(kInBandEpsilons)
                                  : std::size(kOutOfBandEpsilons);
    for (std::size_t i = 0; i < n; ++i) {
      scenario::RunConfig cfg = base;
      cfg.eac = d.cfg;
      for (FlowClass& c : cfg.classes) c.epsilon = eps[i];
      cfg.seed = sim::derive_seed(seed, p.specs.size());
      p.specs.push_back(scenario::single_link_spec(cfg));
      std::snprintf(label, sizeof label, "%s/%.2f", d.name, eps[i]);
      p.labels.emplace_back(label);
    }
  }
  for (double u : {0.80, 0.85, 0.90, 0.95, 1.00, 1.05}) {
    scenario::RunConfig cfg = base;
    cfg.policy = scenario::PolicyKind::kMbac;
    cfg.mbac_target_utilization = u;
    cfg.seed = sim::derive_seed(seed, p.specs.size());
    p.specs.push_back(scenario::single_link_spec(cfg));
    std::snprintf(label, sizeof label, "MBAC/%.2f", u);
    p.labels.emplace_back(label);
  }
  p.threads = std::min<std::size_t>(4, usable_cpus());
}

/// The 4-cluster ring of multihop_pdes_spec cut into four event domains,
/// with its cut links lengthened from 5 ms to 20 ms. The lookahead is the
/// shortest cut link, so this leaves a quarter of the coordinator rounds.
/// At 5 ms a round held well under 100 us of wall time per domain, and
/// waking the parked domain threads, whose cost follows the host's load
/// rather than the program, set much of the pass time.
void pdes_specs(Plan& p, std::uint64_t seed, double scale) {
  scenario::RunConfig cfg = exp1_run(1.0, 60 * scale, 20 * scale, seed);
  cfg.eac = drop_in_band();
  for (FlowClass& c : cfg.classes) c.epsilon = 0.01;
  scenario::ScenarioSpec spec = scenario::multihop_pdes_spec(cfg);
  // Cluster i owns nodes 5i..5i+4, so a link between clusters is a cut link.
  for (scenario::LinkSpec& l : spec.links) {
    if (l.from / 5 != l.to / 5) l.delay = sim::SimTime::milliseconds(20);
  }
  spec.partitions = 4;
  p.specs = {spec};
  p.labels = {"ring-dom4"};
}

std::uint64_t fnv1a(std::string_view s,
                    std::uint64_t h = 0xcbf29ce484222325ull) {
  for (unsigned char ch : s) {
    h ^= ch;
    h *= 0x100000001b3ull;
  }
  return h;
}

/// Data packets that can be in the network when the measurement window
/// opens: every buffer full plus every link's bandwidth-delay product.
/// They are sent before the window and received inside it, so a window's
/// data_received may exceed its data_sent by at most this much.
std::uint64_t in_flight_bound(const scenario::ScenarioSpec& spec) {
  std::uint32_t min_size = 0xFFFF'FFFFu;
  for (const FlowClass& f : spec.flows) min_size = std::min(min_size, f.packet_size);
  double packets = 0;
  for (const scenario::LinkSpec& l : spec.links) {
    packets += static_cast<double>(l.buffer_packets) +
               l.rate_bps * l.delay.to_seconds() / (8.0 * std::max(min_size, 1u));
  }
  return static_cast<std::uint64_t>(std::ceil(packets));
}

bool counters_ok(const stats::GroupCounters& g, std::uint64_t slack,
                 std::string& why, const std::string& where) {
  if (g.data_received > g.data_sent + slack) {
    why = where + ": data_received exceeds data_sent by more than " +
          std::to_string(slack) + " packets in flight";
    return false;
  }
  if (g.accepts > g.attempts) {
    why = where + ": accepts > attempts";
    return false;
  }
  return true;
}

}  // namespace

bool parse_workload(std::string_view name, Workload& out) {
  for (Workload w : {Workload::kLossLoadSweep, Workload::kMultihopPdes4}) {
    if (name == workload_name(w)) {
      out = w;
      return true;
    }
  }
  return false;
}

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::kLossLoadSweep: return "loss_load_sweep";
    case Workload::kMultihopPdes4: return "multihop_pdes4";
  }
  return "?";
}

Plan make_plan(Workload w, std::uint64_t seed, double horizon_scale) {
  Plan p;
  switch (w) {
    case Workload::kLossLoadSweep: sweep_specs(p, seed, horizon_scale); break;
    case Workload::kMultihopPdes4: pdes_specs(p, seed, horizon_scale); break;
  }
  return p;
}

Plan setup_plan(const Plan& plan) {
  Plan p = plan;
  for (scenario::ScenarioSpec& s : p.specs) {
    s.duration_s = 1e-3;
    s.warmup_s = 5e-4;
  }
  return p;
}

Check check_result(const scenario::ScenarioSpec& spec,
                   const scenario::ScenarioResult& res) {
  Check c;
  const std::uint64_t slack = in_flight_bound(spec);
  if (!counters_ok(res.total, slack, c.reason, "total")) c.ok = false;
  for (const auto& [group, g] : res.groups) {
    if (c.ok &&
        !counters_ok(g, slack, c.reason, "group " + std::to_string(group))) {
      c.ok = false;
    }
  }
  for (std::size_t i = 0; c.ok && i < spec.links.size(); ++i) {
    if (spec.links[i].queue != scenario::LinkQueueKind::kAdmission) continue;
    const double u = i < res.links.size() ? res.links[i].utilization : -1;
    if (!(u > 0 && u <= 1)) {
      c.ok = false;
      c.reason = "admission link " + std::to_string(i) +
                 " utilization outside (0, 1]: " + std::to_string(u);
    }
  }
  if (c.ok && res.events == 0) {
    c.ok = false;
    c.reason = "no events executed";
  }

  scenario::ScenarioResult det = res;
  det.audit = {};
  det.telemetry = {};
  det.trace = {};
  det.domains = {};
  c.hash = fnv1a(scenario::to_json(det));
  return c;
}

std::uint64_t combine(const std::vector<Check>& checks) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const Check& c : checks) h = fnv1a(hex(c.hash), h);
  return h;
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::size_t usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<std::size_t>(n);
  }
  const unsigned hc = std::thread::hardware_concurrency();
  return hc > 0 ? hc : 1;
}

}  // namespace perfbench
