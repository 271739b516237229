// perfbench: runs one workload of the repository benchmark and prints one
// JSON object per line on stdout (perfbench/run.py assembles them).
//
//   perfbench --workload NAME --seed N --seconds S --mode timed|traced
//             [--horizon-scale X]
//
// Line kinds:
//   {"kind":"pass", ...}    one checked pass over the workload's specs: its
//                           calls, failed calls, first failure reason and
//                           the workload fingerprint;
//   {"kind":"metric", ...}  one named metric with its unit.
//
// Timed mode repeats the workload for S seconds with no recording scope
// installed and reports wall_s, cpu_s, setup_s and peak_rss_mib, the times
// scaled to the reference host speed by a probe run between passes. Traced
// mode runs the workload once untraced and once under a trace::Sink and a
// domprof::Scope, times each layer's public functions from outside, and
// reports the per-layer metrics.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <string>
#include <vector>

#include "layers.hpp"
#include "probe.hpp"
#include "scenario/builder.hpp"
#include "scenario/parallel.hpp"
#include "scenario/partition.hpp"
#include "scenario/report.hpp"
#include "sim/domain_profile.hpp"
#include "trace/trace.hpp"
#include "workloads.hpp"

namespace {

using namespace eac;
using perfbench::Check;
using perfbench::Plan;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto s = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  return s(ru.ru_utime) + s(ru.ru_stime);
}

/// Peak resident set of this process image (VmHWM). getrusage's ru_maxrss
/// is not used: Linux carries it across execve, so it would report the
/// launching process's peak when that was larger.
double peak_rss_mib() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  double kib = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kib = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kib / 1024.0;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

void print_metric(const char* name, double value, const char* unit) {
  scenario::JsonWriter w;
  w.object_begin()
      .field("kind", "metric")
      .field("name", name)
      .field("value", std::isfinite(value) ? value : 0.0)
      .field("unit", unit)
      .object_end();
  std::printf("%s\n", w.str().c_str());
}

/// One pass over every spec of a plan.
struct Pass {
  std::vector<scenario::ScenarioResult> results;
  std::vector<Check> checks;
  std::vector<double> call_wall_s;  ///< per call, timed around run_scenario
  double wall_s = 0;
  double cpu_s = 0;
};

/// Run every spec of `plan` across `pool`. With `traced`, each call runs
/// under its own trace::Sink (small ring; the per-category counts are taken
/// before ring drops) and domprof::Scope, installed on the thread that
/// runs it.
Pass run_pass(const Plan& plan, scenario::SweepRunner& pool, bool traced) {
  const std::size_t n = plan.specs.size();
  Pass p;
  p.results.resize(n);
  p.call_wall_s.resize(n);
  std::vector<std::string> errors(n);
  const double cpu0 = cpu_seconds();
  const Clock::time_point t0 = Clock::now();
  pool.for_each(n, [&](std::size_t i) {
    const Clock::time_point c0 = Clock::now();
    try {
      if (traced) {
        trace::Sink sink{trace::Config{.limit_events = 1u << 12}};
        trace::Scope trace_scope{sink};
        sim::DomainProfiler prof;
        sim::domprof::Scope prof_scope{prof};
        p.results[i] = scenario::run_scenario(plan.specs[i]);
      } else {
        p.results[i] = scenario::run_scenario(plan.specs[i]);
      }
    } catch (const std::exception& e) {
      errors[i] = std::string{"run_scenario threw: "} + e.what();
    }
    p.call_wall_s[i] = seconds_since(c0);
  });
  p.wall_s = seconds_since(t0);
  p.cpu_s = cpu_seconds() - cpu0;
  p.checks.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    Check c;
    if (errors[i].empty()) {
      c = perfbench::check_result(plan.specs[i], p.results[i]);
    } else {
      c.ok = false;
      c.reason = errors[i];
    }
    if (!c.ok) c.reason = plan.labels[i] + ": " + c.reason;
    p.checks.push_back(std::move(c));
  }
  return p;
}

void print_pass(const char* label, const Pass& p) {
  std::size_t failed = 0;
  std::string reason;
  for (const Check& c : p.checks) {
    if (c.ok) continue;
    if (failed++ == 0) reason = c.reason;
  }
  scenario::JsonWriter w;
  w.object_begin()
      .field("kind", "pass")
      .field("label", label)
      .field("calls", static_cast<std::uint64_t>(p.checks.size()))
      .field("failed_calls", static_cast<std::uint64_t>(failed))
      .field("reason", reason)
      .field("fingerprint", perfbench::hex(perfbench::combine(p.checks)))
      .field("wall_s", p.wall_s)
      .field("cpu_s", p.cpu_s)
      .object_end();
  std::printf("%s\n", w.str().c_str());
  std::fflush(stdout);
}

/// Threads the workload keeps busy (the sweep's pool or the ring's domains),
/// at most the usable CPUs. The host probe runs on as many.
std::size_t busy_threads(const Plan& plan) {
  std::size_t n = plan.threads;
  for (const scenario::ScenarioSpec& s : plan.specs) {
    n = std::max(n, static_cast<std::size_t>(scenario::resolve_domains(s)));
  }
  return std::min(n, perfbench::usable_cpus());
}

void run_timed(const Plan& plan, double seconds) {
  scenario::SweepRunner pool{plan.threads};
  const std::size_t probe_threads = busy_threads(plan);

  // Set-up, measured from outside: the same specs at a near-zero horizon,
  // one after another, so that waking the sweep's pool threads is not
  // counted. Milliseconds long, so take the median of many passes, with a
  // host probe before them and after every tenth.
  const Plan setup = perfbench::setup_plan(plan);
  scenario::SweepRunner serial{1};
  std::vector<double> setup_wall, setup_probe{perfbench::host_probe_s(probe_threads)};
  const Clock::time_point s0 = Clock::now();
  while (setup_wall.size() < 9 ||
         (seconds_since(s0) < 1.0 && setup_wall.size() < 201)) {
    const Pass p = run_pass(setup, serial, false);
    setup_wall.push_back(p.wall_s);
    if (setup_wall.size() % 10 == 0) {
      setup_probe.push_back(perfbench::host_probe_s(probe_threads));
    }
  }

  // Every pass is bracketed by host probes; their median sets the scale.
  std::vector<double> wall, cpu, probe{perfbench::host_probe_s(probe_threads)};
  const Clock::time_point t0 = Clock::now();
  while (wall.size() < 3 || seconds_since(t0) < seconds) {
    const Pass p = run_pass(plan, pool, false);
    wall.push_back(p.wall_s);
    cpu.push_back(p.cpu_s);
    print_pass("timed", p);
    probe.push_back(perfbench::host_probe_s(probe_threads));
  }
  const double host_probe = median(probe);
  const double setup_host_probe = median(setup_probe);
  const double scale = perfbench::kReferenceProbeS / host_probe;
  print_metric("wall_s", median(wall) * scale, "s");
  print_metric("cpu_s", median(cpu) * scale, "s");
  print_metric("setup_s",
               median(setup_wall) * perfbench::kReferenceProbeS / setup_host_probe, "s");
  print_metric("peak_rss_mib", peak_rss_mib(), "MiB");
  print_metric("timed_runs", static_cast<double>(wall.size()), "count");
  print_metric("host_probe_s", host_probe, "s");
  print_metric("setup_host_probe_s", setup_host_probe, "s");
  print_metric("wall_unscaled_s", median(wall), "s");
  print_metric("cpu_unscaled_s", median(cpu), "s");
  print_metric("setup_unscaled_s", median(setup_wall), "s");
}

/// Sums over every call of a pass.
struct Totals {
  std::uint64_t events = 0, flows_created = 0, peak_active_max = 0;
  std::uint64_t attempts = 0, accepts = 0;
  std::uint64_t by_category[trace::kCategoryCount] = {};
  std::uint64_t engine_events = 0;
  double probe_share_sum = 0;
  std::size_t probe_share_links = 0;
  double draws_est = 0;
};

Totals totals(const Plan& plan, const Pass& p) {
  Totals t;
  for (std::size_t i = 0; i < p.results.size(); ++i) {
    const scenario::ScenarioResult& r = p.results[i];
    const scenario::ScenarioSpec& s = plan.specs[i];
    t.events += r.events;
    t.flows_created += r.flows_created;
    t.peak_active_max = std::max(t.peak_active_max, r.peak_active_flows);
    t.attempts += r.total.attempts;
    t.accepts += r.total.accepts;
    for (std::size_t c = 0; c < trace::kCategoryCount; ++c) {
      t.by_category[c] += r.trace.by_category[c];
    }
    t.engine_events += r.trace.engine_events;
    for (std::size_t l = 0; l < s.links.size() && l < r.links.size(); ++l) {
      if (s.links[l].queue != scenario::LinkQueueKind::kAdmission) continue;
      t.probe_share_sum += r.links[l].probe_utilization;
      ++t.probe_share_links;
    }
    // Exponential draws, estimated: two per flow (inter-arrival and
    // lifetime) plus two per on/off cycle, cycles counted from the data
    // packets sent over the whole run (the result counts only the
    // measurement window) at the class's mean packets per ON period.
    const FlowClass& c = s.flows.front();
    const double pkts_per_on =
        c.onoff.burst_rate_bps * c.onoff.mean_on_s / (8.0 * c.packet_size);
    const double window = s.duration_s - s.warmup_s;
    const double sent_all = window > 0 ? static_cast<double>(r.total.data_sent) *
                                             s.duration_s / window
                                       : 0.0;
    t.draws_est += 2.0 * static_cast<double>(r.flows_created) +
                   (pkts_per_on > 0 ? 2.0 * sent_all / pkts_per_on : 0.0);
  }
  return t;
}

std::uint64_t cat(const Totals& t, trace::Category c) {
  return t.by_category[static_cast<std::size_t>(c)];
}

void run_traced(const Plan& plan) {
  scenario::SweepRunner pool{plan.threads};
  const Pass plain = run_pass(plan, pool, false);
  print_pass("untraced", plain);
  const Pass traced = run_pass(plan, pool, true);
  print_pass("traced", traced);

  const Totals t = totals(plan, traced);
  const std::uint64_t seed = plan.specs.front().seed;

  // --- sim: event core and PDES coordinator ---
  const sim::DomainProfileReport& dom = traced.results.front().domains;
  const std::size_t domains = dom.enabled ? std::max<std::uint32_t>(dom.count, 1) : 1;
  std::vector<double> flows_per_call;
  for (const auto& r : plain.results) {
    flows_per_call.push_back(static_cast<double>(r.peak_active_flows));
  }
  const auto depth = static_cast<std::size_t>(median(flows_per_call)) / domains;
  const double hold = perfbench::hold_ns(depth, seed);
  const double sim_est = static_cast<double>(t.events) * hold * 1e-9;
  print_metric("sim.events", static_cast<double>(t.events), "count");
  print_metric("sim.events_per_s", static_cast<double>(t.events) / plain.wall_s, "1/s");
  print_metric("sim.hold_ns", hold, "ns");
  print_metric("sim.hold_depth", static_cast<double>(depth), "count");
  print_metric("sim.est_s", sim_est, "s");

  std::uint64_t cross = 0;
  for (const sim::DomainProfileEntry& e : dom.per_domain) cross += e.cross_out;
  std::uint64_t event_delta = 0;
  if (dom.enabled) {
    // One extra serial run of the same spec: the partitioned engine's event
    // count should equal it.
    Plan serial = plan;
    for (scenario::ScenarioSpec& s : serial.specs) s.partitions = 1;
    const Pass sp = run_pass(serial, pool, false);
    print_pass("serial", sp);
    const std::uint64_t a = plain.results.front().events;
    const std::uint64_t b = sp.results.front().events;
    event_delta = a > b ? a - b : b - a;
  }
  print_metric("sim.domain.rounds", static_cast<double>(dom.rounds), "count");
  print_metric("sim.domain.rounds_per_sim_s", dom.rounds_per_sim_second, "1/s");
  print_metric("sim.domain.window_mean_us", dom.window_mean_s * 1e6, "us");
  print_metric("sim.domain.barrier_wait_frac", dom.barrier_wait_fraction, "ratio");
  print_metric("sim.domain.imbalance", dom.imbalance, "ratio");
  print_metric("sim.domain.cross_msgs", static_cast<double>(cross), "count");
  print_metric("sim.domain.event_delta_vs_serial", static_cast<double>(event_delta),
               "count");

  // --- net: queue disciplines and links ---
  // Cost per enqueue+dequeue pair on each call's own admission queue,
  // weighted by that call's traced queue operations.
  std::map<std::string, double> ns_by_design;
  double weighted = 0, weight = 0;
  for (std::size_t i = 0; i < plan.specs.size(); ++i) {
    const scenario::ScenarioSpec& s = plan.specs[i];
    const std::string key = plan.labels[i].substr(0, plan.labels[i].find('/'));
    auto it = ns_by_design.find(key);
    if (it == ns_by_design.end()) {
      it = ns_by_design.emplace(key, perfbench::ac_queue_ns(s)).first;
    }
    const double ops = static_cast<double>(
        traced.results[i].trace.by_category[static_cast<std::size_t>(trace::Category::kQueue)]);
    weighted += it->second * std::max(ops, 1.0);
    weight += std::max(ops, 1.0);
  }
  const double ac_queue = weighted / weight;
  const double queue_ops = static_cast<double>(cat(t, trace::Category::kQueue));
  const double net_est = 0.5 * queue_ops * ac_queue * 1e-9;
  print_metric("net.queue_ops", queue_ops, "count");
  print_metric("net.link_ops", static_cast<double>(cat(t, trace::Category::kLink)), "count");
  print_metric("net.ac_queue_ns", ac_queue, "ns");
  print_metric("net.est_s", net_est, "s");

  // --- traffic: sources and their random streams ---
  const bool compact = plan.specs.front().flows.front().compact_rng;
  const double draw = perfbench::draw_ns(compact, seed);
  const double traffic_est = t.draws_est * draw * 1e-9;
  print_metric("traffic.draw_ns", draw, "ns");
  print_metric("traffic.draws_est", t.draws_est, "count");
  print_metric("traffic.est_s", traffic_est, "s");

  // --- eac: flow lifecycle, flow table, probe sessions ---
  const double table = perfbench::flow_table_ns(t.peak_active_max, seed);
  const double eac_est = static_cast<double>(t.flows_created) * table * 1e-9;
  print_metric("eac.flow_ops", static_cast<double>(cat(t, trace::Category::kFlow)), "count");
  print_metric("eac.probe_ops", static_cast<double>(cat(t, trace::Category::kProbe)), "count");
  print_metric("eac.flows_created", static_cast<double>(t.flows_created), "count");
  print_metric("eac.peak_active_flows", static_cast<double>(t.peak_active_max), "count");
  print_metric("eac.flow_table_ns", table, "ns");
  print_metric("eac.attempts", static_cast<double>(t.attempts), "count");
  print_metric("eac.admit_ratio",
               t.attempts > 0 ? static_cast<double>(t.accepts) / static_cast<double>(t.attempts) : 0.0,
               "ratio");
  print_metric("eac.probe_share",
               t.probe_share_links > 0 ? t.probe_share_sum / static_cast<double>(t.probe_share_links) : 0.0,
               "ratio");
  print_metric("eac.est_s", eac_est, "s");

  // --- mbac: Measured Sum estimator ---
  const double fits = perfbench::fits_ns(perfbench::admission_link(plan.specs.front()).rate_bps);
  const double mbac_ops = static_cast<double>(cat(t, trace::Category::kMbac));
  const double mbac_est = mbac_ops * fits * 1e-9;
  print_metric("mbac.estimate_ops", mbac_ops, "count");
  print_metric("mbac.fits_ns", fits, "ns");
  print_metric("mbac.est_s", mbac_est, "s");

  // --- scenario: builder, partitioner, sweep fan-out ---
  std::vector<double> partition;
  for (const scenario::ScenarioSpec& s : plan.specs) {
    partition.push_back(perfbench::partition_s(s));
  }
  double point_sum = 0;
  for (double w : plain.call_wall_s) point_sum += w;
  print_metric("scenario.partition_s", median(partition), "s");
  print_metric("scenario.points", static_cast<double>(plan.specs.size()), "count");
  print_metric("scenario.point_wall_p50_s", median(plain.call_wall_s), "s");
  print_metric("scenario.point_wall_max_s",
               *std::max_element(plain.call_wall_s.begin(), plain.call_wall_s.end()), "s");
  print_metric("scenario.sweep_efficiency",
               point_sum / (static_cast<double>(pool.thread_count()) * plain.wall_s), "ratio");

  // --- where the busy time went, and what recording costs ---
  const double est = sim_est + net_est + traffic_est + eac_est + mbac_est;
  std::uint64_t emits = 0;
  for (std::uint64_t c : t.by_category) emits += c;
  print_metric("unattributed_share", 1.0 - est / plain.cpu_s, "ratio");
  print_metric("obs.trace_overhead", traced.wall_s / plain.wall_s - 1.0, "ratio");
  print_metric("obs.emits_per_event",
               t.engine_events > 0 ? static_cast<double>(emits) / static_cast<double>(t.engine_events) : 0.0,
               "ratio");
  print_metric("obs.untraced_cpu_s", plain.cpu_s, "s");
}

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --mode timed|traced [--horizon-scale X]\n",
               msg);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, mode = "timed";
  std::uint64_t seed = 1;
  double seconds = 10, horizon_scale = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const char* v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      workload = v;
    } else if (a == "--mode") {
      mode = v;
    } else if (a == "--seed") {
      seed = std::strtoull(v, &end, 10);
    } else if (a == "--seconds") {
      seconds = std::strtod(v, &end);
    } else if (a == "--horizon-scale") {
      horizon_scale = std::strtod(v, &end);
    } else {
      usage(("unknown argument " + a).c_str());
    }
    if (end != nullptr && (end == v || *end != '\0')) {
      usage(("bad value for " + a).c_str());
    }
  }
  perfbench::Workload w;
  if (!perfbench::parse_workload(workload, w)) usage("unknown --workload");
  if (!(seconds > 0) || !(horizon_scale > 0)) usage("--seconds and --horizon-scale must be > 0");

  const Plan plan = perfbench::make_plan(w, seed, horizon_scale);
  if (mode == "timed") {
    run_timed(plan, seconds);
  } else if (mode == "traced") {
    run_traced(plan);
  } else {
    usage("--mode must be timed or traced");
  }
  return 0;
}
