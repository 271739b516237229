#include "layers.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <vector>

#include "eac/flow_table.hpp"
#include "mbac/measured_sum.hpp"
#include "net/link.hpp"
#include "net/marking_queue.hpp"
#include "net/priority_queue.hpp"
#include "scenario/partition.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"

namespace perfbench {

using namespace eac;

namespace {

using Clock = std::chrono::steady_clock;

constexpr int kBatches = 5;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Keeps a computed value observable so the timed loop is not folded away.
volatile double g_sink = 0;

struct HoldState {
  sim::Simulator sim;
  std::vector<sim::SimTime> delays;  ///< drawn before timing starts
  std::size_t next = 0;
  std::uint64_t remaining = 0;
};

/// Hold-model event: runs, then schedules its successor.
struct HoldTick {
  HoldState* s;
  void operator()() const {
    if (--s->remaining == 0) {
      s->sim.stop();
      return;
    }
    const sim::SimTime d = s->delays[s->next];
    if (++s->next == s->delays.size()) s->next = 0;
    s->sim.schedule_after(d, HoldTick{s});
  }
};

}  // namespace

const scenario::LinkSpec& admission_link(const scenario::ScenarioSpec& spec) {
  for (const scenario::LinkSpec& l : spec.links) {
    if (l.queue == scenario::LinkQueueKind::kAdmission) return l;
  }
  return spec.links.at(0);
}

double hold_ns(std::size_t depth, std::uint64_t seed) {
  depth = std::max<std::size_t>(depth, 1);
  const std::uint64_t ops = std::max<std::uint64_t>(200'000, 20 * depth);
  sim::RandomStream rng{seed, 0xB0};
  std::vector<sim::SimTime> delays(4096);
  for (sim::SimTime& d : delays) {
    d = sim::SimTime::seconds(rng.exponential(1e-3 * static_cast<double>(depth)));
  }
  std::vector<double> per_op;
  for (int b = 0; b < kBatches; ++b) {
    HoldState s;
    s.delays = delays;
    s.remaining = ops;
    for (std::size_t i = 0; i < depth; ++i) {
      s.sim.schedule_after(delays[(i * 7) % delays.size()], HoldTick{&s});
    }
    const Clock::time_point t0 = Clock::now();
    const std::uint64_t ran = s.sim.run();
    per_op.push_back(seconds_since(t0) * 1e9 / static_cast<double>(ran));
  }
  return median(per_op);
}

double ac_queue_ns(const scenario::ScenarioSpec& spec) {
  const scenario::LinkSpec& l = admission_link(spec);
  const std::uint32_t size =
      spec.flows.empty() ? 125 : spec.flows.front().packet_size;
  const bool marking = spec.policy == scenario::PolicyKind::kEndpoint &&
                       spec.eac.signal == SignalType::kMark;
  const std::uint8_t probe_band =
      spec.eac.band == ProbeBand::kOutOfBand ? 1 : 0;
  // Arrivals at 90 % of the line rate, the virtual queue's drain rate.
  const sim::SimTime gap =
      sim::SimTime::seconds(8.0 * size / (spec.virtual_queue_fraction * l.rate_bps));
  constexpr std::uint64_t kPairs = 200'000;

  std::vector<double> per_op;
  for (int b = 0; b < kBatches; ++b) {
    std::unique_ptr<net::QueueDisc> q =
        std::make_unique<net::StrictPriorityQueue>(2, l.buffer_packets);
    if (marking) {
      q = std::make_unique<net::MarkingQueue>(
          std::move(q), spec.virtual_queue_fraction * l.rate_bps,
          static_cast<double>(l.buffer_packets) * spec.typical_packet_bytes, 2);
    }
    net::Packet p;
    p.size_bytes = size;
    p.ecn_capable = marking;
    sim::SimTime now = sim::SimTime::zero();
    const auto offer = [&](std::uint64_t i) {
      const bool probe = i % 10 == 0;
      p.type = probe ? net::PacketType::kProbe : net::PacketType::kData;
      p.band = probe ? probe_band : 0;
      p.seq = static_cast<std::uint32_t>(i);
      p.flow = static_cast<net::FlowId>(1 + i % 64);
      p.ecn_marked = false;
      q->enqueue(p, now);
      now = now + gap;
    };
    for (std::uint64_t i = 0; i < l.buffer_packets / 2; ++i) offer(i);
    std::uint64_t served = 0;
    const Clock::time_point t0 = Clock::now();
    for (std::uint64_t i = 0; i < kPairs; ++i) {
      offer(i);
      if (q->dequeue(now)) ++served;
    }
    per_op.push_back(seconds_since(t0) * 1e9 / kPairs);
    g_sink = g_sink + static_cast<double>(served);
  }
  return median(per_op);
}

double draw_ns(bool compact, std::uint64_t seed) {
  constexpr std::uint64_t kDraws = 2'000'000;
  std::vector<double> per_op;
  for (int b = 0; b < kBatches; ++b) {
    double acc = 0;
    Clock::time_point t0;
    if (compact) {
      sim::CompactRandomStream rng{seed, 0xD0 + static_cast<unsigned>(b)};
      t0 = Clock::now();
      for (std::uint64_t i = 0; i < kDraws; ++i) acc += rng.exponential(0.5);
    } else {
      sim::RandomStream rng{seed, 0xD0 + static_cast<unsigned>(b)};
      t0 = Clock::now();
      for (std::uint64_t i = 0; i < kDraws; ++i) acc += rng.exponential(0.5);
    }
    per_op.push_back(seconds_since(t0) * 1e9 / kDraws);
    g_sink = g_sink + acc;
  }
  return median(per_op);
}

double flow_table_ns(std::size_t population, std::uint64_t seed) {
  population = std::max<std::size_t>(population, 1);
  const std::uint64_t pairs = std::max<std::uint64_t>(500'000, 20 * population);
  sim::RandomStream rng{seed, 0xF0};
  std::vector<std::uint32_t> victims(4096);
  for (std::uint32_t& v : victims) {
    v = static_cast<std::uint32_t>(rng.integer(population));
  }
  std::vector<double> per_op;
  for (int b = 0; b < kBatches; ++b) {
    FlowTable table;
    std::vector<FlowHandle> live(population);
    net::FlowId id = 1;
    for (FlowHandle& h : live) h = table.allocate(id++, 0);
    const Clock::time_point t0 = Clock::now();
    for (std::uint64_t i = 0; i < pairs; ++i) {
      FlowHandle& h = live[victims[i % victims.size()]];
      table.release(h);
      h = table.allocate(id++, 0);
    }
    per_op.push_back(seconds_since(t0) * 1e9 / static_cast<double>(pairs));
    g_sink = g_sink + static_cast<double>(table.live());
  }
  return median(per_op);
}

double fits_ns(double rate_bps) {
  constexpr std::uint64_t kCalls = 2'000'000;
  std::vector<double> per_op;
  for (int b = 0; b < kBatches; ++b) {
    sim::Simulator sim;
    net::Link link{sim, "perfbench", rate_bps, sim::SimTime::milliseconds(20),
                   std::make_unique<net::StrictPriorityQueue>(2, 200)};
    mbac::MeasuredSumEstimator est{sim, link, mbac::MeasuredSumConfig{}};
    est.on_admit(0.5 * rate_bps);
    std::uint64_t admitted = 0;
    double r = 0.1 * rate_bps;
    const double step = 0.8 * rate_bps / kCalls;
    const Clock::time_point t0 = Clock::now();
    for (std::uint64_t i = 0; i < kCalls; ++i) {
      if (est.fits(r)) ++admitted;
      r += step;
    }
    per_op.push_back(seconds_since(t0) * 1e9 / kCalls);
    g_sink = g_sink + static_cast<double>(admitted);
  }
  return median(per_op);
}

double partition_s(const scenario::ScenarioSpec& spec) {
  constexpr int kCalls = 21;
  const int want = scenario::resolve_domains(spec);
  std::vector<double> per_call;
  for (int i = 0; i < kCalls; ++i) {
    const Clock::time_point t0 = Clock::now();
    const scenario::Partition part = scenario::partition_spec(spec, want);
    per_call.push_back(seconds_since(t0));
    g_sink = g_sink + part.domains;
  }
  return median(per_call);
}

}  // namespace perfbench
