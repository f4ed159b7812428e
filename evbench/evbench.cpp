// evbench — the evsys benchmark program. One invocation runs one workload
// (drive_city, drive_faulted, synth_overloaded, fleet_depot) on the input
// files run.py generated for it, checks every output, and prints a report
// whose last line is one JSON object.
//
//   untraced (--trace 0): repeats the workload for --seconds and reports the
//     end-to-end metrics (wall_s, setup_s, peak_rss_mb) plus the throughput
//     that applies (sim_rtf or moves_per_s) and error_rate.
//   traced (--trace 1): one untraced and one traced execution (the
//     difference is the tracing overhead), then each layer driven alone
//     through its public entry point; reports every per-layer metric and
//     writes the spans to <out-dir>/<workload>-s<seed>.spans.json and the
//     deterministic counts to <out-dir>/<workload>-s<seed>.counts.json.
//
// Spans wrap calls into evsys from this file only; nothing inside the
// library is instrumented, so the untraced figures are the program as
// users run it.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <exception>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "ev/analysis/analyzer.h"
#include "ev/analysis/prob.h"
#include "ev/battery/cell.h"
#include "ev/battery/cell_batch.h"
#include "ev/battery/ocv_curve.h"
#include "ev/campaign/parallel.h"
#include "ev/campaign/worker_pool.h"
#include "ev/config/fleet.h"
#include "ev/config/scenario.h"
#include "ev/core/scenario.h"
#include "ev/core/subsystems.h"
#include "ev/fleet/simulation.h"
#include "ev/network/most.h"
#include "ev/network/topology.h"
#include "ev/obs/metrics.h"
#include "ev/obs/sim_observer.h"
#include "ev/powertrain/simulation.h"
#include "ev/security/secure_channel.h"
#include "ev/sim/simulator.h"
#include "ev/synthesis/synthesis.h"

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

struct Options {
  std::string workload;
  std::string input;    // scenario / fleet file the workload runs
  std::string golden;   // reference result JSON (drive_city only)
  std::string out_dir;  // where the traced run writes spans and counts
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  int jobs = 1;         // worker threads for synthesis and fleet (<= nproc)
};

/// Annealing rounds of synth_overloaded: 160 000 moves, about a second.
constexpr int kSynthIters = 20000;

// --- spans -------------------------------------------------------------------

/// In-memory span log: name, start, end, and the enclosing span. Spans are
/// opened and closed only in this file, around calls into evsys.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start_s = 0.0;
    double end_s = 0.0;
    int parent = -1;
  };

  int open(std::string name) {
    spans_.push_back({std::move(name), seconds_since(origin_), 0.0,
                      stack_.empty() ? -1 : stack_.back()});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void close(int index) {
    spans_[static_cast<std::size_t>(index)].end_s = seconds_since(origin_);
    stack_.pop_back();
  }
  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }

  bool write_json(const std::string& path) const {
    std::ofstream out(path);
    out << "[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char line[256];
      std::snprintf(line, sizeof(line),
                    "%s\n{\"id\":%zu,\"name\":\"%s\",\"start_us\":%.3f,\"end_us\":%.3f,"
                    "\"parent\":%d}",
                    i == 0 ? "" : ",", i, s.name.c_str(), s.start_s * 1e6, s.end_s * 1e6,
                    s.parent);
      out << line;
    }
    out << "\n]\n";
    return static_cast<bool>(out);
  }

 private:
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// Times one call into a layer; with a tracer it is also recorded as a span.
class Timed {
 public:
  Timed(Tracer* tracer, const char* name)
      : tracer_(tracer), index_(tracer ? tracer->open(name) : -1) {}
  ~Timed() { stop(); }
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;

  double stop() {
    if (elapsed_ < 0.0) {
      elapsed_ = seconds_since(start_);
      if (tracer_ != nullptr) tracer_->close(index_);
    }
    return elapsed_;
  }

 private:
  Tracer* tracer_;
  int index_;
  Clock::time_point start_ = Clock::now();
  double elapsed_ = -1.0;
};

// --- report ------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 1;
  std::vector<double> all;  // every sample, when there are several
};

using Counts = std::vector<std::pair<std::string, double>>;

/// What one invocation found: metrics, checked executions, failed checks,
/// and the deterministic counts that must repeat exactly.
struct Outcome {
  std::vector<Metric> metrics;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> failures;
  Counts counts;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit), 1, {}});
  }
  /// Adds the median of \p samples, keeping the samples.
  void add_median(std::string name, const std::vector<double>& samples, std::string unit) {
    metrics.push_back({std::move(name), median(samples), std::move(unit), samples.size(),
                       samples});
  }
  /// Records one checked execution: it fails when any of \p problems is set.
  void record(const std::vector<std::string>& problems) {
    ++attempted;
    if (problems.empty()) return;
    ++failed;
    for (const std::string& p : problems) failures.push_back(p);
  }
};

/// Collects failed expectations of one checked execution.
struct Checks {
  std::vector<std::string> problems;
  void expect(bool ok, const std::string& what) {
    if (!ok) problems.push_back(what);
  }
};

std::string format_number(double value) {
  char buf[64];
  if (std::isfinite(value) && value == std::floor(value) && std::fabs(value) < 1e15)
    std::snprintf(buf, sizeof(buf), "%.0f", value);
  else
    std::snprintf(buf, sizeof(buf), "%.9g", std::isfinite(value) ? value : 0.0);
  return buf;
}

std::string counts_json(const Counts& counts) {
  std::string out = "{";
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (i > 0) out += ",";
    out += "\"" + counts[i].first + "\":" + format_number(counts[i].second);
  }
  return out + "}";
}

/// A traced execution must reproduce the untraced one's counts exactly.
void expect_same_counts(const Counts& first, const Counts& now, Checks& checks) {
  checks.expect(first == now, "deterministic counts differ between repeats: " +
                                  counts_json(first) + " vs " + counts_json(now));
}

// --- layer gauges -------------------------------------------------------------

/// Executions per layer measurement that lasts seconds (a layer driven
/// alone, a jobs-1 / jobs-N pair, an obs-on / obs-off pair); the median is
/// reported.
constexpr int kLayerRepeats = 3;

/// Median per-call seconds of \p once: calls are grouped into batches of at
/// least \p min_batch_s so sub-millisecond calls are timed over a long loop.
double per_call_seconds(const std::function<void()>& once, double min_batch_s = 0.05,
                        int batches = 7) {
  std::size_t calls = 1;
  for (;;) {
    const Clock::time_point start = Clock::now();
    for (std::size_t i = 0; i < calls; ++i) once();
    if (seconds_since(start) >= min_batch_s) break;
    calls *= 2;
  }
  std::vector<double> samples;
  for (int b = 0; b < batches; ++b) {
    const Clock::time_point start = Clock::now();
    for (std::size_t i = 0; i < calls; ++i) once();
    samples.push_back(seconds_since(start) / static_cast<double>(calls));
  }
  return median(samples);
}

/// A kernel-only event mix in the shape of the scenario vehicle: the 44.1 kHz
/// MOST frame clock, a 10 kHz bus tick chaining one-shot deliveries, the
/// 50 Hz middleware major frame, 10 Hz control and publication, and a set
/// of staggered 1 Hz heartbeats. Returns the events dispatched.
std::uint64_t kernel_mix(ev::sim::Simulator& sim, int sim_seconds) {
  using ev::sim::Time;
  std::uint64_t work = 0;
  sim.schedule_periodic(Time::ns(22676), Time::ns(22676), [&work] { ++work; });
  sim.schedule_periodic(Time::us(100), Time::us(100), [&sim, &work] {
    sim.schedule_in(Time::us(20), [&work] { ++work; });
  });
  sim.schedule_periodic(Time::ms(20), Time::ms(20), [&work] { ++work; });
  sim.schedule_periodic(Time::ms(100), Time::ms(100), [&work] { ++work; });
  sim.schedule_periodic(Time::ms(100), Time::ms(100), [&work] { ++work; });
  for (int node = 0; node < 64; ++node)
    sim.schedule_periodic(Time::ms(5 + node), Time::ms(1000), [&work] { ++work; });
  sim.run_until(Time::s(sim_seconds));
  if (work == 0) std::abort();  // keeps the handlers observable
  return sim.dispatched();
}

struct KernelCost {
  double bare_ns = 0.0;      // host ns per dispatched event
  double observer_ns = 0.0;  // added by a SimObserver, per event
};

/// kernel_mix bare and with a SimObserver, in interleaved pairs of 100
/// simulated seconds each; the observer cost is the median pair difference.
KernelCost kernel_cost() {
  constexpr int kSimSeconds = 100;
  std::vector<double> bare, added;
  for (int i = 0; i < 7; ++i) {
    double ns[2] = {0.0, 0.0};
    for (int observed = 0; observed < 2; ++observed) {
      ev::sim::Simulator sim;
      ev::obs::MetricsRegistry registry;
      ev::obs::SimObserver observer(registry);
      if (observed == 1) sim.set_observer(&observer);
      const Clock::time_point start = Clock::now();
      const std::uint64_t events = kernel_mix(sim, kSimSeconds);
      ns[observed] = seconds_since(start) * 1e9 / static_cast<double>(events);
    }
    bare.push_back(ns[0]);
    added.push_back(ns[1] - ns[0]);
  }
  return {median(bare), median(added)};
}

double cell_step_ns_per_cell(std::size_t cells) {
  std::vector<ev::battery::Cell> seed_cells;
  const ev::battery::OcvCurve curve = ev::battery::OcvCurve::nmc();
  for (std::size_t i = 0; i < cells; ++i)
    seed_cells.emplace_back(ev::battery::CellParameters{}, curve,
                            0.6 + 0.002 * static_cast<double>(i % 32));
  ev::battery::CellBatch batch(seed_cells);
  const std::vector<double> current(cells, 12.0);
  const std::vector<double> heat(cells, 0.0);
  double alarms = 0.0;
  const double per_step = per_call_seconds([&] {
    alarms += static_cast<double>(batch.step_all(current, heat, 0.1, 25.0).alarm_count);
  });
  if (alarms < 0.0) std::abort();
  return per_step * 1e9 / static_cast<double>(cells);
}

/// Per-call ns of SecureChannel::protect and ::unprotect on a 16-byte BMS
/// telemetry payload (what the security subsystem sends every 100 ms).
std::pair<double, double> secure_channel_ns() {
  ev::security::Key master(32);
  for (std::size_t i = 0; i < master.size(); ++i)
    master[i] = static_cast<std::uint8_t>(0xA5 ^ (i * 29));
  ev::security::SecureChannel sender(master, ev::core::kFrameIdSecureTelemetry);
  std::uint8_t telemetry[16] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16};
  std::size_t bytes = 0;
  const double protect_s = per_call_seconds([&] { bytes += sender.protect(telemetry).size(); });

  constexpr std::size_t kFrames = 4096;
  std::vector<std::vector<std::uint8_t>> wire;
  for (std::size_t i = 0; i < kFrames; ++i) wire.push_back(sender.protect(telemetry));
  std::vector<double> samples;
  std::size_t accepted = 0;
  for (int b = 0; b < 7; ++b) {
    ev::security::SecureChannel receiver(master, ev::core::kFrameIdSecureTelemetry);
    const Clock::time_point start = Clock::now();
    for (const auto& frame : wire) accepted += receiver.unprotect(frame).has_value() ? 1 : 0;
    samples.push_back(seconds_since(start) / static_cast<double>(kFrames));
  }
  if (bytes == 0 || accepted != 7 * kFrames) std::abort();
  return {protect_s * 1e9, median(samples) * 1e9};
}

// --- untraced measurement ------------------------------------------------------

/// One checked execution of a workload, as the untraced loop sees it.
struct Repeat {
  double setup_s = 0.0;    // parse (+ build)
  double run_s = 0.0;      // the workload's execution, setup excluded
  double work = 0.0;       // simulated seconds or moves, for the throughput
  std::string signature;   // deterministic counts + report: must repeat exactly
};

/// The end-to-end measurement shared by every workload. The setup gauge runs
/// first, while the heap is as fresh as in any other run; then the workload
/// repeats for options.seconds. peak_rss_mb is the high-water mark after the
/// first repeat, so it does not depend on how many repeats fit.
Outcome measure_untraced(const Options& options, const std::function<double()>& setup_once,
                         const std::function<Repeat(Checks&)>& repeat,
                         const char* rate_name, const char* rate_unit) {
  Outcome out;
  std::vector<double> setup, wall, rate;
  const Clock::time_point setup_start = Clock::now();
  while (setup.size() < 25 || seconds_since(setup_start) < 0.5) setup.push_back(setup_once());

  std::string first;
  double rss_mb = 0.0;
  const Clock::time_point start = Clock::now();
  do {
    Checks checks;
    const Clock::time_point attempt = Clock::now();
    Repeat r;
    try {
      r = repeat(checks);
    } catch (const std::exception& e) {
      // The execution failed; the workload is deterministic, so a further
      // repeat would fail the same way. Its time to failure is its sample.
      checks.expect(false, std::string("exception: ") + e.what());
      out.record(checks.problems);
      wall.push_back(seconds_since(attempt));
      if (first.empty()) rss_mb = peak_rss_mb();
      break;
    }
    setup.push_back(r.setup_s);
    wall.push_back(r.run_s);
    rate.push_back(r.work / r.run_s);
    if (first.empty()) {
      first = r.signature;
      rss_mb = peak_rss_mb();
    }
    checks.expect(r.signature == first, "counts or report differ between repeats: " +
                                            first.substr(0, 300) + " vs " +
                                            r.signature.substr(0, 300));
    out.record(checks.problems);
  } while (seconds_since(start) < options.seconds);
  out.add_median("wall_s", wall, "s");
  out.add_median("setup_s", setup, "s");
  out.add_median(rate_name, rate, rate_unit);
  out.add("peak_rss_mb", rss_mb, "MB");
  return out;
}

// --- drive workloads -----------------------------------------------------------

const char* const kBusMetric[] = {"lin", "comfort_can", "most", "safety_can", "flexray"};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read '" + path + "'");
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// The behaviour part of a result JSON: the drive and telemetry sections.
/// Kernel-cost fields (subsystems.obs.events_dispatched, ...) are excluded.
std::string behaviour_sections(const std::string& json) {
  const std::size_t begin = json.find("\"drive\":");
  const std::size_t end = json.find(",\"subsystems\":");
  if (begin == std::string::npos || end == std::string::npos || end < begin) return {};
  return json.substr(begin, end - begin);
}

double snapshot_value(const ev::core::CoSimResult& result, const std::string& section,
                      const std::string& key) {
  for (const ev::core::SubsystemSnapshot& snap : result.subsystems)
    if (snap.name == section)
      for (const auto& [name, value] : snap.values)
        if (name == key) return value;
  return 0.0;
}

struct DriveExecution {
  std::string json;
  Counts counts;
  double setup_s = 0.0;
  double parse_s = 0.0;
  double build_s = 0.0;
  double run_s = 0.0;
  double span_s = 0.0;  // simulated seconds driven
};

class DriveWorkload {
 public:
  explicit DriveWorkload(const Options& options) : options_(options) {
    if (!options.golden.empty())
      golden_ = behaviour_sections(read_file(options.golden));
  }

  /// parse + build only (the setup gauge); the vehicle is destroyed untimed.
  double setup_once() {
    const Clock::time_point start = Clock::now();
    const ev::config::ScenarioSpec spec = ev::config::load_scenario_file(options_.input);
    std::unique_ptr<ev::core::VehicleSystem> vehicle = ev::core::build_vehicle(spec);
    const double elapsed = seconds_since(start);
    vehicle.reset();
    return elapsed;
  }

  /// One checked execution: parse, build, run. Layer counts and the
  /// per-bus figures are read from the vehicle afterwards.
  DriveExecution execute(Tracer* tracer, Checks& checks, Outcome* layers = nullptr,
                         bool obs_override_off = false) {
    DriveExecution ex;
    Timed total(tracer, obs_override_off ? "drive.obs_off" : "drive");
    Timed parse(tracer, "config.parse");
    ev::config::ScenarioSpec spec = ev::config::load_scenario_file(options_.input);
    ex.parse_s = parse.stop();
    if (obs_override_off) spec.subsystems.obs = false;
    Timed build(tracer, "core.build");
    std::unique_ptr<ev::core::VehicleSystem> vehicle = ev::core::build_vehicle(spec);
    const ev::powertrain::DriveCycle cycle = ev::core::to_drive_cycle(spec);
    ex.build_s = build.stop();
    ex.setup_s = ex.parse_s + ex.build_s;
    ev::core::ScenarioRunResult result;
    result.scenario = spec.name;
    Timed run(tracer, "core.run");
    result.cosim = vehicle->run(cycle);
    ex.run_s = run.stop();
    total.stop();

    ex.json = ev::core::result_json(result);
    ex.span_s = result.cosim.cycle.duration_s;
    check(spec, *vehicle, result.cosim, ex.json, checks);
    ex.counts = counts_of(*vehicle, result.cosim);
    if (layers != nullptr) bus_figures(*vehicle, *layers);
    return ex;
  }

  [[nodiscard]] ev::config::ScenarioSpec spec() const {
    return ev::config::load_scenario_file(options_.input);
  }

 private:
  void check(const ev::config::ScenarioSpec& spec, ev::core::VehicleSystem& vehicle,
             const ev::core::CoSimResult& r, const std::string& json, Checks& checks) const {
    checks.expect(r.cycle.distance_km > 0.0, "distance_km must be positive");
    if (spec.subsystems.security) {
      const double protected_frames = snapshot_value(r, "security", "frames_protected");
      const double authenticated = snapshot_value(r, "security", "frames_authenticated");
      checks.expect(protected_frames > 0.0, "security: no frame protected");
      checks.expect(authenticated <= protected_frames,
                    "security: frames_authenticated > frames_protected");
      checks.expect(snapshot_value(r, "security", "frames_rejected") == 0.0,
                    "security: frames_rejected != 0");
    }
    if (auto* faults = vehicle.find_subsystem<ev::core::FaultsSubsystem>())
      checks.expect(faults->plan().injections().size() == faults->plan().planned(),
                    "faults: not every planned injection fired");
    if (!golden_.empty())
      checks.expect(behaviour_sections(json) == golden_,
                    "drive/telemetry sections differ from the golden result");
  }

  static Counts counts_of(ev::core::VehicleSystem& vehicle, const ev::core::CoSimResult& r) {
    Counts counts;
    counts.emplace_back("sim.events_dispatched",
                        static_cast<double>(vehicle.simulator().dispatched()));
    const std::vector<ev::network::Bus*> buses = vehicle.network().buses();
    for (std::size_t i = 0; i < buses.size(); ++i)
      counts.emplace_back(std::string("network.") + kBusMetric[i] + ".delivered",
                          static_cast<double>(buses[i]->delivered_count()));
    ev::network::Gateway& gateway = vehicle.network().gateway();
    counts.emplace_back("network.gateway.forwarded",
                        static_cast<double>(gateway.forwarded_count()));
    counts.emplace_back("network.gateway.dropped", static_cast<double>(gateway.dropped_count()));
    counts.emplace_back("middleware.frames_run",
                        static_cast<double>(vehicle.cockpit().frames_run()));
    counts.emplace_back("security.frames_rejected",
                        snapshot_value(r, "security", "frames_rejected"));
    counts.emplace_back("faults.injections_fired",
                        snapshot_value(r, "faults", "injections_fired"));
    counts.emplace_back("faults.transitions", snapshot_value(r, "faults", "transitions"));
    counts.emplace_back("faults.final_mode", snapshot_value(r, "faults", "final_mode"));
    return counts;
  }

  static void bus_figures(ev::core::VehicleSystem& vehicle, Outcome& out) {
    const std::vector<ev::network::Bus*> buses = vehicle.network().buses();
    for (std::size_t i = 0; i < buses.size(); ++i) {
      const std::string base = std::string("network.") + kBusMetric[i];
      out.add(base + ".util", buses[i]->utilization(), "fraction");
      out.add(base + ".lat_p99_us", buses[i]->latency().percentile(99.0) * 1e6, "us");
    }
  }

  const Options& options_;
  std::string golden_;
};

// Figure1Network on a private simulator over \p span_s, no observer: the
// network layer alone, with the synthetic BMS source standing in for the
// plant's publications.
std::pair<double, std::uint64_t> network_alone(const ev::config::ScenarioSpec& spec,
                                               double span_s, Tracer* tracer) {
  ev::network::Figure1Config config = ev::core::to_vehicle_config(spec).network;
  config.synthetic_bms_source = true;
  ev::sim::Simulator sim;
  Timed timed(tracer, "network.alone");
  ev::network::Figure1Network network(sim, config);
  network.start();
  sim.run_until(ev::sim::Time::seconds(span_s));
  return {timed.stop(), sim.dispatched()};
}

// The infotainment MOST ring alone (its two synchronous streams, no
// traffic): the cost of its frame clock over \p span_s.
double most_alone(double span_s, Tracer* tracer) {
  ev::sim::Simulator sim;
  Timed timed(tracer, "network.most.alone");
  ev::network::MostBus most(sim, "infotainment(MOST)", {{0x800, 8}, {0x801, 4}});
  most.start();
  sim.run_until(ev::sim::Time::seconds(span_s));
  return timed.stop();
}

double powertrain_alone(const ev::config::ScenarioSpec& spec, Tracer* tracer) {
  const ev::core::VehicleSystemConfig vehicle = ev::core::to_vehicle_config(spec);
  ev::powertrain::PowertrainConfig config = vehicle.powertrain;
  config.dt_s = vehicle.control_period_s;
  const ev::powertrain::DriveCycle cycle = ev::core::to_drive_cycle(spec);
  Timed timed(tracer, "powertrain.alone");
  ev::powertrain::PowertrainSimulation plant(config);
  const ev::powertrain::CycleResult result = plant.run_cycle(cycle);
  const double elapsed = timed.stop();
  if (!(result.distance_km > 0.0)) std::abort();
  return elapsed;
}

Outcome run_drive_untraced(const Options& options) {
  DriveWorkload drive(options);
  return measure_untraced(
      options, [&drive] { return drive.setup_once(); },
      [&drive](Checks& checks) {
        const DriveExecution ex = drive.execute(nullptr, checks);
        return Repeat{ex.setup_s, ex.run_s, ex.span_s, counts_json(ex.counts) + ex.json};
      },
      "sim_rtf", "sim_s/s");
}

Outcome run_drive_traced(const Options& options, Tracer& tracer) {
  Outcome out;
  DriveWorkload drive(options);
  const ev::config::ScenarioSpec spec = drive.spec();

  Checks untraced_checks;
  const DriveExecution untraced = drive.execute(nullptr, untraced_checks);
  out.record(untraced_checks.problems);
  Checks checks;
  const DriveExecution traced = drive.execute(&tracer, checks, &out);
  expect_same_counts(untraced.counts, traced.counts, checks);
  out.record(checks.problems);
  out.counts = traced.counts;
  for (const auto& [name, value] : traced.counts) out.add(name, value, "count");
  out.add("trace.overhead_s", (traced.parse_s + traced.build_s + traced.run_s) -
                                  (untraced.parse_s + untraced.build_s + untraced.run_s),
          "s");
  out.add("config.parse_s", traced.parse_s, "s");
  out.add("core.build_s", traced.build_s, "s");
  out.add("core.run_s", traced.run_s, "s");

  // obs.overhead_frac from interleaved obs-on / obs-off executions.
  std::vector<double> run_s{untraced.run_s, traced.run_s};
  double overhead_frac = 0.0;
  if (spec.subsystems.obs) {
    std::vector<double> off_s;
    for (int i = 0; i < kLayerRepeats; ++i) {
      Checks pair_checks;
      const DriveExecution off = drive.execute(&tracer, pair_checks, nullptr, true);
      pair_checks.expect(behaviour_sections(off.json) == behaviour_sections(traced.json),
                         "obs off changes the drive/telemetry sections");
      off_s.push_back(off.run_s);
      const DriveExecution on = drive.execute(&tracer, pair_checks);
      expect_same_counts(traced.counts, on.counts, pair_checks);
      run_s.push_back(on.run_s);
      out.record(pair_checks.problems);
    }
    overhead_frac = median(run_s) / median(off_s) - 1.0;
  }
  out.add("obs.overhead_frac", overhead_frac, "ratio");

  std::vector<double> network_s, most_s, plant_s;
  std::uint64_t alone_events = 0;
  for (int i = 0; i < kLayerRepeats; ++i) {
    const auto [seconds, events] = network_alone(spec, traced.span_s, &tracer);
    network_s.push_back(seconds);
    alone_events = events;
    most_s.push_back(most_alone(traced.span_s, &tracer));
    plant_s.push_back(powertrain_alone(spec, &tracer));
  }
  double delivered = 0.0, events = 0.0;
  for (const auto& [name, value] : traced.counts) {
    if (name.ends_with(".delivered")) delivered += value;
    if (name == "sim.events_dispatched") events = value;
  }
  out.add_median("network.alone_s", network_s, "s");
  out.add("network.alone_events", static_cast<double>(alone_events), "count");
  out.add("network.useful_event_ratio", delivered / static_cast<double>(alone_events),
          "ratio");
  out.add_median("network.most.alone_s", most_s, "s");
  out.add_median("powertrain.alone_s", plant_s, "s");

  KernelCost kernel;
  {
    Timed timed(&tracer, "sim.kernel_mix");
    kernel = kernel_cost();
  }
  out.add("sim.ns_per_event", kernel.bare_ns, "ns");
  out.add("obs.ns_per_event", kernel.observer_ns, "ns");
  const double obs_estimate_s = spec.subsystems.obs ? kernel.observer_ns * 1e-9 * events : 0.0;
  out.add("core.residual_s",
          median(run_s) - median(network_s) - median(plant_s) - obs_estimate_s, "s");
  {
    Timed timed(&tracer, "battery.step_all");
    const ev::config::PackSpec& pack = spec.pack;
    out.add("battery.step_ns_per_cell",
            cell_step_ns_per_cell(static_cast<std::size_t>(pack.module_count *
                                                           pack.cells_per_module)),
            "ns");
  }
  {
    Timed timed(&tracer, "security.channel");
    const auto [protect_ns, unprotect_ns] = secure_channel_ns();
    out.add("security.protect_ns", protect_ns, "ns");
    out.add("security.unprotect_ns", unprotect_ns, "ns");
  }
  return out;
}

/// The traced run of a workload that takes a jobs count: one untraced
/// execution at jobs N, then kLayerRepeats interleaved traced pairs at jobs N
/// and jobs 1. Every report must equal the first byte for byte. Adds
/// \p speedup_metric (median jobs-1 wall / median jobs-N wall) and
/// trace.overhead_s; returns the untraced result.
template <typename Result>
Result run_jobs_pairs(const Options& options, Tracer& tracer, const char* span_name,
                      const std::function<Result(int)>& run,
                      const std::function<void(const Result&, Checks&)>& check,
                      const std::function<std::string(const Result&)>& report,
                      const char* speedup_metric, Outcome& out) {
  Checks first_checks;
  Clock::time_point start = Clock::now();
  Result first = run(options.jobs);
  const double untraced_s = seconds_since(start);
  check(first, first_checks);
  out.record(first_checks.problems);
  const std::string expected = report(first);

  std::vector<double> wall[2];  // [0] jobs N, [1] jobs 1
  for (int i = 0; i < kLayerRepeats; ++i) {
    Checks checks;
    for (const int jobs : {options.jobs, 1}) {
      const std::string name = std::string(span_name) + ".jobs" + (jobs == 1 ? "1" : "N");
      Timed timed(&tracer, name.c_str());
      const Result r = run(jobs);
      wall[jobs == 1 ? 1 : 0].push_back(timed.stop());
      check(r, checks);
      checks.expect(report(r) == expected,
                    name + ": report differs from the untraced jobs-N report");
    }
    out.record(checks.problems);
  }
  out.add(speedup_metric, median(wall[1]) / median(wall[0]), "ratio");
  out.add("trace.overhead_s", median(wall[0]) - untraced_s, "s");
  return first;
}

// --- synth_overloaded -----------------------------------------------------------

ev::synthesis::SynthesisOptions synthesis_options(const Options& options, int jobs) {
  ev::synthesis::SynthesisOptions synth;
  synth.seed = options.seed;
  synth.iters = kSynthIters;
  synth.jobs = jobs;
  return synth;
}

Counts synthesis_counts(const ev::synthesis::SynthesisResult& r) {
  return {{"synthesis.moves_evaluated", static_cast<double>(r.moves_evaluated)},
          {"synthesis.moves_accepted", static_cast<double>(r.moves_accepted)},
          {"synthesis.bus_pass_evals", static_cast<double>(r.bus_pass_evals)},
          {"synthesis.ladder_steps", static_cast<double>(r.ladder_steps)},
          {"synthesis.pareto_points", static_cast<double>(r.pareto.size())}};
}

void check_synthesis(const ev::synthesis::SynthesisResult& r, Checks& checks) {
  checks.expect(r.feasible, "synthesis result is infeasible");
  checks.expect(r.fitness.errors == 0, "synthesis result has fitness errors");
  checks.expect(r.moves_evaluated > 0, "synthesis evaluated no move");
}

Outcome run_synth_untraced(const Options& options) {
  const auto parse = [&options] {
    const Clock::time_point start = Clock::now();
    const ev::config::ScenarioSpec spec = ev::config::load_scenario_file(options.input);
    return std::pair{spec, seconds_since(start)};
  };
  return measure_untraced(
      options, [&parse] { return parse().second; },
      [&](Checks& checks) {
        const auto [spec, setup_s] = parse();
        const Clock::time_point start = Clock::now();
        const ev::synthesis::SynthesisResult r =
            ev::synthesis::synthesize(spec, synthesis_options(options, options.jobs));
        const double run_s = seconds_since(start);
        check_synthesis(r, checks);
        return Repeat{setup_s, run_s, static_cast<double>(r.moves_evaluated),
                      counts_json(synthesis_counts(r)) + ev::synthesis::synthesis_json(r)};
      },
      "moves_per_s", "moves/s");
}

Outcome run_synth_traced(const Options& options, Tracer& tracer) {
  Outcome out;
  ev::config::ScenarioSpec spec;
  {
    Timed parse(&tracer, "config.parse");
    spec = ev::config::load_scenario_file(options.input);
    out.add("config.parse_s", parse.stop(), "s");
  }
  {
    Timed timed(&tracer, "analysis.check");
    std::size_t diagnostics = 0;
    out.add("analysis.check_s",
            per_call_seconds([&] { diagnostics += ev::analysis::analyze_scenario(spec).diagnostics.size(); }),
            "s");
    if (diagnostics == 0) std::abort();
  }
  {
    Timed timed(&tracer, "analysis.check_prob");
    std::size_t diagnostics = 0;
    out.add("analysis.check_prob_s", per_call_seconds([&] {
              diagnostics +=
                  ev::analysis::analyze_probabilistic_scenario(spec).diagnostics.size();
            }),
            "s");
    if (diagnostics == 0) std::abort();
  }

  const ev::synthesis::SynthesisResult r = run_jobs_pairs<ev::synthesis::SynthesisResult>(
      options, tracer, "synthesis.synthesize",
      [&](int jobs) { return ev::synthesis::synthesize(spec, synthesis_options(options, jobs)); },
      check_synthesis,
      [](const ev::synthesis::SynthesisResult& result) {
        return ev::synthesis::synthesis_json(result) + result.spec.to_text();
      },
      "synthesis.pool_speedup", out);
  out.counts = synthesis_counts(r);
  for (const auto& [name, value] : out.counts) out.add(name, value, "count");
  const double moves = static_cast<double>(r.moves_evaluated);
  out.add("synthesis.accept_ratio", static_cast<double>(r.moves_accepted) / moves, "ratio");
  out.add("synthesis.bus_pass_per_move", static_cast<double>(r.bus_pass_evals) / moves,
          "ratio");
  return out;
}

// --- fleet_depot ----------------------------------------------------------------

Counts fleet_counts(const ev::fleet::FleetResult& r) {
  return {{"fleet.ticks", static_cast<double>(r.ticks)},
          {"fleet.sessions_completed", static_cast<double>(r.stations.sessions_completed)},
          {"fleet.messages_enqueued", static_cast<double>(r.messages_enqueued)},
          {"fleet.messages_attempts", static_cast<double>(r.messages_attempts)},
          {"fleet.messages_retried", static_cast<double>(r.messages_retried)},
          {"fleet.dead_lettered", static_cast<double>(r.messages_dead_lettered)},
          {"fleet.grid_violations", static_cast<double>(r.grid_violations)},
          {"fleet.digest", static_cast<double>(r.digest)}};
}

void check_fleet(const ev::fleet::FleetResult& r, Checks& checks) {
  checks.expect(r.grid_violations == 0, "fleet: grid violations");
  checks.expect(r.messages_delivered + r.messages_dead_lettered + r.retry_pending_end ==
                    r.messages_enqueued,
                "fleet: delivered + dead_lettered + pending != enqueued");
  checks.expect(r.stations.sessions_completed > 0, "fleet: no session completed");
}

Outcome run_fleet_untraced(const Options& options) {
  const auto parse = [&options] {
    const Clock::time_point start = Clock::now();
    const ev::config::FleetSpec spec = ev::config::load_fleet_file(options.input);
    return std::pair{spec, seconds_since(start)};
  };
  return measure_untraced(
      options, [&parse] { return parse().second; },
      [&](Checks& checks) {
        const auto [spec, setup_s] = parse();
        const Clock::time_point start = Clock::now();
        const ev::fleet::FleetResult r = ev::fleet::run_fleet(spec, options.jobs);
        const double run_s = seconds_since(start);
        check_fleet(r, checks);
        return Repeat{setup_s, run_s, spec.sim_hours * 3600.0,
                      counts_json(fleet_counts(r)) + ev::fleet::fleet_report_json(r)};
      },
      "sim_rtf", "sim_s/s");
}

/// Median per-round us of WorkerPool::run over \p tasks trivial tasks.
double pool_round_us(int jobs, int tasks) {
  ev::campaign::WorkerPool pool(jobs);
  std::vector<std::uint64_t> slots(static_cast<std::size_t>(tasks));
  const double per_round = per_call_seconds([&] {
    pool.run(tasks, [&slots](int i) { slots[static_cast<std::size_t>(i)] += 1; });
  });
  return per_round * 1e6;
}

double parallel_for_us(int jobs, int tasks) {
  std::vector<std::uint64_t> slots(static_cast<std::size_t>(tasks));
  const double per_call = per_call_seconds([&] {
    ev::campaign::parallel_for(tasks, jobs,
                               [&slots](int i) { slots[static_cast<std::size_t>(i)] += 1; });
  });
  return per_call * 1e6;
}

Outcome run_fleet_traced(const Options& options, Tracer& tracer) {
  Outcome out;
  ev::config::FleetSpec spec;
  {
    Timed parse(&tracer, "config.parse");
    spec = ev::config::load_fleet_file(options.input);
    out.add("config.parse_s", parse.stop(), "s");
  }
  const ev::fleet::FleetResult r = run_jobs_pairs<ev::fleet::FleetResult>(
      options, tracer, "fleet.run_fleet",
      [&spec](int jobs) { return ev::fleet::run_fleet(spec, jobs); }, check_fleet,
      ev::fleet::fleet_report_json, "fleet.pool_speedup", out);
  out.counts = fleet_counts(r);
  for (const auto& [name, value] : out.counts) out.add(name, value, "count");
  out.add("fleet.retry_ratio",
          static_cast<double>(r.messages_retried) / static_cast<double>(r.messages_attempts),
          "ratio");

  const int tasks = static_cast<int>(spec.stations);
  {
    Timed timed(&tracer, "campaign.worker_pool");
    out.add("campaign.pool_round_us_j1", pool_round_us(1, tasks), "us");
    out.add("campaign.pool_round_us_j2", pool_round_us(std::min(2, options.jobs), tasks), "us");
    out.add("campaign.pool_round_us_jn", pool_round_us(options.jobs, tasks), "us");
  }
  {
    Timed timed(&tracer, "campaign.parallel_for");
    out.add("campaign.parallel_for_us", parallel_for_us(options.jobs, tasks), "us");
  }
  return out;
}

// --- main -----------------------------------------------------------------------

/// Per-layer metrics and their units, in report order. A traced run reports
/// all of them; a layer the workload does not exercise reads 0.
struct MetricName {
  const char* name;
  const char* unit;
};
const MetricName kLayerMetrics[] = {
    {"sim.events_dispatched", "count"}, {"sim.ns_per_event", "ns"},
    {"network.alone_s", "s"}, {"network.alone_events", "count"},
    {"network.useful_event_ratio", "ratio"},
    {"network.lin.delivered", "count"}, {"network.lin.util", "fraction"},
    {"network.lin.lat_p99_us", "us"},
    {"network.comfort_can.delivered", "count"}, {"network.comfort_can.util", "fraction"},
    {"network.comfort_can.lat_p99_us", "us"},
    {"network.most.delivered", "count"}, {"network.most.util", "fraction"},
    {"network.most.lat_p99_us", "us"},
    {"network.safety_can.delivered", "count"}, {"network.safety_can.util", "fraction"},
    {"network.safety_can.lat_p99_us", "us"},
    {"network.flexray.delivered", "count"}, {"network.flexray.util", "fraction"},
    {"network.flexray.lat_p99_us", "us"},
    {"network.most.alone_s", "s"}, {"network.gateway.forwarded", "count"},
    {"network.gateway.dropped", "count"},
    {"obs.ns_per_event", "ns"}, {"obs.overhead_frac", "ratio"},
    {"powertrain.alone_s", "s"}, {"battery.step_ns_per_cell", "ns"},
    {"middleware.frames_run", "count"}, {"security.protect_ns", "ns"},
    {"security.unprotect_ns", "ns"}, {"security.frames_rejected", "count"},
    {"faults.injections_fired", "count"}, {"faults.transitions", "count"},
    {"faults.final_mode", "count"},
    {"core.residual_s", "s"}, {"config.parse_s", "s"}, {"core.build_s", "s"},
    {"core.run_s", "s"},
    {"analysis.check_s", "s"}, {"analysis.check_prob_s", "s"},
    {"synthesis.moves_evaluated", "count"}, {"synthesis.moves_accepted", "count"},
    {"synthesis.accept_ratio", "ratio"}, {"synthesis.bus_pass_per_move", "ratio"},
    {"synthesis.pool_speedup", "ratio"},
    {"fleet.ticks", "count"}, {"fleet.sessions_completed", "count"},
    {"fleet.retry_ratio", "ratio"}, {"fleet.dead_lettered", "count"},
    {"fleet.grid_violations", "count"}, {"fleet.pool_speedup", "ratio"},
    {"campaign.pool_round_us_j1", "us"}, {"campaign.pool_round_us_j2", "us"},
    {"campaign.pool_round_us_jn", "us"}, {"campaign.parallel_for_us", "us"},
    {"trace.overhead_s", "s"}, {"trace.spans", "count"},
};

const MetricName kEndToEndMetrics[] = {{"wall_s", "s"}, {"setup_s", "s"}, {"peak_rss_mb", "MB"}};

std::string json_escape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

/// Prints the human-readable report, then the result line with the
/// end-to-end metrics (untraced) or every per-layer metric (traced).
void print_report(const Options& options, const Outcome& out) {
  std::printf("evbench %s seed %llu (%s, jobs %d)\n", options.workload.c_str(),
              static_cast<unsigned long long>(options.seed),
              options.trace ? "traced" : "untraced", options.jobs);
  for (const Metric& m : out.metrics) {
    std::printf("  %-34s %16s %-9s (%zu sample%s)\n", m.name.c_str(),
                format_number(m.value).c_str(), m.unit.c_str(), m.samples,
                m.samples == 1 ? "" : "s, median");
    if (m.samples > 1) {
      // The samples in run order, or their range when there are many.
      std::vector<double> sorted = m.all;
      std::sort(sorted.begin(), sorted.end());
      std::string list = m.samples <= 32 ? "" : "range " + format_number(sorted.front()) +
                                                    " .. " + format_number(sorted.back());
      for (std::size_t i = 0; m.samples <= 32 && i < m.all.size(); ++i)
        list += (i == 0 ? "" : " ") + format_number(m.all[i]);
      std::printf("  %-34s %s\n", "", list.c_str());
    }
  }
  std::printf("  %-34s %16s %-9s (%zu sample%s)\n", "error_rate",
              format_number(static_cast<double>(out.failed) /
                            static_cast<double>(std::max<std::size_t>(out.attempted, 1)))
                  .c_str(),
              "ratio", out.attempted, out.attempted == 1 ? "" : "s");
  for (const std::string& failure : out.failures)
    std::printf("  FAILED: %s\n", failure.c_str());

  std::map<std::string, const Metric*> by_name;
  for (const Metric& m : out.metrics) by_name[m.name] = &m;
  std::string json = "{\"correct\": ";
  json += out.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " + std::to_string(out.failed);
  json += ", \"metrics\": {";
  bool first = true;
  const auto emit = [&](const std::string& name, double value, const std::string& unit) {
    char number[64];
    std::snprintf(number, sizeof(number), "%.17g", value);
    json += (first ? "\"" : ", \"") + name + "\": {\"value\": " + number +
            ", \"unit\": \"" + json_escape(unit) + "\"}";
    first = false;
  };
  const std::span<const MetricName> names =
      options.trace ? std::span<const MetricName>(kLayerMetrics) : kEndToEndMetrics;
  for (const MetricName& m : names) {
    const auto it = by_name.find(m.name);
    emit(m.name, it == by_name.end() ? 0.0 : it->second->value, m.unit);
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

int usage() {
  std::fprintf(stderr,
               "usage: evbench --workload <drive_city|drive_faulted|synth_overloaded|"
               "fleet_depot>\n"
               "               --input <file> [--golden <result.json>] --seed <n>\n"
               "               --seconds <s> --trace <0|1> --jobs <n> --out-dir <dir>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") options.workload = value;
    else if (key == "--input") options.input = value;
    else if (key == "--golden") options.golden = value;
    else if (key == "--out-dir") options.out_dir = value;
    else if (key == "--seed") options.seed = std::strtoull(value, nullptr, 10);
    else if (key == "--seconds") options.seconds = std::atof(value);
    else if (key == "--trace") options.trace = std::atoi(value) != 0;
    else if (key == "--jobs") options.jobs = std::max(1, std::atoi(value));
    else return usage();
  }
  if (argc % 2 != 1 || options.input.empty() || options.out_dir.empty()) return usage();

  try {
    Outcome out;
    Tracer tracer;
    const bool drive =
        options.workload == "drive_city" || options.workload == "drive_faulted";
    if (!drive && options.workload != "synth_overloaded" && options.workload != "fleet_depot")
      return usage();
    try {
      if (drive)
        out = options.trace ? run_drive_traced(options, tracer) : run_drive_untraced(options);
      else if (options.workload == "synth_overloaded")
        out = options.trace ? run_synth_traced(options, tracer) : run_synth_untraced(options);
      else
        out = options.trace ? run_fleet_traced(options, tracer) : run_fleet_untraced(options);
    } catch (const std::exception& e) {
      // An execution that throws is a failed execution, reported as such.
      out.record({std::string("exception: ") + e.what()});
    }
    if (options.trace) {
      out.add("trace.spans", static_cast<double>(tracer.spans().size()), "count");
      const std::string base = options.out_dir + "/" + options.workload + "-s" +
                               std::to_string(options.seed);
      std::ofstream counts(base + ".counts.json");
      counts << counts_json(out.counts) << "\n";
      if (!tracer.write_json(base + ".spans.json") || !counts) {
        std::fprintf(stderr, "evbench: cannot write '%s.*'\n", base.c_str());
        return 1;
      }
    }
    print_report(options, out);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "evbench: %s\n", e.what());
    return 1;
  }
}
