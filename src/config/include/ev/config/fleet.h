/// \file fleet.h
/// Declarative fleet-charging scenario descriptions. A FleetSpec is the
/// single source of truth for one fleet run of the OCPP-style central
/// system: the station population and its electrical envelope, the session
/// arrival model, the grid capacity and rebalance cadence, the heartbeat
/// lease, the retry/backoff policy of the control channel, and the grid
/// fault timeline. Like ScenarioSpec it is plain data that round-trips
/// losslessly through the `key = value` text format (conventionally a
/// `.fleet` file, so vehicle-scenario tooling that globs `*.scn` never
/// mistakes one for the other); `src/fleet` turns a spec into a run and
/// `evsys fleet` binds the two together.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace ev::config {

/// Grid-side fault kinds (mirrors faults::GridFaultKind without the
/// dependency — config stays standard-library-only).
enum class GridFaultKindSpec : std::uint8_t {
  kCapacityDrop,     ///< Scale capacity by (1 - value) for duration_s.
  kFeederPartition,  ///< Feeder `target` loses its control channel.
  kCommsBlackout,    ///< Stations [target, target + value) lose heartbeats.
};

/// One planned grid fault, active over [at_s, at_s + duration_s).
struct GridFaultSpec {
  double at_s = 0.0;
  GridFaultKindSpec kind = GridFaultKindSpec::kCapacityDrop;
  std::uint64_t target = 0;  ///< Feeder index or first station index.
  double value = 0.0;        ///< Drop fraction in [0, 1] or station count.
  double duration_s = 0.0;

  friend bool operator==(const GridFaultSpec&, const GridFaultSpec&) = default;
};

/// One complete declarative fleet-charging scenario.
struct FleetSpec {
  std::string name = "fleet";

  // Fleet shape and clock.
  /// Largest fleet.stations validate() accepts. Every station owns state
  /// and an outbox, so the bound keeps a typo from becoming an allocation
  /// failure; it sits far above the largest depot run (1536 stations).
  static constexpr std::uint64_t kMaxStations = 1'000'000;

  std::uint64_t stations = 64;   ///< Charge points, index 0..stations-1.
  std::uint64_t feeders = 4;     ///< Grid feeders; station i is on i % feeders.
  double sim_hours = 2.0;        ///< Simulated span.
  double tick_s = 1.0;           ///< Control tick (stations advance per tick).
  std::uint64_t seed = 1;        ///< Root seed of every stochastic draw.

  // Station electrical envelope (identical across the population).
  double station_max_current_a = 32.0;
  double station_min_current_a = 6.0;   ///< Floor for an active session.
  double station_safe_current_a = 8.0;  ///< ThrottleAlive fallback current.
  double station_voltage_v = 400.0;
  std::uint64_t rogue_stations = 0;  ///< First N stations carry bad credentials.

  // Session arrival / demand model.
  double arrival_rate_per_station_per_h = 0.6;
  double session_energy_min_kwh = 5.0;
  double session_energy_max_kwh = 30.0;
  double meter_period_s = 60.0;  ///< Cumulative MeterValues cadence.

  // Grid.
  double grid_capacity_kw = 600.0;
  double rebalance_period_s = 5.0;  ///< Load-balancer cadence (>= tick_s).

  // Heartbeat liveness lease.
  double heartbeat_period_s = 10.0;
  double heartbeat_lease_s = 30.0;  ///< Loss of contact >= lease throttles.

  // Control channel and retry policy.
  double msg_loss_probability = 0.0;  ///< Per-send Bernoulli loss.
  std::uint64_t retry_max_attempts = 5;
  double retry_timeout_s = 2.0;       ///< Detection delay before a retry.
  double retry_backoff_base_s = 2.0;  ///< Doubles per attempt, capped below.
  double retry_backoff_cap_s = 60.0;
  double retry_jitter = 0.1;  ///< Fractional seeded jitter on each backoff.

  std::vector<GridFaultSpec> grid_faults;  ///< Planned grid faults (may be empty).

  /// Throws std::invalid_argument naming the first violated constraint.
  void validate() const;

  /// Renders every field as one `key = value` line; from_text(to_text(s))
  /// == s for any valid spec.
  [[nodiscard]] std::string to_text() const;

  /// Parses the to_text() format (comments/blank lines ignored, unknown and
  /// duplicate keys rejected, missing keys keep defaults); validates.
  [[nodiscard]] static FleetSpec from_text(const std::string& text);

  friend bool operator==(const FleetSpec&, const FleetSpec&) = default;
};

/// Enum names as they appear in fleet scenario text.
[[nodiscard]] std::string to_string(GridFaultKindSpec kind);

/// Reads and parses a fleet scenario file. Throws std::invalid_argument
/// when the file cannot be read or fails to parse.
[[nodiscard]] FleetSpec load_fleet_file(const std::string& path);

/// Writes spec.to_text() to \p path; returns false when the file cannot be
/// opened.
bool save_fleet_file(const FleetSpec& spec, const std::string& path);

}  // namespace ev::config
