// Host-speed calibration: every time and rate the benchmark reports is
// rescaled to a reference host speed.
//
// The benchmark runs on virtual machines that share their host. Same code,
// same inputs, minutes apart, took from 1x to 3x as long on every workload,
// in purely in-process steps (a DIFF, a live count) as much as on the wire,
// and with little steal time: the host's neighbours slow the vCPU itself.
// Wall times compared across runs mostly measured the neighbours.
//
// So the benchmark times a fixed calibration pass of its own (string-keyed
// tree lookups, hash probes, varint decoding, small allocations and a sort
// over data that fits the L2 cache; nothing from the program under test,
// and not sensitive to what the program leaves in the caches) between the
// workload's steps, and keeps the median of the last kWindow passes. The
// scale is kReferencePassMs / that median: 1 when the host runs at the
// reference speed, below 1 when it runs slower. A latency is multiplied by
// the scale current when it is recorded, and phase durations are
// accumulated piecewise at the scale of each stretch, so every reported
// time reads as if the host had run at the reference speed throughout. A
// change to the program moves the rescaled figures exactly as it moves the
// wall-clock ones.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

namespace perfbench {

class HostSpeed {
 public:
  /// Median time of one pass at the reference speed.
  static constexpr double kReferencePassMs = 0.15;
  /// Passes the scale is the median of.
  static constexpr std::size_t kWindow = 15;

  /// Builds the calibration data (fixed, seed-independent; untimed).
  HostSpeed();

  /// Times `passes` calibration passes and updates the scale. The wall time
  /// since the previous call is credited to referenceSeconds() at the
  /// scale that held before this call; the passes themselves are not.
  void calibrate(std::size_t passes = 1);

  /// kReferencePassMs / median of the last kWindow passes (1 before any).
  double scale() const { return scale_; }

  /// Wall time since construction, minus calibration passes, each stretch
  /// multiplied by the scale that held during it.
  double referenceSeconds() const;

  /// Every pass timed so far, in ms.
  const std::vector<double>& passes() const { return all_ms_; }

 private:
  using Clock = std::chrono::steady_clock;
  double onePass();
  void kernel();

  std::map<std::string, std::uint32_t> tree_;
  std::vector<std::string> probes_;
  std::unordered_map<std::uint64_t, std::uint32_t> hash_;
  std::vector<std::uint8_t> varints_;
  std::uint64_t sink_ = 0;

  std::deque<double> window_;
  std::vector<double> all_ms_;
  double scale_ = 1.0;
  Clock::time_point last_;
  double reference_s_ = 0.0;
};

/// The process's calibrator, created on first use.
HostSpeed& hostSpeed();

}  // namespace perfbench
