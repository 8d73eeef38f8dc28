// Set-up is timed many times per run and reported as a median: a few
// repetitions at the start, then one after every piece of timed work, so
// the median covers the whole run rather than its first moments. Each is
// scaled to the reference machine speed (see Calibration).
#pragma once

#include <utility>
#include <vector>

#include "common.hpp"

namespace pb {

/// Repetitions at the start.
inline constexpr std::size_t kSetupRepeats = 5;

struct SetupTimes {
  double netlist_s = 0.0;  ///< circuit build + Structure
  double fault_s = 0.0;    ///< fault list / bridge enumeration + sampling
  double total_s = 0.0;
  std::size_t faults = 0;
};

class SetupSamples {
 public:
  /// Calls `make(SetupTimes&)` kSetupRepeats times and keeps the last
  /// inputs.
  template <typename Make>
  auto first(Make&& make) {
    std::vector<SetupTimes> burst(1);
    calibration_.read();
    auto inputs = make(burst.back());
    while (burst.size() < kSetupRepeats) {
      burst.emplace_back();
      inputs = make(burst.back());
    }
    const std::size_t at = calibration_.read();
    for (const SetupTimes& t : burst) samples_.push_back({t, at});
    return inputs;
  }
  /// One more repetition of `make(SetupTimes&)`; its inputs are dropped.
  template <typename Make>
  void again(Make&& make) {
    SetupTimes t;
    calibration_.read();
    make(t);
    samples_.push_back({t, calibration_.read()});
  }
  /// setup_s, netlist.build_s, fault.enumerate_s (scaled medians) and
  /// fault.count.
  void report(Result& r) const {
    std::vector<double> total, netlist, fault, raw;
    for (const auto& [t, at] : samples_) {
      const double k = calibration_.scale(at);
      total.push_back(k * t.total_s);
      netlist.push_back(k * t.netlist_s);
      fault.push_back(k * t.fault_s);
      raw.push_back(t.total_s);
    }
    r.put("setup_s", median(total), "s");
    r.put("netlist.build_s", median(netlist), "s");
    r.put("fault.enumerate_s", median(fault), "s");
    r.put("fault.count",
          samples_.empty() ? 0.0 : static_cast<double>(samples_.back().first.faults),
          "count");
    r.info["setup_repeats"] = static_cast<long long>(samples_.size());
    r.info["raw_setup_s"] = median(raw);
  }

 private:
  Calibration calibration_{1, Calibration::Loop::kInL2};
  /// Each set-up with the index of the calibration reading that closed it.
  std::vector<std::pair<SetupTimes, std::size_t>> samples_;
};

}  // namespace pb
