#include "fault/sampling.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <random>

namespace dp::fault {

std::vector<BridgingFault> sample_bridging_faults(
    const Circuit& circuit, const netlist::LayoutEstimate& layout,
    const std::vector<BridgingFault>& candidates,
    const SamplingOptions& options) {
  (void)circuit;
  // Checked before the small-population shortcut, so an invalid policy
  // fails on every circuit rather than only on the large ones.
  if (options.theta <= 0.0) {
    throw netlist::NetlistError("sample_bridging_faults: theta must be > 0");
  }
  if (candidates.size() <= options.target_count) return candidates;

  // Normalize distances to the maximum over all candidates.
  std::vector<double> dist(candidates.size());
  double max_dist = 0.0;
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    dist[i] = layout.distance(candidates[i].a, candidates[i].b);
    max_dist = std::max(max_dist, dist[i]);
  }
  if (max_dist == 0.0) max_dist = 1.0;

  // Efraimidis-Spirakis: draw key_i = -log(u_i) / w_i and keep the
  // target_count smallest keys; equivalent to sequential weighted sampling
  // without replacement with weights w_i.
  std::mt19937_64 rng(options.seed);
  std::uniform_real_distribution<double> uni(
      std::numeric_limits<double>::min(), 1.0);
  std::vector<std::pair<double, std::size_t>> keyed(candidates.size());
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const double z = dist[i] / max_dist;
    const double w = std::exp(-z / options.theta);
    keyed[i] = {-std::log(uni(rng)) / w, i};
  }
  std::nth_element(keyed.begin(), keyed.begin() + options.target_count,
                   keyed.end());
  keyed.resize(options.target_count);
  std::sort(keyed.begin(), keyed.end(),
            [](const auto& a, const auto& b) { return a.second < b.second; });

  std::vector<BridgingFault> sample;
  sample.reserve(keyed.size());
  for (const auto& [key, idx] : keyed) sample.push_back(candidates[idx]);
  return sample;
}

std::vector<BridgingFault> nfbf_fault_set(const Circuit& circuit,
                                          const Structure& structure,
                                          const netlist::LayoutEstimate& layout,
                                          BridgeType type,
                                          const SamplingOptions& options) {
  std::vector<BridgingFault> all = enumerate_nfbfs(circuit, structure, type);
  return sample_bridging_faults(circuit, layout, all, options);
}

}  // namespace dp::fault
