#include "faults/dictionary.hpp"

#include <algorithm>

#include "util/error.hpp"
#include "util/logging.hpp"
#include "util/strings.hpp"

namespace ftdiag::faults {

FaultDictionary FaultDictionary::build(const circuits::CircuitUnderTest& cut,
                                       const FaultUniverse& universe) {
  return build(cut, universe, cut.dictionary_grid.frequencies(), SimOptions{});
}

FaultDictionary FaultDictionary::build(
    const circuits::CircuitUnderTest& cut, const FaultUniverse& universe,
    const std::vector<double>& frequencies_hz) {
  return build(cut, universe, frequencies_hz, SimOptions{});
}

FaultDictionary FaultDictionary::build(const circuits::CircuitUnderTest& cut,
                                       const FaultUniverse& universe,
                                       const SimOptions& sim) {
  return build(cut, universe, cut.dictionary_grid.frequencies(), sim);
}

FaultDictionary FaultDictionary::build(
    const circuits::CircuitUnderTest& cut, const FaultUniverse& universe,
    const std::vector<double>& frequencies_hz, const SimOptions& sim) {
  std::vector<ParametricFault> faults = universe.enumerate();
  log::info(str::format(
      "building fault dictionary: %zu faults x %zu freqs (%zu threads, "
      "reuse %s)",
      faults.size(), frequencies_hz.size(), sim.resolved_threads(),
      sim.reuse_factorization ? "on" : "off"));

  SimulationEngine engine(cut, sim);
  BatchResult batch = engine.simulate_all(faults, frequencies_hz);
  log::info(str::format(
      "fault simulation: %zu rank-1 solves, %zu full solves, %zu fallback "
      "faults",
      batch.stats.rank1_solves, batch.stats.full_solves,
      batch.stats.fallback_faults));
  return assemble(std::move(faults), batch.golden.block());
}

FaultDictionary FaultDictionary::assemble(
    std::vector<ParametricFault> faults,
    std::shared_ptr<const mna::ResponsePlanes> planes) {
  if (faults.empty()) {
    throw ConfigError("fault dictionary needs at least one entry");
  }
  if (!planes || planes->rows != faults.size() + 1) {
    throw ConfigError(
        "dictionary planes need one row per fault plus the golden");
  }
  FaultDictionary dict;
  dict.golden_ = mna::AcResponse(planes, 0);
  dict.entries_.reserve(faults.size());
  for (std::size_t e = 0; e < faults.size(); ++e) {
    dict.entries_.push_back(
        {std::move(faults[e]), mna::AcResponse(planes, 1 + e)});
  }

  // Per-site index, deviations ascending (enumerate() already orders them,
  // but do not rely on it).
  for (std::size_t i = 0; i < dict.entries_.size(); ++i) {
    std::string label = dict.entries_[i].fault.site.label();
    auto [it, inserted] =
        dict.site_index_.try_emplace(label, dict.site_labels_.size());
    if (inserted) {
      dict.site_labels_.push_back(std::move(label));
      dict.per_site_.emplace_back();
    }
    dict.per_site_[it->second].push_back(i);
  }
  for (auto& indices : dict.per_site_) {
    std::sort(indices.begin(), indices.end(), [&](std::size_t a, std::size_t b) {
      return dict.entries_[a].fault.deviation < dict.entries_[b].fault.deviation;
    });
  }
  return dict;
}

const std::vector<std::size_t>& FaultDictionary::entries_for(
    const std::string& site_label) const {
  const auto it = site_index_.find(site_label);
  if (it == site_index_.end()) {
    throw ConfigError("dictionary has no site '" + site_label + "'");
  }
  return per_site_[it->second];
}

}  // namespace ftdiag::faults
