/// \file dictionary.hpp
/// \brief The fault dictionary: golden response plus one response per
/// dictionary fault, all on a common frequency grid.
///
/// The dictionary is the expensive artefact (one AC sweep per fault).  The
/// trajectory layer evaluates GA-proposed test frequencies against the
/// dictionary by interpolation, so the GA never re-runs fault simulation.
///
/// Every sample is stored once: the dictionary is its fault list, one
/// private mna::ResponsePlanes block (the golden in row 0, entry e in row
/// 1 + e) and a per-site index.  golden() and entries()[e].response are
/// row views of that block, and each keeps it alive.
#pragma once

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "faults/fault_universe.hpp"
#include "faults/simulation_engine.hpp"
#include "mna/response.hpp"

namespace ftdiag::faults {

/// One dictionary row.
struct DictionaryEntry {
  ParametricFault fault;
  mna::AcResponse response;  ///< row 1 + e of the dictionary's planes()
};

class FaultDictionary {
public:
  /// Fault-simulate the whole universe on the CUT's dictionary grid via
  /// the parallel factorization-reuse engine (SimOptions defaults).
  [[nodiscard]] static FaultDictionary build(
      const circuits::CircuitUnderTest& cut, const FaultUniverse& universe);

  /// Same, with an explicit frequency grid.
  [[nodiscard]] static FaultDictionary build(
      const circuits::CircuitUnderTest& cut, const FaultUniverse& universe,
      const std::vector<double>& frequencies_hz);

  /// Same, with explicit engine options (thread count, reuse on/off).
  [[nodiscard]] static FaultDictionary build(
      const circuits::CircuitUnderTest& cut, const FaultUniverse& universe,
      const SimOptions& sim);
  [[nodiscard]] static FaultDictionary build(
      const circuits::CircuitUnderTest& cut, const FaultUniverse& universe,
      const std::vector<double>& frequencies_hz, const SimOptions& sim);

  /// Assemble from a filled block (the one factory every producer —
  /// engine, CSV and `.fdx` loaders — goes through): \p planes holds the
  /// golden in row 0 and the response of faults[e] in row 1 + e.
  /// \throws ConfigError on an empty fault list or a row count that does
  /// not match it.
  [[nodiscard]] static FaultDictionary assemble(
      std::vector<ParametricFault> faults,
      std::shared_ptr<const mna::ResponsePlanes> planes);

  [[nodiscard]] const mna::AcResponse& golden() const { return golden_; }
  [[nodiscard]] const std::vector<DictionaryEntry>& entries() const {
    return entries_;
  }
  [[nodiscard]] std::size_t fault_count() const { return entries_.size(); }

  /// Distinct site labels in universe order.
  [[nodiscard]] const std::vector<std::string>& site_labels() const {
    return site_labels_;
  }

  /// Indices into entries() for one site, deviations ascending.
  /// \throws ConfigError for unknown site labels.
  [[nodiscard]] const std::vector<std::size_t>& entries_for(
      const std::string& site_label) const;

  /// The shared frequency grid.
  [[nodiscard]] const std::vector<double>& frequencies() const {
    return golden_.frequencies();
  }

  /// The storage: every signature of the dictionary, response r (r = 0 is
  /// the golden, r = 1 + e is entry e) in row r of two contiguous
  /// 64-byte-aligned re/im planes.  The SIMD scoring and interpolation
  /// paths read it directly.
  [[nodiscard]] const mna::ResponsePlanes& planes() const {
    return *golden_.block();
  }

private:
  mna::AcResponse golden_;
  std::vector<DictionaryEntry> entries_;
  std::vector<std::string> site_labels_;
  std::vector<std::vector<std::size_t>> per_site_;  ///< parallel to labels
  /// label -> slot in site_labels_/per_site_, so entries_for() is O(1)
  /// instead of a linear scan per lookup.
  std::unordered_map<std::string, std::size_t> site_index_;
};

}  // namespace ftdiag::faults
