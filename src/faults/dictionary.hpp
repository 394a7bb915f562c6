/// \file dictionary.hpp
/// \brief The fault dictionary: golden response plus one response per
/// dictionary fault, all on a common frequency grid.
///
/// The dictionary is the expensive artefact (one AC sweep per fault).  The
/// trajectory layer evaluates GA-proposed test frequencies against the
/// dictionary by interpolation, so the GA never re-runs fault simulation.
#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "faults/fault_universe.hpp"
#include "faults/simulation_engine.hpp"
#include "linalg/simd.hpp"
#include "mna/response.hpp"

namespace ftdiag::faults {

/// One dictionary row.
struct DictionaryEntry {
  ParametricFault fault;
  mna::AcResponse response;
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

  /// Assemble from already-simulated parts (deserialization path).  All
  /// responses must share the golden grid.
  /// \throws ConfigError on grid mismatches or an empty entry list.
  [[nodiscard]] static FaultDictionary from_parts(
      mna::AcResponse golden, std::vector<DictionaryEntry> entries);

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

  /// All signatures of the dictionary as two contiguous 64-byte-aligned
  /// re/im planes, frequency-major within each response: response r
  /// (r = 0 is the golden, r = 1 + e is entry e) occupies
  /// [r * grid(), (r + 1) * grid()) of each plane.  This is the SoA view
  /// the SIMD scoring/interpolation paths read; it is (re)built by
  /// from_parts(), i.e. at build, load and mmap-attach time — the `.fdx`
  /// wire format stays interleaved and the mmap path stays zero-copy.
  struct SignaturePlanes {
    std::size_t grid = 0;       ///< shared frequency-grid size
    std::size_t responses = 0;  ///< golden + entries
    linalg::simd::AlignedVector re, im;
  };
  [[nodiscard]] const SignaturePlanes& planes() const { return planes_; }

private:
  SignaturePlanes planes_;
  mna::AcResponse golden_;
  std::vector<DictionaryEntry> entries_;
  std::vector<std::string> site_labels_;
  std::vector<std::vector<std::size_t>> per_site_;  ///< parallel to labels
  /// label -> slot in site_labels_/per_site_, so entries_for() is O(1)
  /// instead of a linear scan per lookup.
  std::unordered_map<std::string, std::size_t> site_index_;
};

}  // namespace ftdiag::faults
