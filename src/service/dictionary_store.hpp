/// \file dictionary_store.hpp
/// \brief Persistent, process-wide fault-dictionary store.
///
/// The dictionary is the simulate-once artifact of the whole flow; the
/// store makes it survive the process.  A get() resolves in three tiers:
///
///   1. **memory** — a sharded LRU cache of shared_ptr<const FaultDictionary>
///      keyed exactly like the Session dictionary cache (circuit, fault
///      universe, grid, sim options — see ftdiag::dictionary_cache_key);
///   2. **disk** — a versioned binary `.fdx` file under root_dir named by
///      that key, mapped, checksum-verified and decoded into the
///      dictionary's private SoA block (corrupt or mismatched files are
///      quarantined to `*.corrupt` and rebuilt, never trusted);
///   3. **build** — faults::SimulationEngine simulates the universe, and
///      the result is persisted back to disk so the *next* process starts
///      at tier 2.
///
/// Concurrent get()s of the same key share one build/load via an in-flight
/// future, so a thundering herd pays for one simulation; different keys
/// hash to different shards and never serialize on each other.
#pragma once

#include <cstddef>
#include <memory>
#include <string>

#include "circuits/cut.hpp"
#include "faults/dictionary.hpp"
#include "faults/fault_universe.hpp"
#include "faults/simulation_engine.hpp"
#include "obs/metrics.hpp"
#include "service/options.hpp"

namespace ftdiag::service {

/// Where this store's get()s were served from (monotonic): a view of its
/// `ftdiag_store_*{instance="N"}` series, exported until the store dies.
struct StoreStats {
  std::size_t memory_hits = 0;   ///< served from the LRU cache
  std::size_t disk_hits = 0;     ///< loaded from a `.fdx` file
  std::size_t builds = 0;        ///< cold misses simulated from scratch
  std::size_t shared_waits = 0;  ///< joined another get()'s load/build
  std::size_t evictions = 0;     ///< LRU entries dropped over capacity
  std::size_t persisted = 0;     ///< `.fdx` files written
  std::size_t invalid_files = 0; ///< corrupt/mismatched files rejected
                                 ///< (the quarantine tier's count)
  std::size_t quarantined = 0;   ///< rejected files moved to `*.corrupt`
};

class DictionaryStore {
public:
  /// \throws ConfigError on invalid options.
  explicit DictionaryStore(StoreOptions options = {});
  ~DictionaryStore();

  DictionaryStore(const DictionaryStore&) = delete;
  DictionaryStore& operator=(const DictionaryStore&) = delete;

  [[nodiscard]] const StoreOptions& options() const { return options_; }

  /// Fetch-or-load-or-build the dictionary for (cut, spec, sim).  The
  /// returned pointer is immutable and safe to retain past the store.
  /// \throws ConfigError / CircuitError / NumericError from the build.
  [[nodiscard]] std::shared_ptr<const faults::FaultDictionary> get(
      const circuits::CircuitUnderTest& cut,
      const faults::DeviationSpec& spec = faults::DeviationSpec::paper(),
      const faults::SimOptions& sim = {});

  /// The `.fdx` path a key maps to ("" when persistence is disabled).
  [[nodiscard]] std::string path_for(const std::string& key) const;

  /// Dictionaries currently resident in the memory tier.
  [[nodiscard]] std::size_t cached_count() const;

  [[nodiscard]] StoreStats stats() const;

  /// Drop every memory-tier entry (disk artifacts stay; outstanding
  /// shared_ptrs stay valid).
  void clear();

private:
  struct Shard;

  [[nodiscard]] Shard& shard_for(const std::string& key) const;
  [[nodiscard]] std::shared_ptr<const faults::FaultDictionary> load_or_build(
      const std::string& key, const circuits::CircuitUnderTest& cut,
      const faults::DeviationSpec& spec, const faults::SimOptions& sim);
  void insert(Shard& shard, const std::string& key,
              std::shared_ptr<const faults::FaultDictionary> dictionary);

  StoreOptions options_;
  std::size_t per_shard_capacity_ = 1;
  std::unique_ptr<Shard[]> shards_;

  /// This store's `ftdiag_store_*` series; StoreStats reads them back.
  obs::Registry::Group metrics_;
  struct Counters {
    obs::Counter& memory_hits;
    obs::Counter& disk_hits;
    obs::Counter& builds;
    obs::Counter& quarantine_tier;
    obs::Counter& shared_waits;
    obs::Counter& evictions;
    obs::Counter& persisted;
    obs::Counter& quarantined;
    obs::Gauge& bytes_resident;
  };
  Counters counters_;
};

}  // namespace ftdiag::service
