#include "service/dictionary_store.hpp"

#include <algorithm>
#include <filesystem>
#include <functional>
#include <future>
#include <map>
#include <mutex>
#include <sstream>
#include <system_error>
#include <utility>

#include "io/dictionary_io.hpp"
#include "io/durable_file.hpp"
#include "io/mapped_file.hpp"
#include "obs/trace.hpp"
#include "session.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"
#include "util/strings.hpp"

namespace ftdiag::service {

namespace {

constexpr const char* kTierHelp = "dictionary fetches answered by this tier";

/// Response-plane payload estimate: (faults + golden) x frequencies
/// complex doubles.  Labels/metadata are noise next to the planes.
std::int64_t approx_bytes(const faults::FaultDictionary& dictionary) {
  return static_cast<std::int64_t>(
      (dictionary.fault_count() + 1) * dictionary.frequencies().size() * 2 *
      sizeof(double));
}

}  // namespace

void StoreOptions::check() const {
  if (capacity == 0) {
    throw ConfigError("dictionary store capacity must be >= 1");
  }
  if (shards == 0) {
    throw ConfigError("dictionary store needs at least one shard");
  }
}

using DictionaryPtr = std::shared_ptr<const faults::FaultDictionary>;

/// One concurrency shard: its own mutex, LRU-ordered entries, and the
/// in-flight loads other get()s of the same key join instead of repeating.
struct DictionaryStore::Shard {
  struct Entry {
    DictionaryPtr dictionary;
    std::uint64_t tick = 0;  ///< last-touch stamp; smallest tick evicts first
  };

  std::mutex mutex;
  std::map<std::string, Entry> entries;
  std::map<std::string, std::shared_future<DictionaryPtr>> inflight;
  std::uint64_t clock = 0;
};

DictionaryStore::DictionaryStore(StoreOptions options)
    : options_(std::move(options)),
      counters_{
          .memory_hits = metrics_.counter("ftdiag_store_requests_total",
                                          kTierHelp, {{"tier", "memory"}}),
          .disk_hits = metrics_.counter("ftdiag_store_requests_total",
                                        kTierHelp, {{"tier", "disk"}}),
          .builds = metrics_.counter("ftdiag_store_requests_total", kTierHelp,
                                     {{"tier", "build"}}),
          .quarantine_tier = metrics_.counter("ftdiag_store_requests_total",
                                              kTierHelp,
                                              {{"tier", "quarantine"}}),
          .shared_waits = metrics_.counter(
              "ftdiag_store_shared_waits_total",
              "fetches that joined another in-flight load"),
          .evictions = metrics_.counter(
              "ftdiag_store_evictions_total",
              "dictionaries evicted by the per-shard LRU"),
          .persisted = metrics_.counter("ftdiag_store_persisted_total",
                                        "dictionaries written to the disk tier"),
          .quarantined = metrics_.counter(
              "ftdiag_store_quarantined_total",
              "rejected artifacts quarantined to *.corrupt"),
          .bytes_resident = metrics_.gauge(
              "ftdiag_store_bytes_resident",
              "approximate bytes of dictionaries held in memory"),
      } {
  options_.check();
  per_shard_capacity_ =
      std::max<std::size_t>(1, options_.capacity / options_.shards);
  shards_ = std::make_unique<Shard[]>(options_.shards);
  if (!options_.root_dir.empty()) {
    // Debris from a writer that crashed between tmp write and rename is
    // never a valid artifact — sweep it before serving from this root.
    const std::size_t removed = io::remove_stale_tmp_files(options_.root_dir);
    if (removed > 0) {
      log::warn("store: removed stale tmp artifacts",
                {{"dir", options_.root_dir}, {"count", removed}});
    }
  }
}

DictionaryStore::~DictionaryStore() = default;

DictionaryStore::Shard& DictionaryStore::shard_for(
    const std::string& key) const {
  return shards_[std::hash<std::string>{}(key) % options_.shards];
}

std::string DictionaryStore::path_for(const std::string& key) const {
  if (options_.root_dir.empty()) return "";
  // Keys embed the CUT name, which for netlist sessions is a file *path*
  // ("boards/filter.cir#<hash>") — flatten anything that is not a safe
  // filename character so every artifact lands directly under root_dir.
  // The trailing hash keeps flattened names collision-free, and the exact
  // key stored in the header is verified on load regardless.
  std::string file;
  file.reserve(key.size());
  for (char c : key) {
    const bool safe = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '.' || c == '-' ||
                      c == '_' || c == '#';
    file.push_back(safe ? c : '_');
  }
  return options_.root_dir + "/" + file + ".fdx";
}

DictionaryPtr DictionaryStore::get(const circuits::CircuitUnderTest& cut,
                                   const faults::DeviationSpec& spec,
                                   const faults::SimOptions& sim) {
  const std::string key = dictionary_cache_key(cut, spec, sim);
  Shard& shard = shard_for(key);
  // Whole-fetch span: a memory hit records microseconds, a cold build
  // records the full simulate-and-persist time under the same stage.
  obs::Span fetch_span(obs::Stage::kDictFetch);

  std::promise<DictionaryPtr> promise;
  std::shared_future<DictionaryPtr> joined;
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    auto it = shard.entries.find(key);
    if (it != shard.entries.end()) {
      it->second.tick = ++shard.clock;
      counters_.memory_hits.inc();
      return it->second.dictionary;
    }
    auto inflight = shard.inflight.find(key);
    if (inflight != shard.inflight.end()) {
      joined = inflight->second;
      counters_.shared_waits.inc();
    } else {
      shard.inflight.emplace(key, promise.get_future().share());
    }
  }
  if (joined.valid()) return joined.get();

  // We own the load/build for this key; every concurrent get() of the
  // same key is now parked on our future.
  try {
    DictionaryPtr dictionary = load_or_build(key, cut, spec, sim);
    {
      std::lock_guard<std::mutex> lock(shard.mutex);
      insert(shard, key, dictionary);
      shard.inflight.erase(key);
    }
    promise.set_value(dictionary);
    return dictionary;
  } catch (...) {
    {
      std::lock_guard<std::mutex> lock(shard.mutex);
      shard.inflight.erase(key);
    }
    promise.set_exception(std::current_exception());
    throw;
  }
}

DictionaryPtr DictionaryStore::load_or_build(
    const std::string& key, const circuits::CircuitUnderTest& cut,
    const faults::DeviationSpec& spec, const faults::SimOptions& sim) {
  const std::string path = path_for(key);

  // Tier 2: the on-disk artifact.  Anything wrong with the file — bad
  // magic, failed checksum, truncation, a key minted by a different
  // (circuit, universe, grid, sim) signature — demotes to a rebuild; a
  // stale or corrupt artifact must never poison diagnosis results.
  if (!path.empty() && std::filesystem::exists(path)) {
    try {
      // Attach via mmap: the image is validated in place (header
      // negotiation, block bounds, checksums) without a read copy, then
      // decoded into the dictionary's own SoA block (a bad grid is a
      // ParseError here, like any other corruption).
      const auto view = io::DictionaryView::map(path);
      if (!view.header().key.empty() && view.header().key != key) {
        throw ParseError("dictionary file was written under another key");
      }
      auto dictionary = std::make_shared<const faults::FaultDictionary>(
          view.materialize());
      counters_.disk_hits.inc();
      log::info("store: loaded dictionary",
                {{"path", path}, {"faults", dictionary->fault_count()}});
      return dictionary;
    } catch (const Error& e) {
      counters_.quarantine_tier.inc();
      // Quarantine rather than silently rebuild over the evidence: the
      // corrupt image is moved to `<name>.fdx.corrupt` (replacing any
      // older quarantine) so a crash / bitrot incident stays inspectable,
      // and the rebuild below publishes a fresh artifact under the
      // original name.
      const std::string quarantine = path + ".corrupt";
      std::error_code ec;
      std::filesystem::remove(quarantine, ec);
      std::filesystem::rename(path, quarantine, ec);
      if (!ec) counters_.quarantined.inc();
      log::warn("store: quarantined invalid artifact",
                {{"path", path},
                 {"quarantine", ec ? "failed: " + ec.message() : quarantine},
                 {"error", e.what()}});
    }
  }

  // Tier 3: simulate from scratch, then persist for the next process.
  auto dictionary = std::make_shared<const faults::FaultDictionary>(
      faults::FaultDictionary::build(
          cut, faults::FaultUniverse::over_testable(cut, spec), sim));
  counters_.builds.inc();
  if (!path.empty() && options_.persist) {
    try {
      std::filesystem::create_directories(options_.root_dir);
      // Durable write-then-rename (tmp + fsync file + rename + fsync
      // directory) so a crash can neither expose a partial file nor
      // publish un-synced pages under the final name; builds are
      // bit-identical, so a last-writer race is benign.
      std::ostringstream image;
      io::save_dictionary_binary(image, *dictionary, key);
      if (!image) throw Error("failed serializing dictionary for '" + path + "'");
      io::write_file_durable(path, image.view());
      counters_.persisted.inc();
      log::info("store: persisted dictionary", {{"path", path}});
    } catch (const std::exception& e) {
      // Persistence is an optimization for the next process; failing to
      // write must not fail this request.
      log::warn("store: could not persist dictionary",
                {{"path", path}, {"error", e.what()}});
    }
  }
  return dictionary;
}

void DictionaryStore::insert(Shard& shard, const std::string& key,
                             DictionaryPtr dictionary) {
  counters_.bytes_resident.add(approx_bytes(*dictionary));
  shard.entries[key] = {std::move(dictionary), ++shard.clock};
  while (shard.entries.size() > per_shard_capacity_) {
    auto victim = shard.entries.begin();
    for (auto it = shard.entries.begin(); it != shard.entries.end(); ++it) {
      if (it->second.tick < victim->second.tick) victim = it;
    }
    counters_.bytes_resident.sub(approx_bytes(*victim->second.dictionary));
    shard.entries.erase(victim);
    counters_.evictions.inc();
  }
}

std::size_t DictionaryStore::cached_count() const {
  std::size_t count = 0;
  for (std::size_t s = 0; s < options_.shards; ++s) {
    std::lock_guard<std::mutex> lock(shards_[s].mutex);
    count += shards_[s].entries.size();
  }
  return count;
}

StoreStats DictionaryStore::stats() const {
  return {.memory_hits = counters_.memory_hits.value(),
          .disk_hits = counters_.disk_hits.value(),
          .builds = counters_.builds.value(),
          .shared_waits = counters_.shared_waits.value(),
          .evictions = counters_.evictions.value(),
          .persisted = counters_.persisted.value(),
          .invalid_files = counters_.quarantine_tier.value(),
          .quarantined = counters_.quarantined.value()};
}

void DictionaryStore::clear() {
  for (std::size_t s = 0; s < options_.shards; ++s) {
    std::lock_guard<std::mutex> lock(shards_[s].mutex);
    for (const auto& [key, entry] : shards_[s].entries) {
      counters_.bytes_resident.sub(approx_bytes(*entry.dictionary));
    }
    shards_[s].entries.clear();
  }
}

}  // namespace ftdiag::service
