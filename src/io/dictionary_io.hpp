/// \file dictionary_io.hpp
/// \brief Lossless fault-dictionary serialization (CSV and binary `.fdx`).
///
/// Building a dictionary is the expensive part of the flow (one AC sweep
/// per fault); saving it lets the CLI, the service layer and test programs
/// split the "simulate once" and "diagnose many times" phases.  Two formats
/// round-trip a FaultDictionary bit-identically:
///
/// **CSV** — long-form text with full `max_digits10` precision, one row per
/// fault x frequency (human-inspectable, diff-able):
///
/// ```
/// site,target,param,deviation,freq_hz,re,im
/// ,,,0,10,0.9999,-0.0123          <- empty site = the golden response
/// R3,value,,-0.4,10,0.9983,-0.0119
/// OA1,opamp,gbw,0.1,10,...
/// ```
///
/// **Binary `.fdx`** — the serving format: magic + version + metadata +
/// checksummed little-endian blocks (see src/service/README.md for the
/// full spec).  The blocks hold interleaved (re, im) pairs; loading
/// decodes them once into the dictionary's private SoA block (one copy
/// of every sample).  ~10-100x faster to load than the CSV and
/// byte-stable across platforms.
///
/// `load_dictionary_file` auto-detects the format by magic bytes, so both
/// kinds load through one entry point.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "faults/dictionary.hpp"

namespace ftdiag::io {

/// On-disk dictionary representations accepted by the file entry points.
enum class DictionaryFormat : std::uint8_t {
  kCsv,     ///< long-form text (the original format)
  kBinary,  ///< `.fdx` checksummed little-endian blocks
  kAuto,    ///< saving: by file extension; loading: by magic bytes
};

/// Parse "csv" / "binary" / "auto" (the CLI's --dict-format values).
/// \throws ParseError for anything else.
[[nodiscard]] DictionaryFormat parse_dictionary_format(const std::string& name);

// ----------------------------------------------------------------- CSV

/// Write the full dictionary (golden + every fault response) as CSV.
/// Numeric fields use max_digits10, so a save -> load -> save cycle is
/// byte-identical and every double survives exactly.
void save_dictionary(std::ostream& os,
                     const faults::FaultDictionary& dictionary);

/// Parse a dictionary previously written by save_dictionary.
/// \throws ParseError / ConfigError on malformed content.
[[nodiscard]] faults::FaultDictionary load_dictionary(const std::string& text);

// -------------------------------------------------------------- binary

/// The `.fdx` magic bytes ("FDX1") and the format version this build
/// writes.  Version negotiation: readers accept any version <= the build's
/// own and reject newer files with a message naming both versions, so a
/// future block type (e.g. ROADMAP's compressed signatures) bumps the
/// version without another magic break.  v1 files (the original layout)
/// load forever.
inline constexpr char kBinaryDictionaryMagic[4] = {'F', 'D', 'X', '1'};
inline constexpr std::uint32_t kBinaryDictionaryVersion = 2;

/// Feature-flag bits this build understands (v2+ headers carry a u32 flag
/// word; a reader rejects any set bit it does not know, so an old build
/// can never silently misread a file using a newer encoding).
inline constexpr std::uint32_t kBinaryDictionarySupportedFlags = 0;

/// Fixed-size facts parsed from a `.fdx` header without touching the data
/// blocks — enough for a store to validate a file before paying for the
/// full load.
struct BinaryDictionaryHeader {
  std::uint32_t version = 0;
  std::uint32_t flags = 0;  ///< reserved feature bits (v2+; 0 in v1)
  std::string key;  ///< the writer's cache key ("" when saved standalone)
  std::size_t frequency_count = 0;
  std::size_t fault_count = 0;
};

/// Structural map of a validated `.fdx` image: where each contiguous
/// little-endian data run starts, plus the decoded (small) fault list.
/// Shared by load_dictionary_binary and io::DictionaryView, so both paths
/// validate identically.
struct BinaryDictionaryLayout {
  BinaryDictionaryHeader header;
  std::size_t frequencies_offset = 0;  ///< n_freqs x f64
  std::size_t golden_offset = 0;       ///< n_freqs x (re, im)
  std::size_t responses_offset = 0;    ///< n_entries x n_freqs x (re, im)
  std::vector<faults::ParametricFault> faults;  ///< block 3, decoded
};

/// True if \p bytes begin with the `.fdx` magic.
[[nodiscard]] bool is_binary_dictionary(std::string_view bytes);

/// Serialize as `.fdx`.  \p key is stored in the header so a dictionary
/// store can verify a file matches the (circuit, universe, grid, sim)
/// signature it was indexed under; pass "" for standalone saves.
void save_dictionary_binary(std::ostream& os,
                            const faults::FaultDictionary& dictionary,
                            const std::string& key = "");

/// Parse a `.fdx` image.  \throws ParseError on bad magic, an unsupported
/// version or feature flag, a truncated block, a checksum mismatch or a
/// frequency grid that is not finite and ascending.  Every block's size
/// is validated against the remaining image bytes *before* anything is
/// allocated from its counts.
[[nodiscard]] faults::FaultDictionary load_dictionary_binary(
    std::string_view bytes);

/// Decode the data runs of an image already walked by
/// parse_binary_dictionary_layout into a dictionary: the one `.fdx`
/// decoder behind load_dictionary_binary and DictionaryView::materialize.
/// Reads any alignment and host byte order.  \throws ParseError when the
/// frequency grid is not finite and ascending.
[[nodiscard]] faults::FaultDictionary decode_binary_dictionary(
    std::string_view bytes, BinaryDictionaryLayout layout);

/// Parse only the header of a `.fdx` image.  \throws ParseError as above.
[[nodiscard]] BinaryDictionaryHeader read_binary_dictionary_header(
    std::string_view bytes);

/// Walk and validate a whole `.fdx` image without copying the data runs:
/// header negotiation, pre-allocation size validation, block 3 decode,
/// and (unless \p verify_checksums is false) every block checksum.
/// \throws ParseError exactly like load_dictionary_binary.
[[nodiscard]] BinaryDictionaryLayout parse_binary_dictionary_layout(
    std::string_view bytes, bool verify_checksums = true);

// --------------------------------------------------------------- files

/// Save to a file.  kAuto picks kBinary for a `.fdx` extension and kCsv
/// otherwise.  \throws ftdiag::Error on I/O failure.
void save_dictionary_file(const std::string& path,
                          const faults::FaultDictionary& dictionary,
                          DictionaryFormat format = DictionaryFormat::kAuto,
                          const std::string& key = "");

/// Load from a file.  kAuto sniffs the magic bytes, so CSV and `.fdx`
/// both load through this one entry point.  \throws ParseError.
[[nodiscard]] faults::FaultDictionary load_dictionary_file(
    const std::string& path, DictionaryFormat format = DictionaryFormat::kAuto);

/// Slurp a whole file (shared by the loaders and the dictionary store).
/// \throws ParseError if the file cannot be opened.
[[nodiscard]] std::string read_file_bytes(const std::string& path);

}  // namespace ftdiag::io
