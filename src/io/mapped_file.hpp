/// \file mapped_file.hpp
/// \brief Read-only memory-mapped files and zero-copy `.fdx` views.
///
/// The `.fdx` format stores its bulk data (frequency grid, golden and
/// faulty responses) as contiguous little-endian f64 runs that the v2
/// writer 8-byte aligns.  Mapping the file lets `DictionaryView` validate
/// the image once and serve its runs as in-place `std::span` views over
/// the mapped pages: no per-value decode, no per-entry vectors.
///
/// Diagnosis does not run off those pages: `materialize()` (what
/// DictionaryStore calls on a disk hit) decodes the runs into a
/// FaultDictionary's private SoA block, so each process holds its own
/// copy of every dictionary it serves.  Sharing pages across processes
/// needs a format whose blocks are the SoA planes themselves.
///
/// On platforms without mmap (or for pathological files — v1 images with
/// unaligned runs, big-endian hosts) the view decodes its runs into
/// private buffers instead; `DictionaryView::zero_copy()` reports which
/// mode a view runs in.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <string>
#include <string_view>

#include "faults/dictionary.hpp"
#include "io/dictionary_io.hpp"

namespace ftdiag::io {

/// True when this build maps files with mmap; false on the buffered-read
/// fallback (the API is identical either way).
[[nodiscard]] bool mmap_supported();

/// An immutable byte view of a whole file.  With mmap support the bytes
/// are the kernel's page cache (no read copy); on the fallback they are a
/// private heap buffer.  Move-only RAII.
class MappedFile {
public:
  /// Map (or read) \p path.  \throws ParseError when the file cannot be
  /// opened or mapped.
  [[nodiscard]] static MappedFile open(const std::string& path);

  MappedFile() = default;
  ~MappedFile();
  MappedFile(MappedFile&& other) noexcept;
  MappedFile& operator=(MappedFile&& other) noexcept;
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  [[nodiscard]] const char* data() const { return data_; }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::string_view bytes() const { return {data_, size_}; }

  /// True when the bytes are a live mmap (false: fallback heap buffer).
  [[nodiscard]] bool is_mapped() const { return mapped_; }

private:
  const char* data_ = nullptr;
  std::size_t size_ = 0;
  bool mapped_ = false;
  std::string fallback_;  ///< owns the bytes when !mapped_
};

/// A validated, read-only view of one `.fdx` image that serves signature
/// data without copying it.  The view owns its MappedFile; spans stay
/// valid for the view's lifetime.  Copy cost is one shared_ptr (views are
/// cheap shared handles, safe to use from many threads concurrently).
class DictionaryView {
public:
  /// Map \p path and validate the whole image (header negotiation, block
  /// size validation, checksums unless \p verify_checksums is false).
  /// \throws ParseError exactly like load_dictionary_binary.
  [[nodiscard]] static DictionaryView map(const std::string& path,
                                          bool verify_checksums = true);

  /// Same, over bytes the caller keeps alive (testing / in-memory use).
  [[nodiscard]] static DictionaryView over(std::string bytes,
                                           bool verify_checksums = true);

  [[nodiscard]] const BinaryDictionaryHeader& header() const {
    return state_->layout.header;
  }
  [[nodiscard]] std::size_t frequency_count() const {
    return state_->layout.header.frequency_count;
  }
  [[nodiscard]] std::size_t fault_count() const {
    return state_->layout.header.fault_count;
  }
  [[nodiscard]] const std::vector<faults::ParametricFault>& faults() const {
    return state_->layout.faults;
  }

  /// True when the spans alias the mapped image directly; false when this
  /// view had to decode into a private buffer (v1 unaligned layout or a
  /// big-endian host).  Either way the spans' *values* are identical.
  [[nodiscard]] bool zero_copy() const { return state_->zero_copy; }

  /// The shared frequency grid, ascending.
  [[nodiscard]] std::span<const double> frequencies() const;

  /// The golden response values on that grid.
  [[nodiscard]] std::span<const mna::Complex> golden() const;

  /// Fault \p entry's response values (entry order == faults() order).
  [[nodiscard]] std::span<const mna::Complex> response(
      std::size_t entry) const;

  /// Decode a FaultDictionary (its own SoA block; the view may go away),
  /// bit-identical to load_dictionary_binary on the same image.
  /// \throws ParseError when the frequency grid is not finite and
  /// ascending.
  [[nodiscard]] faults::FaultDictionary materialize() const;

private:
  struct State {
    MappedFile file;
    std::string owned_bytes;  ///< when constructed via over()
    BinaryDictionaryLayout layout;
    bool zero_copy = false;
    /// Decoded runs for the fallback path (empty when zero_copy).
    std::vector<double> decoded_frequencies;
    std::vector<mna::Complex> decoded_values;  ///< golden then responses
    /// Where the spans point: into the image, or into the decoded runs.
    const double* frequencies = nullptr;
    const mna::Complex* golden = nullptr;
    const mna::Complex* responses = nullptr;
    [[nodiscard]] std::string_view bytes() const {
      return file.size() > 0 ? file.bytes() : std::string_view(owned_bytes);
    }
  };

  explicit DictionaryView(std::shared_ptr<const State> state)
      : state_(std::move(state)) {}

  [[nodiscard]] static DictionaryView finish(std::shared_ptr<State> state,
                                             bool verify_checksums);

  std::shared_ptr<const State> state_;
};

}  // namespace ftdiag::io
