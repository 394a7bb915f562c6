#include "io/mapped_file.hpp"

#include <bit>
#include <cstdint>
#include <utility>

#include "io/binary.hpp"
#include "util/error.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define FTDIAG_HAS_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#else
#define FTDIAG_HAS_MMAP 0
#endif

namespace ftdiag::io {

bool mmap_supported() { return FTDIAG_HAS_MMAP != 0; }

MappedFile MappedFile::open(const std::string& path) {
  MappedFile file;
#if FTDIAG_HAS_MMAP
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) throw ParseError("cannot open '" + path + "'");
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    throw ParseError("cannot stat '" + path + "'");
  }
  const std::size_t size = static_cast<std::size_t>(st.st_size);
  if (size == 0) {
    ::close(fd);
    return file;  // nothing to map; empty view
  }
  void* base = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // the mapping keeps its own reference
  if (base == MAP_FAILED) {
    throw ParseError("cannot mmap '" + path + "'");
  }
  file.data_ = static_cast<const char*>(base);
  file.size_ = size;
  file.mapped_ = true;
#else
  file.fallback_ = read_file_bytes(path);
  file.data_ = file.fallback_.data();
  file.size_ = file.fallback_.size();
#endif
  return file;
}

MappedFile::~MappedFile() {
#if FTDIAG_HAS_MMAP
  if (mapped_ && data_ != nullptr) {
    ::munmap(const_cast<char*>(data_), size_);
  }
#endif
}

MappedFile::MappedFile(MappedFile&& other) noexcept
    : data_(other.data_),
      size_(other.size_),
      mapped_(other.mapped_),
      fallback_(std::move(other.fallback_)) {
  if (!mapped_ && !fallback_.empty()) data_ = fallback_.data();
  other.data_ = nullptr;
  other.size_ = 0;
  other.mapped_ = false;
}

MappedFile& MappedFile::operator=(MappedFile&& other) noexcept {
  if (this != &other) {
    this->~MappedFile();
    new (this) MappedFile(std::move(other));
  }
  return *this;
}

// -------------------------------------------------------- DictionaryView

namespace {

/// In-place span serving is only sound when the stored little-endian bit
/// patterns are the host's and the run is suitably aligned in memory.
bool can_alias(const void* base, std::size_t offset) {
  if constexpr (std::endian::native != std::endian::little) return false;
  return (reinterpret_cast<std::uintptr_t>(base) + offset) % 8 == 0;
}

}  // namespace

DictionaryView DictionaryView::map(const std::string& path,
                                   bool verify_checksums) {
  auto state = std::make_shared<State>();
  state->file = MappedFile::open(path);
  return finish(std::move(state), verify_checksums);
}

DictionaryView DictionaryView::over(std::string bytes,
                                    bool verify_checksums) {
  auto state = std::make_shared<State>();
  state->owned_bytes = std::move(bytes);
  return finish(std::move(state), verify_checksums);
}

DictionaryView DictionaryView::finish(std::shared_ptr<State> state,
                                      bool verify_checksums) {
  const std::string_view bytes = state->bytes();
  state->layout = parse_binary_dictionary_layout(bytes, verify_checksums);
  const auto& layout = state->layout;

  // The v2 writer 8-byte aligns every run; a v1 image with an odd-length
  // key does not.
  state->zero_copy =
      can_alias(bytes.data(), layout.frequencies_offset) &&
      can_alias(bytes.data(), layout.golden_offset) &&
      can_alias(bytes.data(), layout.responses_offset);

  const std::size_t n_freqs = layout.header.frequency_count;
  const std::size_t n_values = n_freqs * (1 + layout.header.fault_count);
  if (state->zero_copy) {
    state->frequencies = reinterpret_cast<const double*>(
        bytes.data() + layout.frequencies_offset);
    state->golden = reinterpret_cast<const mna::Complex*>(
        bytes.data() + layout.golden_offset);
    state->responses = reinterpret_cast<const mna::Complex*>(
        bytes.data() + layout.responses_offset);
  } else {
    // Decode the runs once into private buffers (golden then responses);
    // the span API is unchanged.  std::complex<double> is layout-
    // compatible with double[2], so a run of (re, im) pairs decodes as
    // doubles.
    state->decoded_frequencies.resize(n_freqs);
    state->decoded_values.resize(n_values);
    auto decode_run = [&](std::size_t offset, std::size_t count,
                          double* out) {
      for (std::size_t i = 0; i < count; ++i) {
        out[i] = load_f64_le(bytes.data() + offset + 8 * i);
      }
    };
    double* values = reinterpret_cast<double*>(state->decoded_values.data());
    decode_run(layout.frequencies_offset, n_freqs,
               state->decoded_frequencies.data());
    decode_run(layout.golden_offset, 2 * n_freqs, values);
    decode_run(layout.responses_offset, 2 * (n_values - n_freqs),
               values + 2 * n_freqs);
    state->frequencies = state->decoded_frequencies.data();
    state->golden = state->decoded_values.data();
    state->responses = state->decoded_values.data() + n_freqs;
  }
  return DictionaryView(std::move(state));
}

std::span<const double> DictionaryView::frequencies() const {
  return {state_->frequencies, frequency_count()};
}

std::span<const mna::Complex> DictionaryView::golden() const {
  return {state_->golden, frequency_count()};
}

std::span<const mna::Complex> DictionaryView::response(
    std::size_t entry) const {
  FTDIAG_ASSERT(entry < fault_count(),
                "dictionary view entry index out of range");
  return {state_->responses + frequency_count() * entry, frequency_count()};
}

faults::FaultDictionary DictionaryView::materialize() const {
  return decode_binary_dictionary(state_->bytes(), state_->layout);
}

}  // namespace ftdiag::io
