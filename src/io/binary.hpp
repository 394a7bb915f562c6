/// \file binary.hpp
/// \brief Shared little-endian binary primitives: bounds-checked reading,
/// appending emitters, FNV-1a block checksums.
///
/// Every on-wire and on-disk binary format in ftdiag (the `.fdx`
/// dictionary format, the `ftdiag::net` frame protocol) is built from the
/// same vocabulary: little-endian fixed-width integers independent of host
/// byte order, IEEE-754 doubles as u64 bit patterns (bit-exact round
/// trips), `u32 length + bytes` strings, and optional FNV-1a sealed
/// blocks.  Readers are bounds-checked on every access — a truncated or
/// hostile image produces a clean ParseError, never an out-of-bounds read
/// or a giant allocation.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

namespace ftdiag::io {

/// FNV-1a over a byte span (the block checksum used by `.fdx`).
[[nodiscard]] std::uint64_t fnv1a(std::string_view bytes);

// ------------------------------------------------------------- emitters
//
// All emitters append to a std::string image; callers reserve() up front
// when the size is predictable.

void put_u8(std::string& out, std::uint8_t v);
void put_u16(std::string& out, std::uint16_t v);
void put_u32(std::string& out, std::uint32_t v);
void put_u64(std::string& out, std::uint64_t v);
void put_f64(std::string& out, double v);

/// u32 length + raw bytes.
void put_str(std::string& out, std::string_view s);

/// Pad with zero bytes until out.size() is a multiple of \p alignment
/// (power of two).  Used by `.fdx` v2 so fixed-width blocks start 8-byte
/// aligned and can be served as in-place spans from a mapped file.
void pad_to(std::string& out, std::size_t alignment);

/// Append the FNV-1a checksum of everything written since \p begin.
void seal_block(std::string& out, std::size_t begin);

// --------------------------------------------------------------- reader

/// The little-endian u64 / f64 at \p p, any alignment: the one 8-byte
/// reader of every decoder (the byte swap compiles out on little-endian
/// hosts).
[[nodiscard]] inline std::uint64_t load_u64_le(const char* p) {
  std::uint64_t v = 0;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&v, p, 8);
  } else {
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(static_cast<unsigned char>(p[i]))
           << (8 * i);
    }
  }
  return v;
}
[[nodiscard]] inline double load_f64_le(const char* p) {
  return std::bit_cast<double>(load_u64_le(p));
}

/// Bounds-checked little-endian cursor over an in-memory image.  Every
/// read throws ParseError("<context> is truncated") instead of running
/// off the end, so a short image can never be misinterpreted as valid
/// data.  The reader does not own the bytes; keep them alive.
class ByteReader {
public:
  explicit ByteReader(std::string_view bytes,
                      std::string context = "binary image")
      : bytes_(bytes), context_(std::move(context)) {}

  [[nodiscard]] std::size_t position() const { return pos_; }
  [[nodiscard]] std::size_t remaining() const { return bytes_.size() - pos_; }

  /// Advance past \p n bytes and return a pointer to them.
  /// \throws ParseError when fewer remain.
  [[nodiscard]] const char* need(std::size_t n);

  /// Require at least \p n bytes left without consuming them.
  void require(std::size_t n, const char* what) const;

  [[nodiscard]] std::uint8_t get_u8();
  [[nodiscard]] std::uint16_t get_u16();
  [[nodiscard]] std::uint32_t get_u32();
  [[nodiscard]] std::uint64_t get_u64();
  [[nodiscard]] double get_f64();
  [[nodiscard]] std::string get_str();

  /// Skip forward to the next multiple of \p alignment (power of two).
  void align_to(std::size_t alignment);

  /// Verify the trailing u64 checksum of the block that started at
  /// \p begin.  \throws ParseError on a mismatch.
  void check_block(std::size_t begin, const char* what);

private:
  std::string_view bytes_;
  std::string context_;
  std::size_t pos_ = 0;
};

}  // namespace ftdiag::io
