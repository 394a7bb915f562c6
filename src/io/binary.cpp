#include "io/binary.hpp"

#include <bit>

#include "util/error.hpp"

namespace ftdiag::io {

std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t h = 14695981039346656037ull;
  for (char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

void put_u8(std::string& out, std::uint8_t v) {
  out.push_back(static_cast<char>(v));
}

void put_u16(std::string& out, std::uint16_t v) {
  for (int shift = 0; shift < 16; shift += 8) {
    out.push_back(static_cast<char>((v >> shift) & 0xff));
  }
}

void put_u32(std::string& out, std::uint32_t v) {
  for (int shift = 0; shift < 32; shift += 8) {
    out.push_back(static_cast<char>((v >> shift) & 0xff));
  }
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int shift = 0; shift < 64; shift += 8) {
    out.push_back(static_cast<char>((v >> shift) & 0xff));
  }
}

void put_f64(std::string& out, double v) {
  put_u64(out, std::bit_cast<std::uint64_t>(v));
}

void put_str(std::string& out, std::string_view s) {
  put_u32(out, static_cast<std::uint32_t>(s.size()));
  out.append(s);
}

void pad_to(std::string& out, std::size_t alignment) {
  while ((out.size() & (alignment - 1)) != 0) out.push_back('\0');
}

void seal_block(std::string& out, std::size_t begin) {
  put_u64(out, fnv1a(std::string_view(out).substr(begin)));
}

const char* ByteReader::need(std::size_t n) {
  if (bytes_.size() - pos_ < n || pos_ > bytes_.size()) {
    throw ParseError(context_ + " is truncated");
  }
  const char* p = bytes_.data() + pos_;
  pos_ += n;
  return p;
}

void ByteReader::require(std::size_t n, const char* what) const {
  if (bytes_.size() - pos_ < n || pos_ > bytes_.size()) {
    throw ParseError(context_ + " is too short for its declared " + what);
  }
}

std::uint8_t ByteReader::get_u8() {
  return static_cast<std::uint8_t>(*need(1));
}

std::uint16_t ByteReader::get_u16() {
  const char* p = need(2);
  std::uint16_t v = 0;
  for (int i = 0; i < 2; ++i) {
    v = static_cast<std::uint16_t>(
        v | static_cast<std::uint16_t>(static_cast<unsigned char>(p[i]))
                << (8 * i));
  }
  return v;
}

std::uint32_t ByteReader::get_u32() {
  const char* p = need(4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(static_cast<unsigned char>(p[i]))
         << (8 * i);
  }
  return v;
}

std::uint64_t ByteReader::get_u64() { return load_u64_le(need(8)); }

double ByteReader::get_f64() { return load_f64_le(need(8)); }

std::string ByteReader::get_str() {
  const std::uint32_t size = get_u32();
  require(size, "string length");
  const char* p = need(size);
  return std::string(p, size);
}

void ByteReader::align_to(std::size_t alignment) {
  const std::size_t aligned = (pos_ + alignment - 1) & ~(alignment - 1);
  (void)need(aligned - pos_);
}

void ByteReader::check_block(std::size_t begin, const char* what) {
  const std::uint64_t expected =
      fnv1a(bytes_.substr(begin, pos_ - begin));
  if (get_u64() != expected) {
    throw ParseError(context_ + " " + what + " block failed its checksum");
  }
}

}  // namespace ftdiag::io
