#include "io/dictionary_io.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <map>
#include <ostream>
#include <sstream>

#include "io/binary.hpp"
#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"
#include "util/units.hpp"

namespace ftdiag::io {

namespace {

constexpr const char* kValueTarget = "value";
constexpr const char* kOpAmpTarget = "opamp";

/// max_digits10 for IEEE double: every finite value round-trips exactly
/// through text at this precision, which is what makes the CSV format
/// genuinely lossless.
constexpr const char* kDoubleFmt = "%.17g";

void write_response(csv::Writer& writer, const std::string& site,
                    const std::string& target, const std::string& param,
                    double deviation, const mna::AcResponse& response) {
  for (std::size_t i = 0; i < response.size(); ++i) {
    writer.row({site, target, param, str::format(kDoubleFmt, deviation),
                str::format(kDoubleFmt, response.frequency(i)),
                str::format(kDoubleFmt, response.value(i).real()),
                str::format(kDoubleFmt, response.value(i).imag())});
  }
}

netlist::OpAmpParam parse_param(const std::string& name) {
  for (auto param : {netlist::OpAmpParam::kDcGain, netlist::OpAmpParam::kGbw,
                     netlist::OpAmpParam::kRin, netlist::OpAmpParam::kRout}) {
    if (name == netlist::opamp_param_name(param)) return param;
  }
  throw ParseError("unknown op-amp parameter '" + name + "'");
}

// ------------------------------------------------ binary primitives
//
// All emit/read primitives live in io/binary.hpp (shared with the
// ftdiag::net wire protocol).

/// Fault-site targets as stable wire bytes (do not renumber: the values
/// are part of the v1 format).
constexpr std::uint8_t kWireTargetValue = 0;
constexpr std::uint8_t kWireTargetOpAmp = 1;

std::uint8_t wire_param(netlist::OpAmpParam param) {
  return static_cast<std::uint8_t>(param);
}

netlist::OpAmpParam param_from_wire(std::uint8_t raw) {
  switch (raw) {
    case static_cast<std::uint8_t>(netlist::OpAmpParam::kDcGain):
      return netlist::OpAmpParam::kDcGain;
    case static_cast<std::uint8_t>(netlist::OpAmpParam::kGbw):
      return netlist::OpAmpParam::kGbw;
    case static_cast<std::uint8_t>(netlist::OpAmpParam::kRin):
      return netlist::OpAmpParam::kRin;
    case static_cast<std::uint8_t>(netlist::OpAmpParam::kRout):
      return netlist::OpAmpParam::kRout;
    default:
      throw ParseError("binary dictionary has an unknown op-amp parameter");
  }
}

/// Shared header walk: magic + version (+ flags from v2) + key + counts +
/// checksum.  The header is sealed like every block, so a flipped count
/// byte is a clean ParseError — not a multi-terabyte vector allocation
/// downstream.
BinaryDictionaryHeader parse_header(ByteReader& reader,
                                    std::size_t total_bytes) {
  const char* magic = reader.need(sizeof(kBinaryDictionaryMagic));
  if (std::memcmp(magic, kBinaryDictionaryMagic,
                  sizeof(kBinaryDictionaryMagic)) != 0) {
    throw ParseError("not a binary fault dictionary (bad magic)");
  }
  BinaryDictionaryHeader header;
  header.version = reader.get_u32();
  if (header.version == 0 || header.version > kBinaryDictionaryVersion) {
    throw ParseError(str::format(
        "binary dictionary major version %u is not supported (this build "
        "reads versions 1..%u; rebuild the artifact or upgrade ftdiag)",
        header.version, kBinaryDictionaryVersion));
  }
  if (header.version >= 2) {
    header.flags = reader.get_u32();
    if ((header.flags & ~kBinaryDictionarySupportedFlags) != 0) {
      throw ParseError(str::format(
          "binary dictionary uses unknown feature flags 0x%08x (this build "
          "understands 0x%08x)",
          header.flags, kBinaryDictionarySupportedFlags));
    }
  }
  header.key = reader.get_str();
  header.frequency_count = static_cast<std::size_t>(reader.get_u64());
  header.fault_count = static_cast<std::size_t>(reader.get_u64());
  reader.check_block(0, "header");
  // Belt and braces on top of the checksum: the counts must fit the file
  // before anything is allocated from them (8 bytes per double, 16 per
  // complex sample).
  if (header.frequency_count > total_bytes / 8 ||
      header.fault_count > total_bytes / 16 ||
      (header.frequency_count > 0 &&
       header.fault_count > total_bytes / 16 / header.frequency_count)) {
    throw ParseError("binary dictionary header counts exceed the file size");
  }
  return header;
}

}  // namespace

DictionaryFormat parse_dictionary_format(const std::string& name) {
  const std::string lower = str::to_lower(name);
  if (lower == "csv") return DictionaryFormat::kCsv;
  if (lower == "binary" || lower == "fdx") return DictionaryFormat::kBinary;
  if (lower == "auto") return DictionaryFormat::kAuto;
  throw ParseError("unknown dictionary format '" + name +
                   "' (expected csv, binary or auto)");
}

// ------------------------------------------------------------------ CSV

void save_dictionary(std::ostream& os,
                     const faults::FaultDictionary& dictionary) {
  csv::Writer writer(os);
  writer.row({"site", "target", "param", "deviation", "freq_hz", "re", "im"});
  write_response(writer, "", "", "", 0.0, dictionary.golden());
  for (const auto& entry : dictionary.entries()) {
    const auto& site = entry.fault.site;
    const bool is_value =
        site.target == faults::FaultSite::Target::kComponentValue;
    write_response(writer, site.component,
                   is_value ? kValueTarget : kOpAmpTarget,
                   is_value ? "" : netlist::opamp_param_name(site.param),
                   entry.fault.deviation, entry.response);
  }
}

faults::FaultDictionary load_dictionary(const std::string& text) {
  const csv::Table table = csv::parse(text);
  const std::size_t c_site = table.column("site");
  const std::size_t c_target = table.column("target");
  const std::size_t c_param = table.column("param");
  const std::size_t c_dev = table.column("deviation");
  const std::size_t c_freq = table.column("freq_hz");
  const std::size_t c_re = table.column("re");
  const std::size_t c_im = table.column("im");

  // Group rows by (site, target, param, deviation), keeping file order of
  // first appearance.
  struct Series {
    faults::ParametricFault fault;
    std::vector<double> freqs, re, im;
  };
  std::vector<Series> series;
  std::map<std::string, std::size_t> index;
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  std::size_t golden = kNone;

  for (const auto& row : table.rows) {
    if (row.size() != table.header.size()) {
      throw ParseError("dictionary row has wrong field count");
    }
    const std::string key = row[c_site] + "|" + row[c_target] + "|" +
                            row[c_param] + "|" + row[c_dev];
    auto it = index.find(key);
    if (it == index.end()) {
      Series s;
      if (row[c_site].empty()) {
        if (golden != kNone) throw ParseError("duplicate golden series");
        golden = series.size();
      } else if (row[c_target] == kValueTarget) {
        s.fault.site = faults::FaultSite::value_of(row[c_site]);
        s.fault.deviation = units::parse(row[c_dev]);
      } else if (row[c_target] == kOpAmpTarget) {
        s.fault.site =
            faults::FaultSite::opamp_param_of(row[c_site],
                                              parse_param(row[c_param]));
        s.fault.deviation = units::parse(row[c_dev]);
      } else {
        throw ParseError("unknown fault target '" + row[c_target] + "'");
      }
      it = index.emplace(key, series.size()).first;
      series.push_back(std::move(s));
    }
    Series& s = series[it->second];
    s.freqs.push_back(units::parse(row[c_freq]));
    s.re.push_back(units::parse(row[c_re]));
    s.im.push_back(units::parse(row[c_im]));
  }
  if (golden == kNone) throw ParseError("dictionary file has no golden series");
  const std::vector<double>& grid = series[golden].freqs;
  if (!mna::is_valid_grid(grid)) {
    throw ParseError("dictionary frequencies are not finite and ascending");
  }

  // One block: the golden in row 0, the entries in file order after it.
  auto planes = std::make_shared<mna::ResponsePlanes>(grid, series.size());
  std::vector<faults::ParametricFault> faults;
  for (std::size_t k = 0; k < series.size(); ++k) {
    const Series& s = series[k];
    if (k != golden) {
      if (s.freqs != grid) {
        throw ConfigError("dictionary entry '" + s.fault.label() +
                          "' is not on the golden frequency grid");
      }
      faults.push_back(s.fault);
    }
    const std::size_t row = k == golden ? 0 : faults.size();
    std::copy(s.re.begin(), s.re.end(), planes->row_re(row));
    std::copy(s.im.begin(), s.im.end(), planes->row_im(row));
  }
  return faults::FaultDictionary::assemble(std::move(faults),
                                           std::move(planes));
}

// --------------------------------------------------------------- binary

bool is_binary_dictionary(std::string_view bytes) {
  return bytes.size() >= sizeof(kBinaryDictionaryMagic) &&
         std::memcmp(bytes.data(), kBinaryDictionaryMagic,
                     sizeof(kBinaryDictionaryMagic)) == 0;
}

void save_dictionary_binary(std::ostream& os,
                            const faults::FaultDictionary& dictionary,
                            const std::string& key) {
  const auto& freqs = dictionary.frequencies();
  const auto& entries = dictionary.entries();

  std::string out;
  // Header + four checksummed blocks; sized generously up front so the
  // whole image is built with a handful of allocations.
  out.reserve(64 + key.size() + 8 * freqs.size() +
              16 * freqs.size() * (entries.size() + 1) + 64 * entries.size());

  out.append(kBinaryDictionaryMagic, sizeof(kBinaryDictionaryMagic));
  put_u32(out, kBinaryDictionaryVersion);
  put_u32(out, 0);  // feature flags (v2+): none yet, reserved
  put_str(out, key);
  put_u64(out, freqs.size());
  put_u64(out, entries.size());
  seal_block(out, 0);  // the header is checksummed like every block

  // v2: every fixed-width block starts 8-byte aligned within the image so
  // a mapped file can serve the doubles as in-place spans.  The zero pad
  // bytes sit between blocks, outside every checksum.
  pad_to(out, 8);

  // Block 1: the shared frequency grid.
  std::size_t begin = out.size();
  for (double f : freqs) put_f64(out, f);
  seal_block(out, begin);

  // Block 2: the golden response values, as (re, im) pairs.
  auto put_row = [&](const mna::AcResponse& response) {
    const auto re = response.reals();
    const auto im = response.imags();
    for (std::size_t i = 0; i < re.size(); ++i) {
      put_f64(out, re[i]);
      put_f64(out, im[i]);
    }
  };
  begin = out.size();
  put_row(dictionary.golden());
  seal_block(out, begin);

  // Block 3: the fault list (site + deviation per entry, in entry order).
  begin = out.size();
  for (const auto& entry : entries) {
    const auto& site = entry.fault.site;
    const bool is_value =
        site.target == faults::FaultSite::Target::kComponentValue;
    out.push_back(static_cast<char>(is_value ? kWireTargetValue
                                             : kWireTargetOpAmp));
    put_str(out, site.component);
    out.push_back(static_cast<char>(is_value ? 0 : wire_param(site.param)));
    put_f64(out, entry.fault.deviation);
  }
  seal_block(out, begin);
  pad_to(out, 8);  // block 3 is variable-length; realign for block 4

  // Block 4: every faulty response, one contiguous little-endian run of
  // (re, im) pairs in entry-major order.
  begin = out.size();
  for (const auto& entry : entries) put_row(entry.response);
  seal_block(out, begin);

  os.write(out.data(), static_cast<std::streamsize>(out.size()));
}

BinaryDictionaryHeader read_binary_dictionary_header(std::string_view bytes) {
  ByteReader reader(bytes, "binary dictionary");
  return parse_header(reader, bytes.size());
}

BinaryDictionaryLayout parse_binary_dictionary_layout(std::string_view bytes,
                                                      bool verify_checksums) {
  ByteReader reader(bytes, "binary dictionary");
  BinaryDictionaryLayout layout;
  layout.header = parse_header(reader, bytes.size());
  const std::size_t n_freqs = layout.header.frequency_count;
  const std::size_t n_entries = layout.header.fault_count;
  const bool padded = layout.header.version >= 2;
  if (padded) reader.align_to(8);

  // Validate every block's declared size against the remaining bytes
  // *before* allocating anything from the counts.  The guards in
  // parse_header bound n_freqs <= size/8 and n_freqs*n_entries <= size/16,
  // so none of these products can overflow for a real image.
  const std::size_t fault_list_min = n_entries * (1 + 4 + 1 + 8) + 8;
  const std::size_t fixed_blocks =
      (8 * n_freqs + 8) + (16 * n_freqs + 8) + (16 * n_freqs * n_entries + 8);
  if (reader.remaining() < fixed_blocks ||
      reader.remaining() - fixed_blocks < fault_list_min) {
    throw ParseError(
        "binary dictionary block sizes exceed the remaining file bytes");
  }

  auto finish_block = [&](std::size_t begin, const char* what) {
    if (verify_checksums) {
      reader.check_block(begin, what);
    } else {
      (void)reader.need(8);  // skip the checksum
    }
  };

  // Block 1: frequency grid.
  layout.frequencies_offset = reader.position();
  (void)reader.need(8 * n_freqs);
  finish_block(layout.frequencies_offset, "frequency");

  // Block 2: golden values.
  layout.golden_offset = reader.position();
  (void)reader.need(16 * n_freqs);
  finish_block(layout.golden_offset, "golden");

  // Block 3: fault list (always decoded — it is small and the walk is
  // what finds block 4).
  const std::size_t fault_list_begin = reader.position();
  layout.faults.resize(n_entries);
  for (auto& fault : layout.faults) {
    const std::uint8_t target = reader.get_u8();
    std::string component = reader.get_str();
    const std::uint8_t raw_param = reader.get_u8();
    const double deviation = reader.get_f64();
    if (target == kWireTargetValue) {
      fault.site = faults::FaultSite::value_of(std::move(component));
    } else if (target == kWireTargetOpAmp) {
      fault.site = faults::FaultSite::opamp_param_of(
          std::move(component), param_from_wire(raw_param));
    } else {
      throw ParseError("binary dictionary has an unknown fault target");
    }
    fault.deviation = deviation;
  }
  finish_block(fault_list_begin, "fault-list");
  if (padded) reader.align_to(8);

  // Block 4: all responses in one contiguous run.
  layout.responses_offset = reader.position();
  reader.require(16 * n_freqs * n_entries + 8, "response block");
  (void)reader.need(16 * n_freqs * n_entries);
  finish_block(layout.responses_offset, "response");
  return layout;
}

faults::FaultDictionary decode_binary_dictionary(
    std::string_view bytes, BinaryDictionaryLayout layout) {
  const std::size_t n_freqs = layout.header.frequency_count;
  std::vector<double> freqs(n_freqs);
  for (std::size_t i = 0; i < n_freqs; ++i) {
    freqs[i] = load_f64_le(bytes.data() + layout.frequencies_offset + 8 * i);
  }
  if (!mna::is_valid_grid(freqs)) {
    throw ParseError(
        "binary dictionary frequencies are not finite and ascending");
  }

  // The golden run fills row 0 and the response run rows 1.., each an
  // interleaved (re, im) run split into the two planes.
  auto planes = std::make_shared<mna::ResponsePlanes>(
      std::move(freqs), 1 + layout.header.fault_count);
  auto decode_rows = [&](std::size_t first_row, std::size_t offset,
                         std::size_t rows) {
    const char* run = bytes.data() + offset;
    double* re = planes->row_re(first_row);
    double* im = planes->row_im(first_row);
    for (std::size_t i = 0; i < rows * n_freqs; ++i) {
      re[i] = load_f64_le(run + 16 * i);
      im[i] = load_f64_le(run + 16 * i + 8);
    }
  };
  decode_rows(0, layout.golden_offset, 1);
  decode_rows(1, layout.responses_offset, layout.header.fault_count);
  return faults::FaultDictionary::assemble(std::move(layout.faults),
                                           std::move(planes));
}

faults::FaultDictionary load_dictionary_binary(std::string_view bytes) {
  return decode_binary_dictionary(bytes,
                                  parse_binary_dictionary_layout(bytes));
}

// ----------------------------------------------------------------- files

std::string read_file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw ParseError("cannot open '" + path + "'");
  std::ostringstream ss;
  ss << in.rdbuf();
  return std::move(ss).str();
}

void save_dictionary_file(const std::string& path,
                          const faults::FaultDictionary& dictionary,
                          DictionaryFormat format, const std::string& key) {
  if (format == DictionaryFormat::kAuto) {
    format = str::ends_with(str::to_lower(path), ".fdx")
                 ? DictionaryFormat::kBinary
                 : DictionaryFormat::kCsv;
  }
  std::ofstream out(path, std::ios::binary);
  if (!out) throw Error("cannot open '" + path + "' for writing");
  if (format == DictionaryFormat::kBinary) {
    save_dictionary_binary(out, dictionary, key);
  } else {
    save_dictionary(out, dictionary);
  }
  if (!out) throw Error("failed writing '" + path + "'");
}

faults::FaultDictionary load_dictionary_file(const std::string& path,
                                             DictionaryFormat format) {
  const std::string bytes = read_file_bytes(path);
  if (format == DictionaryFormat::kAuto) {
    format = is_binary_dictionary(bytes) ? DictionaryFormat::kBinary
                                         : DictionaryFormat::kCsv;
  }
  if (format == DictionaryFormat::kBinary) {
    return load_dictionary_binary(bytes);
  }
  return load_dictionary(bytes);
}

}  // namespace ftdiag::io
