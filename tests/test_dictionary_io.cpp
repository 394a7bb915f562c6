#include "io/dictionary_io.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>

#include "circuits/nf_biquad.hpp"
#include "util/error.hpp"

namespace ftdiag::io {
namespace {

class DictionaryIoTest : public ::testing::Test {
protected:
  static void SetUpTestSuite() {
    const auto cut = circuits::make_paper_cut();
    faults::DeviationSpec spec;
    spec.step_fraction = 0.2;  // small dictionary keeps the test quick
    dict_ = new faults::FaultDictionary(faults::FaultDictionary::build(
        cut, faults::FaultUniverse::over_testable(cut, spec),
        std::vector<double>{100.0, 1000.0, 10000.0}));
  }
  static void TearDownTestSuite() {
    delete dict_;
    dict_ = nullptr;
  }
  static faults::FaultDictionary* dict_;
};

faults::FaultDictionary* DictionaryIoTest::dict_ = nullptr;

std::string serialized(const faults::FaultDictionary& dict) {
  std::ostringstream os;
  save_dictionary(os, dict);
  return os.str();
}

void expect_bit_identical(const faults::FaultDictionary& a,
                          const faults::FaultDictionary& b) {
  ASSERT_EQ(a.fault_count(), b.fault_count());
  EXPECT_EQ(a.frequencies(), b.frequencies());
  EXPECT_EQ(a.golden().values(), b.golden().values());
  EXPECT_EQ(a.site_labels(), b.site_labels());
  for (std::size_t i = 0; i < a.fault_count(); ++i) {
    EXPECT_EQ(a.entries()[i].fault, b.entries()[i].fault);
    EXPECT_EQ(a.entries()[i].response.values(),
              b.entries()[i].response.values());
  }
}

TEST_F(DictionaryIoTest, RoundTripPreservesEverything) {
  const auto loaded = load_dictionary(serialized(*dict_));
  ASSERT_EQ(loaded.fault_count(), dict_->fault_count());
  EXPECT_EQ(loaded.site_labels(), dict_->site_labels());
  EXPECT_EQ(loaded.frequencies(), dict_->frequencies());
  EXPECT_NEAR(loaded.golden().max_deviation(dict_->golden()), 0.0, 1e-10);
  for (std::size_t i = 0; i < loaded.fault_count(); ++i) {
    EXPECT_EQ(loaded.entries()[i].fault, dict_->entries()[i].fault);
    EXPECT_NEAR(loaded.entries()[i].response.max_deviation(
                    dict_->entries()[i].response),
                0.0, 1e-10);
  }
}

TEST_F(DictionaryIoTest, LoadedDictionaryDrivesTheFlow) {
  const auto loaded = load_dictionary(serialized(*dict_));
  // entries_for + trajectory building must work exactly as on the original.
  for (const auto& site : loaded.site_labels()) {
    EXPECT_EQ(loaded.entries_for(site).size(),
              dict_->entries_for(site).size());
  }
}

TEST_F(DictionaryIoTest, OpAmpFaultSitesRoundTrip) {
  circuits::NfBiquadDesign design;
  design.ideal_opamps = false;
  const auto cut = circuits::make_nf_biquad(design);
  faults::DeviationSpec spec;
  spec.step_fraction = 0.4;
  const auto dict = faults::FaultDictionary::build(
      cut, faults::FaultUniverse::over_opamp_params(cut, spec),
      std::vector<double>{1000.0, 5000.0});
  const auto loaded = load_dictionary(serialized(dict));
  EXPECT_EQ(loaded.site_labels(), dict.site_labels());
  EXPECT_EQ(loaded.entries().front().fault.site.target,
            faults::FaultSite::Target::kOpAmpParam);
}

TEST_F(DictionaryIoTest, CsvRoundTripIsBitExact) {
  // The header promises "lossless": every double must survive the text
  // round trip exactly, which makes save -> load -> save byte-identical.
  const std::string first = serialized(*dict_);
  const auto loaded = load_dictionary(first);
  expect_bit_identical(*dict_, loaded);
  EXPECT_EQ(serialized(loaded), first);
}

TEST_F(DictionaryIoTest, BinaryRoundTripIsBitExact) {
  std::ostringstream os;
  save_dictionary_binary(os, *dict_, "unit#test");
  const std::string bytes = os.str();

  ASSERT_TRUE(is_binary_dictionary(bytes));
  const BinaryDictionaryHeader header = read_binary_dictionary_header(bytes);
  EXPECT_EQ(header.version, kBinaryDictionaryVersion);
  EXPECT_EQ(header.key, "unit#test");
  EXPECT_EQ(header.frequency_count, dict_->frequencies().size());
  EXPECT_EQ(header.fault_count, dict_->fault_count());

  expect_bit_identical(*dict_, load_dictionary_binary(bytes));

  // Serialization is deterministic: same dictionary, same bytes.
  std::ostringstream again;
  save_dictionary_binary(again, load_dictionary_binary(bytes), "unit#test");
  EXPECT_EQ(again.str(), bytes);
}

TEST_F(DictionaryIoTest, BinaryOpAmpFaultSitesRoundTrip) {
  circuits::NfBiquadDesign design;
  design.ideal_opamps = false;
  const auto cut = circuits::make_nf_biquad(design);
  faults::DeviationSpec spec;
  spec.step_fraction = 0.4;
  const auto dict = faults::FaultDictionary::build(
      cut, faults::FaultUniverse::over_opamp_params(cut, spec),
      std::vector<double>{1000.0, 5000.0});
  std::ostringstream os;
  save_dictionary_binary(os, dict);
  expect_bit_identical(dict, load_dictionary_binary(os.str()));
}

TEST_F(DictionaryIoTest, BinaryCorruptionRejected) {
  std::ostringstream os;
  save_dictionary_binary(os, *dict_);
  const std::string bytes = os.str();

  // Bad magic.
  std::string bad_magic = bytes;
  bad_magic[1] = 'Z';
  EXPECT_THROW((void)load_dictionary_binary(bad_magic), ParseError);
  EXPECT_FALSE(is_binary_dictionary(bad_magic));

  // Unsupported version.
  std::string bad_version = bytes;
  bad_version[4] = 99;
  EXPECT_THROW((void)load_dictionary_binary(bad_version), ParseError);

  // A corrupted header count must fail the header checksum (a clean
  // ParseError, never an attempted giant allocation).  The n_freqs field
  // sits after magic(4) + version(4) + key length(4) + key bytes.
  std::string bad_count = bytes;  // empty key: n_freqs u64 sits at [12, 20)
  bad_count[18] = static_cast<char>(0x7f);
  EXPECT_THROW((void)load_dictionary_binary(bad_count), ParseError);
  EXPECT_THROW((void)read_binary_dictionary_header(bad_count), ParseError);

  // A single flipped payload bit fails a block checksum.
  for (std::size_t at : {bytes.size() / 4, bytes.size() / 2,
                         bytes.size() - 9}) {
    std::string flipped = bytes;
    flipped[at] = static_cast<char>(flipped[at] ^ 0x01);
    EXPECT_THROW((void)load_dictionary_binary(flipped), ParseError);
  }

  // Truncation anywhere is caught before any block is trusted.
  for (std::size_t keep : {std::size_t{3}, std::size_t{16},
                           bytes.size() / 2, bytes.size() - 1}) {
    EXPECT_THROW((void)load_dictionary_binary(bytes.substr(0, keep)),
                 ParseError);
  }
}

TEST_F(DictionaryIoTest, VersionNegotiationRejectsTheFuturePolitely) {
  std::ostringstream os;
  save_dictionary_binary(os, *dict_);
  const std::string bytes = os.str();

  // The version word sits right after the 4-byte magic.  A reader must
  // refuse an artifact from its future with an actionable message, not a
  // checksum mumble: negotiation runs before any checksum.
  auto with_version = [&](std::uint32_t version) {
    std::string copy = bytes;
    for (int i = 0; i < 4; ++i) {
      copy[4 + i] = static_cast<char>((version >> (8 * i)) & 0xff);
    }
    return copy;
  };
  try {
    (void)load_dictionary_binary(with_version(kBinaryDictionaryVersion + 1));
    FAIL() << "future major version was accepted";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("not supported"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("upgrade"), std::string::npos);
  }
  EXPECT_THROW((void)load_dictionary_binary(with_version(0)), ParseError);

  // v2 carries a feature-flag word after the version; unknown bits mean
  // "this file needs a capability you don't have" and must be refused.
  std::string unknown_flag = bytes;
  unknown_flag[8] = static_cast<char>(unknown_flag[8] | 0x01);
  try {
    (void)load_dictionary_binary(unknown_flag);
    FAIL() << "unknown feature flag was accepted";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("feature flags"),
              std::string::npos);
  }
}

TEST_F(DictionaryIoTest, TruncationSweepNeverOverAllocatesOrAccepts) {
  std::ostringstream os;
  save_dictionary_binary(os, *dict_);
  const std::string bytes = os.str();

  // Every prefix of the file must be a clean ParseError — block sizes are
  // validated against the remaining bytes *before* any allocation, so a
  // truncated file can never make the loader reserve for data that is not
  // there.  Sweep every cut point in the header region, then stride
  // through the payload.
  for (std::size_t keep = 0; keep < bytes.size();
       keep += keep < 96 ? 1 : 41) {
    EXPECT_THROW((void)load_dictionary_binary(bytes.substr(0, keep)),
                 ParseError)
        << "prefix of " << keep << " bytes was accepted";
    EXPECT_THROW(
        (void)parse_binary_dictionary_layout(bytes.substr(0, keep)),
        ParseError)
        << "layout accepted a prefix of " << keep << " bytes";
  }
}

TEST_F(DictionaryIoTest, BitFlipSweepIsNeverSilentlyWrong) {
  std::ostringstream os;
  save_dictionary_binary(os, *dict_);
  const std::string bytes = os.str();

  // Flip one bit at offsets throughout the image.  Every flip must either
  // be rejected (checksum / validation) or — only for bytes outside the
  // checksummed blocks, i.e. alignment padding — load bit-identically.
  // What can never happen is a quietly different dictionary.
  for (std::size_t at = 0; at < bytes.size();
       at += at < 64 ? 3 : 29) {
    std::string flipped = bytes;
    flipped[at] = static_cast<char>(flipped[at] ^ 0x10);
    try {
      const auto loaded = load_dictionary_binary(flipped);
      expect_bit_identical(*dict_, loaded);
    } catch (const ParseError&) {
      // rejected: fine
    }
  }
}

TEST_F(DictionaryIoTest, FormatNamesParse) {
  EXPECT_EQ(parse_dictionary_format("csv"), DictionaryFormat::kCsv);
  EXPECT_EQ(parse_dictionary_format("binary"), DictionaryFormat::kBinary);
  EXPECT_EQ(parse_dictionary_format("AUTO"), DictionaryFormat::kAuto);
  EXPECT_THROW((void)parse_dictionary_format("xml"), ParseError);
}

TEST_F(DictionaryIoTest, AutoDetectLoadsBothFormatsThroughOneEntryPoint) {
  const std::string csv_path = ::testing::TempDir() + "/ftdiag_auto.csv";
  const std::string fdx_path = ::testing::TempDir() + "/ftdiag_auto.fdx";
  // kAuto saving: extension decides.
  save_dictionary_file(csv_path, *dict_);
  save_dictionary_file(fdx_path, *dict_);
  EXPECT_FALSE(is_binary_dictionary(read_file_bytes(csv_path)));
  EXPECT_TRUE(is_binary_dictionary(read_file_bytes(fdx_path)));
  // kAuto loading: magic bytes decide, regardless of the name.
  expect_bit_identical(*dict_, load_dictionary_file(csv_path));
  expect_bit_identical(*dict_, load_dictionary_file(fdx_path));
  // An explicit format overrides sniffing and fails loudly on a mismatch.
  EXPECT_THROW((void)load_dictionary_file(csv_path, DictionaryFormat::kBinary),
               ParseError);
  std::remove(csv_path.c_str());
  std::remove(fdx_path.c_str());
}

TEST_F(DictionaryIoTest, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/ftdiag_dict.csv";
  save_dictionary_file(path, *dict_);
  const auto loaded = load_dictionary_file(path);
  EXPECT_EQ(loaded.fault_count(), dict_->fault_count());
  std::remove(path.c_str());
}

TEST_F(DictionaryIoTest, MalformedInputsRejected) {
  EXPECT_THROW(load_dictionary(""), ParseError);
  EXPECT_THROW(load_dictionary("site,target\nx,value\n"), ParseError);
  // No golden series.
  EXPECT_THROW(
      load_dictionary("site,target,param,deviation,freq_hz,re,im\n"
                      "R1,value,,0.1,100,1,0\n"),
      ParseError);
  // Unknown target.
  EXPECT_THROW(
      load_dictionary("site,target,param,deviation,freq_hz,re,im\n"
                      ",,,0,100,1,0\n"
                      "R1,bogus,,0.1,100,1,0\n"),
      ParseError);
  // Unknown op-amp parameter.
  EXPECT_THROW(
      load_dictionary("site,target,param,deviation,freq_hz,re,im\n"
                      ",,,0,100,1,0\n"
                      "OA1,opamp,zeta,0.1,100,1,0\n"),
      ParseError);
}

TEST_F(DictionaryIoTest, EntryOffTheGoldenGridRejected) {
  // An entry on a different grid than the golden must be refused.
  EXPECT_THROW(
      load_dictionary("site,target,param,deviation,freq_hz,re,im\n"
                      ",,,0,100,1,0\n"
                      ",,,0,1000,0.9,0\n"
                      "R1,value,,0.1,100,1,0\n"),
      ConfigError);
}

TEST_F(DictionaryIoTest, GoldenGridMustBeFiniteAndAscending) {
  // 1e308t overflows to +inf in units::parse.
  for (const char* golden : {",,,0,1000,1,0\n,,,0,100,0.9,0\n",
                             ",,,0,1e308t,1,0\n,,,0,100,0.9,0\n",
                             ",,,0,100,1,0\n,,,0,1e308t,0.9,0\n"}) {
    EXPECT_THROW(
        (void)load_dictionary(
            std::string("site,target,param,deviation,freq_hz,re,im\n") +
            golden + "R1,value,,0.1,100,1,0\n"),
        ParseError)
        << golden;
  }
}

TEST(DictionaryAssemble, EmptyFaultListRejected) {
  EXPECT_THROW(faults::FaultDictionary::assemble(
                   {}, mna::AcResponse({1.0}, {mna::Complex(1, 0)}).block()),
               ConfigError);
}

}  // namespace
}  // namespace ftdiag::io
