/// Zero-copy dictionary views: a mapped `.fdx` image must serve the exact
/// bytes load_dictionary_binary decodes — via in-place spans when the v2
/// alignment guarantees hold, via the transparent decode fallback
/// otherwise (v1 images) — and corrupt or truncated images must be
/// rejected at map time, before any span is handed out.  Every way to get
/// a dictionary stores each sample once, as a row of one SoA block.
#include "io/mapped_file.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "circuits/nf_biquad.hpp"
#include "io/binary.hpp"
#include "io/dictionary_io.hpp"
#include "util/error.hpp"

namespace ftdiag::io {
namespace {

class MappedDictionaryTest : public ::testing::Test {
protected:
  static void SetUpTestSuite() {
    const auto cut = circuits::make_paper_cut();
    faults::DeviationSpec spec;
    spec.step_fraction = 0.2;
    dict_ = new faults::FaultDictionary(faults::FaultDictionary::build(
        cut, faults::FaultUniverse::over_testable(cut, spec),
        std::vector<double>{100.0, 1000.0, 10000.0}));
    std::ostringstream os;
    save_dictionary_binary(os, *dict_, "map#test");
    bytes_ = new std::string(os.str());
    path_ = new std::string(::testing::TempDir() + "/ftdiag_mapped.fdx");
    std::ofstream(*path_, std::ios::binary) << *bytes_;
  }
  static void TearDownTestSuite() {
    std::remove(path_->c_str());
    delete path_;
    delete bytes_;
    delete dict_;
    path_ = nullptr;
    bytes_ = nullptr;
    dict_ = nullptr;
  }

  static void expect_serves_the_dictionary(const DictionaryView& view) {
    ASSERT_EQ(view.frequency_count(), dict_->frequencies().size());
    ASSERT_EQ(view.fault_count(), dict_->fault_count());

    const auto freqs = view.frequencies();
    for (std::size_t i = 0; i < freqs.size(); ++i) {
      EXPECT_EQ(freqs[i], dict_->frequencies()[i]);
    }
    const auto golden = view.golden();
    for (std::size_t i = 0; i < golden.size(); ++i) {
      EXPECT_EQ(golden[i], dict_->golden().values()[i]);
    }
    for (std::size_t e = 0; e < view.fault_count(); ++e) {
      EXPECT_EQ(view.faults()[e], dict_->entries()[e].fault);
      const auto values = view.response(e);
      ASSERT_EQ(values.size(), dict_->entries()[e].response.values().size());
      for (std::size_t i = 0; i < values.size(); ++i) {
        EXPECT_EQ(values[i], dict_->entries()[e].response.values()[i]);
      }
    }
  }

  static faults::FaultDictionary* dict_;
  static std::string* bytes_;
  static std::string* path_;
};

faults::FaultDictionary* MappedDictionaryTest::dict_ = nullptr;
std::string* MappedDictionaryTest::bytes_ = nullptr;
std::string* MappedDictionaryTest::path_ = nullptr;

TEST_F(MappedDictionaryTest, MappedFileSeesTheExactBytes) {
  const MappedFile file = MappedFile::open(*path_);
  EXPECT_EQ(file.is_mapped(), mmap_supported());
  ASSERT_EQ(file.size(), bytes_->size());
  EXPECT_EQ(file.bytes(), *bytes_);
}

TEST_F(MappedDictionaryTest, MapServesSpansIdenticalToBinaryLoad) {
  const DictionaryView view = DictionaryView::map(*path_);
  EXPECT_EQ(view.header().key, "map#test");
  EXPECT_EQ(view.header().version, kBinaryDictionaryVersion);
  // The v2 writer 8-byte aligns every f64 run, so a mapped little-endian
  // image serves spans straight out of the page cache.
  if (mmap_supported()) EXPECT_TRUE(view.zero_copy());
  expect_serves_the_dictionary(view);
}

TEST_F(MappedDictionaryTest, InMemoryViewServesTheSameSpans) {
  expect_serves_the_dictionary(DictionaryView::over(*bytes_));
}

TEST_F(MappedDictionaryTest, MaterializeIsBitIdenticalToBinaryLoad) {
  const faults::FaultDictionary loaded = load_dictionary_binary(*bytes_);
  const faults::FaultDictionary materialized =
      DictionaryView::map(*path_).materialize();
  ASSERT_EQ(materialized.fault_count(), loaded.fault_count());
  EXPECT_EQ(materialized.frequencies(), loaded.frequencies());
  EXPECT_EQ(materialized.golden().values(), loaded.golden().values());
  EXPECT_EQ(materialized.site_labels(), loaded.site_labels());
  for (std::size_t i = 0; i < loaded.fault_count(); ++i) {
    EXPECT_EQ(materialized.entries()[i].fault, loaded.entries()[i].fault);
    EXPECT_EQ(materialized.entries()[i].response.values(),
              loaded.entries()[i].response.values());
  }
}

TEST_F(MappedDictionaryTest, ViewsAreCheapSharedHandles) {
  // Copies alias one validated state; spans from either stay valid while
  // any handle lives.
  DictionaryView view = DictionaryView::over(*bytes_);
  const DictionaryView copy = view;
  EXPECT_EQ(copy.frequencies().data(), view.frequencies().data());
}

TEST_F(MappedDictionaryTest, CorruptImagesRejectedAtMapTime) {
  // A flipped payload bit fails a block checksum during validation.
  std::string flipped = *bytes_;
  flipped[flipped.size() / 2] ^= 0x01;
  EXPECT_THROW((void)DictionaryView::over(flipped), ParseError);

  // Truncation anywhere is caught before any span is served.
  for (std::size_t keep : {std::size_t{0}, std::size_t{16},
                           bytes_->size() / 2, bytes_->size() - 1}) {
    EXPECT_THROW((void)DictionaryView::over(bytes_->substr(0, keep)),
                 ParseError);
  }

  // Checksum verification can be skipped (warm attach), but structural
  // bounds are always enforced.
  EXPECT_NO_THROW((void)DictionaryView::over(*bytes_, false));
  EXPECT_THROW(
      (void)DictionaryView::over(bytes_->substr(0, bytes_->size() / 2),
                                 false),
      ParseError);
}

/// The v2 image rewritten as v1 with the io/binary.hpp emitters: no flag
/// word, no padding, and an odd-length key, so no f64 run is 8-byte
/// aligned.
std::string as_v1_image(const faults::FaultDictionary& dict) {
  const std::size_t grid = dict.frequencies().size();
  std::string out(kBinaryDictionaryMagic, sizeof(kBinaryDictionaryMagic));
  put_u32(out, 1);
  put_str(out, "odd");
  put_u64(out, grid);
  put_u64(out, dict.fault_count());
  seal_block(out, 0);
  std::size_t begin = out.size();
  for (double f : dict.frequencies()) put_f64(out, f);
  seal_block(out, begin);
  auto put_rows = [&](std::size_t first, std::size_t rows) {
    for (std::size_t i = first * grid; i < (first + rows) * grid; ++i) {
      put_f64(out, dict.planes().re[i]);
      put_f64(out, dict.planes().im[i]);
    }
  };
  begin = out.size();
  put_rows(0, 1);
  seal_block(out, begin);
  begin = out.size();
  for (const auto& entry : dict.entries()) {
    put_u8(out, 0);  // component-value target
    put_str(out, entry.fault.site.component);
    put_u8(out, 0);
    put_f64(out, entry.fault.deviation);
  }
  seal_block(out, begin);
  begin = out.size();
  put_rows(1, dict.fault_count());
  seal_block(out, begin);
  return out;
}

/// \p image with its frequency block replaced by \p freqs and re-sealed
/// with a valid checksum, so only the grid check can catch it.
std::string with_frequencies(const std::string& image,
                             const std::vector<double>& freqs) {
  const BinaryDictionaryLayout layout = parse_binary_dictionary_layout(image);
  std::string block;
  for (double f : freqs) put_f64(block, f);
  seal_block(block, 0);
  std::string out = image;
  out.replace(layout.frequencies_offset, block.size(), block);
  return out;
}

void expect_rows_of_one_block(const faults::FaultDictionary& dict) {
  const std::size_t grid = dict.frequencies().size();
  const auto& planes = dict.planes();
  ASSERT_EQ(planes.re.size(), (1 + dict.fault_count()) * grid);
  EXPECT_EQ(dict.golden().reals().data(), planes.re.data());
  EXPECT_EQ(dict.golden().imags().data(), planes.im.data());
  for (std::size_t e = 0; e < dict.fault_count(); ++e) {
    const mna::AcResponse& response = dict.entries()[e].response;
    EXPECT_EQ(response.reals().data(), planes.re.data() + (1 + e) * grid);
    EXPECT_EQ(response.imags().data(), planes.im.data() + (1 + e) * grid);
    EXPECT_EQ(response.frequencies().data(),
              dict.golden().frequencies().data());
  }
}

TEST_F(MappedDictionaryTest, EveryDictionaryStoresEachSampleOnce) {
  std::ostringstream csv;
  save_dictionary(csv, *dict_);
  expect_rows_of_one_block(*dict_);
  expect_rows_of_one_block(load_dictionary(csv.str()));
  expect_rows_of_one_block(load_dictionary_binary(*bytes_));
  expect_rows_of_one_block(DictionaryView::map(*path_).materialize());
}

TEST_F(MappedDictionaryTest, AResponseKeepsItsBlockAlive) {
  const std::size_t e = dict_->fault_count() / 2;
  mna::AcResponse response;
  {
    const faults::FaultDictionary loaded = load_dictionary_binary(*bytes_);
    response = loaded.entries()[e].response;
  }
  EXPECT_EQ(response.frequencies(), dict_->frequencies());
  EXPECT_EQ(response.values(), dict_->entries()[e].response.values());
}

TEST_F(MappedDictionaryTest, V1ImagesDecodeBitIdenticallyThroughTheFallback) {
  const std::string v1 = as_v1_image(*dict_);
  const BinaryDictionaryHeader header = read_binary_dictionary_header(v1);
  EXPECT_EQ(header.version, 1u);
  EXPECT_EQ(header.flags, 0u);
  EXPECT_EQ(header.key, "odd");
  ASSERT_NE(parse_binary_dictionary_layout(v1).frequencies_offset % 8, 0u);

  const faults::FaultDictionary v2 = load_dictionary_binary(*bytes_);
  auto expect_same_bits = [&](const faults::FaultDictionary& d) {
    ASSERT_EQ(d.fault_count(), v2.fault_count());
    EXPECT_EQ(d.frequencies(), v2.frequencies());
    EXPECT_EQ(d.planes().re, v2.planes().re);
    EXPECT_EQ(d.planes().im, v2.planes().im);
    for (std::size_t e = 0; e < d.fault_count(); ++e) {
      EXPECT_EQ(d.entries()[e].fault, v2.entries()[e].fault);
    }
  };
  expect_same_bits(load_dictionary_binary(v1));
  const DictionaryView view = DictionaryView::over(v1);
  EXPECT_FALSE(view.zero_copy());
  expect_same_bits(view.materialize());
  expect_serves_the_dictionary(view);
}

TEST_F(MappedDictionaryTest, ResealedBadGridsAreParseErrorsInBothDecoders) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const std::vector<double>& freqs :
       {std::vector<double>{1000.0, 100.0, 10000.0},
        std::vector<double>{100.0, nan, 10000.0},
        std::vector<double>{100.0, 1000.0,
                            std::numeric_limits<double>::infinity()}}) {
    const std::string bad = with_frequencies(*bytes_, freqs);
    EXPECT_THROW((void)load_dictionary_binary(bad), ParseError);
    // The view validates framing only; the decoder checks the grid.
    const DictionaryView view = DictionaryView::over(bad);
    EXPECT_THROW((void)view.materialize(), ParseError);
  }
}

TEST_F(MappedDictionaryTest, MissingFileRejected) {
  EXPECT_THROW((void)MappedFile::open("/nonexistent/ftdiag.fdx"),
               ParseError);
  EXPECT_THROW((void)DictionaryView::map("/nonexistent/ftdiag.fdx"),
               ParseError);
}

}  // namespace
}  // namespace ftdiag::io
