// Tests for the SIMD width dispatcher (core/simd.h) and the lane-block
// vocabulary (memsim/lane_block.h) the width-templated packed stack is
// built on — including a direct differential of the wide PackedMemoryT
// instantiations against the scalar Memory (compiled in this TU without
// arch flags, so it runs on any host).
#include <gtest/gtest.h>

#include <map>
#include <stdexcept>
#include <vector>

#include "core/simd.h"
#include "memsim/memory.h"
#include "memsim/packed_memory.h"
#include "util/rng.h"

namespace twm {
namespace {

// --- simd dispatch -------------------------------------------------------

TEST(Simd, LanesMatchEnumValues) {
  EXPECT_EQ(simd::lanes(simd::Width::W64), 64u);
  EXPECT_EQ(simd::lanes(simd::Width::W256), 256u);
  EXPECT_EQ(simd::lanes(simd::Width::W512), 512u);
}

TEST(Simd, W64AlwaysSupported) { EXPECT_TRUE(simd::supported(simd::Width::W64)); }

TEST(Simd, BestWidthIsSupportedAndMaximal) {
  const simd::Width best = simd::best_width();
  EXPECT_TRUE(simd::supported(best));
  for (simd::Width w : simd::kAllWidths) {
    if (simd::lanes(w) > simd::lanes(best)) {
      EXPECT_FALSE(simd::supported(w));
    }
  }
}

TEST(Simd, ParseRequestRoundTrips) {
  EXPECT_EQ(simd::parse_request("auto"), simd::Request::Auto);
  EXPECT_EQ(simd::parse_request("64"), simd::Request::W64);
  EXPECT_EQ(simd::parse_request("256"), simd::Request::W256);
  EXPECT_EQ(simd::parse_request("512"), simd::Request::W512);
  EXPECT_EQ(simd::parse_request("tiled"), simd::Request::Tiled4096);
  EXPECT_EQ(simd::parse_request("tiled:4096"), simd::Request::Tiled4096);
  EXPECT_FALSE(simd::parse_request("avx2").has_value());
  EXPECT_FALSE(simd::parse_request("").has_value());
  EXPECT_FALSE(simd::parse_request("65").has_value());
  EXPECT_FALSE(simd::parse_request("tiled:64").has_value());
  EXPECT_FALSE(simd::parse_request("tiled:").has_value());
  EXPECT_FALSE(simd::parse_request("tiled:32768").has_value());
}

TEST(Simd, TiledWidthsAlwaysSupportedAndNeverAuto) {
  for (simd::Width w : simd::kTiledWidths) {
    EXPECT_TRUE(simd::is_tiled(w));
    EXPECT_TRUE(simd::supported(w)) << simd::to_string(w);
  }
  for (simd::Width w : simd::kAllWidths) EXPECT_FALSE(simd::is_tiled(w));
  // Auto never picks a tiled width (tiles are an explicit opt-in).
  EXPECT_FALSE(simd::is_tiled(simd::best_width()));
  EXPECT_FALSE(simd::is_tiled(simd::resolve(simd::Request::Auto)));
  EXPECT_EQ(simd::resolve(simd::Request::Tiled4096), simd::Width::Tiled4096);
}

TEST(Simd, ResolveAutoPicksBestAndForcedRespectsSupport) {
  EXPECT_EQ(simd::resolve(simd::Request::Auto), simd::best_width());
  EXPECT_EQ(simd::resolve(simd::Request::W64), simd::Width::W64);
  for (simd::Width w : {simd::Width::W256, simd::Width::W512}) {
    const simd::Request r = w == simd::Width::W256 ? simd::Request::W256 : simd::Request::W512;
    if (simd::supported(w))
      EXPECT_EQ(simd::resolve(r), w);
    else
      EXPECT_THROW(simd::resolve(r), std::runtime_error);
  }
}

TEST(Simd, ToStringSpellsLaneCounts) {
  EXPECT_EQ(simd::to_string(simd::Width::W512), "512");
  EXPECT_EQ(simd::to_string(simd::Width::Tiled4096), "tiled:4096");
  EXPECT_EQ(simd::to_string(simd::Request::Auto), "auto");
  EXPECT_EQ(simd::to_string(simd::Request::W256), "256");
  EXPECT_EQ(simd::to_string(simd::Request::Tiled4096), "tiled:4096");
}

// --- lane-block vocabulary ----------------------------------------------

template <typename T>
class LaneBlockVocab : public ::testing::Test {};
using BlockTypes = ::testing::Types<std::uint64_t, LaneBlock<4>, LaneBlock<8>>;
TYPED_TEST_SUITE(LaneBlockVocab, BlockTypes);

TYPED_TEST(LaneBlockVocab, ZeroOnesAnyBit) {
  using Block = TypeParam;
  constexpr unsigned lanes = block_lanes_v<Block>;
  const Block zero{};
  const Block ones = block_ones<Block>();
  EXPECT_FALSE(block_any(zero));
  EXPECT_TRUE(block_any(ones));
  EXPECT_TRUE(zero == ~ones);
  for (unsigned lane : {0u, 1u, 63u, lanes - 1}) {
    EXPECT_FALSE(block_bit(zero, lane)) << lane;
    EXPECT_TRUE(block_bit(ones, lane)) << lane;
    const Block one = block_lane<Block>(lane);
    for (unsigned j = 0; j < lanes; ++j) EXPECT_EQ(block_bit(one, j), j == lane) << lane;
  }
}

TYPED_TEST(LaneBlockVocab, UsedMaskCoversFaultLanesOnly) {
  using Block = TypeParam;
  constexpr unsigned lanes = block_lanes_v<Block>;
  for (unsigned count : {0u, 1u, 3u, 63u, lanes - 1}) {
    const Block m = block_used_mask<Block>(count);
    EXPECT_FALSE(block_bit(m, 0)) << "golden lane in used mask, count " << count;
    for (unsigned lane = 1; lane < lanes; ++lane)
      EXPECT_EQ(block_bit(m, lane), lane <= count)
          << "count " << count << ", lane " << lane;
  }
  // The full batch uses every fault lane.
  EXPECT_TRUE(block_used_mask<Block>(lanes - 1) == ~block_lane<Block>(0));
}

// --- wide PackedMemoryT differential ------------------------------------

// Lanes spread across every 64-bit word of the block, including the last.
template <class Block>
std::vector<unsigned> probe_lanes() {
  constexpr unsigned lanes = block_lanes_v<Block>;
  std::vector<unsigned> out;
  for (unsigned lane = 1; lane < lanes; lane += 61) out.push_back(lane);
  out.push_back(lanes - 1);
  return out;
}

template <class Block>
void run_wide_differential() {
  const std::size_t words = 3;
  const unsigned width = 4;
  Rng rng(20260728);
  PackedMemoryT<Block> packed(words, width);
  std::map<unsigned, Memory> refs;
  refs.emplace(0u, Memory(words, width));

  unsigned which = 0;
  for (unsigned lane : probe_lanes<Block>()) {
    refs.emplace(lane, Memory(words, width));
    Fault f = Fault::saf({0, 0}, true);
    switch (which++ % 5) {
      case 0: f = Fault::saf({which % words, which % width}, which & 1); break;
      case 1: f = Fault::tf({which % words, 1}, Transition::Up); break;
      case 2: f = Fault::cfid({0, 0}, Transition::Up, {1, 1}, true); break;
      case 3: f = Fault::af_no_access(which % words); break;
      case 4: f = Fault::af_alias(0, 1); break;
    }
    packed.inject(f, block_lane<Block>(lane));
    refs.at(lane).inject(f);
  }

  std::vector<BitVec> contents;
  for (std::size_t a = 0; a < words; ++a) contents.push_back(rng.next_word(width));
  packed.load(contents);
  for (auto& [lane, ref] : refs) ref.load(contents);

  std::vector<Block> packed_data(width);
  for (int op = 0; op < 200; ++op) {
    const std::size_t addr = rng.next_below(words);
    if (rng.next_below(4) == 0) {
      const Block* v = packed.read(addr);
      for (auto& [lane, ref] : refs) {
        const BitVec expected = ref.read(addr);
        for (unsigned j = 0; j < width; ++j)
          ASSERT_EQ(block_bit(v[j], lane), expected.get(j))
              << "op " << op << ", lane " << lane << ", bit " << j;
      }
    } else {
      const BitVec data = rng.next_word(width);
      for (unsigned j = 0; j < width; ++j)
        packed_data[j] = data.get(j) ? block_ones<Block>() : Block{};
      packed.write(addr, packed_data.data());
      for (auto& [lane, ref] : refs) ref.write(addr, data);
    }
    for (auto& [lane, ref] : refs)
      for (std::size_t a = 0; a < words; ++a)
        ASSERT_EQ(packed.lane_word(lane, a), ref.peek(a)) << "op " << op << ", lane " << lane;
  }
}

TEST(WidePackedMemory, LaneBlock4TracksScalarReplicas) { run_wide_differential<LaneBlock<4>>(); }
TEST(WidePackedMemory, LaneBlock8TracksScalarReplicas) { run_wide_differential<LaneBlock<8>>(); }

}  // namespace
}  // namespace twm
