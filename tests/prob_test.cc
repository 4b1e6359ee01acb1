#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <vector>

#include "common/rng.h"
#include "prob/aggregates.h"

namespace hyper::prob {
namespace {

using sql::AggKind;

// ---------------------------------------------------------------------------
// BlockAccumulator semantics
// ---------------------------------------------------------------------------

TEST(BlockAccumulatorTest, CountSumsWeights) {
  BlockAccumulator acc(AggKind::kCount);
  acc.BeginBlock();
  acc.Add(1.0, 0.0);
  acc.Add(0.25, 0.0);
  acc.EndBlock();
  acc.BeginBlock();
  acc.Add(0.75, 0.0);
  acc.EndBlock();
  EXPECT_DOUBLE_EQ(acc.Finish().value(), 2.0);
  EXPECT_EQ(acc.num_blocks(), 2u);
}

TEST(BlockAccumulatorTest, SumUsesWeightedValues) {
  BlockAccumulator acc(AggKind::kSum);
  acc.BeginBlock();
  acc.Add(1.0, 5.0);   // E[Y * 1{for}] = 5
  acc.Add(0.5, 1.25);  // joint expectation already weighted
  acc.EndBlock();
  EXPECT_DOUBLE_EQ(acc.Finish().value(), 6.25);
}

TEST(BlockAccumulatorTest, AvgIsRatioOfExpectations) {
  BlockAccumulator acc(AggKind::kAvg);
  acc.BeginBlock();
  acc.Add(1.0, 4.0);
  acc.Add(1.0, 2.0);
  acc.EndBlock();
  acc.BeginBlock();
  acc.Add(0.5, 3.0);
  acc.EndBlock();
  // (4 + 2 + 3) / (1 + 1 + 0.5)
  EXPECT_DOUBLE_EQ(acc.Finish().value(), 9.0 / 2.5);
}

TEST(BlockAccumulatorTest, AvgOverNothingIsError) {
  BlockAccumulator acc(AggKind::kAvg);
  acc.BeginBlock();
  acc.EndBlock();
  EXPECT_FALSE(acc.Finish().ok());
}

TEST(BlockAccumulatorTest, EmptyBlocksContributeNothing) {
  BlockAccumulator acc(AggKind::kSum);
  for (int i = 0; i < 5; ++i) {
    acc.BeginBlock();
    acc.EndBlock();
  }
  acc.BeginBlock();
  acc.Add(1.0, 7.0);
  acc.EndBlock();
  EXPECT_DOUBLE_EQ(acc.Finish().value(), 7.0);
  EXPECT_EQ(acc.num_blocks(), 6u);
}

// ---------------------------------------------------------------------------
// Definition 6 properties: block partition invariance = decomposability,
// alpha-homogeneity and additivity of the combiner g.
// ---------------------------------------------------------------------------

struct Contribution {
  double weight;
  double weighted_value;
};

double Accumulate(AggKind agg, const std::vector<std::vector<Contribution>>&
                                   blocks) {
  BlockAccumulator acc(agg);
  for (const auto& block : blocks) {
    acc.BeginBlock();
    for (const Contribution& c : block) acc.Add(c.weight, c.weighted_value);
    acc.EndBlock();
  }
  return acc.Finish().value();
}

class DecomposabilitySweep : public ::testing::TestWithParam<AggKind> {};

TEST_P(DecomposabilitySweep, PartitionInvariance) {
  // Any partition of the same tuple contributions yields the same value —
  // the content of Proposition 1 at the accumulator level.
  Rng rng(99);
  std::vector<Contribution> tuples;
  for (int i = 0; i < 40; ++i) {
    const double w = rng.Uniform();
    tuples.push_back({w, w * rng.Uniform(-3, 5)});
  }
  // Partition 1: one big block.
  std::vector<std::vector<Contribution>> one_block{tuples};
  // Partition 2: singletons.
  std::vector<std::vector<Contribution>> singletons;
  for (const Contribution& c : tuples) singletons.push_back({c});
  // Partition 3: random split.
  std::vector<std::vector<Contribution>> random_split(5);
  for (const Contribution& c : tuples) {
    random_split[rng.UniformInt(0, 4)].push_back(c);
  }

  const double a = Accumulate(GetParam(), one_block);
  const double b = Accumulate(GetParam(), singletons);
  const double c = Accumulate(GetParam(), random_split);
  EXPECT_NEAR(a, b, 1e-9);
  EXPECT_NEAR(a, c, 1e-9);
}

TEST_P(DecomposabilitySweep, ScalingHomogeneity) {
  // alpha * g({x_i}) == g({alpha * x_i}) for the Count/Sum numerators
  // (Definition 6, second property). Avg is scale-invariant in weights and
  // values jointly; check that instead.
  Rng rng(7);
  std::vector<Contribution> tuples;
  for (int i = 0; i < 20; ++i) {
    const double w = rng.Uniform();
    tuples.push_back({w, w * rng.Uniform(0, 4)});
  }
  const double alpha = 2.75;
  std::vector<Contribution> scaled;
  for (const Contribution& c : tuples) {
    scaled.push_back({alpha * c.weight, alpha * c.weighted_value});
  }
  const AggKind agg = GetParam();
  const double base = Accumulate(agg, {tuples});
  const double scaled_value = Accumulate(agg, {scaled});
  if (agg == AggKind::kAvg) {
    EXPECT_NEAR(scaled_value, base, 1e-9);  // ratio cancels alpha
  } else {
    EXPECT_NEAR(scaled_value, alpha * base, 1e-9);
  }
}

// ---------------------------------------------------------------------------
// Reduction order: block partials sum in block order inside segments of
// kSegmentBlocks blocks, and segment partials merge in segment order.
// ---------------------------------------------------------------------------

uint64_t Bits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

TEST_P(DecomposabilitySweep, SegmentsMergedInOrderMatchOneSequentialFold) {
  constexpr size_t kSeg = BlockAccumulator::kSegmentBlocks;
  static_assert(kSeg == 65536);
  // Three full segments and a partial fourth, one or two tuples per block
  // with fractional contributions, so any other order changes the bits.
  const size_t num_blocks = 3 * kSeg + 4321;
  Rng rng(7);
  std::vector<std::vector<Contribution>> blocks(num_blocks);
  for (auto& block : blocks) {
    const size_t tuples = 1 + rng.UniformInt(0, 1);
    for (size_t t = 0; t < tuples; ++t) {
      const double w = rng.Uniform();
      block.push_back({w, w * rng.Uniform(-3, 5)});
    }
  }

  BlockAccumulator sequential(GetParam());
  std::vector<BlockAccumulator> segments;
  for (size_t b = 0; b < num_blocks; ++b) {
    if (b % kSeg == 0) segments.emplace_back(GetParam());
    for (BlockAccumulator* acc : {&sequential, &segments.back()}) {
      acc->BeginBlock();
      for (const Contribution& c : blocks[b]) {
        acc->Add(c.weight, c.weighted_value);
      }
      acc->EndBlock();
    }
  }
  ASSERT_EQ(segments.size(), 4u);
  BlockAccumulator merged(GetParam());
  for (const BlockAccumulator& segment : segments) merged.MergeSegment(segment);

  // The order spelled out: each segment partial sums its block partials
  // from 0.0 in block order; the total adds segment partials in order.
  double want_numerator = 0.0, want_denominator = 0.0;
  for (size_t s = 0; s < segments.size(); ++s) {
    double seg_numerator = 0.0, seg_denominator = 0.0;
    for (size_t b = s * kSeg; b < std::min(num_blocks, (s + 1) * kSeg); ++b) {
      double block_numerator = 0.0, block_denominator = 0.0;
      for (const Contribution& c : blocks[b]) {
        block_numerator +=
            GetParam() == AggKind::kCount ? c.weight : c.weighted_value;
        if (GetParam() == AggKind::kAvg) block_denominator += c.weight;
      }
      seg_numerator += block_numerator;
      seg_denominator += block_denominator;
    }
    // A segment folded on its own exposes exactly its segment partial.
    EXPECT_EQ(Bits(segments[s].numerator()), Bits(0.0 + seg_numerator));
    want_numerator += seg_numerator;
    want_denominator += seg_denominator;
  }

  // The data can tell the segment order from one flat block-order sum.
  double flat_numerator = 0.0;
  for (const auto& block : blocks) {
    double block_numerator = 0.0;
    for (const Contribution& c : block) {
      block_numerator +=
          GetParam() == AggKind::kCount ? c.weight : c.weighted_value;
    }
    flat_numerator += block_numerator;
  }
  EXPECT_NE(Bits(flat_numerator), Bits(want_numerator));

  EXPECT_EQ(sequential.num_blocks(), num_blocks);
  EXPECT_EQ(merged.num_blocks(), num_blocks);
  EXPECT_EQ(Bits(sequential.numerator()), Bits(want_numerator));
  EXPECT_EQ(Bits(merged.numerator()), Bits(want_numerator));
  EXPECT_EQ(Bits(sequential.denominator()), Bits(want_denominator));
  EXPECT_EQ(Bits(merged.denominator()), Bits(want_denominator));
  EXPECT_EQ(Bits(sequential.Finish().value()), Bits(merged.Finish().value()));
}

INSTANTIATE_TEST_SUITE_P(Aggregates, DecomposabilitySweep,
                         ::testing::Values(AggKind::kCount, AggKind::kSum,
                                           AggKind::kAvg),
                         [](const auto& info) {
                           return std::string(sql::AggKindName(info.param));
                         });

}  // namespace
}  // namespace hyper::prob
