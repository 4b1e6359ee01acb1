#ifndef HYPER_PROB_AGGREGATES_H_
#define HYPER_PROB_AGGREGATES_H_

#include <cstddef>

#include "common/logging.h"
#include "common/status.h"
#include "sql/ast.h"

namespace hyper::prob {

/// Accumulates a decomposable aggregate (Definition 6) across blocks.
///
/// Every aggregate HypeR supports decomposes as
///     aggr(D) = g({f'(D_i)})           with g = Sum,
/// where f'(D_i) is a per-block partial:
///   Count: partial = expected number of qualifying tuples in the block
///   Sum:   partial = expected sum of Y over qualifying tuples
///   Avg:   tracked as a (numerator, denominator) pair and finished as
///          numerator / denominator. With no post-update conditions in For,
///          the denominator is the deterministic count of qualifying tuples
///          (the paper's 1/|D| decomposition in Example 8); with post-update
///          conditions it is the expected qualifying count, making Avg a
///          ratio of expectations (documented deviation, DESIGN.md §5).
///
/// The combination properties of Definition 6 (alpha-homogeneity and
/// additivity of g) hold because g is Sum; tests exercise them directly.
///
/// Reduction order. Floating-point addition is not associative, so the bits
/// of the answer depend on the order in which partials are added, and this
/// class is the one place that defines it. Block partials sum in block order
/// inside fixed segments of kSegmentBlocks consecutive blocks, and segment
/// partials merge in segment order. A segment folded on its own accumulator
/// holds exactly the partial the sequential fold adds at that segment's
/// boundary, so folding segments on separate threads and merging them with
/// MergeSegment in segment order reproduces the sequential fold bit for bit.
class BlockAccumulator {
 public:
  /// Blocks per reduction segment: the ColumnTable segment size, so with
  /// one-row blocks a reduction segment is a column segment.
  static constexpr size_t kSegmentBlocks = 65536;

  explicit BlockAccumulator(sql::AggKind agg) : agg_(agg) {}

  /// Starts a new block partial.
  void BeginBlock() {
    HYPER_DCHECK(!in_block_);
    in_block_ = true;
    block_numerator_ = 0.0;
    block_denominator_ = 0.0;
  }

  /// Adds one tuple's contribution to the current block:
  ///   `weight`         — the tuple's qualification probability
  ///                      Pr(mu_For,Post | mu_For,Pre) (1.0/0.0 when
  ///                      deterministic),
  ///   `weighted_value` — the expected *qualified* output contribution
  ///                      E[Y * 1{mu_For,Post}] (ignored for Count).
  /// Keeping the joint expectation (not value * weight) avoids dividing by
  /// near-zero qualification probabilities.
  void Add(double weight, double weighted_value) {
    HYPER_DCHECK(in_block_);
    switch (agg_) {
      case sql::AggKind::kCount:
        block_numerator_ += weight;
        break;
      case sql::AggKind::kSum:
        block_numerator_ += weighted_value;
        break;
      case sql::AggKind::kAvg:
        block_numerator_ += weighted_value;
        block_denominator_ += weight;
        break;
      case sql::AggKind::kNone:
        break;
    }
  }

  /// Closes the current block (applies f' and folds it into its segment).
  void EndBlock() {
    HYPER_DCHECK(in_block_);
    in_block_ = false;
    if (segment_blocks_ == kSegmentBlocks) CloseSegment();
    segment_numerator_ += block_numerator_;
    segment_denominator_ += block_denominator_;
    ++segment_blocks_;
    ++num_blocks_;
  }

  /// Folds in `segment`, an accumulator that folded the blocks of exactly
  /// one segment in block order, as this accumulator's next segment. Every
  /// segment merged before it must be full (kSegmentBlocks blocks).
  void MergeSegment(const BlockAccumulator& segment);

  /// Final aggregate value over all blocks. NULL-like cases (Avg of an
  /// empty set) surface as an error.
  Result<double> Finish() const;

  size_t num_blocks() const { return num_blocks_; }

  /// g-folded partials so far, in the reduction order above. A block folded
  /// on its own accumulator exposes its f'(D_i) partial here.
  double numerator() const {
    return segment_blocks_ == 0 ? numerator_ : numerator_ + segment_numerator_;
  }
  double denominator() const {
    return segment_blocks_ == 0 ? denominator_
                                : denominator_ + segment_denominator_;
  }

 private:
  void CloseSegment() {
    numerator_ += segment_numerator_;
    denominator_ += segment_denominator_;
    segment_numerator_ = 0.0;
    segment_denominator_ = 0.0;
    segment_blocks_ = 0;
  }

  sql::AggKind agg_;
  double numerator_ = 0.0;    // merged partials of the closed segments
  double denominator_ = 0.0;  // (Avg)
  double segment_numerator_ = 0.0;  // partial of the open segment
  double segment_denominator_ = 0.0;
  size_t segment_blocks_ = 0;  // blocks in the open segment
  double block_numerator_ = 0.0;
  double block_denominator_ = 0.0;
  size_t num_blocks_ = 0;
  bool in_block_ = false;
};

}  // namespace hyper::prob

#endif  // HYPER_PROB_AGGREGATES_H_
