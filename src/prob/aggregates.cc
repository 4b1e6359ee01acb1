#include "prob/aggregates.h"

namespace hyper::prob {

void BlockAccumulator::MergeSegment(const BlockAccumulator& segment) {
  HYPER_DCHECK(!in_block_ && !segment.in_block_);
  HYPER_DCHECK(segment.num_blocks_ == segment.segment_blocks_);
  HYPER_DCHECK(segment_blocks_ == 0 || segment_blocks_ == kSegmentBlocks);
  if (segment_blocks_ > 0) CloseSegment();
  segment_numerator_ = segment.segment_numerator_;
  segment_denominator_ = segment.segment_denominator_;
  segment_blocks_ = segment.segment_blocks_;
  num_blocks_ += segment.num_blocks_;
}

Result<double> BlockAccumulator::Finish() const {
  HYPER_DCHECK(!in_block_);
  switch (agg_) {
    case sql::AggKind::kCount:
    case sql::AggKind::kSum:
      return numerator();
    case sql::AggKind::kAvg: {
      const double denominator = this->denominator();
      if (denominator <= 0.0) {
        return Status::InvalidArgument(
            "Avg over an empty (or zero-probability) qualifying set");
      }
      return numerator() / denominator;
    }
    case sql::AggKind::kNone:
      break;
  }
  return Status::InvalidArgument("unsupported aggregate");
}

}  // namespace hyper::prob
