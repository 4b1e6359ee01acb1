#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

// Span recording for the traced benchmark runs. Spans are taken by the
// benchmark's own code around calls into the program's public functions;
// nothing inside the program is instrumented. A null Tracer* turns every
// Span into a no-op, so untraced runs pay one pointer test per call.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct SpanRecord {
  const char* name = "";  // static string
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t id = 0;
  uint64_t parent = 0;   // 0 = root
  uint64_t request = 0;  // spans of one request share this id
};

/// In-memory span store; written out once, when the run ends. Each thread
/// appends to its own buffer, so recording threads never contend.
class Tracer {
 public:
  Tracer();
  uint64_t NewId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }
  void Add(const SpanRecord& span);
  /// All spans recorded so far (call once the recording threads are done).
  std::vector<SpanRecord> spans() const;
  /// One line per span: name,start_ns,end_ns,id,parent,request.
  bool WriteCsv(const std::string& path) const;

 private:
  const uint64_t instance_;  // tells this tracer's thread buffers apart
  std::atomic<uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<std::vector<SpanRecord>>> buffers_;
};

/// RAII span: records [construction, destruction) under `name`.
class Span {
 public:
  Span(Tracer* tracer, const char* name, uint64_t request,
       uint64_t parent = 0)
      : tracer_(tracer) {
    if (tracer_ == nullptr) return;
    record_.name = name;
    record_.id = tracer_->NewId();
    record_.parent = parent;
    record_.request = request;
    record_.start_ns = NowNs();
  }
  ~Span() {
    if (tracer_ == nullptr) return;
    record_.end_ns = NowNs();
    tracer_->Add(record_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  uint64_t id() const { return record_.id; }

 private:
  Tracer* tracer_;
  SpanRecord record_;
};

/// Per-name totals over a span set.
struct SpanTotals {
  uint64_t count = 0;
  int64_t total_ns = 0;
  double MeanMs() const {
    return count == 0 ? 0.0 : static_cast<double>(total_ns) / count / 1e6;
  }
};

std::map<std::string, SpanTotals> TotalsByName(
    const std::vector<SpanRecord>& spans);

/// Share of the wall time of spans named `root` that no other span of the
/// same request covers (interval union, clipped to the root).
double UnattributedFraction(const std::vector<SpanRecord>& spans,
                            const std::string& root);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
