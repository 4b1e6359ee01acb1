#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>
#include <utility>

namespace perfbench {

namespace {

std::atomic<uint64_t> next_instance{1};

/// This thread's buffer in the tracer that owns it.
struct ThreadBuffer {
  uint64_t instance = 0;
  std::vector<SpanRecord>* spans = nullptr;
};
thread_local ThreadBuffer tls_buffer;

}  // namespace

Tracer::Tracer() : instance_(next_instance.fetch_add(1)) {}

void Tracer::Add(const SpanRecord& span) {
  if (tls_buffer.instance != instance_) {
    auto buffer = std::make_unique<std::vector<SpanRecord>>();
    buffer->reserve(1 << 16);
    tls_buffer.spans = buffer.get();
    tls_buffer.instance = instance_;
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::move(buffer));
  }
  tls_buffer.spans->push_back(span);
}

std::vector<SpanRecord> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<SpanRecord> all;
  for (const auto& buffer : buffers_) {
    all.insert(all.end(), buffer->begin(), buffer->end());
  }
  return all;
}

bool Tracer::WriteCsv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "name,start_ns,end_ns,id,parent,request\n");
  for (const SpanRecord& s : spans()) {
    std::fprintf(f, "%s,%lld,%lld,%llu,%llu,%llu\n", s.name,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request));
  }
  return std::fclose(f) == 0;
}

std::map<std::string, SpanTotals> TotalsByName(
    const std::vector<SpanRecord>& spans) {
  std::map<std::string, SpanTotals> totals;
  for (const SpanRecord& s : spans) {
    SpanTotals& t = totals[s.name];
    ++t.count;
    t.total_ns += s.end_ns - s.start_ns;
  }
  return totals;
}

double UnattributedFraction(const std::vector<SpanRecord>& spans,
                            const std::string& root) {
  std::unordered_map<uint64_t, std::vector<const SpanRecord*>> by_request;
  for (const SpanRecord& s : spans) {
    if (s.request != 0) by_request[s.request].push_back(&s);
  }
  int64_t wall = 0;
  int64_t uncovered = 0;
  for (const auto& [request, group] : by_request) {
    for (const SpanRecord* r : group) {
      if (root != r->name) continue;
      std::vector<std::pair<int64_t, int64_t>> cover;
      for (const SpanRecord* s : group) {
        if (s == r) continue;
        const int64_t a = std::max(s->start_ns, r->start_ns);
        const int64_t b = std::min(s->end_ns, r->end_ns);
        if (a < b) cover.emplace_back(a, b);
      }
      std::sort(cover.begin(), cover.end());
      int64_t covered = 0;
      int64_t reach = r->start_ns;
      for (const auto& [a, b] : cover) {
        const int64_t from = std::max(a, reach);
        if (b > from) {
          covered += b - from;
          reach = b;
        }
      }
      wall += r->end_ns - r->start_ns;
      uncovered += (r->end_ns - r->start_ns) - covered;
    }
  }
  return wall == 0 ? 0.0 : static_cast<double>(uncovered) / wall;
}

}  // namespace perfbench
