#include "spans.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>

#include "bench.h"

namespace geqo::perfbench {

/// Spans of one thread, appended only by that thread while the pass runs
/// and read by the main thread after every worker has been joined.
struct Tracer::Buffer {
  uint64_t thread = 0;
  uint64_t next_request = 0;
  uint64_t request = 0;
  bool recording = true;  ///< false once the buffer is full, per request
  int64_t open = -1;      ///< innermost open span, -1 when none
  std::vector<SpanRecord> spans;
};

namespace {

std::atomic<uint64_t> g_next_tracer_id{1};

/// Span budget of one tracer: closed-loop clients serve ~100k requests in a
/// 20 s window, so later requests go unrecorded rather than growing the
/// buffers (and the written trace) without bound.
constexpr size_t kMaxSpans = 1 << 17;

/// The calling thread's buffer for the tracer with the cached id.
struct ThreadCache {
  uint64_t tracer_id = 0;
  void* buffer = nullptr;
};
thread_local ThreadCache t_cache;

}  // namespace

Tracer::Tracer() : id_(g_next_tracer_id.fetch_add(1)) {}
Tracer::~Tracer() = default;

Tracer::Buffer* Tracer::ThreadBuffer() {
  if (t_cache.tracer_id == id_) return static_cast<Buffer*>(t_cache.buffer);
  std::lock_guard<std::mutex> lock(mu_);
  buffers_.push_back(std::make_unique<Buffer>());
  Buffer* buffer = buffers_.back().get();
  buffer->thread = buffers_.size();
  buffer->spans.reserve(1 << 10);
  t_cache = ThreadCache{id_, buffer};
  return buffer;
}

void Tracer::BeginRequest() {
  Buffer* buffer = ThreadBuffer();
  // Request ids are unique across threads: thread index in the high bits.
  buffer->request = (buffer->thread << 40) | ++buffer->next_request;
  // Whole requests are recorded or skipped, never cut off mid-way.
  buffer->recording =
      recorded_.load(std::memory_order_relaxed) < kMaxSpans;
}

Tracer::Scope::Scope(Tracer* tracer, const char* name) {
  if (tracer == nullptr) return;
  buffer_ = tracer->ThreadBuffer();
  if (!buffer_->recording) {
    buffer_ = nullptr;
    return;
  }
  index_ = static_cast<int64_t>(buffer_->spans.size());
  saved_open_ = buffer_->open;
  const double now = NowSeconds();
  buffer_->spans.push_back(
      SpanRecord{name, buffer_->request, buffer_->open, now, now});
  tracer->recorded_.fetch_add(1, std::memory_order_relaxed);
  buffer_->open = index_;
  next_child_start_ = now;
}

Tracer::Scope::~Scope() {
  if (buffer_ == nullptr) return;
  buffer_->spans[static_cast<size_t>(index_)].end = NowSeconds();
  buffer_->open = saved_open_;
}

void Tracer::Scope::AddChild(const char* name, double seconds) {
  if (buffer_ == nullptr) return;
  const double start = next_child_start_;
  next_child_start_ = start + seconds;
  buffer_->spans.push_back(SpanRecord{name, buffer_->request, index_, start,
                                      next_child_start_});
}

double Tracer::UnattributedPercent(const std::string& root_name) const {
  std::lock_guard<std::mutex> lock(mu_);
  double total = 0.0;
  double covered = 0.0;
  for (const auto& buffer : buffers_) {
    const std::vector<SpanRecord>& spans = buffer->spans;
    std::vector<double> child_seconds(spans.size(), 0.0);
    for (const SpanRecord& span : spans) {
      if (span.parent >= 0) {
        child_seconds[static_cast<size_t>(span.parent)] +=
            span.end - span.start;
      }
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      if (spans[i].parent >= 0 || root_name != spans[i].name) continue;
      const double duration = spans[i].end - spans[i].start;
      total += duration;
      // Children run sequentially inside their parent, so their summed
      // durations are the covered part (clamped against clock rounding).
      covered += std::min(child_seconds[i], duration);
    }
  }
  return total <= 0.0 ? 0.0 : 100.0 * (total - covered) / total;
}

size_t Tracer::RootCount(const std::string& root_name) const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t count = 0;
  for (const auto& buffer : buffers_) {
    for (const SpanRecord& span : buffer->spans) {
      if (span.parent < 0 && root_name == span.name) ++count;
    }
  }
  return count;
}

size_t Tracer::SpanCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t count = 0;
  for (const auto& buffer : buffers_) count += buffer->spans.size();
  return count;
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  if (!out) return false;
  char line[256];
  for (const auto& buffer : buffers_) {
    for (size_t i = 0; i < buffer->spans.size(); ++i) {
      const SpanRecord& span = buffer->spans[i];
      std::snprintf(line, sizeof(line),
                    "{\"thread\":%llu,\"index\":%zu,\"name\":\"%s\","
                    "\"request\":%llu,\"parent\":%lld,\"start_us\":%.3f,"
                    "\"dur_us\":%.3f}\n",
                    static_cast<unsigned long long>(buffer->thread), i,
                    span.name, static_cast<unsigned long long>(span.request),
                    static_cast<long long>(span.parent), span.start * 1e6,
                    (span.end - span.start) * 1e6);
      out << line;
    }
  }
  return static_cast<bool>(out);
}

}  // namespace geqo::perfbench
