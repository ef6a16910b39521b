#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

/// \file spans.h
/// The benchmark's own tracing: one span around every public call a
/// workload makes, kept in memory per thread and written out when the run
/// ends. A request's root span groups the spans it causes; stage reports
/// the calls return become child spans of the call that returned them.
/// Spans are recorded only in the traced pass (a null Tracer otherwise),
/// whole requests at a time, until the tracer holds 131,072 spans.

namespace geqo::perfbench {

/// \brief One recorded span. Times are seconds on the steady clock.
struct SpanRecord {
  const char* name = "";
  uint64_t request = 0;  ///< shared by every span of one request
  int64_t parent = -1;   ///< index into the same thread's buffer, -1 = root
  double start = 0.0;
  double end = 0.0;
};

/// \brief Collects spans from many threads.
class Tracer {
  struct Buffer;

 public:
  Tracer();
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// \brief RAII span on the calling thread. A null tracer records nothing.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    /// Adds a completed child span of \p seconds, laid after the previous
    /// one added this way (stage reports carry durations, not start times).
    void AddChild(const char* name, double seconds);

   private:
    Buffer* buffer_ = nullptr;
    int64_t index_ = -1;
    int64_t saved_open_ = -1;
    double next_child_start_ = 0.0;
  };

  /// Starts a new request on the calling thread: the next root span and
  /// everything nested in it share a fresh request id.
  void BeginRequest();

  /// Share (percent) of root-span time that no direct child span covers,
  /// over every root span named \p root_name.
  double UnattributedPercent(const std::string& root_name) const;
  /// Number of root spans named \p root_name.
  size_t RootCount(const std::string& root_name) const;
  size_t SpanCount() const;

  /// Writes every span as one JSON object per line.
  bool WriteJsonLines(const std::string& path) const;

 private:
  Buffer* ThreadBuffer();

  const uint64_t id_;      ///< distinguishes tracers in thread-local caches
  std::atomic<size_t> recorded_{0};  ///< spans recorded, all threads
  mutable std::mutex mu_;  ///< guards buffers_
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

}  // namespace geqo::perfbench
