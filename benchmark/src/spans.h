// In-memory span recorder for the traced benchmark run.
//
// Spans are recorded only from the benchmark's own files, around its calls
// into the library's public API. Each span has a name, a steady_clock start
// and end (ns since the recorder was created), the id of the span that
// encloses it, and the workload it belongs to. Nothing is written until
// write_chrome_trace(), which emits Chrome trace-event JSON (complete "X"
// events) that chrome://tracing and Perfetto open directly.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace srv6bench {

inline std::uint64_t wall_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

class SpanRecorder {
 public:
  static constexpr std::int64_t kNoParent = -1;

  explicit SpanRecorder(std::string workload)
      : workload_(std::move(workload)), origin_(wall_ns()) {
    // Recording inside the measured window must not allocate.
    spans_.reserve(4096);
    stack_.reserve(16);
  }

  // Opens a span nested in the innermost open one.
  void open(std::string name) {
    const std::int64_t id = static_cast<std::int64_t>(spans_.size());
    spans_.push_back({std::move(name), wall_ns() - origin_, 0,
                      stack_.empty() ? kNoParent : stack_.back()});
    stack_.push_back(id);
  }
  void close() {
    spans_[static_cast<std::size_t>(stack_.back())].end_ns =
        wall_ns() - origin_;
    stack_.pop_back();
  }

  // RAII form of open/close.
  class Scope {
   public:
    Scope(SpanRecorder* rec, std::string name) : rec_(rec) {
      if (rec_ != nullptr) rec_->open(std::move(name));
    }
    ~Scope() {
      if (rec_ != nullptr) rec_->close();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder* rec_;
  };

  // Writes every closed span as a Chrome trace-event "X" event. ts/dur are
  // microseconds (the format's unit); args keep the exact ns bounds, the id
  // and the parent id so a reader can check nesting without rounding.
  bool write_chrome_trace(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(
          f,
          "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
          "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %zu, "
          "\"parent\": %lld, \"start_ns\": %llu, \"end_ns\": %llu, "
          "\"workload\": \"%s\"}}%s\n",
          s.name.c_str(), s.name.substr(0, s.name.find('.')).c_str(),
          static_cast<double>(s.start_ns) / 1e3,
          static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
          static_cast<long long>(s.parent),
          static_cast<unsigned long long>(s.start_ns),
          static_cast<unsigned long long>(s.end_ns), workload_.c_str(),
          i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  struct Span {
    std::string name;
    std::uint64_t start_ns;
    std::uint64_t end_ns;
    std::int64_t parent;
  };

  std::string workload_;
  std::uint64_t origin_;
  std::vector<Span> spans_;
  std::vector<std::int64_t> stack_;
};

}  // namespace srv6bench
