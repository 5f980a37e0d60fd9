// In-memory span recorder for the traced run. Spans are recorded by the
// benchmark's own code around calls into each src/ module, kept in a
// pre-reserved vector (so recording does not allocate mid-run) and written
// once, at exit, as Chrome trace-event JSON (loadable in Perfetto).
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;  ///< since the recorder was created
  std::int64_t end_ns = 0;
  int parent = -1;  ///< index of the enclosing span; -1 at top level
  int rep = 0;      ///< traced rep that recorded it (0 = set-up)
};

class SpanRecorder {
 public:
  explicit SpanRecorder(std::size_t capacity) : epoch_(Clock::now()) {
    spans_.reserve(capacity);
  }

  /// Opens a span nested in the innermost open one; returns its id.
  int begin(const char* name) {
    Span s;
    s.name = name;
    s.parent = open_;
    s.rep = rep_;
    s.start_ns = now_ns();
    spans_.push_back(s);
    open_ = static_cast<int>(spans_.size()) - 1;
    return open_;
  }

  void end(int id) {
    spans_[id].end_ns = now_ns();
    open_ = spans_[id].parent;
  }

  double seconds(int id) const {
    return static_cast<double>(spans_[id].end_ns - spans_[id].start_ns) *
           1e-9;
  }

  void set_rep(int rep) { rep_ = rep; }
  const std::vector<Span>& spans() const { return spans_; }

  bool write_json(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                   "\"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, "
                   "\"args\": {\"id\": %zu, \"parent\": %d}}\n",
                   i == 0 ? "" : ",", s.name, s.rep,
                   static_cast<double>(s.start_ns) / 1e3,
                   static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                   s.parent);
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  using Clock = std::chrono::steady_clock;

  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                epoch_)
        .count();
  }

  Clock::time_point epoch_;
  std::vector<Span> spans_;
  int open_ = -1;
  int rep_ = 0;
};

/// RAII span; seconds() is valid after close() or destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& recorder, const char* name)
      : recorder_(recorder), id_(recorder.begin(name)) {}
  ~ScopedSpan() { close(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void close() {
    if (open_) recorder_.end(id_);
    open_ = false;
  }
  double seconds() const { return recorder_.seconds(id_); }

 private:
  SpanRecorder& recorder_;
  int id_;
  bool open_ = true;
};

}  // namespace perfbench
