#include "obs/reader.hpp"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <system_error>
#include <vector>

#include "obs/export.hpp"

namespace tls::obs {

namespace {

constexpr const char* kHeader = "at_ns,kind,cat,host,job,band,flow,bytes,a,b,dur_ns";

using EventSink = std::function<void(const TraceEvent&)>;

bool kind_from_string(const std::string& name, EventKind* out) {
  for (int k = 0; k <= static_cast<int>(EventKind::kPsAggregate); ++k) {
    EventKind kind = static_cast<EventKind>(k);
    if (name == to_string(kind)) {
      *out = kind;
      return true;
    }
  }
  return false;
}

bool cat_from_string(const std::string& name, Cat* out) {
  for (std::uint32_t bit = 1; bit <= kAllCats; bit <<= 1) {
    Cat cat = static_cast<Cat>(bit);
    if (name == to_string(cat)) {
      *out = cat;
      return true;
    }
  }
  return false;
}

/// Parses the whole token as a decimal integer of T's width. A value out
/// of T's range is malformed, never silently narrowed (host 4294967296
/// must not alias host 0).
template <typename T>
bool parse_int(const std::string& tok, T* out) {
  const char* end = tok.data() + tok.size();
  auto [ptr, ec] = std::from_chars(tok.data(), end, *out);
  return ec == std::errc() && ptr == end;
}

void split_columns(const std::string& line, std::vector<std::string>* cols) {
  cols->clear();
  std::size_t start = 0;
  for (;;) {
    std::size_t comma = line.find(',', start);
    if (comma == std::string::npos) {
      cols->push_back(line.substr(start));
      break;
    }
    cols->push_back(line.substr(start, comma - start));
    start = comma + 1;
  }
}

/// `#health,<dropped|sampled>,<total|cat>,<count>` trailer comments carry
/// the tracer's capture-health counters; any other '#' line is ignored.
void handle_comment(const std::string& line, TraceHealth* health) {
  if (health == nullptr) return;
  std::vector<std::string> cols;
  split_columns(line, &cols);
  if (cols.size() != 4 || cols[0] != "#health") return;
  std::int64_t count = 0;
  if (!parse_int(cols[3], &count) || count < 0) return;
  bool dropped = cols[1] == "dropped";
  if (!dropped && cols[1] != "sampled") return;
  if (cols[2] == "total") {
    (dropped ? health->dropped_total : health->sampled_out_total) =
        static_cast<std::uint64_t>(count);
    return;
  }
  Cat cat{};
  if (!cat_from_string(cols[2], &cat)) return;
  (dropped ? health->dropped_by_cat
           : health->sampled_out_by_cat)[cat_index(cat)] =
      static_cast<std::uint64_t>(count);
}

/// Parses one complete line (header, comment, or event row). Keeps the
/// batch reader's exact error messages.
bool handle_line(const std::string& line, int lineno, bool* header_seen,
                 const EventSink& sink, TraceHealth* health,
                 std::string* error) {
  if (!*header_seen) {
    if (line != kHeader) {
      if (error != nullptr) {
        *error = "not a trace CSV (expected header '" + std::string(kHeader) +
                 "', got '" + line + "')";
      }
      return false;
    }
    *header_seen = true;
    return true;
  }
  if (line.empty()) return true;
  if (line[0] == '#') {
    handle_comment(line, health);
    return true;
  }
  std::vector<std::string> cols;
  split_columns(line, &cols);
  if (cols.size() != 11) {
    if (error != nullptr) {
      *error = "line " + std::to_string(lineno) + ": expected 11 columns, got " +
               std::to_string(cols.size());
    }
    return false;
  }
  TraceEvent e;
  std::int64_t v = 0;
  bool ok = parse_int(cols[0], &v);
  e.at = sim::from_nanos(v);
  ok = ok && kind_from_string(cols[1], &e.kind);
  ok = ok && cat_from_string(cols[2], &e.cat);
  ok = ok && parse_int(cols[3], &e.host);
  ok = ok && parse_int(cols[4], &e.job);
  ok = ok && parse_int(cols[5], &e.band);
  ok = ok && parse_int(cols[6], &e.flow);
  ok = ok && parse_int(cols[7], &e.bytes);
  ok = ok && parse_int(cols[8], &e.a);
  ok = ok && parse_int(cols[9], &e.b);
  ok = ok && parse_int(cols[10], &v);
  e.dur = sim::from_nanos(v);
  if (!ok) {
    if (error != nullptr) {
      *error = "line " + std::to_string(lineno) + ": malformed row '" + line + "'";
    }
    return false;
  }
  sink(e);
  return true;
}

/// Splits a chunk into lines, carrying the trailing partial line over in
/// `pending` for the next chunk (or a later poll of a growing file).
bool feed_chunk(const char* data, std::size_t n, std::string* pending,
                int* lineno, bool* header_seen, const EventSink& sink,
                TraceHealth* health, std::string* error) {
  std::size_t start = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (data[i] != '\n') continue;
    pending->append(data + start, i - start);
    ++*lineno;
    bool ok = handle_line(*pending, *lineno, header_seen, sink, health,
                          error);
    pending->clear();
    if (!ok) return false;
    start = i + 1;
  }
  pending->append(data + start, n - start);
  return true;
}

}  // namespace

/// Streams `in` to completion in fixed-size chunks. A final line without a
/// trailing newline counts as complete (matches the getline-based reader
/// this replaced).
bool for_each_trace_csv_event(std::istream& in, const EventSink& sink,
                              TraceHealth* health, std::string* error) {
  std::string pending;
  int lineno = 0;
  bool header_seen = false;
  std::vector<char> buf(kReadChunkBytes);
  for (;;) {
    in.read(buf.data(), static_cast<std::streamsize>(buf.size()));
    std::streamsize got = in.gcount();
    if (got <= 0) break;
    if (!feed_chunk(buf.data(), static_cast<std::size_t>(got), &pending,
                    &lineno, &header_seen, sink, health, error)) {
      return false;
    }
  }
  if (!header_seen || !pending.empty()) {
    ++lineno;
    return handle_line(pending, lineno, &header_seen, sink, health, error);
  }
  return true;
}

bool for_each_trace_csv_event(const std::string& path, const EventSink& sink,
                              TraceHealth* health, std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    if (error != nullptr) *error = "cannot open trace CSV: " + path;
    return false;
  }
  std::string inner;
  if (!for_each_trace_csv_event(in, sink, health, &inner)) {
    if (error != nullptr) *error = path + ": " + inner;
    return false;
  }
  return true;
}

TraceCsvTail::TraceCsvTail(std::string path) : path_(std::move(path)) {}

bool TraceCsvTail::poll(const std::function<void(const TraceEvent&)>& sink,
                        std::string* error) {
  std::ifstream in(path_, std::ios::binary);
  if (!in) {
    if (error != nullptr) *error = "cannot open trace CSV: " + path_;
    return false;
  }
  // Truncation/rotation detection: a file smaller than what we already
  // consumed, or leading bytes that no longer match the header we parsed,
  // means the writer replaced the file. Restart from offset 0 with fresh
  // parser state instead of tailing a stale offset forever.
  in.seekg(0, std::ios::end);
  std::uint64_t size = static_cast<std::uint64_t>(in.tellg());
  bool restart = size < offset_;
  if (!restart && header_seen_ && size > 0) {
    const std::string header(kHeader);
    std::string lead(
        std::min(header.size(), static_cast<std::size_t>(size)), '\0');
    in.seekg(0);
    in.read(lead.data(), static_cast<std::streamsize>(lead.size()));
    if (header.compare(0, lead.size(), lead) != 0) restart = true;
  }
  if (restart) {
    offset_ = 0;
    pending_.clear();
    lineno_ = 0;
    header_seen_ = false;
    health_ = TraceHealth{};  // the trailer belonged to the replaced file
  }
  in.clear();
  in.seekg(static_cast<std::streamoff>(offset_));
  if (!in) return true;  // racing writer mid-replace; try later
  std::vector<char> buf(kReadChunkBytes);
  EventSink counting = [this, &sink](const TraceEvent& e) {
    ++events_read_;
    sink(e);
  };
  for (;;) {
    in.read(buf.data(), static_cast<std::streamsize>(buf.size()));
    std::streamsize got = in.gcount();
    if (got <= 0) break;
    offset_ += static_cast<std::uint64_t>(got);
    std::string inner;
    if (!feed_chunk(buf.data(), static_cast<std::size_t>(got), &pending_,
                    &lineno_, &header_seen_, counting, &health_, &inner)) {
      if (error != nullptr) *error = path_ + ": " + inner;
      return false;
    }
  }
  return true;
}

}  // namespace tls::obs
