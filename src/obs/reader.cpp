#include "obs/reader.hpp"

#include <algorithm>
#include <array>
#include <fstream>
#include <string_view>
#include <vector>

#include "obs/export.hpp"
#include "simcore/parse.hpp"

namespace tls::obs {

namespace {

constexpr std::string_view kHeader =
    "at_ns,kind,cat,host,job,band,flow,bytes,a,b,dur_ns";
constexpr std::size_t kColumns = 11;

using EventSink = std::function<void(const TraceEvent&)>;

// Kind names are views built once, so a compare is a length check and a
// memcmp.
bool kind_from_string(std::string_view name, EventKind* out) {
  static const auto kNames = [] {
    std::array<std::string_view, kNumEventKinds> names;
    for (std::size_t k = 0; k < kNumEventKinds; ++k) {
      names[k] = to_string(static_cast<EventKind>(k));
    }
    return names;
  }();
  for (std::size_t k = 0; k < kNumEventKinds; ++k) {
    if (kNames[k] == name) {
      *out = static_cast<EventKind>(k);
      return true;
    }
  }
  return false;
}

/// `#health,<dropped|sampled>,<total|cat>,<count>` trailer comments carry
/// the tracer's capture-health counters; any other '#' line is ignored.
void handle_comment(std::string_view line, TraceHealth* health) {
  if (health == nullptr) return;
  std::string_view cols[4];
  if (sim::split(line, ',', cols, 4) != 4 || cols[0] != "#health") return;
  std::int64_t count = 0;
  if (!sim::parse_int(cols[3], &count, 0)) return;
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

/// Reads the integer field at `p` at the width of *out. It must end at its
/// comma, or a row's `last` field at the row's `end`. Returns where the
/// next field starts, or null when `p` is null or the field is malformed.
template <typename T>
const char* int_field(const char* p, const char* end, T* out,
                      bool last = false) {
  if (p == nullptr) return nullptr;
  const char* q = sim::parse_int_prefix(p, end, out);
  if (q == nullptr) return nullptr;
  if (last) return q == end ? q : nullptr;
  return q != end && *q == ',' ? q + 1 : nullptr;
}

/// Matches the name field at `p`, up to its comma, with `match`; returns
/// where the next field starts, or null.
template <typename Match>
const char* name_field(const char* p, const char* end, Match match) {
  if (p == nullptr) return nullptr;
  const char* comma = std::find(p, end, ',');
  if (comma == end || !match(std::string_view(p, comma - p))) return nullptr;
  return comma + 1;
}

/// Parses one complete line (header, comment, or event row) where it lies.
/// Keeps the batch reader's exact error messages.
bool handle_line(std::string_view line, int lineno, bool* header_seen,
                 const EventSink& sink, TraceHealth* health,
                 std::string* error) {
  if (!*header_seen) {
    if (line != kHeader) {
      if (error != nullptr) {
        *error = "not a trace CSV (expected header '" + std::string(kHeader) +
                 "', got '" + std::string(line) + "')";
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
  // One pass over the row: each field is read where it lies and must end
  // at its comma, the last one at the end of the row. Each integer is read
  // at its field's own width: a value outside it is malformed, never
  // narrowed (host 4294967296 must not alias host 0).
  const char* const end = line.data() + line.size();
  TraceEvent e;
  std::int64_t at = 0;
  std::int64_t dur = 0;
  const char* p = int_field(line.data(), end, &at);
  p = name_field(p, end, [&e](std::string_view name) {
    return kind_from_string(name, &e.kind);
  });
  p = name_field(p, end, [&e](std::string_view name) {
    return cat_from_string(name, &e.cat);
  });
  p = int_field(p, end, &e.host);
  p = int_field(p, end, &e.job);
  p = int_field(p, end, &e.band);
  p = int_field(p, end, &e.flow);
  p = int_field(p, end, &e.bytes);
  p = int_field(p, end, &e.a);
  p = int_field(p, end, &e.b);
  p = int_field(p, end, &dur, /*last=*/true);
  if (p == nullptr) {
    if (error != nullptr) {
      // Only a rejected row counts its columns, to say which rule it broke.
      const std::size_t n = 1 + static_cast<std::size_t>(
                                    std::count(line.begin(), line.end(), ','));
      *error = "line " + std::to_string(lineno) +
               (n != kColumns ? ": expected 11 columns, got " +
                                    std::to_string(n)
                              : ": malformed row '" + std::string(line) + "'");
    }
    return false;
  }
  e.at = sim::from_nanos(at);
  e.dur = sim::from_nanos(dur);
  sink(e);
  return true;
}

/// Parses every complete line of a chunk in place. Only a line that
/// straddles a chunk boundary is assembled in `pending`: the bytes after
/// the chunk's last newline are carried over for the next chunk (or a
/// later poll of a growing file).
bool feed_chunk(const char* data, std::size_t n, std::string* pending,
                int* lineno, bool* header_seen, const EventSink& sink,
                TraceHealth* health, std::string* error) {
  const std::string_view chunk(data, n);
  std::size_t start = 0;
  for (std::size_t end = chunk.find('\n'); end != std::string_view::npos;
       end = chunk.find('\n', start)) {
    std::string_view line = chunk.substr(start, end - start);
    if (!pending->empty()) {
      pending->append(line);
      line = *pending;
    }
    ++*lineno;
    bool ok = handle_line(line, *lineno, header_seen, sink, health, error);
    pending->clear();
    if (!ok) return false;
    start = end + 1;
  }
  pending->append(chunk.substr(start));
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
    std::string lead(
        std::min(kHeader.size(), static_cast<std::size_t>(size)), '\0');
    in.seekg(0);
    in.read(lead.data(), static_cast<std::streamsize>(lead.size()));
    if (kHeader.compare(0, lead.size(), lead) != 0) restart = true;
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
