// Offline trace ingestion: parses the trace CSV written by
// obs::trace_csv() back into TraceEvents, so tlsreport can analyze runs
// after the fact (the CSV is the lossless on-disk form of the event log).
//
// All entry points share one incremental line parser that consumes the
// input in fixed-size chunks (kReadChunkBytes) — the file is never
// slurped whole, so memory stays bounded even for multi-gigabyte traces,
// and the same parser tails a growing file (TraceCsvTail) for
// `tlsreport --follow`. A complete line is parsed in one pass where it
// lies in the read buffer, with no copies; only a line that straddles a
// chunk boundary is assembled in a carry-over buffer.
// Lines starting with '#' are metadata trailers (`#health,...` carries the
// tracer's drop/sampling counters — see obs::TraceHealth); unknown comment
// lines are skipped.
#pragma once

#include <functional>
#include <istream>
#include <string>

#include "obs/trace.hpp"

namespace tls::obs {

/// Fixed read-granule for all CSV ingestion (64 KiB).
inline constexpr std::size_t kReadChunkBytes = 64 * 1024;

/// Parses a trace CSV (header + one row per event), invoking `sink` per
/// event without ever materializing the event vector — the bounded-memory
/// path feeding a StreamingAnalyzer straight from disk. The capture-health
/// trailer, if any, is restored into *health (may be null). Returns false
/// with *error (a "line N: ..." message) on malformed input; events before
/// the error were already delivered.
bool for_each_trace_csv_event(
    std::istream& in, const std::function<void(const TraceEvent&)>& sink,
    TraceHealth* health, std::string* error);

/// As above, opening `path`; errors are prefixed with the path, and a file
/// that cannot be opened fails with "cannot open trace CSV: <path>".
bool for_each_trace_csv_event(
    const std::string& path,
    const std::function<void(const TraceEvent&)>& sink, TraceHealth* health,
    std::string* error);

/// Tails a trace CSV that another process is still appending to. Each
/// poll() reads whatever complete new lines exist past the last offset
/// and delivers them to the sink; a partially-written final line is
/// buffered until a later append completes it. The file is reopened per
/// poll (cheap, and robust to the writer recreating it with more data).
/// Truncation and rotation are detected — a file that shrank below the
/// consumed offset, or whose leading bytes no longer match the already
/// parsed header, resets the tail to offset 0 with fresh parser state and
/// the new file is followed from its start.
class TraceCsvTail {
 public:
  explicit TraceCsvTail(std::string path);

  /// Delivers newly appended complete events. Returns false and sets
  /// *error when the file cannot be opened (yet) or a complete line is
  /// malformed; polling again is safe in the cannot-open case.
  bool poll(const std::function<void(const TraceEvent&)>& sink,
            std::string* error);

  /// True once the header line has been consumed and validated.
  bool header_seen() const { return header_seen_; }
  /// Events delivered so far.
  std::uint64_t events_read() const { return events_read_; }
  /// Health trailer accumulated so far (written by the tracer at the end
  /// of a capped/sampled trace).
  const TraceHealth& health() const { return health_; }

 private:
  std::string path_;
  std::uint64_t offset_ = 0;     ///< bytes fully consumed
  std::string pending_;          ///< trailing partial line
  int lineno_ = 0;
  bool header_seen_ = false;
  std::uint64_t events_read_ = 0;
  TraceHealth health_;
};

}  // namespace tls::obs
