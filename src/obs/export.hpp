// tls::obs — trace/metrics file renderers.
//
// Formats:
//
//  * chrome_trace_json(): Chrome trace-event JSON (the `traceEvents` array
//    form), loadable in Perfetto and chrome://tracing. Tracks: one "thread"
//    per host NIC under a "net" process, one per job under a "jobs"
//    process, and a "tensorlights" process for controller activity.
//    Timestamps are simulation nanoseconds rendered as microseconds with
//    three fixed decimals — integer arithmetic only, so output bytes are a
//    pure function of the event list. The document lists its tracks before
//    the first event, so it renders from a Tracer's in-memory log.
//
//  * TraceCsvWriter: the same events in compact long form, one row per
//    event, for ad-hoc grep/pandas work without a JSON parser. It is a
//    TraceSink, so a live run streams rows to the file as events are
//    emitted, a 64 KiB block at a time; trace_csv() renders a Tracer's log
//    through the same writer.
//
// The caller decides where bytes land. Every rendered document goes to
// its file through write_file(), which checks that all the bytes arrived.
#pragma once

#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>

#include "obs/trace.hpp"

namespace tls::obs {

/// Stable lower-case name of an event kind ("chunk_enqueue", ...).
const char* to_string(EventKind kind);

/// Renders the full Chrome trace-event JSON document.
std::string chrome_trace_json(const Tracer& tracer);

/// Streams events as CSV: at_ns,kind,cat,host,job,band,flow,bytes,a,b,dur_ns.
/// Formats the header and one row per on_event() into its own block and
/// gives `out` one write per full block (the reader's kReadChunkBytes);
/// finish() writes the last block and appends the capture-health trailer.
/// Rows not yet written by finish() never reach `out`. Write errors stay
/// in the stream's state for the owner to check after finish().
class TraceCsvWriter final : public TraceSink {
 public:
  /// `out` is not owned and must outlive the writer.
  explicit TraceCsvWriter(std::ostream& out);

  void on_event(const TraceEvent& e) override;

  /// Writes the buffered rows, then the `#health` trailer — nothing for a
  /// complete trace, so complete files are exactly header plus rows.
  void finish(const TraceHealth& health);

 private:
  /// Hands the block's bytes to the stream and empties it.
  void flush_block();

  std::ostream& out_;
  std::unique_ptr<char[]> block_;
  char* pos_;        ///< end of the formatted bytes in block_
  char* block_end_;  ///< the last row starts before block_end_
};

/// Renders a Tracer's log as CSV through TraceCsvWriter, trailer included.
std::string trace_csv(const Tracer& tracer);

/// `text` as the contents of a JSON string literal: `"` and `\` get a
/// backslash and every byte below 0x20 is written as \u00XX, so any label
/// or name renders as valid JSON.
std::string json_escape(std::string_view text);

/// Writes `content` to `path`, replacing the file. False with a message
/// when the file cannot be opened or the bytes do not all reach it (a
/// full disk fails at the flush, not at the open).
bool write_file(const std::string& path, const std::string& content,
                std::string* error);

}  // namespace tls::obs
