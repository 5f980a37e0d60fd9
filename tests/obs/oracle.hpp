// The batch attribution oracle: the reference implementation that every
// equivalence test and golden check compares obs::StreamingAnalyzer (the
// only attribution engine in src/) against.
//
// It materializes the whole event log, indexes it in one pass, and scans
// the raw log window of every critical-path queueing visit for blame — no
// finalization trigger, no watermark retirement, no per-host record lanes.
// Only the critical-path walk itself (obs/analysis_detail.hpp) is shared
// with the engine, so a bug in the engine's incremental bookkeeping shows
// up as a byte difference against this oracle. That includes the engine's
// sorted-vector inserts: the oracle indexes chunks and deliveries in its
// own std::maps and lays them out as the walk reads them only once the
// whole log is indexed.
//
// It also keeps the reference trace-CSV reader: the line-at-a-time parser
// that copies every line and every field into a std::string, which the
// in-place obs::for_each_trace_csv_event / TraceCsvTail parser replaced.
#pragma once

#include <istream>
#include <string>
#include <vector>

#include "obs/analysis.hpp"
#include "obs/trace.hpp"

namespace tls::obs::oracle {

/// Builds the attribution report from a complete trace event log.
RunReport analyze(const std::vector<TraceEvent>& events);

/// Materializing trace CSV readers over obs::for_each_trace_csv_event.
/// `health` may be null. On failure *error carries the reader's message and
/// events parsed before the error are left in *out.
bool read_trace_csv(std::istream& in, std::vector<TraceEvent>* out,
                    TraceHealth* health, std::string* error);
bool read_trace_csv_file(const std::string& path,
                         std::vector<TraceEvent>* out, TraceHealth* health,
                         std::string* error);

/// What the reference reader made of a whole trace CSV.
struct CsvReading {
  bool ok = true;
  std::vector<TraceEvent> events;  ///< delivered before any error
  TraceHealth health;
  std::string error;  ///< the reader's message, without a path prefix
};

/// The reference trace-CSV reader over the whole input `text`. With
/// `at_end` the input is complete, as for for_each_trace_csv_event: a final
/// line without a newline is parsed, and an input with no header line is
/// an error. Without it only newline-terminated lines are parsed, as a
/// TraceCsvTail sees a file that may still grow.
CsvReading reference_read_trace_csv(const std::string& text, bool at_end);

}  // namespace tls::obs::oracle
