// The batch attribution oracle: the reference implementation that every
// equivalence test and golden check compares obs::StreamingAnalyzer (the
// only attribution engine in src/) against.
//
// It materializes the whole event log, indexes it in one pass, and scans
// the raw log window of every critical-path queueing visit for blame — no
// finalization trigger, no watermark retirement, no per-host record lanes.
// Only the critical-path walk itself (obs/analysis_detail.hpp) is shared
// with the engine, so a bug in the engine's incremental bookkeeping shows
// up as a byte difference against this oracle.
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

}  // namespace tls::obs::oracle
