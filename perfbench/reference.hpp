// Host-speed reference: a fixed piece of work built from the standard
// library alone, never from src/, so no change to the simulator can move
// it. run.py times it between passes and rescales each pass's host time by
// how fast the host ran the reference then (see README.md, "Host speed").
#pragma once

namespace perfbench {

/// Host seconds of the reference work, each part measured on its own.
struct ReferenceTimes {
  /// A discrete-event loop shaped like the simulator's hot path: a binary
  /// heap of timed callbacks, each a std::function holding a chunk-sized
  /// capture, updating per-flow state in a hash map.
  double events_s = 0;
  /// Trace-CSV-shaped text: rows formatted with snprintf, then parsed back
  /// with strtoull/strtod.
  double text_s = 0;
  /// Fold of both parts' final state: the same in every call, so it keeps
  /// the work from being optimised away and shows if the work changed.
  unsigned long long checksum = 0;

  double total() const { return events_s + text_s; }
};

/// Runs the reference work once. The work is the same on every call and in
/// every process; only the time it takes varies, with the host.
ReferenceTimes run_reference();

}  // namespace perfbench
