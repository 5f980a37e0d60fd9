// Egress traffic classifier: the simulated analog of `tc filter`.
//
// TensorLights identifies a job's model-update traffic by the PS's TCP port
// (stable for the job's lifetime in TensorFlow), so rules here match on
// src/dst port and optionally job id or flow kind, and map to a band (prio
// qdisc) or classid minor (htb).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "net/chunk.hpp"

namespace tls::net {

/// One match rule. All present fields must match ("AND" semantics); rules
/// are evaluated in ascending `pref` order and the first match wins, as in
/// tc.
struct FilterRule {
  /// Evaluation order; lower first. Must be unique per classifier.
  int pref = 100;
  std::optional<std::uint16_t> src_port;
  std::optional<std::uint16_t> dst_port;
  std::optional<std::int32_t> job_id;
  std::optional<FlowKind> kind;
  /// Band (prio) or classid minor (htb) the matched traffic maps to.
  BandId target_band{0};

  bool matches(const FlowSpec& spec) const;
};

/// Ordered first-match-wins rule table with a default band.
class Classifier {
 public:
  /// Inserts or replaces the rule at `rule.pref`.
  void upsert(const FilterRule& rule);

  /// Removes the rule at `pref`; returns false when absent.
  bool remove(int pref);

  /// Drops all rules (keeps the default band).
  void clear();

  /// Band for unmatched traffic (default 0).
  void set_default_band(BandId band) { default_band_ = band; }

  /// Returns the band for `spec` per first-match-wins evaluation.
  BandId classify(const FlowSpec& spec) const;

  std::size_t size() const { return rules_.size(); }
  const std::vector<FilterRule>& rules() const { return rules_; }

 private:
  std::vector<FilterRule> rules_;  // kept sorted by pref
  BandId default_band_{0};
};

}  // namespace tls::net
