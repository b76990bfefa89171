#include "metrics/telemetry.h"

#include <span>
#include <stdexcept>

#include "stats/geometry.h"

namespace collapois::metrics {

namespace {

// A round's update deltas split by the compromised flag, as views into
// telemetry.updates: the angle kernel reads the rows in place, so the
// summary never copies a round's updates.
struct SplitRows {
  std::vector<std::span<const float>> benign;
  std::vector<std::span<const float>> malicious;
};

SplitRows split_rows(const fl::RoundTelemetry& telemetry) {
  // Protocols without transmitted updates (MetaFed) report sampled ids and
  // compromised flags but no update vectors; there is nothing to split.
  if (telemetry.updates.empty()) return {};
  if (telemetry.updates.size() != telemetry.compromised.size()) {
    throw std::invalid_argument("split_updates: flag size mismatch");
  }
  SplitRows s;
  for (std::size_t i = 0; i < telemetry.updates.size(); ++i) {
    (telemetry.compromised[i] ? s.malicious : s.benign)
        .emplace_back(telemetry.updates[i].delta);
  }
  return s;
}

}  // namespace

SplitUpdates split_updates(const fl::RoundTelemetry& telemetry) {
  const SplitRows rows = split_rows(telemetry);
  SplitUpdates s;
  for (const auto r : rows.benign) s.benign.emplace_back(r.begin(), r.end());
  for (const auto r : rows.malicious) {
    s.malicious.emplace_back(r.begin(), r.end());
  }
  return s;
}

RoundAngleSummary summarize_round_angles(const fl::RoundTelemetry& telemetry) {
  const SplitRows s = split_rows(telemetry);
  RoundAngleSummary out;
  out.n_benign = s.benign.size();
  out.n_malicious = s.malicious.size();
  if (s.benign.size() >= 2) {
    const auto angles = stats::pairwise_angles(s.benign);
    out.benign_pairwise_mean = stats::mean(angles);
    out.benign_pairwise_std = stats::stddev(angles);
  }
  if (s.malicious.size() >= 2) {
    const auto angles = stats::pairwise_angles(s.malicious);
    out.malicious_pairwise_mean = stats::mean(angles);
    out.malicious_pairwise_std = stats::stddev(angles);
  }
  return out;
}

void AngleAccumulator::add(const fl::RoundTelemetry& telemetry) {
  const SplitRows s = split_rows(telemetry);
  if (s.benign.size() >= 2) {
    for (double a : stats::pairwise_angles(s.benign)) benign_.add(a);
  }
  if (s.malicious.size() >= 2) {
    for (double a : stats::pairwise_angles(s.malicious)) malicious_.add(a);
  }
}

}  // namespace collapois::metrics
