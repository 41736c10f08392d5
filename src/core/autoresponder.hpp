// Automated real-time response (paper section VI-B): "problem jobs [can]
// be quickly identified and suspended before they create system-wide
// slowdowns or crashes. This identification process could be automated and
// a system administrator notified immediately."
//
// The AutoResponder closes that loop: it polls the online analyzer for
// suspension candidates, applies a confirmation policy (a job must trip the
// threshold in `strikes` distinct alerts before action, so a single noisy
// interval doesn't kill it), notifies the administrator, and suspends the
// job through the live scheduler.
#pragma once

#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/online.hpp"
#include "core/scheduler.hpp"

namespace tacc::core {

struct ResponderConfig {
  /// metadata_storm alerts required against the same job before it is
  /// suspended; no other rule counts toward suspension.
  int strikes = 3;
};

struct ResponderAction {
  util::SimTime time = 0;
  long jobid = 0;
  std::string rule;
  int strikes = 0;
  bool suspended = false;  // false = job already gone when we acted
};

class AutoResponder {
 public:
  using Notifier = std::function<void(const ResponderAction&)>;

  AutoResponder(OnlineAnalyzer& analyzer, LiveScheduler& scheduler,
                ResponderConfig config = {}, Notifier notifier = nullptr);

  /// Processes alerts that arrived since the last poll; suspends jobs that
  /// reached the strike threshold. Call periodically from the driving loop.
  /// Returns the actions taken this poll.
  std::vector<ResponderAction> poll();

  const std::vector<ResponderAction>& actions() const noexcept {
    return actions_;
  }

 private:
  OnlineAnalyzer* analyzer_;
  LiveScheduler* scheduler_;
  ResponderConfig config_;
  Notifier notifier_;
  std::size_t alerts_seen_ = 0;
  std::map<long, int> strikes_;
  std::set<long> handled_;
  std::vector<ResponderAction> actions_;
};

}  // namespace tacc::core
