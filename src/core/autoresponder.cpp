#include "core/autoresponder.hpp"

#include "util/log.hpp"

namespace tacc::core {

AutoResponder::AutoResponder(OnlineAnalyzer& analyzer,
                             LiveScheduler& scheduler,
                             ResponderConfig config, Notifier notifier)
    : analyzer_(&analyzer),
      scheduler_(&scheduler),
      config_(std::move(config)),
      notifier_(std::move(notifier)) {}

std::vector<ResponderAction> AutoResponder::poll() {
  std::vector<ResponderAction> taken;
  const auto alerts = analyzer_->alerts();
  for (std::size_t i = alerts_seen_; i < alerts.size(); ++i) {
    const auto& alert = alerts[i];
    if (alert.rule != "metadata_storm") continue;
    for (const long jobid : alert.jobids) {
      if (handled_.count(jobid)) continue;
      const int strikes = ++strikes_[jobid];
      if (strikes < config_.strikes) continue;
      ResponderAction action;
      action.time = alert.time;
      action.jobid = jobid;
      action.rule = alert.rule;
      action.strikes = strikes;
      action.suspended = scheduler_->suspend(jobid);
      handled_.insert(jobid);
      TS_LOG(Warn, "autoresponder")
          << "job " << jobid << " " << alert.rule << " x" << strikes
          << (action.suspended ? ": suspended" : ": already gone");
      if (notifier_) notifier_(action);
      actions_.push_back(action);
      taken.push_back(action);
    }
  }
  alerts_seen_ = alerts.size();
  return taken;
}

}  // namespace tacc::core
