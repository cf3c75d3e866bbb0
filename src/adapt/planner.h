#ifndef HARMONY_ADAPT_PLANNER_H_
#define HARMONY_ADAPT_PLANNER_H_

#include <string>

#include "cluster/cluster.h"
#include "common/status.h"
#include "core/config.h"
#include "core/estimator.h"
#include "serve/client.h"
#include "serve/profiled_model.h"
#include "serve/wire.h"

namespace harmony::adapt {

/// What a re-plan produced: the chosen configuration and the planner's
/// estimate of one iteration under it on the request's (degraded) machine.
struct PlanOutcome {
  core::Configuration config;
  core::Estimate estimate;
  double search_seconds = 0;
};

/// Where the adaptive runner gets a plan from. The request always carries
/// the full (possibly degraded, heterogeneous) MachineSpec — the wire format
/// round-trips the per-GPU overrides and link scale factors, so a remote
/// daemon plans on exactly the descriptor the health monitor synthesized,
/// and its cache fingerprints the degraded machine distinctly from the
/// nominal one.
class Planner {
 public:
  virtual ~Planner() = default;
  virtual Result<PlanOutcome> Plan(const serve::PlanRequest& request) = 0;
  virtual const char* name() const = 0;
};

/// Bounded in-process Algorithm 1 — the fallback that needs no daemon. The
/// deadline arms a CancelToken shared with the search, so a re-plan can
/// never wedge the training loop it is trying to rescue. Profiles come from
/// the borrowed memo (the adaptive runner's), which must outlive the planner.
class LocalSearchPlanner : public Planner {
 public:
  LocalSearchPlanner(serve::ProfileMemo* memo, TimeSec deadline_seconds)
      : memo_(memo), deadline_seconds_(deadline_seconds) {}

  Result<PlanOutcome> Plan(const serve::PlanRequest& request) override;
  const char* name() const override { return "local-search"; }

 private:
  serve::ProfileMemo* memo_;
  TimeSec deadline_seconds_;
};

/// Daemon-backed planning through ServeClient::PlanWithRetry: shed responses
/// back off under the server's retry-after floor, peer restarts reconnect.
/// The client is borrowed and must outlive the planner.
class ServePlanner : public Planner {
 public:
  explicit ServePlanner(serve::ServeClient* client,
                        serve::ServeClient::RetryOptions retry = {})
      : client_(client), retry_(retry) {}

  Result<PlanOutcome> Plan(const serve::PlanRequest& request) override;
  const char* name() const override { return "serve"; }

 private:
  serve::ServeClient* client_;
  serve::ServeClient::RetryOptions retry_;
};

/// Cluster-tier planning through TierClient: owner-routed with failover down
/// the rendezvous ranking. The tier is borrowed and must outlive the planner.
class TierPlanner : public Planner {
 public:
  explicit TierPlanner(cluster::TierClient* tier) : tier_(tier) {}

  Result<PlanOutcome> Plan(const serve::PlanRequest& request) override;
  const char* name() const override { return "tier"; }

 private:
  cluster::TierClient* tier_;
};

}  // namespace harmony::adapt

#endif  // HARMONY_ADAPT_PLANNER_H_
