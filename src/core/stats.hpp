#pragma once
// Statistical support for sampled fault-injection campaigns.
//
// Exhaustive injection is only feasible for small blocks; realistic campaigns
// sample the fault space and report outcome *rates* with confidence
// intervals. These helpers implement the standard Wilson score interval for
// binomial proportions plus the sample-size planning formula, so campaign
// reports can state "failure rate 12.3 % +/- 2.1 % (95 %)" honestly.

#include "core/campaign.hpp"

#include <mutex>

namespace gfi::campaign {

/// Thread-safe running outcome histogram. CampaignRunner feeds one of these
/// as results commit, so a monitor (progress UI, watchdog process) can poll
/// live counts while a parallel campaign is still executing.
class OutcomeTally {
public:
    /// Counts one classified run.
    void add(Outcome o);

    /// Drops all counts (a runner calls this when a new campaign starts).
    void reset();

    /// Copy of the current histogram.
    [[nodiscard]] std::map<Outcome, int> snapshot() const;

    /// Total runs counted so far.
    [[nodiscard]] int total() const;

private:
    mutable std::mutex mutex_;
    std::map<Outcome, int> counts_;
    int total_ = 0;
};

/// A binomial proportion with its Wilson score confidence interval.
struct Proportion {
    double estimate = 0.0; ///< successes / trials
    double low = 0.0;      ///< interval lower bound
    double high = 0.0;     ///< interval upper bound
    int successes = 0;
    int trials = 0;
};

/// Wilson score interval for @p successes out of @p trials at confidence
/// z (default 1.96 = 95 %). Well-behaved at 0 and N (unlike the normal
/// approximation), which matters for rare failure outcomes.
[[nodiscard]] Proportion wilsonInterval(int successes, int trials, double z = 1.96);

/// Number of samples needed so the half-width of the (worst-case p = 0.5)
/// normal-approximation interval is at most @p halfWidth at confidence z.
[[nodiscard]] int requiredSamples(double halfWidth, double z = 1.96);

/// Outcome-rate statistics over a campaign report.
struct OutcomeRates {
    Proportion silent;
    Proportion latent;
    Proportion transient;
    Proportion failure;
    Proportion abnormal; ///< SimError, Timeout and Diverged runs

    /// Any-observable-effect rate (non-silent, abnormal runs included).
    Proportion effective;
};

/// Computes per-outcome Wilson intervals over @p report.
[[nodiscard]] OutcomeRates outcomeRates(const CampaignReport& report, double z = 1.96);

/// Renders the rates as a printable table.
[[nodiscard]] std::string ratesTable(const OutcomeRates& rates);

} // namespace gfi::campaign
