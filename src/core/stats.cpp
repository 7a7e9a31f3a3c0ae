#include "core/stats.hpp"

#include "util/table.hpp"
#include "util/units.hpp"

#include <cmath>

namespace gfi::campaign {

void OutcomeTally::add(Outcome o)
{
    const std::lock_guard<std::mutex> lock(mutex_);
    ++counts_[o];
    ++total_;
}

void OutcomeTally::reset()
{
    const std::lock_guard<std::mutex> lock(mutex_);
    counts_.clear();
    total_ = 0;
}

std::map<Outcome, int> OutcomeTally::snapshot() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return counts_;
}

int OutcomeTally::total() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return total_;
}

Proportion wilsonInterval(int successes, int trials, double z)
{
    Proportion p;
    p.successes = successes;
    p.trials = trials;
    if (trials <= 0) {
        return p;
    }
    const double n = trials;
    const double phat = successes / n;
    p.estimate = phat;
    const double z2 = z * z;
    const double denom = 1.0 + z2 / n;
    const double center = (phat + z2 / (2.0 * n)) / denom;
    const double half =
        z * std::sqrt(phat * (1.0 - phat) / n + z2 / (4.0 * n * n)) / denom;
    p.low = std::max(0.0, center - half);
    p.high = std::min(1.0, center + half);
    return p;
}

int requiredSamples(double halfWidth, double z)
{
    // n = z^2 * p(1-p) / h^2 with worst case p = 0.5.
    return static_cast<int>(std::ceil(z * z * 0.25 / (halfWidth * halfWidth)));
}

OutcomeRates outcomeRates(const CampaignReport& report, double z)
{
    const int n = static_cast<int>(report.runs.size());
    int silent = 0;
    int latent = 0;
    int transient = 0;
    int failure = 0;
    int abnormal = 0;
    for (const RunResult& r : report.runs) {
        switch (r.outcome) {
        case Outcome::Silent:
            ++silent;
            break;
        case Outcome::Latent:
            ++latent;
            break;
        case Outcome::TransientError:
            ++transient;
            break;
        case Outcome::Failure:
            ++failure;
            break;
        case Outcome::SimError:
        case Outcome::Timeout:
        case Outcome::Diverged:
            ++abnormal;
            break;
        }
    }
    OutcomeRates rates;
    rates.silent = wilsonInterval(silent, n, z);
    rates.latent = wilsonInterval(latent, n, z);
    rates.transient = wilsonInterval(transient, n, z);
    rates.failure = wilsonInterval(failure, n, z);
    rates.abnormal = wilsonInterval(abnormal, n, z);
    rates.effective = wilsonInterval(n - silent, n, z);
    return rates;
}

std::string ratesTable(const OutcomeRates& rates)
{
    TextTable t;
    t.setHeader({"outcome", "count", "rate", "95 % interval"});
    auto row = [&](const char* name, const Proportion& p) {
        t.addRow({name, std::to_string(p.successes) + "/" + std::to_string(p.trials),
                  formatDouble(100.0 * p.estimate, 4) + " %",
                  "[" + formatDouble(100.0 * p.low, 4) + " %, " +
                      formatDouble(100.0 * p.high, 4) + " %]"});
    };
    row("silent", rates.silent);
    row("latent", rates.latent);
    row("transient", rates.transient);
    row("failure", rates.failure);
    row("abnormal", rates.abnormal);
    t.addSeparator();
    row("any effect", rates.effective);
    return t.str();
}

} // namespace gfi::campaign
