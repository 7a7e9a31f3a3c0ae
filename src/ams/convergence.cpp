#include "ams/convergence.hpp"

#include <algorithm>
#include <stdexcept>

namespace gfi::ams {

ConvergencePlan ConvergencePlan::record(MixedSimulator& twin, SimTime duration,
                                        std::vector<SimTime> lastActions)
{
    if (twin.digital().scheduler().started() || twin.analog().unknownCount() > 0) {
        throw std::logic_error(
            "ConvergencePlan: needs a never-run simulator of a purely digital design");
    }
    std::sort(lastActions.begin(), lastActions.end());
    lastActions.erase(std::unique(lastActions.begin(), lastActions.end()), lastActions.end());
    std::vector<std::uint64_t> after(lastActions.size(), 0); // event times past each

    ConvergencePlan plan;
    plan.duration_ = duration;
    twin.elaborate(); // runs the kernel's startup pass: time 0's waves
    auto& sched = twin.digital().scheduler();
    std::vector<std::uint64_t> stepHighWater; // deepest queue per event time
    std::vector<std::size_t> markStep;        // event-time index of each mark
    std::size_t bytes = 0;                    // canonical states kept so far
    for (SimTime ev = sched.nextEventTime(); ev <= duration; ev = sched.nextEventTime()) {
        sched.resetQueueHighWater();
        twin.run(ev);
        plan.eventTimes_.push_back(ev);
        stepHighWater.push_back(sched.queueHighWater());
        bool check = false;
        for (std::size_t i = 0; i < lastActions.size() && lastActions[i] < ev; ++i) {
            check = isCheckOrdinal(++after[i]) || check;
        }
        if (check && ev < duration) {
            std::vector<std::uint8_t> state = twin.canonicalState();
            if (bytes + state.size() > kMaxMarkBytes) {
                continue; // the budget is spent: runs skip this check
            }
            bytes += state.size();
            plan.marks_.push_back(
                Mark{ev, std::move(state), sched.counters(), twin.bridgeCounters(), 0});
            markStep.push_back(plan.eventTimes_.size() - 1);
        }
    }
    twin.run(duration);
    // Suffix maxima, latest mark first.
    std::uint64_t deepest = 0;
    std::size_t step = stepHighWater.size();
    for (std::size_t m = plan.marks_.size(); m-- > 0;) {
        while (step > markStep[m] + 1) {
            deepest = std::max(deepest, stepHighWater[--step]);
        }
        plan.marks_[m].suffixHighWater = deepest;
    }
    plan.final_ = twin.captureSnapshot();
    plan.finalCounters_ = sched.counters();
    plan.finalBridges_ = twin.bridgeCounters();
    return plan;
}

const ConvergencePlan::Mark* ConvergencePlan::markAt(SimTime t) const noexcept
{
    const auto it = std::lower_bound(marks_.begin(), marks_.end(), t,
                                     [](const Mark& m, SimTime time) { return m.time < time; });
    return it != marks_.end() && it->time == t ? &*it : nullptr;
}

} // namespace gfi::ams
