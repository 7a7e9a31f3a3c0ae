#include "lint/preflight.hpp"

#include "analyze/graph.hpp"
#include "batch/word_model.hpp"
#include "core/testbench.hpp"
#include "snapshot/snapshot.hpp"
#include "util/units.hpp"

#include <set>
#include <vector>

namespace gfi::lint {

namespace {

using fault::FaultSpec;
using fault::Testbench;

struct Checker {
    const Testbench& tb;
    const FaultSpec& spec;
    Report& report;

    [[nodiscard]] std::string path() const { return fault::describe(spec); }

    void unknown(const char* kind, const std::string& name) const
    {
        report.add("PRE001", Severity::Error, path(),
                   std::string("unknown ") + kind + " '" + name + "'",
                   "check the testbench's registered injection targets");
    }

    void checkWindow(SimTime t) const
    {
        if (t < 0 || t > tb.duration()) {
            report.add("PRE003", Severity::Error, path(),
                       "injection time " + formatTime(t) +
                           " is outside the simulation window [0, " +
                           formatTime(tb.duration()) + "]",
                       "move the injection inside the observed run");
        }
    }

    void checkBit(const std::string& target, int bit) const
    {
        const auto& reg = tb.sim().digital().instrumentation();
        if (!reg.contains(target)) {
            return; // PRE001 already reported
        }
        const int width = reg.hook(target).width;
        if (bit < 0 || bit >= width) {
            report.add("PRE002", Severity::Error, path(),
                       "bit " + std::to_string(bit) + " is outside '" + target +
                           "' (width " + std::to_string(width) + ")",
                       "valid bits are 0.." + std::to_string(width - 1));
        }
    }

    void operator()(const std::monostate&) const {} // golden: always valid

    void operator()(const fault::BitFlipFault& f) const
    {
        if (!tb.sim().digital().instrumentation().contains(f.target)) {
            unknown("state element", f.target);
        }
        checkBit(f.target, f.bit);
        checkWindow(f.time);
    }

    void operator()(const fault::DoubleBitFlipFault& f) const
    {
        if (!tb.sim().digital().instrumentation().contains(f.target)) {
            unknown("state element", f.target);
        }
        checkBit(f.target, f.bitA);
        checkBit(f.target, f.bitB);
        if (f.bitA == f.bitB) {
            report.add("PRE002", Severity::Warning, path(),
                       "double flip of the same bit " + std::to_string(f.bitA) +
                           " is a no-op",
                       "pick two distinct bits");
        }
        checkWindow(f.time);
    }

    void operator()(const fault::StateWriteFault& f) const
    {
        const auto& reg = tb.sim().digital().instrumentation();
        if (!reg.contains(f.target)) {
            unknown("state element", f.target);
        } else {
            const int width = reg.hook(f.target).width;
            if (width < 64 && (f.value >> width) != 0) {
                report.add("PRE002", Severity::Warning, path(),
                           "value " + std::to_string(f.value) + " is wider than '" +
                               f.target + "' (width " + std::to_string(width) + ")",
                           "the write will be truncated");
            }
        }
        checkWindow(f.time);
    }

    void operator()(const fault::FsmTransitionFault& f) const
    {
        if (tb.findFsm(f.target) == nullptr) {
            unknown("FSM", f.target);
        }
        checkWindow(f.time);
    }

    void operator()(const fault::DigitalPulseFault& f) const
    {
        if (tb.findDigitalSaboteur(f.saboteur) == nullptr) {
            unknown("digital saboteur", f.saboteur);
        }
        if (f.width <= 0) {
            report.add("PRE002", Severity::Warning, path(),
                       "pulse width " + formatTime(f.width) + " never asserts",
                       "use a positive width");
        }
        checkWindow(f.time);
    }

    void operator()(const fault::StuckAtFault& f) const
    {
        if (tb.findDigitalSaboteur(f.saboteur) == nullptr) {
            unknown("digital saboteur", f.saboteur);
        }
        checkWindow(f.time);
    }

    void operator()(const fault::CurrentPulseFault& f) const
    {
        if (tb.findCurrentSaboteur(f.saboteur) == nullptr) {
            unknown("current saboteur", f.saboteur);
        }
        if (!f.shape) {
            report.add("PRE004", Severity::Error, path(),
                       "current-pulse fault without a pulse shape",
                       "attach a PulseShape (rectangular, double-exponential, ...)");
        }
        checkWindow(fromSeconds(f.timeSeconds));
    }

    void operator()(const fault::ParametricFault& f) const
    {
        if (tb.findParameter(f.parameter) == nullptr) {
            unknown("parameter", f.parameter);
        }
        checkWindow(f.time);
    }
};

} // namespace

Report preflightFault(const Testbench& tb, const FaultSpec& fault, std::size_t)
{
    Report report;
    std::visit(Checker{tb, fault, report}, fault);
    return report;
}

Report preflightCampaign(const Testbench& tb, const std::vector<FaultSpec>& faults)
{
    Report report;
    std::set<std::string> seen;
    // The faults PRE007 and PRE008 score: non-golden and statically valid —
    // a typo'd target is a PRE001, not an unobservable fault.
    std::vector<bool> scored(faults.size(), false);
    for (std::size_t i = 0; i < faults.size(); ++i) {
        const Report own = preflightFault(tb, faults[i], i);
        report.merge(own);
        if (fault::isGolden(faults[i])) {
            continue;
        }
        scored[i] = own.count(Severity::Error) == 0;
        const std::string desc = fault::describe(faults[i]);
        if (!seen.insert(desc).second) {
            report.add("PRE005", Severity::Warning, desc,
                       "duplicate fault at index " + std::to_string(i),
                       "every run re-simulates; drop the duplicate");
        }
    }
    // PRE007: faults with no structural path to anything the classifier
    // observes. The graph is built once for the whole list (it depends only
    // on the netlist).
    const analyze::SignalGraph graph(tb);
    for (std::size_t i = 0; i < faults.size(); ++i) {
        if (scored[i] && !graph.faultObservable(faults[i])) {
            report.add("PRE007", Severity::Warning, fault::describe(faults[i]),
                       "fault target has no structural path to any observed "
                       "output, watched signal or compared state",
                       "the run will classify Silent; observe the cone or drop "
                       "the fault (see analyze::SignalGraph)");
        }
    }
    // PRE008: batch-backend eligibility. Only scored when the design itself
    // word-compiles AND the list mixes batch-eligible with ineligible faults:
    // a design the word kernel cannot lift, or a list that is uniformly
    // event-driven, gains nothing from one warning per fault.
    const batch::CompileResult compiled = batch::compileWordModel(tb);
    if (compiled.model) {
        bool anyEligible = false;
        std::vector<std::pair<std::size_t, std::string>> ineligible;
        for (std::size_t i = 0; i < faults.size(); ++i) {
            if (!scored[i]) {
                continue;
            }
            const batch::FaultEligibility e =
                batch::faultEligibility(*compiled.model, faults[i]);
            if (e.eligible) {
                anyEligible = true;
            } else {
                ineligible.emplace_back(i, e.reason);
            }
        }
        if (anyEligible) {
            for (const auto& [i, reason] : ineligible) {
                report.add("PRE008", Severity::Warning, fault::describe(faults[i]),
                           "fault is not batch-eligible: " + reason,
                           "it falls back to the event-driven kernel when the "
                           "bit-parallel backend is on (see DESIGN.md §13)");
            }
        }
    }
    return report;
}

Report preflightSnapshot(const Testbench& tb)
{
    Report report;
    for (const auto& comp : tb.sim().digital().components()) {
        if (comp->snapshotExempt()) {
            continue; // declared stateless (gates, ROMs, structural shells)
        }
        if (dynamic_cast<const snapshot::Snapshottable*>(comp.get()) != nullptr) {
            continue;
        }
        report.add("PRE006", Severity::Error, comp->name(),
                   "component '" + comp->name() +
                       "' holds state but does not implement snapshot::Snapshottable",
                   "implement captureState/restoreState (or mark it snapshotExempt() "
                   "if stateless) before enabling fork-from-golden checkpoints");
    }
    return report;
}

Report preflightStoredDigest(const std::string& entryName, const std::string& storedDigest,
                             const std::string& currentDigest)
{
    Report report;
    if (storedDigest != currentDigest) {
        report.add("PRE009", Severity::Error, entryName,
                   "stale golden-store entry: stored netlist digest " + storedDigest +
                       " does not match the loaded circuit's digest " + currentDigest,
                   "the design changed since this entry was recorded; re-run the "
                   "campaign (or point the store at the matching netlist) instead of "
                   "replaying another design's verdicts");
    }
    return report;
}

PreflightError::PreflightError(Report report)
    : std::runtime_error("campaign preflight failed: " + report.summary() + "\n" +
                         report.table()),
      report_(std::move(report))
{
}

} // namespace gfi::lint
