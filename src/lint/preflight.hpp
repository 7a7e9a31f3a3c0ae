#pragma once
// Campaign preflight: validates a fault list against a testbench's
// registries and observation window *before* any run is attempted. A
// campaign with a typo'd target fails here with one structured report in
// O(1) instead of producing one sim-error row per run.
//
// Rules:
//   PRE001 (error)   unknown injection target (state hook, FSM, digital or
//                    current saboteur, parameter) — the exact registry
//                    lookups armFault() performs at run time.
//   PRE002 (error)   bit index outside the target state element's width.
//   PRE003 (error)   injection time outside the simulation window.
//   PRE004 (error)   current-pulse fault without a pulse shape.
//   PRE005 (warning) duplicate fault in the list (same description twice).
//   PRE006 (error)   fork-from-golden enabled, but the testbench registers a
//                    stateful digital component that is not Snapshottable —
//                    restoring a checkpoint would silently resume it stale.
//   PRE007 (warning) fault targets a dead/unobservable cone: no structural
//                    path from the injection site to any observed output,
//                    watched signal or compared state hook (the static
//                    fault-space analyzer proves the run classifies Silent).
//   PRE008 (warning) fault is not batch-eligible on a word-compilable design
//                    (stuck-at-X, analog fault, target outside the
//                    compiled netlist): with the bit-parallel backend on
//                    it falls back to the event-driven kernel. Scored only
//                    when the list also contains batch-eligible faults.
//   PRE009 (error)   stale golden-store entry: a stored campaign result is
//                    keyed by a netlist digest that no longer matches the
//                    circuit it is being replayed for. The diagnostic carries
//                    both digests; replaying would attribute another design's
//                    verdicts to this one.

#include "core/fault.hpp"
#include "lint/diagnostic.hpp"

#include <stdexcept>
#include <vector>

namespace gfi::fault {
class Testbench;
}

namespace gfi::lint {

/// Validates one fault against @p tb's registries and window. @p index is
/// used in the diagnostic path ("fault[3]"); pass 0 for standalone checks.
[[nodiscard]] Report preflightFault(const fault::Testbench& tb,
                                    const fault::FaultSpec& fault, std::size_t index = 0);

/// Validates a whole campaign fault list (per-fault checks + duplicates).
[[nodiscard]] Report preflightCampaign(const fault::Testbench& tb,
                                       const std::vector<fault::FaultSpec>& faults);

/// Snapshot readiness (PRE006): every digital component of @p tb must either
/// implement snapshot::Snapshottable or declare itself snapshotExempt()
/// (stateless). CampaignRunner runs this check only while fork-from-golden
/// checkpointing is enabled; each offending component is named.
[[nodiscard]] Report preflightSnapshot(const fault::Testbench& tb);

/// Stale-cache check (PRE009): compares the digest a stored campaign entry
/// was keyed under against the digest of the circuit about to replay it.
/// Pure string comparison — lint stays dependency-free of io; the golden
/// store calls this before trusting any cached verdicts. @p entryName names
/// the offending store entry in the diagnostic path.
[[nodiscard]] Report preflightStoredDigest(const std::string& entryName,
                                           const std::string& storedDigest,
                                           const std::string& currentDigest);

/// Thrown by CampaignRunner when the preflight phase finds errors; carries
/// the full report.
class PreflightError : public std::runtime_error {
public:
    explicit PreflightError(Report report);

    [[nodiscard]] const Report& report() const noexcept { return report_; }

private:
    Report report_;
};

} // namespace gfi::lint
