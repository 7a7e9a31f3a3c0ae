#pragma once
// Bit-parallel campaign backend.
//
// runBatchedCampaign() takes the slice of a campaign's fault list that still
// needs simulating, compiles the design once, packs eligible faults into
// 64-lane word-simulation groups over that one model (lane 0 golden, lanes
// 1..63 one fault each) and classifies every lane with
// the campaign's verdict rule, campaign::classifyObservation() — the function
// the event-driven kernel classifies through. A lane's word-level diffs
// (laneDiffs) are its observation's digital list, so its RunResults are
// byte-identical to what that kernel would have produced for the same faults.
// Ineligible faults (and whole designs the word compiler cannot lift) are
// simply absent from the output map; the campaign runner simulates those
// through the ordinary contained path.
//
// Lane assignment is deliberately resume-invariant: a fault's lane depends
// only on its position among the batch-eligible candidates of the fault list,
// never on which entries happen to be restored from a journal, so the
// batch_lane provenance recorded in journals is stable across interrupted and
// resumed campaigns.

#include "batch/word_model.hpp"
#include "core/campaign.hpp"
#include "trace/compare.hpp"

#include <cstddef>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace gfi::batch {

/// What the campaign runner hands the batch backend. golden and goldenState
/// are the verdict rule's reference (classifyObservation), and tolerance's
/// jitter window filters the lane diffs handed to it; the golden traces and
/// state, with goldenWaves, also feed the lane-0 cross-check.
struct BatchRequest {
    /// Called once, for the build the campaign's one word model compiles
    /// from; every group simulates that model.
    const fault::TestbenchFactory* factory = nullptr;
    const fault::Testbench* golden = nullptr;         ///< finished golden run
    /// The golden run's end-of-run value of each observed state hook.
    const std::map<std::string, std::uint64_t>* goldenState = nullptr;
    std::uint64_t goldenWaves = 0;       ///< golden run's delta-cycle count
    std::uint64_t goldenAnalogSteps = 0; ///< golden run's analog step attempts
    const std::vector<fault::FaultSpec>* faults = nullptr;

    /// Fault-list indices to consider, ascending: collapse representatives
    /// when a plan is active, else every non-golden fault — restoration
    /// status excluded on purpose (lane stability across resume).
    std::vector<std::size_t> candidates;

    /// Parallel to candidates: false when the index is restored from a
    /// journal and needs no result. Groups whose members are all restored
    /// are skipped entirely.
    std::vector<char> needSim;

    campaign::Tolerance tolerance;
    unsigned workers = 0;     ///< Executor worker count (0 = auto)
    bool recordTiming = true; ///< false zeroes diagnostics.wallSeconds
};

/// What happened, for the campaign's log line and telemetry.
struct BatchStats {
    bool designEligible = false;
    std::string designReason; ///< why not, when ineligible
    std::size_t batched = 0;  ///< results produced by the word kernel
    std::size_t groups = 0;   ///< word simulations executed
    /// Faults that fell back to the event-driven kernel: (index, reason).
    std::vector<std::pair<std::size_t, std::string>> fallbacks;
    /// Groups whose lane-0 replay failed the golden cross-check (all their
    /// members fell back). Always 0 for in-library designs; a nonzero count
    /// means a design construct escaped the compiler's eligibility net.
    std::size_t crossCheckFailures = 0;
};

class WordSim;

/// Lane @p lane of @p sim's observed slot @p obs as a DigitalTrace the
/// production comparator understands: one event per recorded point at which
/// the lane changed, carrying its settled value. The golden cross-check
/// compares lane 0's with the golden run's traces.
[[nodiscard]] trace::DigitalTrace laneTrace(const WordSim& sim, int obs, int lane,
                                            const std::string& name);

/// Every faulty lane's comparison with golden on each of the first
/// @p observed observed slots, straight from the value words, for a group
/// whose faults ride lanes 1..@p lanes. Entry (lane - 1) * observed + k is,
/// window for window, trace::compareDigital(golden, laneTrace(sim, k, lane),
/// duration, jitter) — provided lane 0 replays golden, which the backend's
/// cross-check establishes before it classifies. A lane's bit of
/// (value ^ broadcast lane 0) is its mismatch with golden from one recorded
/// point to the next, and every time at which any lane changes is a recorded
/// point: the window opens at the point its bit sets and closes at the point
/// it clears, one still open at the end closing at @p duration as the trace
/// walk's does. The jitter filter and summary are trace::summarizeMismatch.
[[nodiscard]] std::vector<trace::DigitalDiff> laneDiffs(const WordSim& sim,
                                                        std::size_t observed,
                                                        std::size_t lanes, SimTime duration,
                                                        SimTime jitter);

/// Runs the word-level batches and fills @p out (fault-list index ->
/// classified result) for every candidate that was word-simulated. Indices
/// absent from @p out must be simulated by the event-driven kernel.
BatchStats runBatchedCampaign(const BatchRequest& req,
                              std::map<std::size_t, campaign::RunResult>& out);

} // namespace gfi::batch
