#pragma once
// Elaboration of a parsed netlist into an instrumented digital::Circuit —
// the bridge that turns an external ISCAS-85/Verilog file into a first-class
// campaign workload.
//
// Every net of the parsed design gets a saboteur-instrumented pair of
// signals: the driver (primary-input stimulus or gate process) drives
// "<prefix>/<net>", a zero-delay DigitalSaboteur "sab/<net>" repeats it onto
// "<prefix>/<net>~f", and every reader (gate input, primary-output
// observation) reads the faulty side — so a stuck-at or SET on ANY net of
// the design is injectable by name, exactly like the hand-written DUTs. The
// elaborated testbench declares full connectivity (noteDrives/noteReads/
// noteCombKind via the component library), so ingested designs flow through
// lint, the fault-space analyzer, the bit-parallel batch backend and the
// parallel/journal/fork campaign engine with zero special-casing.
//
// Stimulus is a deterministic seeded pattern schedule: pattern k forces the
// primary inputs at time k*period through a StimulusSchedule (only bits that
// change are scheduled, so both the event-driven and the word kernel see
// identical force events). The (netlist, stimulus, fault-list) triple is
// digest-identified for the golden store.

#include "core/campaign.hpp"
#include "core/testbench.hpp"
#include "io/netlist.hpp"

#include <memory>

namespace gfi::io {

/// Elaboration parameters. All of them are folded into the stimulus digest
/// (they change the simulated schedule, hence the answers).
struct IngestConfig {
    std::string prefix;          ///< signal-name prefix; empty = netlist name
    int patternCount = 64;       ///< stimulus patterns applied back to back
    std::uint64_t patternSeed = 42; ///< xoshiro256** seed for pattern bits
    SimTime patternPeriod = 10 * kNanosecond; ///< settle window per pattern
    SimTime gateDelay = digital::kDefaultGateDelay; ///< per-gate inertial delay
};

/// The deterministic stimulus schedule of one ingest campaign.
struct PatternSet {
    std::vector<std::string> inputs;     ///< primary inputs, bit order
    std::vector<std::vector<bool>> rows; ///< rows[k][i]: input i in pattern k
    SimTime period = 0;                  ///< pattern spacing
    std::uint64_t seed = 0;              ///< generator seed (provenance)

    /// Normalized rendering whose SHA-256 is the stimulus digest.
    [[nodiscard]] std::string canonicalText() const;

    /// SHA-256 hex digest of canonicalText().
    [[nodiscard]] std::string digest() const;
};

/// Generates @p count patterns over the primary inputs of @p desc, seeded and
/// platform-independent (util/rng xoshiro256**).
[[nodiscard]] PatternSet generatePatterns(const NetlistDesc& desc, int count,
                                          std::uint64_t seed, SimTime period);

/// Which faults buildFaultList() enumerates over the parsed nets.
struct FaultListOptions {
    bool stuckAt = true;    ///< permanent stuck-at-0/1 per net (from t=0)
    bool setPulses = false; ///< one SET pulse per net at mid-campaign
    SimTime pulseWidth = kNanosecond;
};

/// Exhaustive fault list over the design's nets, in canonical net order:
/// stuck-at-0 then stuck-at-1 per net, then (optionally) one SET pulse per
/// net. Both kinds are batch-eligible: SET pulses ride word lanes too.
[[nodiscard]] std::vector<fault::FaultSpec> buildFaultList(const NetlistDesc& desc,
                                                           const IngestConfig& config,
                                                           const FaultListOptions& options = {});

/// The saboteur name instrumenting @p net ("sab/<net>").
[[nodiscard]] std::string netSaboteurName(const std::string& net);

/// The elaborated, instrumented external design.
class IngestTestbench : public fault::Testbench {
public:
    /// Builds the circuit; @p desc and @p patterns are shared read-only so a
    /// campaign factory can stamp out testbenches concurrently.
    IngestTestbench(std::shared_ptr<const NetlistDesc> desc,
                    std::shared_ptr<const PatternSet> patterns, IngestConfig config);

    [[nodiscard]] const NetlistDesc& netlist() const noexcept { return *desc_; }
    [[nodiscard]] const IngestConfig& config() const noexcept { return config_; }

    /// The observed signal name of primary output @p net.
    [[nodiscard]] std::string outputSignalName(const std::string& net) const;

private:
    std::shared_ptr<const NetlistDesc> desc_;
    std::shared_ptr<const PatternSet> patterns_;
    IngestConfig config_;
};

/// A fully prepared ingest campaign: parsed design, stimulus, fault list and
/// the content digests that key the golden store.
struct IngestWorkload {
    std::shared_ptr<const NetlistDesc> netlist;
    std::shared_ptr<const PatternSet> patterns;
    IngestConfig config;
    std::vector<fault::FaultSpec> faults;

    std::string netlistDigest;  ///< sha256 of netlist->canonicalText()
    std::string stimulusDigest; ///< sha256 of patterns->canonicalText()
    std::string faultDigest;    ///< sha256 of the fault descriptions

    /// Campaign factory stamping out fresh instrumented testbenches.
    [[nodiscard]] fault::TestbenchFactory factory() const;
};

/// Parses nothing — assembles a workload from an already parsed @p desc:
/// resolves the config prefix, generates patterns, builds the fault list and
/// computes all three digests.
[[nodiscard]] IngestWorkload makeWorkload(NetlistDesc desc, IngestConfig config = {},
                                          const FaultListOptions& options = {});

/// SHA-256 hex digest of a fault list (its fault::describe lines).
[[nodiscard]] std::string faultListDigest(const std::vector<fault::FaultSpec>& faults);

/// Renders the campaign verdicts as the deterministic ".ans" text the judge
/// flow digests: a provenance header (circuit + the three digests) and one
/// "<index>\t<fault>\t<outcome>\t<detected>" line per run.
[[nodiscard]] std::string renderAnsText(const IngestWorkload& workload,
                                        const campaign::CampaignReport& report);

} // namespace gfi::io
