#pragma once
// The benchmark's four seeded campaign workloads. Each one generates its
// inputs from the seed once, then runs whole campaigns on demand: either in
// its measured configuration (fork, batch, collapse, journal, store as the
// workload states) or in the plain reference configuration (scratch,
// event kernel, no collapse, no journal), whose verdicts every measured
// campaign must reproduce.

#include "metered.hpp"
#include "spans.hpp"

#include "batch/backend.hpp"
#include "core/campaign.hpp"

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace gfi::perfbench {

/// How to execute one campaign.
struct CampaignSetup {
    unsigned workers = 2;
    bool reference = false;   ///< plain configuration, journaled to journalPath(dir)
    SpanLog* spans = nullptr; ///< traced campaign: record spans here
    bool probeLayers = false; ///< also call the collapse/batch layers directly
    std::string dir;          ///< per-campaign scratch directory (journal, store)
};

/// Layer readings that exist only when a traced campaign probes its layers.
struct LayerProbe {
    std::size_t collapseClasses = 0;
    std::optional<batch::BatchStats> batch;
};

/// What one campaign produced.
struct CampaignOutcome {
    /// Every report the campaign returned, in order (the replay workload
    /// answers twice: journal resume, then golden-store hit).
    std::vector<campaign::CampaignReport> reports;
    double setupSeconds = 0.0;    ///< input build + preflight + golden (wall)
    double totalSeconds = 0.0;    ///< input build until the last report (wall)
    double setupCpuSeconds = 0.0; ///< the same two spans in process CPU seconds
    double totalCpuSeconds = 0.0;
    KernelCounts kernel;       ///< metered kernel work of every testbench
    std::size_t checkpoints = 0;
    std::size_t goldenSamples = 0; ///< recorded golden trace points
    LayerProbe probe;

    [[nodiscard]] std::size_t verdicts() const
    {
        std::size_t n = 0;
        for (const auto& r : reports) {
            n += r.runs.size();
        }
        return n;
    }
};

class Workload {
public:
    virtual ~Workload() = default;

    [[nodiscard]] virtual const std::vector<fault::FaultSpec>& faults() const = 0;

    /// Simulated duration of one run.
    [[nodiscard]] virtual SimTime duration() const = 0;

    /// Layer that owns the runner's "simulate" span on this workload.
    [[nodiscard]] virtual std::string simulateLayer() const { return "digital"; }

    /// Writes the files later campaigns read; @p dir persists for the run.
    virtual void prepare(const std::string& /*dir*/) {}

    virtual CampaignOutcome runCampaign(const CampaignSetup& setup) = 0;

    /// Deterministic verdict text (one line per fault) whose SHA-256 is the
    /// workload's pinned reference digest.
    [[nodiscard]] virtual std::string verdictText(const campaign::CampaignReport& r) const;

    /// Domain checks of a report beyond verdict equality; "" = all hold.
    [[nodiscard]] virtual std::string checkFindings(const campaign::CampaignReport&) const
    {
        return {};
    }
};

/// The journal a campaign in @p dir writes (reference campaigns always do).
[[nodiscard]] std::string journalPath(const std::string& dir);

/// The workload called @p name at @p seed, or nullptr for an unknown name.
[[nodiscard]] std::unique_ptr<Workload> makeWorkload(const std::string& name,
                                                     std::uint64_t seed);

} // namespace gfi::perfbench
