// Static fault-space analyzer: signal graph, fault collapsing, SCOAP
// testability, and the collapsed campaign mode.
//
// The contract under test, layer by layer:
//   * SignalGraph levelization and observability over the chain DUT — the
//     observed chain is live, the dead branch provably dark;
//   * chainTerminalOf: zero-delay buffer/inverter chains collapse onto the
//     terminal saboteur with the right inverter parity;
//   * collapseFaults: chain sweeps shrink, dead faults pool into "masked",
//     golden/U-stuck/zero-width stay singletons;
//   * SCOAP scores: monotone controllability along the chain, "n/a"
//     observability in the dead cone;
//   * journals round-trip the expansion provenance of collapsed campaigns
//     (byte identity with full campaigns, at any width and across resume,
//     is covered by test_campaign_matrix.cpp);
//   * PRE007 warns on statically-unobservable fault targets.

#include "analyze/analyze.hpp"
#include "analyze/collapse.hpp"
#include "analyze/graph.hpp"
#include "core/campaign.hpp"
#include "core/journal.hpp"
#include "duts/chain_dut.hpp"
#include "lint/lint.hpp"

#include <gtest/gtest.h>

#include <memory>

namespace gfi {
namespace {

// ---------------------------------------------------------------------------
// SignalGraph: levels and observability on the chain DUT

TEST(AnalyzeGraph, ChainLevelsAndObservability)
{
    duts::ChainDutTestbench tb;
    const analyze::SignalGraph g(tb);
    const auto& dig = tb.sim().digital();

    EXPECT_EQ(g.cyclicSignals(), 0u);
    EXPECT_GT(g.maxLevel(), 0);

    // The observed chain is live end to end.
    for (int i = 0; i < 8; ++i) {
        const std::string name = "chain/n" + std::to_string(i);
        EXPECT_TRUE(g.signalObservable(&dig.findSignal(name))) << name;
    }
    EXPECT_TRUE(g.signalObservable(&dig.findSignal("chain/q")));

    // The dead branch has no structural path to anything observed.
    EXPECT_FALSE(g.signalObservable(&dig.findSignal("chain/d0")));
    EXPECT_FALSE(g.signalObservable(&dig.findSignal("chain/d1")));
    EXPECT_FALSE(g.signalObservable(&dig.findSignal("chain/dead_q")));

    // Levels grow monotonically along the zero-delay chain.
    const auto level = [&](const std::string& name) {
        const int idx = g.indexOf(&dig.findSignal(name));
        EXPECT_GE(idx, 0) << name;
        return g.nodes()[static_cast<std::size_t>(idx)].level;
    };
    int prev = level("chain/n0");
    for (int i = 1; i < 8; ++i) {
        const int cur = level("chain/n" + std::to_string(i));
        EXPECT_GT(cur, prev) << "chain/n" << i;
        prev = cur;
    }
    // The flip-flop output is a sequential source again: level 0.
    EXPECT_EQ(level("chain/q"), 0);
}

TEST(AnalyzeGraph, ChainTerminalTracksInverterParity)
{
    duts::ChainDutTestbench tb;
    const analyze::SignalGraph g(tb);

    // c0..c2 sit upstream of the inverter, c3..c5 downstream.
    for (const char* name : {"sab/c0", "sab/c1", "sab/c2"}) {
        const auto t = g.chainTerminalOf(name);
        EXPECT_EQ(t.saboteur, "sab/c5") << name;
        EXPECT_TRUE(t.inverted) << name;
    }
    for (const char* name : {"sab/c3", "sab/c4", "sab/c5"}) {
        const auto t = g.chainTerminalOf(name);
        EXPECT_EQ(t.saboteur, "sab/c5") << name;
        EXPECT_FALSE(t.inverted) << name;
    }
    // The dead saboteur's chain ends at itself (flip-flop downstream).
    const auto dead = g.chainTerminalOf("sab/dead");
    EXPECT_EQ(dead.saboteur, "sab/dead");
    EXPECT_FALSE(dead.inverted);
    // Unknown names resolve to themselves.
    EXPECT_EQ(g.chainTerminalOf("sab/nope").saboteur, "sab/nope");
}

// ---------------------------------------------------------------------------
// SCOAP testability

TEST(AnalyzeScoap, ChainScoresAreFiniteAndDeadConeUnobservable)
{
    duts::ChainDutTestbench tb;
    const analyze::AnalysisReport rep = analyze::analyzeTestbench(tb);

    EXPECT_GT(rep.signals, 10u);
    EXPECT_EQ(rep.cyclicSignals, 0u);
    EXPECT_GT(rep.observableSignals, 0u);
    EXPECT_GT(rep.unobservableSignals, 0u) << "the dead branch must show up";

    bool sawChain = false;
    bool sawDead = false;
    for (const analyze::NodeScore& s : rep.testability.ranked) {
        if (s.signal == "chain/n7") {
            sawChain = true;
            EXPECT_TRUE(s.observable);
            EXPECT_LT(s.cc, analyze::kInfCost);
            EXPECT_GE(s.co, 0);
        }
        if (s.signal == "chain/dead_q") {
            sawDead = true;
            EXPECT_FALSE(s.observable);
            EXPECT_LT(s.co, 0) << "no path to a sink: CO must be the n/a marker";
        }
    }
    EXPECT_TRUE(sawChain);
    EXPECT_TRUE(sawDead);

    // Renderings stay consistent with the structural facts.
    const std::string table = rep.table(0);
    EXPECT_NE(table.find("chain/dead_q"), std::string::npos);
    EXPECT_NE(table.find("n/a"), std::string::npos);
    const std::string json = rep.json();
    EXPECT_NE(json.find("\"observable\": false"), std::string::npos);
}

// ---------------------------------------------------------------------------
// collapseFaults: the partition itself

TEST(AnalyzeCollapse, ChainSweepPartition)
{
    duts::ChainDutTestbench tb;
    const auto sabs = duts::ChainDutTestbench::chainSaboteurs();

    std::vector<fault::FaultSpec> faults;
    faults.emplace_back(fault::FaultSpec{}); // golden: always its own class
    for (const std::string& sab : sabs) {
        faults.emplace_back(fault::DigitalPulseFault{sab, kMicrosecond, 2 * kNanosecond});
    }
    const std::size_t stuck0AtC0 = faults.size();
    faults.emplace_back(
        fault::StuckAtFault{sabs[0], digital::Logic::Zero, kMicrosecond, 0});
    const std::size_t stuck1AtC5 = faults.size();
    faults.emplace_back(
        fault::StuckAtFault{sabs[5], digital::Logic::One, kMicrosecond, 0});
    const std::size_t stuckXAtC0 = faults.size();
    faults.emplace_back(
        fault::StuckAtFault{sabs[0], digital::Logic::X, kMicrosecond, 0});
    const std::size_t deadPulse = faults.size();
    faults.emplace_back(fault::DigitalPulseFault{duts::ChainDutTestbench::deadSaboteur(),
                                                 kMicrosecond, 2 * kNanosecond});
    const std::size_t deadStuck = faults.size();
    faults.emplace_back(fault::StuckAtFault{duts::ChainDutTestbench::deadSaboteur(),
                                            digital::Logic::One, kMicrosecond, 0});
    const std::size_t zeroWidth = faults.size();
    faults.emplace_back(fault::DigitalPulseFault{sabs[0], kMicrosecond, 0});

    const analyze::CollapsePlan plan = analyze::collapseFaults(tb, faults);
    ASSERT_EQ(plan.repOf.size(), faults.size());

    // Golden stands alone.
    EXPECT_TRUE(plan.isRepresentative(0));

    // All six same-(time,width) chain pulses share the first one's class.
    for (std::size_t i = 1; i <= 6; ++i) {
        EXPECT_EQ(plan.repOf[i], 1u) << "pulse " << i;
    }

    // stuck-at-0 upstream of the inverter == stuck-at-1 at the terminal.
    EXPECT_EQ(plan.classKey[stuck0AtC0], plan.classKey[stuck1AtC5]);
    EXPECT_EQ(plan.repOf[stuck1AtC5], stuck0AtC0);

    // Stuck-at-X does not ride the chain (U/X pass-through differs).
    EXPECT_TRUE(plan.isRepresentative(stuckXAtC0));

    // Dead-branch faults pool into the one statically-masked class.
    EXPECT_EQ(plan.classKey[deadPulse], "masked");
    EXPECT_EQ(plan.classKey[deadStuck], "masked");
    EXPECT_EQ(plan.repOf[deadStuck], deadPulse);

    // Zero-width pulses stay singletons (delta-glitch ordering not modeled).
    EXPECT_TRUE(plan.isRepresentative(zeroWidth));

    EXPECT_EQ(plan.classes() + plan.collapsedRuns(), faults.size());
    EXPECT_GE(plan.collapsedRuns(), 7u);
}

// ---------------------------------------------------------------------------
// journal round-trip of the provenance field

TEST(AnalyzeCollapse, JournalRoundTripsCollapsedFrom)
{
    campaign::RunResult r;
    r.fault = fault::DigitalPulseFault{"sab/c1", kMicrosecond, 2 * kNanosecond};
    r.outcome = campaign::Outcome::TransientError;
    r.diagnostics.collapsedFrom = "pulse sab/c5 @1us width 2ns";
    const std::string line = campaign::CampaignJournal::entryToJson(3, r);
    EXPECT_NE(line.find("\"collapsed_from\""), std::string::npos) << line;
    const auto parsed = campaign::CampaignJournal::parseLine(line);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->result.diagnostics.collapsedFrom, r.diagnostics.collapsedFrom);

    // Absent field parses to empty (old journals stay readable).
    campaign::RunResult plain;
    plain.outcome = campaign::Outcome::Silent;
    const auto reparsed =
        campaign::CampaignJournal::parseLine(campaign::CampaignJournal::entryToJson(0, plain));
    ASSERT_TRUE(reparsed.has_value());
    EXPECT_TRUE(reparsed->result.diagnostics.collapsedFrom.empty());
}

// ---------------------------------------------------------------------------
// PRE007: statically-unobservable fault targets

TEST(AnalyzePreflight, Pre007WarnsOnDeadTargets)
{
    duts::ChainDutTestbench tb;
    const std::vector<fault::FaultSpec> faults{
        fault::DigitalPulseFault{duts::ChainDutTestbench::deadSaboteur(), kMicrosecond,
                                 2 * kNanosecond},
        fault::DigitalPulseFault{"sab/c2", kMicrosecond, 2 * kNanosecond},
    };
    const lint::Report rep = lint::preflightCampaign(tb, faults);
    EXPECT_EQ(rep.count(lint::Severity::Error), 0u) << rep.table();
    EXPECT_GT(rep.count(lint::Severity::Warning), 0u);
    EXPECT_NE(rep.table().find("PRE007"), std::string::npos) << rep.table();
    EXPECT_NE(rep.table().find("sab/dead"), std::string::npos) << rep.table();
    EXPECT_EQ(rep.table().find("sab/c2"), std::string::npos)
        << "live targets must not warn:\n"
        << rep.table();

    // Warnings never block the campaign.
    campaign::CampaignRunner runner([] { return std::make_unique<duts::ChainDutTestbench>(); });
    runner.setRecordTiming(false);
    const campaign::CampaignReport report = runner.run(faults);
    EXPECT_EQ(report.runs.size(), 2u);
    EXPECT_EQ(report.runs[0].outcome, campaign::Outcome::Silent)
        << "a dead-branch fault cannot reach the observed outputs";
}

} // namespace
} // namespace gfi
