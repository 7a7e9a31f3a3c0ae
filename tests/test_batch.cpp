// Bit-parallel batch backend: differential equivalence with the event-driven
// kernel.
//
// The contract under test: a campaign run with the batch backend enabled
// produces *identical observable output* to the event-driven run — the same
// per-fault classifications and byte-identical journals (modulo the additive
// "batch_lane" provenance key). The curated DUTs go through every mode
// combination in test_campaign_matrix.cpp; here a seeded random-netlist
// fuzzer sweeps ≥100 generated circuits × random fault lists through both
// backends, and the word compiler's design and fault eligibility is pinned
// down, as is the golden cross-check that must pass before lanes classify.

#include "campaign_harness.hpp"

#include "batch/backend.hpp"
#include "batch/word_model.hpp"
#include "batch/word_sim.hpp"
#include "core/saboteur.hpp"
#include "digital/gates.hpp"
#include "digital/sequential.hpp"
#include "digital/stimulus.hpp"
#include "duts/cpu_system.hpp"
#include "duts/digital_dut.hpp"
#include "util/rng.hpp"

#include <atomic>
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

namespace gfi::campaign {
namespace {

using test::CampaignOutput;

// ---------------------------------------------------------------------------
// Property-based fuzz: random netlists × random fault lists

using digital::Bus;
using digital::ClockGen;
using digital::DFlipFlop;
using digital::Gate;
using digital::GateKind;
using digital::Lfsr;
using digital::Logic;
using digital::LogicSignal;
using digital::StimulusSchedule;

/// A seeded, acyclic random netlist built only from word-library components:
/// an 8-bit LFSR stimulus feeding a random DAG of gates, a few DFFs and one
/// or two saboteur-instrumented interconnects. Acyclicity holds by
/// construction (gate inputs are drawn only from already-created signals) and
/// observed names are distinct (drawn from a set).
class RandomNetlistTestbench : public fault::Testbench {
public:
    explicit RandomNetlistTestbench(std::uint64_t seed)
    {
        Rng rng(0x5EEDu ^ (seed * 0x9E3779B97F4A7C15ull));
        auto& dig = sim().digital();
        const SimTime period = 20 * kNanosecond;

        auto& clk = dig.logicSignal("rn/clk", Logic::Zero);
        dig.add<ClockGen>(dig, "rn/clkgen", clk, period);
        auto& rstn = dig.logicSignal("rn/rstn", Logic::Zero);
        dig.noteExternalDriver(rstn);
        auto& stim = dig.add<StimulusSchedule>(dig, "rn/stim");
        stim.at(3 * period / 2, rstn, Logic::One);

        Bus q = dig.bus("rn/lfsr_q", 8, Logic::Zero);
        dig.add<Lfsr>(dig, "rn/lfsr", clk, q, /*taps=*/0xB8,
                      /*seed=*/1 + (rng.next() & 0x7F), &rstn);

        std::vector<LogicSignal*> pool;
        for (int b = 0; b < 8; ++b) {
            pool.push_back(&q.bit(b));
        }
        const auto pick = [&]() -> LogicSignal& {
            return *pool[rng.below(pool.size())];
        };

        const int gates = 8 + static_cast<int>(rng.below(7));
        static constexpr GateKind kKinds[] = {GateKind::And,  GateKind::Or,
                                              GateKind::Nand, GateKind::Nor,
                                              GateKind::Xor,  GateKind::Xnor,
                                              GateKind::Buf,  GateKind::Not};
        for (int i = 0; i < gates; ++i) {
            const GateKind kind = kKinds[rng.below(8)];
            std::size_t fanin = 2 + rng.below(2);
            if (kind == GateKind::Buf || kind == GateKind::Not) {
                fanin = 1;
            } else if (kind == GateKind::Xor || kind == GateKind::Xnor) {
                fanin = 2; // keep parity semantics identical across backends
            }
            std::vector<LogicSignal*> in;
            for (std::size_t k = 0; k < fanin; ++k) {
                in.push_back(&pick());
            }
            auto& out =
                dig.logicSignal("rn/g" + std::to_string(i), Logic::Zero);
            dig.add<Gate>(dig, "rn/gate" + std::to_string(i), kind, in, out);
            pool.push_back(&out);

            if (i % 5 == 2) { // instrument some interconnects with saboteurs
                auto& sabOut =
                    dig.logicSignal("rn/g" + std::to_string(i) + "_sab", Logic::Zero);
                // A nonzero delay makes pulses narrower than it cancel
                // inertially inside the saboteur.
                const SimTime delay = static_cast<SimTime>(rng.below(4)) * kNanosecond;
                auto& sab = dig.add<fault::DigitalSaboteur>(
                    dig, "rn/sab" + std::to_string(i), out, sabOut, delay);
                addDigitalSaboteur(sab);
                pool.push_back(&sabOut);
            }
        }
        const int ffs = 2 + static_cast<int>(rng.below(3));
        for (int i = 0; i < ffs; ++i) {
            auto& d = pick();
            auto& ffq = dig.logicSignal("rn/ff" + std::to_string(i) + "_q", Logic::Zero);
            dig.add<DFlipFlop>(dig, "rn/ff" + std::to_string(i), clk, d, ffq, &rstn);
            pool.push_back(&ffq);
        }

        std::set<std::string> observed;
        while (observed.size() < 4) {
            observed.insert(pick().name());
        }
        for (const std::string& name : observed) {
            observeDigital(name);
        }
        observeAllState();
        setDuration(600 * kNanosecond);
    }
};

std::size_t countOccurrences(const std::string& haystack, const std::string& needle)
{
    std::size_t n = 0;
    for (std::size_t at = haystack.find(needle); at != std::string::npos;
         at = haystack.find(needle, at + needle.size())) {
        ++n;
    }
    return n;
}

/// One fuzz case: a random netlist's fault list and the jitter window its
/// campaign classifies under.
struct FuzzCase {
    std::vector<fault::FaultSpec> faults; ///< golden first, then the faults
    SimTime jitter = 0;
};

/// Both kernels filter mismatch windows through the same jitter rule.
constexpr SimTime kJitters[] = {0, 2 * kNanosecond, 20 * kNanosecond};

/// Seed @p seed's fault list: a stuck-at and two SET pulses on every
/// saboteur, bit flips on random state hooks. Pulse widths fall below and
/// above the saboteur delays (0..3 ns), so some pulses cancel inertially,
/// and some pulses start so late that their release falls past the end.
FuzzCase fuzzCase(std::uint64_t seed, const RandomNetlistTestbench& probe)
{
    Rng rng(0xFA11 + seed);
    FuzzCase c;
    c.faults.emplace_back(fault::FaultSpec{});
    const auto randomTime = [&rng] {
        return (40 + static_cast<SimTime>(rng.below(520))) * kNanosecond;
    };
    for (const std::string& sab : probe.digitalSaboteurNames()) {
        c.faults.emplace_back(fault::StuckAtFault{
            sab, rng.chance(0.5) ? Logic::One : Logic::Zero, randomTime(),
            rng.chance(0.5) ? 0 : static_cast<SimTime>(rng.below(180)) * kNanosecond});
        for (int p = 0; p < 2; ++p) {
            const SimTime width =
                static_cast<SimTime>(1 + rng.below(12)) * kNanosecond / 2; // 0.5..6 ns
            const SimTime time = rng.chance(0.25)
                                     ? probe.duration() - static_cast<SimTime>(rng.below(
                                                              static_cast<std::uint64_t>(width)))
                                     : randomTime();
            c.faults.emplace_back(fault::DigitalPulseFault{sab, time, width});
        }
    }
    const auto& hooks = probe.sim().digital().instrumentation().all();
    std::vector<std::string> hookNames;
    hookNames.reserve(hooks.size());
    for (const auto& [name, hook] : hooks) {
        hookNames.push_back(name);
    }
    for (int i = 0; i < 4 && !hookNames.empty(); ++i) {
        const std::string& target = hookNames[rng.below(hookNames.size())];
        const int width = probe.sim().digital().instrumentation().hook(target).width;
        c.faults.emplace_back(fault::BitFlipFault{
            target, static_cast<int>(rng.below(static_cast<std::uint64_t>(width))),
            randomTime()});
    }
    c.jitter = kJitters[rng.below(3)];
    return c;
}

TEST(BatchFuzz, RandomNetlistsMatchEventDriven)
{
    int lanesSeen = 0;
    std::set<SimTime> jittersSeen;
    for (std::uint64_t seed = 1; seed <= 100; ++seed) {
        const auto factory = [seed] {
            return std::make_unique<RandomNetlistTestbench>(seed);
        };
        const RandomNetlistTestbench probe(seed);
        const FuzzCase fc = fuzzCase(seed, probe);
        const std::vector<fault::FaultSpec>& faults = fc.faults;
        ASSERT_GE(faults.size(), 4u) << "seed " << seed;
        const SimTime jitter = fc.jitter;
        jittersSeen.insert(jitter);

        const auto backend = [jitter](bool batch) {
            return [batch, jitter](CampaignRunner& r) {
                r.setWorkers(1);
                r.setBatchBackend(batch);
                r.setFaultCollapsing(false);
                Tolerance tolerance = r.tolerance();
                tolerance.digitalJitter = jitter;
                r.setTolerance(tolerance);
            };
        };
        const std::string tag = "batch_fuzz" + std::to_string(seed);
        const CampaignOutput event = test::runCampaign(factory, faults, tag, backend(false));
        const CampaignOutput batch = test::runCampaign(factory, faults, tag, backend(true));
        ASSERT_EQ(test::stripBatchLane(batch.journal), event.journal)
            << "seed " << seed << ": journal diverged";
        ASSERT_EQ(batch.summary, event.summary) << "seed " << seed;
        for (std::size_t i = 0; i < event.report.runs.size(); ++i) {
            ASSERT_EQ(batch.report.runs[i].outcome, event.report.runs[i].outcome)
                << "seed " << seed << " fault " << i;
        }
        const std::size_t lanes = countOccurrences(batch.journal, "\"batch_lane\"");
        if (lanes > 0) {
            ++lanesSeen;
            // An eligible design batches every fault, SET pulses included.
            EXPECT_EQ(lanes, faults.size() - 1) << "seed " << seed << ": a fault fell back";
        }
    }
    // The generator emits only word-library components, so the overwhelming
    // majority of seeds must actually batch — equality alone could be
    // trivially satisfied by a backend that always falls back.
    EXPECT_GE(lanesSeen, 95) << "batch backend fell back on too many seeds";
    EXPECT_EQ(jittersSeen.size(), std::size(kJitters)) << "a jitter window went undrawn";
}

// A signal observed twice is one recorded trace in both kernels, compared
// once per observation: the word kernel records it once and must read that
// record through both slots, or the lane-0 cross-check fails (the group
// falls back) and a faulty lane misses the second erred entry.
TEST(BatchFuzz, DuplicateObservationMatchesEventDriven)
{
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
        const auto factory = [seed] {
            auto tb = std::make_unique<RandomNetlistTestbench>(seed);
            tb->observeDigital(tb->observedDigital().front());
            return tb;
        };
        const RandomNetlistTestbench probe(seed);
        const FuzzCase fc = fuzzCase(seed, probe);
        const auto backend = [](bool batch) {
            return [batch](CampaignRunner& r) {
                r.setWorkers(1);
                r.setBatchBackend(batch);
                r.setFaultCollapsing(false);
            };
        };
        const std::string tag = "batch_dup_obs" + std::to_string(seed);
        const CampaignOutput event = test::runCampaign(factory, fc.faults, tag, backend(false));
        const CampaignOutput batch = test::runCampaign(factory, fc.faults, tag, backend(true));
        ASSERT_EQ(test::stripBatchLane(batch.journal), event.journal) << "seed " << seed;
        EXPECT_EQ(countOccurrences(batch.journal, "\"batch_lane\""), fc.faults.size() - 1)
            << "seed " << seed << ": a group fell back";
    }
}

// ---------------------------------------------------------------------------
// Word-level diffs against the trace comparator

// The batch backend classifies lanes from XOR masks against lane 0 instead of
// rebuilding traces. On every fuzz netlist and fault list, each lane's
// word-level diff must be, window for window, what compareDigital reports
// for the golden trace against the lane's trace, at every jitter window.
TEST(BatchWordDiff, LaneDiffsMatchCompareDigital)
{
    std::size_t lanesChecked = 0;
    std::size_t windowsSeen = 0;
    for (std::uint64_t seed = 1; seed <= 100; ++seed) {
        RandomNetlistTestbench golden(seed);
        const FuzzCase fc = fuzzCase(seed, golden);
        golden.run();

        const RandomNetlistTestbench fresh(seed);
        const batch::CompileResult compiled = batch::compileWordModel(fresh);
        ASSERT_NE(compiled.model, nullptr) << "seed " << seed << ": " << compiled.reason;
        batch::WordSim sim(*compiled.model);
        const std::size_t lanes = fc.faults.size() - 1;
        ASSERT_LE(lanes, 63u);
        for (std::size_t pos = 1; pos <= lanes; ++pos) {
            sim.armFault(static_cast<int>(pos), fc.faults[pos]);
        }
        ASSERT_TRUE(sim.run()) << "seed " << seed;

        const std::vector<std::string>& observed = golden.observedDigital();
        const SimTime end = golden.duration();
        for (std::size_t k = 0; k < observed.size(); ++k) {
            // The diffs' precondition, which the backend's cross-check
            // establishes: lane 0 replays golden.
            const trace::DigitalTrace& g = golden.recorder().digitalTrace(observed[k]);
            ASSERT_TRUE(trace::compareDigital(
                            g, batch::laneTrace(sim, static_cast<int>(k), 0, observed[k]), end)
                            .identical())
                << "seed " << seed << " " << observed[k];
        }
        for (const SimTime jitter : kJitters) {
            const std::vector<trace::DigitalDiff> diffs =
                batch::laneDiffs(sim, observed.size(), lanes, end, jitter);
            ASSERT_EQ(diffs.size(), lanes * observed.size());
            for (std::size_t lane = 1; lane <= lanes; ++lane) {
                for (std::size_t k = 0; k < observed.size(); ++k) {
                    const trace::DigitalDiff want = trace::compareDigital(
                        golden.recorder().digitalTrace(observed[k]),
                        batch::laneTrace(sim, static_cast<int>(k), static_cast<int>(lane),
                                         observed[k]),
                        end, jitter);
                    const trace::DigitalDiff& got = diffs[(lane - 1) * observed.size() + k];
                    ASSERT_EQ(got.mismatchWindows, want.mismatchWindows)
                        << "seed " << seed << " lane " << lane << " " << observed[k]
                        << " jitter " << jitter;
                    ASSERT_EQ(got.firstMismatch, want.firstMismatch);
                    ASSERT_EQ(got.lastMismatchEnd, want.lastMismatchEnd);
                    ASSERT_EQ(got.totalMismatch, want.totalMismatch);
                    windowsSeen += want.mismatchWindows.size();
                }
                ++lanesChecked;
            }
        }
    }
    // Not vacuous: the fault lists do make lanes diverge.
    EXPECT_GE(lanesChecked, 3000u);
    EXPECT_GE(windowsSeen, 1000u);
}

// ---------------------------------------------------------------------------
// The verdict rule's input contract

// Both kernels hand classifyObservation one diff per observed signal and node
// and one value per observed state hook. A list of any other length is a
// producer bug, not a verdict: the rule throws instead of reading past it.
TEST(VerdictRule, ObservationNotParallelToGoldenThrows)
{
    const duts::DigitalDutTestbench golden;
    ASSERT_FALSE(golden.observedDigital().empty());
    ASSERT_FALSE(golden.observedState().empty());
    ASSERT_TRUE(golden.observedAnalog().empty());
    std::map<std::string, std::uint64_t> goldenState;
    for (const std::string& name : golden.observedState()) {
        goldenState[name] = 0;
    }
    Observation parallel;
    parallel.duration = golden.duration();
    parallel.digital.resize(golden.observedDigital().size());
    parallel.state.assign(golden.observedState().size(), 0);
    const fault::FaultSpec fault = fault::BitFlipFault{golden.observedState().front(), 0, 0};
    EXPECT_EQ(classifyObservation(parallel, golden, goldenState, fault).outcome, Outcome::Silent);
    parallel.state.back() = 1;
    EXPECT_EQ(classifyObservation(parallel, golden, goldenState, fault).outcome, Outcome::Latent);

    Observation shortDigital = parallel;
    shortDigital.digital.pop_back();
    EXPECT_THROW((void)classifyObservation(shortDigital, golden, goldenState, fault),
                 std::logic_error);

    Observation longState = parallel;
    longState.state.push_back(0);
    EXPECT_THROW((void)classifyObservation(longState, golden, goldenState, fault),
                 std::logic_error);

    Observation extraAnalog = parallel;
    extraAnalog.analog.emplace_back();
    EXPECT_THROW((void)classifyObservation(extraAnalog, golden, goldenState, fault),
                 std::logic_error);
}

// ---------------------------------------------------------------------------
// One word model shared by concurrent groups

/// At least @p minFaults batch-eligible DigitalDut faults — bit flips on
/// every hook, stuck-ats and SET pulses on every saboteur, FSM transitions
/// into every state — at staggered instants, then one stuck-at-X that must
/// fall back to the event kernel.
std::vector<fault::FaultSpec> sharedModelFaults(std::size_t minFaults)
{
    const duts::DigitalDutTestbench probe;
    const auto& hooks = probe.sim().digital().instrumentation().all();
    const std::vector<std::string> sabs = probe.digitalSaboteurNames();
    std::vector<fault::FaultSpec> faults{fault::FaultSpec{}};
    for (int round = 0; faults.size() <= minFaults; ++round) {
        const SimTime t = kMicrosecond + round * 113 * kNanosecond;
        for (const auto& [name, hook] : hooks) {
            faults.emplace_back(fault::BitFlipFault{name, round % hook.width, t});
        }
        for (const std::string& sab : sabs) {
            faults.emplace_back(fault::StuckAtFault{sab, Logic::One, t, 150 * kNanosecond});
            faults.emplace_back(fault::DigitalPulseFault{sab, t + 3 * kNanosecond,
                                                         (1 + round % 4) * 10 * kNanosecond});
        }
        for (int state = 0; state < 4; ++state) {
            faults.emplace_back(
                fault::FsmTransitionFault{"dut/fsm", state, t + state * 21 * kNanosecond});
        }
    }
    faults.emplace_back(fault::StuckAtFault{sabs.front(), Logic::X, 2 * kMicrosecond, 0});
    return faults;
}

// Every word group of a campaign simulates the one model the backend compiled
// once, FSM callables included, on as many threads as the campaign has
// workers. Three or more groups at four workers must journal what one worker
// does and what the event kernel does; at one worker the campaign builds only
// the golden testbench, the word model's one build and a testbench for the
// event kernel's fallback.
TEST(BatchSharedModel, GroupsAcrossWorkersMatchEventDriven)
{
    const std::vector<fault::FaultSpec> faults = sharedModelFaults(2 * 63 + 1);
    auto builds = std::make_shared<std::atomic<int>>(0);
    const auto factory = [builds] {
        builds->fetch_add(1, std::memory_order_relaxed);
        return std::make_unique<duts::DigitalDutTestbench>();
    };
    const auto backend = [](unsigned workers, bool batch) {
        return [workers, batch](CampaignRunner& r) {
            r.setWorkers(workers);
            r.setBatchBackend(batch);
            r.setFaultCollapsing(false);
        };
    };
    const CampaignOutput event =
        test::runCampaign(factory, faults, "batch_shared_event", backend(4, false));
    builds->store(0);
    const CampaignOutput serial =
        test::runCampaign(factory, faults, "batch_shared_w1", backend(1, true));
    const int serialBuilds = builds->load();
    const CampaignOutput parallel =
        test::runCampaign(factory, faults, "batch_shared_w4", backend(4, true));

    const std::size_t lanes = countOccurrences(serial.journal, "\"batch_lane\"");
    EXPECT_EQ(lanes, faults.size() - 2) << "only the stuck-at-X may fall back";
    EXPECT_GE(lanes, 2 * 63 + 1u) << "fewer than three word groups";
    EXPECT_EQ(parallel.journal, serial.journal);
    EXPECT_EQ(test::stripBatchLane(serial.journal), event.journal);
    EXPECT_EQ(serial.summary, event.summary);
    EXPECT_EQ(serialBuilds, 3) << "golden, the word model's build, one kernel fallback";
}

// ---------------------------------------------------------------------------
// The golden cross-check

/// A DigitalDut testbench run to its end, with @p fault armed when given,
/// and the reference a campaign hands the backend from it: the wave count
/// and the end-of-run value of every observed state hook.
struct ReferenceRun {
    std::unique_ptr<duts::DigitalDutTestbench> tb = std::make_unique<duts::DigitalDutTestbench>();
    std::map<std::string, std::uint64_t> state;
    std::uint64_t waves = 0;

    explicit ReferenceRun(const fault::FaultSpec* fault = nullptr)
    {
        if (fault != nullptr) {
            fault::armFault(*tb, *fault);
        }
        tb->run();
        for (const std::string& name : tb->observedState()) {
            state[name] = tb->sim().digital().instrumentation().hook(name).get();
        }
        waves = tb->sim().digital().scheduler().deltaCycles();
    }
};

// Lanes are classified only once lane 0 has replayed the golden run. A
// reference that lane 0 cannot match in one clause of the check (the wave
// count, an observed trace, an end-of-run hook value) must send every
// candidate of every group back to the event kernel with the cross-check
// reason, and classify none.
TEST(BatchCrossCheck, EachBrokenClauseFallsBackEveryGroup)
{
    std::vector<fault::FaultSpec> faults = sharedModelFaults(63 + 1);
    faults.pop_back(); // the stuck-at-X falls back for its own reason
    const fault::TestbenchFactory factory = [] {
        return std::make_unique<duts::DigitalDutTestbench>();
    };
    const ReferenceRun golden;
    ASSERT_FALSE(golden.state.empty());
    const fault::FaultSpec stuck =
        fault::StuckAtFault{"sab/enable", Logic::Zero, kMicrosecond, 0};
    const ReferenceRun faulty(&stuck);

    batch::BatchRequest intact;
    intact.factory = &factory;
    intact.golden = golden.tb.get();
    intact.goldenState = &golden.state;
    intact.goldenWaves = golden.waves;
    intact.faults = &faults;
    for (std::size_t i = 1; i < faults.size(); ++i) {
        intact.candidates.push_back(i);
    }
    intact.workers = 2;
    const std::size_t groups = (intact.candidates.size() + 62) / 63;
    ASSERT_GE(groups, 2u);
    {
        std::map<std::size_t, RunResult> out;
        const batch::BatchStats stats = batch::runBatchedCampaign(intact, out);
        ASSERT_EQ(out.size(), intact.candidates.size()) << "the intact reference must batch";
        ASSERT_EQ(stats.groups, groups);
        ASSERT_EQ(stats.crossCheckFailures, 0u);
    }

    batch::BatchRequest offByOne = intact;
    offByOne.goldenWaves = golden.waves + 1;
    batch::BatchRequest wrongTraces = intact;
    wrongTraces.golden = faulty.tb.get();
    bool tracesDiffer = false;
    for (const std::string& name : golden.tb->observedDigital()) {
        tracesDiffer = tracesDiffer ||
                       !trace::compareDigital(golden.tb->recorder().digitalTrace(name),
                                              faulty.tb->recorder().digitalTrace(name),
                                              golden.tb->duration())
                            .identical();
    }
    ASSERT_TRUE(tracesDiffer) << fault::describe(stuck) << " leaves the outputs golden";
    std::map<std::string, std::uint64_t> flippedState = golden.state;
    flippedState.begin()->second ^= 1;
    batch::BatchRequest wrongState = intact;
    wrongState.goldenState = &flippedState;

    const std::pair<const char*, const batch::BatchRequest*> broken[] = {
        {"goldenWaves off by one", &offByOne},
        {"golden traces of a faulty run", &wrongTraces},
        {"one golden state value flipped", &wrongState},
    };
    for (const auto& [what, req] : broken) {
        SCOPED_TRACE(what);
        std::map<std::size_t, RunResult> out;
        const batch::BatchStats stats = batch::runBatchedCampaign(*req, out);
        EXPECT_TRUE(out.empty());
        EXPECT_EQ(stats.batched, 0u);
        EXPECT_EQ(stats.groups, groups);
        EXPECT_EQ(stats.crossCheckFailures, stats.groups);
        ASSERT_EQ(stats.fallbacks.size(), req->candidates.size());
        for (std::size_t c = 0; c < stats.fallbacks.size(); ++c) {
            EXPECT_EQ(stats.fallbacks[c].first, req->candidates[c]);
            EXPECT_NE(stats.fallbacks[c].second.find("golden cross-check mismatch"),
                      std::string::npos)
                << stats.fallbacks[c].second;
        }
    }
}

// ---------------------------------------------------------------------------
// Word-model compile + eligibility unit checks

TEST(BatchWordModel, DigitalDutCompilesAndClassifiesEligibility)
{
    const duts::DigitalDutTestbench probe;
    const batch::CompileResult compiled = batch::compileWordModel(probe);
    ASSERT_NE(compiled.model, nullptr) << compiled.reason;
    const SimTime t = 2 * kMicrosecond;
    const auto eligible = [&](const fault::FaultSpec& f) {
        return batch::faultEligibility(*compiled.model, f);
    };
    EXPECT_TRUE(eligible(fault::StuckAtFault{"sab/enable", Logic::One, t, 0}).eligible);
    EXPECT_TRUE(eligible(fault::BitFlipFault{"dut/cnt", 0, t}).eligible);
    EXPECT_TRUE(eligible(fault::FsmTransitionFault{"dut/fsm", 2, t}).eligible);
    EXPECT_TRUE(eligible(fault::DigitalPulseFault{"sab/enable", t, 25 * kNanosecond}).eligible);
    const auto pulse = eligible(fault::DigitalPulseFault{"no/such", t, 25 * kNanosecond});
    EXPECT_FALSE(pulse.eligible);
    EXPECT_FALSE(pulse.reason.empty());
    const auto stuckX = eligible(fault::StuckAtFault{"sab/enable", Logic::X, t, 0});
    EXPECT_FALSE(stuckX.eligible);
    const auto unknown = eligible(fault::BitFlipFault{"no/such", 0, t});
    EXPECT_FALSE(unknown.eligible);
}

// armFault's precondition is faultEligibility: a fault that cannot ride a
// lane throws, naming the fault, instead of leaving its lane golden.
TEST(BatchWordModel, ArmFaultRejectsIneligibleFaults)
{
    const duts::DigitalDutTestbench probe;
    const batch::CompileResult compiled = batch::compileWordModel(probe);
    ASSERT_NE(compiled.model, nullptr) << compiled.reason;
    const SimTime t = 2 * kMicrosecond;
    const fault::FaultSpec ineligible[] = {
        fault::StuckAtFault{"sab/enable", Logic::X, t, 0},
        fault::StuckAtFault{"no/such", Logic::One, t, 0},
        fault::CurrentPulseFault{"sab/enable", 2e-6, nullptr},
    };
    for (const fault::FaultSpec& f : ineligible) {
        ASSERT_FALSE(batch::faultEligibility(*compiled.model, f).eligible);
        batch::WordSim sim(*compiled.model);
        try {
            sim.armFault(1, f);
            ADD_FAILURE() << fault::describe(f) << " was armed";
        } catch (const std::logic_error& e) {
            EXPECT_NE(std::string(e.what()).find(fault::describe(f)), std::string::npos)
                << e.what();
        }
    }
}

// CpuSystem overrides run() and registers components (TinyCpu, Ram) outside
// the word library: the whole design is ineligible, with a reason.
TEST(BatchWordModel, CpuSystemIsDesignIneligible)
{
    const duts::CpuSystemTestbench probe;
    const batch::CompileResult compiled = batch::compileWordModel(probe);
    EXPECT_EQ(compiled.model, nullptr);
    EXPECT_FALSE(compiled.reason.empty());
}

} // namespace
} // namespace gfi::campaign
