#include "batch/backend.hpp"

#include "batch/word_sim.hpp"
#include "core/executor.hpp"
#include "trace/trace.hpp"

#include <algorithm>
#include <array>
#include <chrono>

namespace gfi::batch {

namespace {

/// Faults per word simulation: 63 (lane 0 carries the golden circuit).
constexpr std::size_t kLanesPerGroup = 63;

/// A digital trace collapsed to settled values: one entry per event time
/// point, carrying the last value recorded at that time. This is exactly what
/// the word kernel records per lane (glitches within one time point settle
/// before the flush), so collapsed scalar traces and word traces compare
/// elementwise.
struct CollapsedTrace {
    bool twoValued = true;
    bool initial = false;
    std::vector<std::pair<SimTime, bool>> events;
};

CollapsedTrace collapse(const trace::DigitalTrace& t)
{
    CollapsedTrace c;
    if (t.initial != digital::Logic::Zero && t.initial != digital::Logic::One) {
        c.twoValued = false;
        return c;
    }
    c.initial = t.initial == digital::Logic::One;
    for (const auto& [time, value] : t.events) {
        if (value != digital::Logic::Zero && value != digital::Logic::One) {
            c.twoValued = false;
            return c;
        }
        const bool bit = value == digital::Logic::One;
        if (!c.events.empty() && c.events.back().first == time) {
            c.events.back().second = bit; // same-time glitch: keep the settled value
        } else {
            c.events.emplace_back(time, bit);
        }
    }
    return c;
}

/// True when lane 0 of @p sim replayed the golden run exactly: same settled
/// trace on every observed signal, same wave count, same end-of-run state in
/// every observed hook. Any mismatch means the word compilation missed a
/// semantic detail of this particular design, and the whole group must fall
/// back to the event-driven kernel rather than emit unsound verdicts.
bool goldenCrossCheck(const WordSim& sim, const WordModel& model, const BatchRequest& req)
{
    if (sim.waveCount(0) != req.goldenWaves) {
        return false;
    }
    const std::vector<std::string>& observed = req.golden->observedDigital();
    for (std::size_t k = 0; k < observed.size(); ++k) {
        const CollapsedTrace g =
            collapse(req.golden->recorder().digitalTrace(observed[k]));
        if (!g.twoValued) {
            return false;
        }
        const trace::DigitalTrace lane0 = laneTrace(sim, static_cast<int>(k), 0, observed[k]);
        if ((lane0.initial == digital::Logic::One) != g.initial ||
            lane0.events.size() != g.events.size()) {
            return false;
        }
        for (std::size_t e = 0; e < g.events.size(); ++e) {
            if (lane0.events[e].first != g.events[e].first ||
                (lane0.events[e].second == digital::Logic::One) != g.events[e].second) {
                return false;
            }
        }
    }
    for (const std::string& name : req.golden->observedState()) {
        const auto hook = model.hooks.find(name);
        const auto gold = req.goldenState->find(name);
        if (hook == model.hooks.end() || gold == req.goldenState->end() ||
            sim.hookValue(hook->second, 0) != gold->second) {
            return false;
        }
    }
    return true;
}

/// One word-simulation group's outcome: every member classified, or every
/// member fallen back for one reason.
struct GroupOutcome {
    std::map<std::size_t, campaign::RunResult> results;
    std::string fallback; ///< why the whole group fell back; empty when classified
    bool ran = false;
    bool crossCheckFailed = false;
};

GroupOutcome runGroup(const BatchRequest& req, const WordModel& model,
                      const std::vector<std::size_t>& members, const std::vector<char>& need)
{
    GroupOutcome out;
    const auto started = std::chrono::steady_clock::now();
    WordSim sim(model);
    for (std::size_t pos = 0; pos < members.size(); ++pos) {
        sim.armFault(static_cast<int>(pos) + 1, (*req.faults)[members[pos]]);
    }
    if (!sim.run()) {
        out.fallback = "delta-cycle runaway in the word kernel";
        return out;
    }
    out.ran = true;

    if (!goldenCrossCheck(sim, model, req)) {
        out.crossCheckFailed = true;
        out.fallback = "golden cross-check mismatch (word kernel diverged from "
                       "the event-driven golden run)";
        return out;
    }

    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - started).count();
    // Each lane is classified by the campaign's verdict rule: its word-level
    // diffs (moved in) and hook values are its Observation (eligible designs
    // observe no analog nodes, and the cross-check has found every observed
    // hook), and the resource fields are the word kernel's.
    const std::vector<std::string>& observed = req.golden->observedDigital();
    std::vector<trace::DigitalDiff> diffs =
        laneDiffs(sim, observed.size(), members.size(), model.duration,
                  req.tolerance.digitalJitter);
    std::vector<const WordHook*> stateHooks;
    for (const std::string& name : req.golden->observedState()) {
        stateHooks.push_back(&model.hooks.at(name));
    }
    campaign::Observation run;
    run.duration = model.duration;
    for (std::size_t pos = 0; pos < members.size(); ++pos) {
        const std::size_t idx = members[pos];
        if (need[pos] == 0) {
            continue; // restored from a journal: no result wanted
        }
        const int lane = static_cast<int>(pos) + 1;
        run.digital.clear();
        for (std::size_t k = 0; k < observed.size(); ++k) {
            run.digital.push_back(std::move(diffs[pos * observed.size() + k]));
        }
        run.state.clear();
        for (const WordHook* hook : stateHooks) {
            run.state.push_back(sim.hookValue(*hook, lane));
        }
        campaign::RunResult r =
            campaign::classifyObservation(run, *req.golden, *req.goldenState, (*req.faults)[idx]);
        r.diagnostics.digitalWaves = sim.waveCount(lane);
        r.diagnostics.analogSteps = req.goldenAnalogSteps;
        r.diagnostics.batchLane = lane;
        r.diagnostics.wallSeconds = req.recordTiming ? elapsed : 0.0;
        out.results.emplace(idx, std::move(r));
    }
    return out;
}

} // namespace

BatchStats runBatchedCampaign(const BatchRequest& req,
                              std::map<std::size_t, campaign::RunResult>& out)
{
    BatchStats stats;

    // Scout pass: compile once to decide design eligibility, then vet each
    // candidate fault against the compiled netlist. Every group simulates
    // this one model; it is read-only once compiled.
    const std::unique_ptr<fault::Testbench> scout = (*req.factory)();
    const CompileResult compiled = compileWordModel(*scout);
    if (!compiled.model) {
        stats.designReason = compiled.reason;
        return stats;
    }
    stats.designEligible = true;
    const WordModel& model = *compiled.model;

    std::vector<std::size_t> eligible;     // candidate positions, ascending
    for (std::size_t c = 0; c < req.candidates.size(); ++c) {
        const std::size_t idx = req.candidates[c];
        const FaultEligibility e = faultEligibility(model, (*req.faults)[idx]);
        if (e.eligible) {
            eligible.push_back(c);
        } else {
            stats.fallbacks.emplace_back(idx, e.reason);
        }
    }

    // Fixed-size grouping over the eligible candidates (restoration-blind,
    // so lanes are resume-invariant); a group only runs when at least one
    // member still needs a result.
    struct Group {
        std::vector<std::size_t> members; ///< fault-list indices, lane = pos+1
        std::vector<char> need;           ///< per member: emit a result
        bool needed = false;
    };
    std::vector<Group> groups;
    for (std::size_t at = 0; at < eligible.size(); at += kLanesPerGroup) {
        Group g;
        const std::size_t end = std::min(at + kLanesPerGroup, eligible.size());
        for (std::size_t e = at; e < end; ++e) {
            const std::size_t c = eligible[e];
            const bool need = req.needSim.empty() || req.needSim[c] != 0;
            g.members.push_back(req.candidates[c]);
            g.need.push_back(need ? 1 : 0);
            g.needed = g.needed || need;
        }
        groups.push_back(std::move(g));
    }

    std::vector<const Group*> toRun;
    for (const Group& g : groups) {
        if (g.needed) {
            toRun.push_back(&g);
        }
    }

    // Groups are independent word simulations; commits merge in group order
    // so stats and the result map are deterministic at any worker width.
    core::Executor exec(req.workers);
    exec.forEachOrdered(toRun.size(), [&](std::size_t g) -> core::CommitFn {
        const Group& group = *toRun[g];
        GroupOutcome outcome = runGroup(req, model, group.members, group.need);
        return [&stats, &out, &group, outcome = std::move(outcome)]() mutable {
            if (outcome.ran) {
                ++stats.groups;
            }
            if (outcome.crossCheckFailed) {
                ++stats.crossCheckFailures;
            }
            stats.batched += outcome.results.size();
            for (auto& [idx, r] : outcome.results) {
                out.emplace(idx, std::move(r));
            }
            if (!outcome.fallback.empty()) {
                for (const std::size_t idx : group.members) {
                    stats.fallbacks.emplace_back(idx, outcome.fallback);
                }
            }
        };
    });

    std::sort(stats.fallbacks.begin(), stats.fallbacks.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    return stats;
}

trace::DigitalTrace laneTrace(const WordSim& sim, int obs, int lane,
                              const std::string& name)
{
    trace::DigitalTrace t;
    t.name = name;
    t.initial = sim.initialBit(obs) ? digital::Logic::One : digital::Logic::Zero;
    const std::uint64_t laneBit = 1ull << lane;
    for (const TracePoint& p : sim.points(obs)) {
        if ((p.changed & laneBit) != 0) {
            t.events.emplace_back(p.time, (p.value & laneBit) != 0
                                              ? digital::Logic::One
                                              : digital::Logic::Zero);
        }
    }
    return t;
}

std::vector<trace::DigitalDiff> laneDiffs(const WordSim& sim, std::size_t observed,
                                          std::size_t lanes, SimTime duration,
                                          SimTime jitter)
{
    std::vector<trace::DigitalDiff> diffs(lanes * observed);
    const std::uint64_t faulty = ((2ull << lanes) - 1) & ~1ull; // lanes 1..lanes
    std::array<SimTime, 64> opened{};
    for (std::size_t k = 0; k < observed; ++k) {
        const auto windows = [&](std::uint64_t lane) -> auto& {
            return diffs[(lane - 1) * observed + k].mismatchWindows;
        };
        std::uint64_t open = 0;
        for (const TracePoint& p : sim.points(static_cast<int>(k))) {
            const std::uint64_t golden = (p.value & 1) != 0 ? kAllLanes : 0;
            const std::uint64_t mismatch = (p.value ^ golden) & faulty;
            for (std::uint64_t w = mismatch & ~open; w != 0; w &= w - 1) {
                opened[static_cast<std::size_t>(__builtin_ctzll(w))] = p.time;
            }
            for (std::uint64_t w = open & ~mismatch; w != 0; w &= w - 1) {
                const auto lane = static_cast<std::uint64_t>(__builtin_ctzll(w));
                windows(lane).emplace_back(opened[lane], p.time);
            }
            open = mismatch;
        }
        for (std::uint64_t w = open; w != 0; w &= w - 1) {
            const auto lane = static_cast<std::uint64_t>(__builtin_ctzll(w));
            windows(lane).emplace_back(opened[lane], duration);
        }
    }
    for (trace::DigitalDiff& d : diffs) {
        d = trace::summarizeMismatch(std::move(d.mismatchWindows), jitter);
    }
    return diffs;
}

} // namespace gfi::batch
