// Tests for trace capture, tolerant comparison and clock metrics.

#include "trace/compare.hpp"
#include "trace/metrics.hpp"

#include "analog/passive.hpp"
#include "analog/sources.hpp"
#include "digital/sequential.hpp"
#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace gfi::trace {
namespace {

using digital::Logic;

DigitalTrace makeTrace(Logic initial, std::vector<std::pair<SimTime, Logic>> events)
{
    DigitalTrace t;
    t.name = "t";
    t.initial = initial;
    t.events = std::move(events);
    return t;
}

TEST(DigitalTraceTest, ValueAtWalksEvents)
{
    const auto t = makeTrace(Logic::Zero, {{10, Logic::One}, {20, Logic::Zero}});
    EXPECT_EQ(t.valueAt(5), Logic::Zero);
    EXPECT_EQ(t.valueAt(10), Logic::One);
    EXPECT_EQ(t.valueAt(15), Logic::One);
    EXPECT_EQ(t.valueAt(25), Logic::Zero);
}

TEST(DigitalTraceTest, RisingEdges)
{
    const auto t = makeTrace(Logic::Zero, {{10, Logic::One},
                                           {20, Logic::Zero},
                                           {30, Logic::One},
                                           {40, Logic::X},
                                           {50, Logic::One}});
    const auto edges = t.risingEdges();
    ASSERT_EQ(edges.size(), 2u); // X -> 1 is not a clean rising edge
    EXPECT_EQ(edges[0], 10);
    EXPECT_EQ(edges[1], 30);
}

TEST(AnalogTraceTest, LinearInterpolation)
{
    AnalogTrace t;
    t.samples = {{0.0, 0.0}, {1.0, 2.0}, {2.0, 0.0}};
    EXPECT_DOUBLE_EQ(t.valueAt(0.5), 1.0);
    EXPECT_DOUBLE_EQ(t.valueAt(1.5), 1.0);
    EXPECT_DOUBLE_EQ(t.valueAt(-1.0), 0.0); // clamped
    EXPECT_DOUBLE_EQ(t.valueAt(5.0), 0.0);
    const auto [lo, hi] = t.minmax();
    EXPECT_DOUBLE_EQ(lo, 0.0);
    EXPECT_DOUBLE_EQ(hi, 2.0);
}

TEST(CompareDigitalTest, IdenticalTraces)
{
    const auto a = makeTrace(Logic::Zero, {{10, Logic::One}});
    const auto diff = compareDigital(a, a, 100);
    EXPECT_TRUE(diff.identical());
    EXPECT_EQ(diff.totalMismatch, 0);
    EXPECT_TRUE(diff.matchesAt(100));
}

TEST(CompareDigitalTest, TransientMismatchWindow)
{
    const auto golden = makeTrace(Logic::Zero, {{10, Logic::One}});
    const auto faulty = makeTrace(Logic::Zero, {{10, Logic::One},
                                                {30, Logic::Zero}, // glitch
                                                {40, Logic::One}});
    const auto diff = compareDigital(golden, faulty, 100);
    ASSERT_EQ(diff.mismatchWindows.size(), 1u);
    EXPECT_EQ(diff.firstMismatch, 30);
    EXPECT_EQ(diff.mismatchWindows[0].second, 40);
    EXPECT_EQ(diff.totalMismatch, 10);
    EXPECT_TRUE(diff.matchesAt(100)); // recovered
}

TEST(CompareDigitalTest, PermanentMismatch)
{
    const auto golden = makeTrace(Logic::Zero, {});
    const auto faulty = makeTrace(Logic::Zero, {{50, Logic::One}});
    const auto diff = compareDigital(golden, faulty, 100);
    ASSERT_EQ(diff.mismatchWindows.size(), 1u);
    EXPECT_FALSE(diff.matchesAt(100));
    EXPECT_EQ(diff.totalMismatch, 50);
}

TEST(CompareDigitalTest, WeakValuesNormalized)
{
    // 'H' vs '1' must not count as a mismatch (to_x01 normalization).
    const auto golden = makeTrace(Logic::One, {});
    const auto faulty = makeTrace(Logic::H, {});
    EXPECT_TRUE(compareDigital(golden, faulty, 100).identical());
}

/// Sort-based reference for compareDigital: the union of {0, tEnd} and both
/// event timelines, sorted and deduplicated, each point evaluated with
/// valueAt. Windows and the minWindow filter follow the documented contract.
DigitalDiff referenceCompareDigital(const DigitalTrace& golden, const DigitalTrace& test,
                                    SimTime tEnd, SimTime minWindow)
{
    std::vector<SimTime> times{0, tEnd};
    for (const auto& [t, v] : golden.events) {
        times.push_back(t);
    }
    for (const auto& [t, v] : test.events) {
        times.push_back(t);
    }
    std::sort(times.begin(), times.end());
    times.erase(std::unique(times.begin(), times.end()), times.end());
    DigitalDiff diff;
    bool inMismatch = false;
    SimTime windowStart = 0;
    for (const SimTime t : times) {
        if (t > tEnd) {
            break;
        }
        const bool differs =
            digital::toX01(golden.valueAt(t)) != digital::toX01(test.valueAt(t));
        if (differs && !inMismatch) {
            inMismatch = true;
            windowStart = t;
        } else if (!differs && inMismatch) {
            inMismatch = false;
            diff.mismatchWindows.emplace_back(windowStart, t);
        }
    }
    if (inMismatch) {
        diff.mismatchWindows.emplace_back(windowStart, tEnd);
    }
    std::erase_if(diff.mismatchWindows, [&](const std::pair<SimTime, SimTime>& w) {
        return minWindow > 0 && w.second - w.first < minWindow;
    });
    if (!diff.mismatchWindows.empty()) {
        diff.firstMismatch = diff.mismatchWindows.front().first;
        diff.lastMismatchEnd = diff.mismatchWindows.back().second;
        for (const auto& [a, b] : diff.mismatchWindows) {
            diff.totalMismatch += b - a;
        }
    }
    return diff;
}

/// A time-ordered random trace on a coarse grid (so timestamps collide
/// within and across traces), some events past @p horizon.
DigitalTrace randomTrace(Rng& rng, SimTime horizon)
{
    static constexpr Logic kValues[] = {Logic::Zero, Logic::One, Logic::X, Logic::H, Logic::L};
    DigitalTrace t = makeTrace(kValues[rng.below(5)], {});
    const std::uint64_t count = rng.below(4) == 0 ? 0 : rng.below(40);
    SimTime now = 0;
    for (std::uint64_t i = 0; i < count; ++i) {
        now += static_cast<SimTime>(rng.below(3)) * (horizon / 16); // 0 = same timestamp
        t.events.emplace_back(now, kValues[rng.below(5)]);
    }
    return t;
}

TEST(CompareDigitalTest, LinearMergeMatchesSortReference)
{
    Rng rng(20261017);
    constexpr SimTime kHorizon = 1600;
    for (int round = 0; round < 2000; ++round) {
        const DigitalTrace golden = randomTrace(rng, kHorizon);
        const DigitalTrace test = rng.below(4) == 0 ? golden : randomTrace(rng, kHorizon);
        // tEnd on and off the event grid, including 0 and a point before
        // the last events of both traces.
        const SimTime tEnd = static_cast<SimTime>(rng.below(2 * kHorizon / 100)) * 100 +
                             static_cast<SimTime>(rng.below(2)) * 50;
        const SimTime minWindow = static_cast<SimTime>(rng.below(3)) * 100;
        const DigitalDiff got = compareDigital(golden, test, tEnd, minWindow);
        const DigitalDiff want = referenceCompareDigital(golden, test, tEnd, minWindow);
        SCOPED_TRACE("round " + std::to_string(round));
        ASSERT_EQ(got.mismatchWindows, want.mismatchWindows);
        EXPECT_EQ(got.firstMismatch, want.firstMismatch);
        EXPECT_EQ(got.lastMismatchEnd, want.lastMismatchEnd);
        EXPECT_EQ(got.totalMismatch, want.totalMismatch);
    }
}

/// Golden's first @p shared events followed by @p suffix, from golden's
/// initial value: the whole trace of a run forked after them.
DigitalTrace concatenated(const DigitalTrace& golden, std::size_t shared,
                          const DigitalTrace& suffix)
{
    DigitalTrace full = makeTrace(golden.initial, {});
    full.events.assign(golden.events.begin(),
                       golden.events.begin() + static_cast<std::ptrdiff_t>(shared));
    full.events.insert(full.events.end(), suffix.events.begin(), suffix.events.end());
    return full;
}

void expectSameDigitalDiff(const DigitalDiff& got, const DigitalDiff& want)
{
    ASSERT_EQ(got.mismatchWindows, want.mismatchWindows);
    EXPECT_EQ(got.firstMismatch, want.firstMismatch);
    EXPECT_EQ(got.lastMismatchEnd, want.lastMismatchEnd);
    EXPECT_EQ(got.totalMismatch, want.totalMismatch);
}

TEST(CompareDigitalTest, SharedPrefixMatchesFullTrace)
{
    static constexpr Logic kValues[] = {Logic::Zero, Logic::One, Logic::X, Logic::H, Logic::L};
    Rng rng(20261019);
    constexpr SimTime kHorizon = 1600;
    for (int round = 0; round < 400; ++round) {
        const DigitalTrace golden = randomTrace(rng, kHorizon);
        const SimTime tEnd = static_cast<SimTime>(rng.below(2 * kHorizon / 100)) * 100 +
                             static_cast<SimTime>(rng.below(2)) * 50;
        const SimTime minWindow = static_cast<SimTime>(rng.below(3)) * 100;
        for (std::size_t shared = 0; shared <= golden.events.size(); ++shared) {
            // The forked run's own events: golden's tail, golden's tail with
            // some values changed, an independent run, or nothing. They start
            // at the last shared event's time or later, so equal timestamps
            // meet at the boundary. The stored initial value is arbitrary: a
            // fork reads golden's.
            DigitalTrace suffix = makeTrace(kValues[rng.below(5)], {});
            const std::uint64_t kind = rng.below(4);
            if (kind <= 1) {
                suffix.events.assign(golden.events.begin() + static_cast<std::ptrdiff_t>(shared),
                                     golden.events.end());
                for (auto& [t, v] : suffix.events) {
                    if (kind == 1 && rng.below(3) == 0) {
                        v = kValues[rng.below(5)];
                    }
                }
            } else if (kind == 2) {
                SimTime now = shared > 0 ? golden.events[shared - 1].first : 0;
                const std::uint64_t count = rng.below(12);
                for (std::uint64_t i = 0; i < count; ++i) {
                    now += static_cast<SimTime>(rng.below(3)) * (kHorizon / 16);
                    suffix.events.emplace_back(now, kValues[rng.below(5)]);
                }
            }
            const DigitalTrace full = concatenated(golden, shared, suffix);
            SCOPED_TRACE("round " + std::to_string(round) + " shared " + std::to_string(shared));
            expectSameDigitalDiff(compareDigital(golden, suffix, tEnd, minWindow, shared),
                                  referenceCompareDigital(golden, full, tEnd, minWindow));
        }
    }
}

TEST(CompareDigitalTest, SharedPrefixEdgeCases)
{
    const auto golden = makeTrace(Logic::Zero, {{100, Logic::One}, {200, Logic::Zero}});

    // A fork with nothing shared still starts from golden's initial value;
    // the stored one is not read.
    const auto onlyInitial = makeTrace(Logic::One, {});
    EXPECT_TRUE(compareDigital(makeTrace(Logic::Zero, {}), onlyInitial, 300, 0, 0).identical());
    EXPECT_FALSE(compareDigital(makeTrace(Logic::Zero, {}), onlyInitial, 300).identical());

    // Forked after both golden events: a 10 fs glitch opens at the suffix's
    // first event. The jitter window drops it by its own width and never
    // reaches back into the shared prefix.
    const auto glitch = makeTrace(Logic::U, {{250, Logic::One}, {260, Logic::Zero}});
    const DigitalDiff raw = compareDigital(golden, glitch, 1000, 0, 2);
    ASSERT_EQ(raw.mismatchWindows.size(), 1u);
    EXPECT_EQ(raw.mismatchWindows[0], (std::pair<SimTime, SimTime>{250, 260}));
    EXPECT_TRUE(compareDigital(golden, glitch, 1000, 11, 2).identical());
    expectSameDigitalDiff(compareDigital(golden, glitch, 1000, 10, 2),
                          referenceCompareDigital(golden, concatenated(golden, 2, glitch), 1000,
                                                  10));

    // The same glitch at the boundary instant itself (equal timestamps).
    const auto atBoundary = makeTrace(Logic::U, {{200, Logic::One}, {205, Logic::Zero}});
    EXPECT_EQ(compareDigital(golden, atBoundary, 1000, 0, 2).mismatchWindows,
              (std::vector<std::pair<SimTime, SimTime>>{{200, 205}}));
    EXPECT_TRUE(compareDigital(golden, atBoundary, 1000, 6, 2).identical());

    // A sub-window mismatch straddling tEnd: cut to [995, 1000), dropped by
    // a 6 fs window, kept (and not recovered) without one.
    const auto late = makeTrace(Logic::U, {{995, Logic::One}, {1003, Logic::Zero}});
    const DigitalDiff cut = compareDigital(golden, late, 1000, 0, 2);
    EXPECT_EQ(cut.mismatchWindows, (std::vector<std::pair<SimTime, SimTime>>{{995, 1000}}));
    EXPECT_FALSE(cut.matchesAt(1000));
    EXPECT_TRUE(compareDigital(golden, late, 1000, 6, 2).identical());
    for (const SimTime minWindow : {SimTime{0}, SimTime{5}, SimTime{6}}) {
        expectSameDigitalDiff(compareDigital(golden, late, 1000, minWindow, 2),
                              referenceCompareDigital(golden, concatenated(golden, 2, late), 1000,
                                                      minWindow));
    }
}

TEST(CompareDigitalTest, EmptyTraces)
{
    const auto zero = makeTrace(Logic::Zero, {});
    const auto one = makeTrace(Logic::One, {});
    EXPECT_TRUE(compareDigital(zero, zero, 100).identical());
    const DigitalDiff diff = compareDigital(zero, one, 100);
    ASSERT_EQ(diff.mismatchWindows.size(), 1u);
    EXPECT_EQ(diff.mismatchWindows[0], (std::pair<SimTime, SimTime>{0, 100}));
    EXPECT_EQ(compareDigital(zero, one, 0).mismatchWindows,
              referenceCompareDigital(zero, one, 0, 0).mismatchWindows);
}

TEST(CompareAnalogTest, WithinTolerance)
{
    AnalogTrace g;
    AnalogTrace f;
    for (int i = 0; i <= 10; ++i) {
        g.samples.emplace_back(i * 1e-6, 1.0);
        f.samples.emplace_back(i * 1e-6, 1.0 + 0.5e-3);
    }
    const auto diff = compareAnalog(g, f, 1e-3);
    EXPECT_TRUE(diff.withinTolerance());
    EXPECT_NEAR(diff.maxDeviation, 0.5e-3, 1e-9);
}

TEST(CompareAnalogTest, TransientExcursion)
{
    AnalogTrace g;
    AnalogTrace f;
    for (int i = 0; i <= 100; ++i) {
        const double t = i * 1e-6;
        g.samples.emplace_back(t, 1.0);
        // 20 mV bump between 40 and 60 us.
        const double bump = (t > 40e-6 && t < 60e-6) ? 0.02 : 0.0;
        f.samples.emplace_back(t, 1.0 + bump);
    }
    const auto diff = compareAnalog(g, f, 5e-3);
    EXPECT_FALSE(diff.withinTolerance());
    EXPECT_TRUE(diff.withinTolAtEnd);
    EXPECT_NEAR(diff.maxDeviation, 0.02, 1e-9);
    EXPECT_NEAR(diff.firstExceed, 41e-6, 1e-6);
    EXPECT_NEAR(diff.timeOutsideTol, 19e-6, 2e-6);
}

TEST(CompareAnalogTest, RelativeTolerance)
{
    AnalogTrace g;
    AnalogTrace f;
    g.samples = {{0.0, 10.0}, {1.0, 10.0}};
    f.samples = {{0.0, 10.5}, {1.0, 10.5}};
    EXPECT_TRUE(compareAnalog(g, f, 0.0, 0.10).withinTolerance());  // 5 % < 10 %
    EXPECT_FALSE(compareAnalog(g, f, 0.0, 0.01).withinTolerance()); // 5 % > 1 %
}

/// Sort-based reference for compareAnalog: the union of both sample
/// timelines, sorted and deduplicated, each point evaluated with valueAt.
/// Deviation, exceed and outside-tolerance bookkeeping follow the documented
/// contract.
AnalogDiff referenceCompareAnalog(const AnalogTrace& golden, const AnalogTrace& test,
                                  double absTol, double relTol)
{
    std::vector<double> times;
    for (const auto& [t, v] : golden.samples) {
        times.push_back(t);
    }
    for (const auto& [t, v] : test.samples) {
        times.push_back(t);
    }
    std::sort(times.begin(), times.end());
    times.erase(std::unique(times.begin(), times.end()), times.end());
    AnalogDiff diff;
    bool outside = false;
    double outsideStart = 0.0;
    for (const double t : times) {
        const double g = golden.valueAt(t);
        const double dev = std::fabs(test.valueAt(t) - g);
        if (dev > diff.maxDeviation) {
            diff.maxDeviation = dev;
            diff.tMaxDeviation = t;
        }
        if (dev > absTol + relTol * std::fabs(g)) {
            if (diff.firstExceed < 0.0) {
                diff.firstExceed = t;
            }
            diff.lastExceed = t;
            if (!outside) {
                outside = true;
                outsideStart = t;
            }
        } else if (outside) {
            outside = false;
            diff.timeOutsideTol += t - outsideStart;
        }
    }
    if (outside) {
        diff.timeOutsideTol += times.back() - outsideStart;
        diff.withinTolAtEnd = false;
    }
    return diff;
}

/// A time-ordered random analog trace on a coarse grid (so timestamps
/// collide within and across traces). Values sit on a few levels around 1 V,
/// some of them anywhere in [-2, 2) V, so deviations land on both sides of
/// the tolerances drawn below.
AnalogTrace randomAnalogTrace(Rng& rng)
{
    AnalogTrace t;
    t.name = "a";
    const std::uint64_t count = rng.below(4) == 0 ? 0 : rng.below(40);
    double now = static_cast<double>(rng.below(3)) * 1e-9;
    for (std::uint64_t i = 0; i < count; ++i) {
        now += static_cast<double>(rng.below(3)) * 1e-9; // 0 = same timestamp
        const double v = rng.below(4) == 0 ? rng.uniform(-2.0, 2.0)
                                           : 1.0 + 1e-3 * static_cast<double>(rng.below(5));
        t.samples.emplace_back(now, v);
    }
    return t;
}

TEST(CompareAnalogTest, CursorMergeMatchesSortReference)
{
    Rng rng(20261018);
    for (int round = 0; round < 4000; ++round) {
        AnalogTrace golden = randomAnalogTrace(rng);
        AnalogTrace test;
        switch (rng.below(4)) {
        case 0: // identical
            test = golden;
            break;
        case 1: // same timeline, some values moved
            test = golden;
            for (auto& [t, v] : test.samples) {
                if (rng.below(3) == 0) {
                    v += 1e-3 * static_cast<double>(rng.below(5)) - 2e-3;
                }
            }
            break;
        case 2: // a strict prefix of golden, in either role
            test = golden;
            test.samples.resize(rng.below(test.samples.size() + 1));
            if (rng.below(2) == 0) {
                std::swap(golden, test);
            }
            break;
        default: // independent
            test = randomAnalogTrace(rng);
            break;
        }
        // Abs-only, rel-only, or both.
        static constexpr double kTols[] = {0.0, 1e-3, 2.5e-3};
        const std::uint64_t mode = rng.below(3);
        const double absTol = mode == 1 ? 0.0 : kTols[rng.below(3)];
        const double relTol = mode == 0 ? 0.0 : kTols[rng.below(3)];
        const AnalogDiff got = compareAnalog(golden, test, absTol, relTol);
        const AnalogDiff want = referenceCompareAnalog(golden, test, absTol, relTol);
        SCOPED_TRACE("round " + std::to_string(round));
        EXPECT_EQ(got.maxDeviation, want.maxDeviation);
        EXPECT_EQ(got.tMaxDeviation, want.tMaxDeviation);
        EXPECT_EQ(got.firstExceed, want.firstExceed);
        EXPECT_EQ(got.lastExceed, want.lastExceed);
        EXPECT_EQ(got.timeOutsideTol, want.timeOutsideTol);
        EXPECT_EQ(got.withinTolAtEnd, want.withinTolAtEnd);
    }
}

TEST(CompareAnalogTest, SharedPrefixMatchesFullTrace)
{
    Rng rng(20261020);
    for (int round = 0; round < 600; ++round) {
        const AnalogTrace golden = randomAnalogTrace(rng);
        static constexpr double kTols[] = {0.0, 1e-3, 2.5e-3};
        const double absTol = kTols[rng.below(3)];
        const double relTol = rng.below(2) == 0 ? 0.0 : kTols[rng.below(3)];
        for (std::size_t shared = 0; shared <= golden.samples.size(); ++shared) {
            // The forked run's own samples: golden's tail, golden's tail with
            // some values moved, an independent run, or nothing. They start
            // at the last shared sample's time or later, so equal timestamps
            // meet at the boundary.
            AnalogTrace suffix;
            const std::uint64_t kind = rng.below(4);
            if (kind <= 1) {
                suffix.samples.assign(
                    golden.samples.begin() + static_cast<std::ptrdiff_t>(shared),
                    golden.samples.end());
                for (auto& [t, v] : suffix.samples) {
                    if (kind == 1 && rng.below(3) == 0) {
                        v += 1e-3 * static_cast<double>(rng.below(5)) - 2e-3;
                    }
                }
            } else if (kind == 2) {
                double now = shared > 0 ? golden.samples[shared - 1].first : 0.0;
                const std::uint64_t count = rng.below(12);
                for (std::uint64_t i = 0; i < count; ++i) {
                    now += static_cast<double>(rng.below(3)) * 1e-9;
                    suffix.samples.emplace_back(now, rng.uniform(-2.0, 2.0));
                }
            }
            AnalogTrace full;
            full.samples.assign(golden.samples.begin(),
                                golden.samples.begin() + static_cast<std::ptrdiff_t>(shared));
            full.samples.insert(full.samples.end(), suffix.samples.begin(),
                                suffix.samples.end());
            const AnalogDiff got = compareAnalog(golden, suffix, absTol, relTol, shared);
            const AnalogDiff want = referenceCompareAnalog(golden, full, absTol, relTol);
            SCOPED_TRACE("round " + std::to_string(round) + " shared " + std::to_string(shared));
            EXPECT_EQ(got.maxDeviation, want.maxDeviation);
            EXPECT_EQ(got.tMaxDeviation, want.tMaxDeviation);
            EXPECT_EQ(got.firstExceed, want.firstExceed);
            EXPECT_EQ(got.lastExceed, want.lastExceed);
            EXPECT_EQ(got.timeOutsideTol, want.timeOutsideTol);
            EXPECT_EQ(got.withinTolAtEnd, want.withinTolAtEnd);
        }
    }
}

TEST(MetricsTest, ExtractPeriods)
{
    const auto clk = makeTrace(Logic::Zero, {{0, Logic::One},
                                             {10, Logic::Zero},
                                             {20, Logic::One},
                                             {30, Logic::Zero},
                                             {42, Logic::One}}); // late edge
    const auto periods = extractPeriods(clk);
    ASSERT_EQ(periods.size(), 2u);
    EXPECT_EQ(periods[0].period, 20);
    EXPECT_EQ(periods[1].period, 22);
}

TEST(MetricsTest, AnalyzeClockCountsPerturbedCycles)
{
    DigitalTrace clk;
    clk.initial = Logic::Zero;
    SimTime t = 0;
    for (int cycle = 0; cycle < 100; ++cycle) {
        // Cycles 40-49 are 2 % long.
        const SimTime period = (cycle >= 40 && cycle < 50) ? 2040 : 2000;
        clk.events.emplace_back(t, Logic::One);
        clk.events.emplace_back(t + period / 2, Logic::Zero);
        t += period;
    }
    const auto result = analyzeClock(clk, 2000, 0.01);
    EXPECT_EQ(result.perturbedCycles, 10);
    EXPECT_NEAR(result.maxRelDeviation, 0.02, 1e-6);
    EXPECT_GT(result.firstPerturbed, 0);
    EXPECT_EQ(result.totalCycles, 99); // n edges -> n-1 periods
}

TEST(MetricsTest, CompareClocksUsesGoldenMedianPeriod)
{
    DigitalTrace golden;
    DigitalTrace faulty;
    golden.initial = faulty.initial = Logic::Zero;
    SimTime tg = 0;
    SimTime tf = 0;
    for (int cycle = 0; cycle < 50; ++cycle) {
        golden.events.emplace_back(tg, Logic::One);
        golden.events.emplace_back(tg + 1000, Logic::Zero);
        tg += 2000;
        const SimTime period = cycle == 25 ? 2100 : 2000;
        faulty.events.emplace_back(tf, Logic::One);
        faulty.events.emplace_back(tf + period / 2, Logic::Zero);
        tf += period;
    }
    const auto result = compareClocks(golden, faulty, 0.01);
    EXPECT_EQ(result.perturbedCycles, 1);
    EXPECT_EQ(result.nominalPeriod, 2000);
}

TEST(MetricsTest, RmsPeriodJitter)
{
    DigitalTrace clk;
    clk.initial = Logic::Zero;
    // Alternating 1900/2100 fs periods around a 2000 fs mean -> RMS = 100 fs.
    SimTime t = 0;
    for (int i = 0; i < 40; ++i) {
        clk.events.emplace_back(t, Logic::One);
        clk.events.emplace_back(t + 500, Logic::Zero);
        t += (i % 2 == 0) ? 1900 : 2100;
    }
    EXPECT_NEAR(rmsPeriodJitter(clk), 100e-15, 5e-15);

    DigitalTrace flat;
    flat.initial = Logic::Zero;
    t = 0;
    for (int i = 0; i < 10; ++i) {
        flat.events.emplace_back(t, Logic::One);
        flat.events.emplace_back(t + 500, Logic::Zero);
        t += 2000;
    }
    EXPECT_NEAR(rmsPeriodJitter(flat), 0.0, 1e-18);
}

TEST(MetricsTest, DutyCycle)
{
    DigitalTrace clk;
    clk.initial = Logic::Zero;
    SimTime t = 0;
    for (int i = 0; i < 20; ++i) {
        clk.events.emplace_back(t, Logic::One);
        clk.events.emplace_back(t + 600, Logic::Zero); // 30 % high
        t += 2000;
    }
    EXPECT_NEAR(dutyCycle(clk), 0.3, 1e-9);

    DigitalTrace empty;
    empty.initial = Logic::Zero;
    EXPECT_DOUBLE_EQ(dutyCycle(empty), -1.0);
}

TEST(RecorderTest, CapturesDigitalAndAnalog)
{
    ams::MixedSimulator sim;
    auto& clk = sim.digital().logicSignal("clk", Logic::Zero);
    sim.digital().add<digital::ClockGen>(sim.digital(), "cg", clk, 100 * kNanosecond);
    const analog::NodeId n = sim.analog().node("ramp");
    auto& vs = sim.analog().add<analog::VoltageSource>(sim.analog(), "vs", n, analog::kGround,
                                                       0.0);
    analog::TimeFunction fn;
    fn.value = [](double t) { return 1e6 * t; }; // 1 V/us ramp
    vs.setFunction(std::move(fn));
    sim.analog().add<analog::Resistor>(sim.analog(), "rl", n, analog::kGround, 1e4);

    Recorder rec(sim);
    rec.recordDigital("clk");
    rec.recordAnalog("ramp");
    sim.run(kMicrosecond);

    const auto& dt = rec.digitalTrace("clk");
    EXPECT_GE(dt.risingEdges().size(), 9u);
    const auto& at = rec.analogTrace("ramp");
    EXPECT_GT(at.samples.size(), 10u);
    EXPECT_NEAR(at.valueAt(0.5e-6), 0.5, 0.01);
    EXPECT_THROW((void)rec.digitalTrace("nope"), std::out_of_range);
}

TEST(WritersTest, CsvAndVcdProduceFiles)
{
    AnalogTrace a;
    a.name = "v1";
    a.samples = {{0.0, 1.0}, {1e-6, 2.0}};
    DigitalTrace d = makeTrace(Logic::Zero, {{10, Logic::One}, {20, Logic::Zero}});
    d.name = "sig";

    writeAnalogCsv("/tmp/gfi_trace.csv", {&a});
    writeVcd("/tmp/gfi_trace.vcd", {&d}, {&a});

    std::FILE* f = std::fopen("/tmp/gfi_trace.vcd", "r");
    ASSERT_NE(f, nullptr);
    char buf[4096];
    const std::size_t n = std::fread(buf, 1, sizeof buf - 1, f);
    buf[n] = '\0';
    std::fclose(f);
    const std::string vcd(buf);
    EXPECT_NE(vcd.find("$var wire 1 ! sig $end"), std::string::npos);
    EXPECT_NE(vcd.find("$var real 64"), std::string::npos);
    EXPECT_NE(vcd.find("#10"), std::string::npos);
}

TEST(WritersTest, VcdIdentifiersStayPrintableAndDistinct)
{
    // 200 variables: past the 94 single-character codes.
    std::vector<DigitalTrace> traces;
    for (int i = 0; i < 200; ++i) {
        traces.push_back(makeTrace(Logic::Zero, {{10 * (i + 1), Logic::One}}));
        traces.back().name = "s" + std::to_string(i);
    }
    std::vector<const DigitalTrace*> ptrs;
    for (const DigitalTrace& t : traces) {
        ptrs.push_back(&t);
    }
    const std::string path = "/tmp/gfi_trace_ids.vcd";
    writeVcd(path, ptrs, {});
    std::FILE* f = std::fopen(path.c_str(), "r");
    ASSERT_NE(f, nullptr);
    std::vector<std::string> ids;
    char line[256];
    while (std::fgets(line, sizeof line, f) != nullptr) {
        char id[16];
        char name[64];
        if (std::sscanf(line, "$var wire 1 %15s %63s $end", id, name) == 2) {
            ids.emplace_back(id);
            EXPECT_EQ(std::string(name), "s" + std::to_string(ids.size() - 1));
        }
    }
    std::fclose(f);
    ASSERT_EQ(ids.size(), 200u);
    EXPECT_EQ(ids[0], "!");
    EXPECT_EQ(ids[93], "~");
    EXPECT_EQ(ids[94], "!!");
    EXPECT_EQ(ids[95], "\"!");
    for (const std::string& id : ids) {
        EXPECT_TRUE(std::all_of(id.begin(), id.end(), [](char c) { return c >= '!' && c <= '~'; }))
            << id;
    }
    std::sort(ids.begin(), ids.end());
    EXPECT_EQ(std::adjacent_find(ids.begin(), ids.end()), ids.end());
}

TEST(WritersTest, VcdBytesForFewTraces)
{
    // Three wires and a real, the layout of the PLL injection example: the
    // single-character codes and every line are as before multi-character
    // codes existed.
    DigitalTrace a = makeTrace(Logic::Zero, {{10, Logic::One}, {20, Logic::H}});
    a.name = "a";
    DigitalTrace b = makeTrace(Logic::U, {{10, Logic::Zero}});
    b.name = "b";
    DigitalTrace c = makeTrace(Logic::One, {{30, Logic::Z}});
    c.name = "c";
    AnalogTrace v;
    v.name = "v";
    v.samples = {{0.0, 0.5}, {20e-15, 1.25}};
    const std::string path = "/tmp/gfi_trace_few.vcd";
    writeVcd(path, {&a, &b, &c}, {&v});
    std::FILE* f = std::fopen(path.c_str(), "r");
    ASSERT_NE(f, nullptr);
    char buf[4096];
    const std::size_t n = std::fread(buf, 1, sizeof buf, f);
    std::fclose(f);
    EXPECT_EQ(std::string(buf, n), "$timescale 1fs $end\n"
                                   "$scope module gfi $end\n"
                                   "$var wire 1 ! a $end\n"
                                   "$var wire 1 \" b $end\n"
                                   "$var wire 1 # c $end\n"
                                   "$var real 64 $ v $end\n"
                                   "$upscope $end\n"
                                   "$enddefinitions $end\n"
                                   "#0\n0!\nU\"\n1#\nr0.5 $\n"
                                   "#10\n1!\n0\"\n"
                                   "#20\n1!\nr1.25 $\n"
                                   "#30\nz#\n");
}

} // namespace
} // namespace gfi::trace
