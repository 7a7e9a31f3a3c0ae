// Snapshot/restore subsystem and fork-from-golden campaign execution.
//
// The contract under test, layer by layer:
//   * serialize: byte-stable primitives, header versioning, truncation safety;
//   * the runner forks from the latest golden checkpoint *strictly before*
//     the injection time and bills its lookups once per campaign;
//   * capture -> restore -> run is bit-identical to an uninterrupted run for
//     the digital DUT, the PLL and the SAR ADC (the resumed traces are the
//     uninterrupted run's tail after the checkpoint; wave counts, solver
//     stats) — the determinism contract of DESIGN.md §9;
//   * fork-from-golden campaigns record their checkpoint bookkeeping, and
//     retries fall back to from-scratch simulation (byte identity with
//     from-scratch campaigns is covered by test_campaign_matrix.cpp);
//   * watchdog budgets meter only post-restore work in fork mode;
//   * PRE006 rejects fork mode when a stateful component is not Snapshottable.

#include "adc/sar.hpp"
#include "ams/convergence.hpp"
#include "core/campaign.hpp"
#include "core/journal.hpp"
#include "digital/gates.hpp"
#include "digital/sequential.hpp"
#include "duts/digital_dut.hpp"
#include "io/ingest.hpp"
#include "lint/lint.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/telemetry.hpp"
#include "pll/pll.hpp"
#include "snapshot/serialize.hpp"
#include "snapshot/snapshot.hpp"
#include "trace/compare.hpp"
#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

namespace gfi {
namespace {

// ---------------------------------------------------------------------------
// serialize: primitives, header, truncation

TEST(SnapshotSerialize, RoundTripsEveryPrimitive)
{
    snapshot::Writer w;
    w.u8(0xAB);
    w.u32(0xDEADBEEFu);
    w.u64(0x0123456789ABCDEFull);
    w.i64(-42);
    w.f64(-1.25e-9);
    w.boolean(true);
    w.boolean(false);
    w.str("pll/vctrl");
    const std::size_t mark = w.beginBlob();
    w.u8(255);
    w.u64(7);
    w.endBlob(mark);

    snapshot::Reader r(w.bytes());
    EXPECT_EQ(r.u8(), 0xAB);
    EXPECT_EQ(r.u32(), 0xDEADBEEFu);
    EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
    EXPECT_EQ(r.i64(), -42);
    EXPECT_DOUBLE_EQ(r.f64(), -1.25e-9);
    EXPECT_TRUE(r.boolean());
    EXPECT_FALSE(r.boolean());
    EXPECT_EQ(r.str(), "pll/vctrl");
    snapshot::Reader blob = r.blobReader();
    EXPECT_EQ(blob.remaining(), 9u) << "the length prefix covers the payload exactly";
    EXPECT_EQ(blob.u8(), 255);
    EXPECT_EQ(blob.u64(), 7u);
    EXPECT_TRUE(blob.atEnd());
    EXPECT_TRUE(r.atEnd());
}

TEST(SnapshotSerialize, HeaderRejectsWrongMagicAndVersion)
{
    snapshot::Writer good;
    snapshot::writeHeader(good);
    {
        snapshot::Reader r(good.bytes());
        EXPECT_NO_THROW(snapshot::readHeader(r));
    }
    {
        std::vector<std::uint8_t> bytes = good.bytes();
        bytes[0] ^= 0xFF; // corrupt the magic
        snapshot::Reader r(bytes);
        EXPECT_THROW(snapshot::readHeader(r), snapshot::SnapshotFormatError);
    }
    {
        std::vector<std::uint8_t> bytes = good.bytes();
        bytes[8] += 1; // bump the (little-endian) format version
        snapshot::Reader r(bytes);
        EXPECT_THROW(snapshot::readHeader(r), snapshot::SnapshotFormatError);
    }
}

TEST(SnapshotSerialize, TruncatedStreamThrowsInsteadOfReadingGarbage)
{
    snapshot::Writer w;
    w.u64(7);
    w.str("a-signal-name");
    std::vector<std::uint8_t> bytes = w.bytes();
    bytes.resize(bytes.size() - 5);
    snapshot::Reader r(bytes);
    EXPECT_EQ(r.u64(), 7u);
    EXPECT_THROW(r.str(), snapshot::SnapshotFormatError);
}

TEST(SnapshotSerialize, RngResumesExactSequence)
{
    Rng a(12345);
    for (int i = 0; i < 100; ++i) {
        (void)a.next();
    }
    snapshot::Writer w;
    a.captureState(w);

    std::vector<std::uint64_t> expected;
    for (int i = 0; i < 32; ++i) {
        expected.push_back(a.next());
    }

    Rng b(999); // different seed: restore must fully overwrite it
    snapshot::Reader r(w.bytes());
    b.restoreState(r);
    for (int i = 0; i < 32; ++i) {
        EXPECT_EQ(b.next(), expected[static_cast<std::size_t>(i)]) << "draw " << i;
    }
}

// ---------------------------------------------------------------------------
// capture -> restore -> run == uninterrupted run (per testbench)

/// Advances @p tb event by event and captures at the first scheduled digital
/// event at or after @p t. Event times are where an uninterrupted run's
/// kernels stop anyway, so stopping there perturbs nothing.
snapshot::Snapshot captureAtOrAfter(fault::Testbench& tb, SimTime t)
{
    auto& sim = tb.sim();
    sim.elaborate();
    while (true) {
        const SimTime ev = sim.digital().scheduler().nextEventTime();
        if (ev >= tb.duration()) {
            throw std::logic_error("captureAtOrAfter: no event before the duration");
        }
        sim.run(ev);
        if (ev >= t) {
            return sim.captureSnapshot();
        }
    }
}

/// Wave counts and, for a design with analog unknowns, solver stats.
void expectIdenticalKernelWork(fault::Testbench& reference, fault::Testbench& resumed,
                               const char* tag)
{
    EXPECT_EQ(resumed.sim().digital().scheduler().deltaCycles(),
              reference.sim().digital().scheduler().deltaCycles())
        << tag << ": wave counts differ";
    if (reference.sim().analog().unknownCount() > 0) {
        const auto& a = reference.sim().solver().stats();
        const auto& b = resumed.sim().solver().stats();
        EXPECT_EQ(b.acceptedSteps, a.acceptedSteps) << tag;
        EXPECT_EQ(b.rejectedSteps, a.rejectedSteps) << tag;
        EXPECT_EQ(b.newtonIterations, a.newtonIterations) << tag;
    }
}

void expectIdenticalRuns(fault::Testbench& reference, fault::Testbench& resumed,
                         const char* tag)
{
    for (const auto& [name, ref] : reference.recorder().digitalTraces()) {
        const trace::DigitalTrace& got = resumed.recorder().digitalTrace(name);
        EXPECT_EQ(got.initial, ref.initial) << tag << ": " << name;
        EXPECT_EQ(got.events, ref.events) << tag << ": digital trace " << name;
    }
    for (const auto& [name, ref] : reference.recorder().analogTraces()) {
        const trace::AnalogTrace& got = resumed.recorder().analogTrace(name);
        EXPECT_EQ(got.samples, ref.samples) << tag << ": analog trace " << name;
    }
    expectIdenticalKernelWork(reference, resumed, tag);
}

/// A run resumed from @p snap records only its suffix: each trace must be
/// exactly the reference's tail after the checkpoint, starting where the
/// verdict rule's upper_bound at snap.time / snap.analogTime puts it, so
/// the reference's prefix plus the suffix is the uninterrupted trace.
void expectResumedSuffix(fault::Testbench& reference, fault::Testbench& resumed,
                         const snapshot::Snapshot& snap, const char* tag)
{
    for (const auto& [name, ref] : reference.recorder().digitalTraces()) {
        const trace::DigitalTrace& got = resumed.recorder().digitalTrace(name);
        EXPECT_EQ(got.initial, ref.initial) << tag << ": " << name;
        ASSERT_LE(got.events.size(), ref.events.size()) << tag << ": " << name;
        const std::size_t start = ref.events.size() - got.events.size();
        const auto split = std::upper_bound(
            ref.events.begin(), ref.events.end(), snap.time,
            [](SimTime t, const auto& ev) { return t < ev.first; });
        EXPECT_EQ(start, static_cast<std::size_t>(split - ref.events.begin()))
            << tag << ": digital trace " << name;
        EXPECT_TRUE(std::equal(got.events.begin(), got.events.end(), ref.events.begin() +
                                   static_cast<std::ptrdiff_t>(start)))
            << tag << ": digital trace " << name;
        EXPECT_TRUE(trace::compareDigital(ref, got, reference.duration(), 0, start).identical())
            << tag << ": digital trace " << name;
    }
    for (const auto& [name, ref] : reference.recorder().analogTraces()) {
        const trace::AnalogTrace& got = resumed.recorder().analogTrace(name);
        ASSERT_LE(got.samples.size(), ref.samples.size()) << tag << ": " << name;
        const std::size_t start = ref.samples.size() - got.samples.size();
        const auto split = std::upper_bound(
            ref.samples.begin(), ref.samples.end(), snap.analogTime,
            [](double t, const auto& sample) { return t < sample.first; });
        EXPECT_EQ(start, static_cast<std::size_t>(split - ref.samples.begin()))
            << tag << ": analog trace " << name;
        EXPECT_TRUE(std::equal(got.samples.begin(), got.samples.end(), ref.samples.begin() +
                                   static_cast<std::ptrdiff_t>(start)))
            << tag << ": analog trace " << name;
        EXPECT_EQ(trace::compareAnalog(ref, got, 0.0, 0.0, start).maxDeviation, 0.0)
            << tag << ": analog trace " << name;
    }
    expectIdenticalKernelWork(reference, resumed, tag);
}

void expectCaptureRestoreBitIdentical(const fault::TestbenchFactory& factory,
                                      SimTime captureAt, const char* tag)
{
    // Reference: one uninterrupted run.
    auto reference = factory();
    reference->run();

    // Donor: event-stepped to the capture point, then run to completion —
    // must already equal the reference (segmentation is transparent).
    auto donor = factory();
    const snapshot::Snapshot snap = captureAtOrAfter(*donor, captureAt);
    EXPECT_GE(snap.time, captureAt);
    EXPECT_LT(snap.time, donor->duration());
    EXPECT_FALSE(snap.bytes.empty());
    donor->sim().run(donor->duration());
    expectIdenticalRuns(*reference, *donor, (std::string(tag) + "/segmented").c_str());

    // Resumed: a fresh structural twin restored from the snapshot with its
    // recorder reset, as the campaign does, then run only over the suffix.
    auto resumed = factory();
    resumed->sim().restoreSnapshot(snap);
    resumed->recorder().reset();
    EXPECT_EQ(resumed->sim().now(), snap.time);
    resumed->run();
    expectResumedSuffix(*reference, *resumed, snap, (std::string(tag) + "/resumed").c_str());
}

TEST(SnapshotRestore, DigitalDutBitIdentical)
{
    expectCaptureRestoreBitIdentical(
        [] { return std::make_unique<duts::DigitalDutTestbench>(); },
        2 * kMicrosecond + 3 * kNanosecond, "digital");
}

TEST(SnapshotRestore, PllBitIdentical)
{
    pll::PllConfig cfg;
    cfg.duration = 20 * kMicrosecond;
    expectCaptureRestoreBitIdentical(
        [cfg] { return std::make_unique<pll::PllTestbench>(cfg); }, 8 * kMicrosecond,
        "pll");
}

TEST(SnapshotRestore, AdcBitIdentical)
{
    adc::SarConfig cfg;
    cfg.inputLevels = {1.7, 2.9};
    expectCaptureRestoreBitIdentical(
        [cfg] { return std::make_unique<adc::SarAdcTestbench>(cfg); }, 9 * kMicrosecond,
        "adc");
}

/// A pre-start snapshot restored into a used simulator turns it back into a
/// fresh build: with @p fault armed after the restore, the re-run must be
/// bit-identical to a freshly built twin's — traces, wave count, dispatched
/// events, queue levels, and the elaboration's own solver counters.
void expectPreStartRestoreMatchesFresh(const fault::TestbenchFactory& factory,
                                       const fault::FaultSpec& previous,
                                       const fault::FaultSpec& fault, const char* tag)
{
    const auto fresh = factory();
    fault::armFault(*fresh, fault);
    const obs::ProbeSnapshot freshBase = fresh->sim().sampleProbes();
    fresh->run();

    const snapshot::Snapshot preStart = factory()->sim().capturePreStartSnapshot();
    const auto used = factory();
    fault::armFault(*used, previous);
    used->run();
    // Leave the used kernel deeper than any run gets: the restore discards
    // the pending work and restarts the high-water mark.
    for (int i = 0; i < 256; ++i) {
        used->sim().digital().scheduler().scheduleAction(used->duration() + kNanosecond, [] {});
    }
    used->sim().restoreSnapshot(preStart);
    used->recorder().reset();
    EXPECT_FALSE(used->sim().elaborated()) << tag;
    EXPECT_EQ(used->sim().now(), 0) << tag;
    fault::armFault(*used, fault);
    const obs::ProbeSnapshot usedBase = used->sim().sampleProbes();
    used->run();

    expectIdenticalRuns(*fresh, *used, tag);
    const obs::ProbeSnapshot want = fresh->sim().sampleProbes().delta(freshBase);
    const obs::ProbeSnapshot got = used->sim().sampleProbes().delta(usedBase);
    EXPECT_EQ(got.digitalEvents, want.digitalEvents) << tag;
    EXPECT_EQ(got.queueHighWater, want.queueHighWater) << tag;
    EXPECT_EQ(got.pendingEvents, want.pendingEvents) << tag;
    EXPECT_EQ(got.newtonIterations, want.newtonIterations) << tag;
    EXPECT_EQ(used->sim().solver().stats().linearSolves,
              fresh->sim().solver().stats().linearSolves)
        << tag;
}

/// A follower whose input is forced while the testbench is built: the
/// process is runnable before the kernel's startup pass, and runs again in
/// the first wave after it.
std::unique_ptr<fault::Testbench> wokenWhileBuilt()
{
    auto tb = std::make_unique<fault::Testbench>();
    auto& dig = tb->sim().digital();
    auto& in = dig.logicSignal("in", digital::Logic::Zero);
    auto& out = dig.logicSignal("out", digital::Logic::Zero);
    dig.process("follow", [&in, &out] { out.scheduleInertial(in.value(), kNanosecond); },
                {&in});
    in.forceValue(digital::Logic::One);
    tb->observeDigital("out");
    tb->setDuration(10 * kNanosecond);
    return tb;
}

// A process woken while the testbench was built, a DigitalDut bit flip, and
// stuck-ats armed at t = 0 on the ingested c17 — before the startup pass —
// on top of a used simulator whose previous run had a different net stuck.
TEST(SnapshotRestore, PreStartSnapshotTurnsAUsedSimulatorBackIntoAFreshOne)
{
    expectPreStartRestoreMatchesFresh(wokenWhileBuilt, fault::FaultSpec{}, fault::FaultSpec{},
                                      "woken while built");

    const SimTime t = 2 * kMicrosecond + 7 * kNanosecond;
    const duts::DigitalDutTestbench probe;
    const std::string reg = probe.sim().digital().instrumentation().names().front();
    expectPreStartRestoreMatchesFresh(
        [] { return std::make_unique<duts::DigitalDutTestbench>(); },
        fault::StateWriteFault{reg, 0x2A, t}, fault::BitFlipFault{reg, 0, t + kNanosecond},
        "digital");

    const io::IngestWorkload wl =
        io::makeWorkload(io::parseNetlistFile(GFI_TESTCASES_DIR "/c17.bench"));
    const fault::TestbenchFactory c17 = wl.factory();
    expectPreStartRestoreMatchesFresh(
        c17, fault::StuckAtFault{io::netSaboteurName("N16"), digital::Logic::Zero, 0, 0},
        fault::StuckAtFault{io::netSaboteurName("N10"), digital::Logic::One, 0, 0}, "c17");
    expectPreStartRestoreMatchesFresh(c17, fault::FaultSpec{}, fault::FaultSpec{},
                                      "c17 golden");
}

// A pre-start restore stands for a fresh build, so an attached flight
// recorder logs nothing (a pooled testbench dumps what a fresh one would);
// restoring a golden checkpoint logs its restore.
TEST(SnapshotRestore, FlightRecorderLogsCheckpointRestoresOnly)
{
    duts::DigitalDutTestbench donor;
    const snapshot::Snapshot preStart = donor.sim().capturePreStartSnapshot();
    const snapshot::Snapshot checkpoint = captureAtOrAfter(donor, kMicrosecond);

    duts::DigitalDutTestbench tb;
    obs::FlightRecorder fr;
    tb.sim().setFlightRecorder(&fr);
    tb.run();
    const std::uint64_t recorded = fr.totalRecorded();
    tb.sim().restoreSnapshot(preStart);
    EXPECT_EQ(fr.totalRecorded(), recorded);
    tb.sim().restoreSnapshot(checkpoint);
    const obs::FlightRecorder::Event* restore = fr.lastOfKind(obs::FlightRecorder::Kind::Restore);
    ASSERT_NE(restore, nullptr);
    EXPECT_EQ(restore->timeFs, checkpoint.time);
    tb.sim().setFlightRecorder(nullptr);
}

TEST(SnapshotRestore, PreStartCaptureNeedsANeverRunDigitalSimulator)
{
    duts::DigitalDutTestbench ran;
    ran.run();
    EXPECT_THROW((void)ran.sim().capturePreStartSnapshot(), std::logic_error);

    pll::PllConfig cfg;
    cfg.duration = 20 * kMicrosecond;
    const pll::PllTestbench analog(cfg);
    EXPECT_THROW((void)analog.sim().capturePreStartSnapshot(), std::logic_error);
}

TEST(SnapshotRestore, RestoreRejectsStructuralMismatch)
{
    duts::DigitalDutTestbench donor;
    const snapshot::Snapshot snap = captureAtOrAfter(donor, kMicrosecond);

    pll::PllConfig cfg;
    cfg.duration = 20 * kMicrosecond;
    pll::PllTestbench other(cfg);
    EXPECT_THROW(other.sim().restoreSnapshot(snap), snapshot::SnapshotFormatError);
}

// ---------------------------------------------------------------------------
// scheduler capture mid-run: pending-list order, restore into a twin

/// Three inputs into an XOR chain and an inverter; every signal event is
/// logged as (time, name, value).
struct XorChain {
    XorChain()
        : a(c.logicSignal("a", digital::Logic::Zero)),
          b(c.logicSignal("b", digital::Logic::Zero)),
          d(c.logicSignal("d", digital::Logic::Zero)),
          x(c.logicSignal("x")), y(c.logicSignal("y")), ny(c.logicSignal("ny")),
          g1(c, "g1", a, b, x), g2(c, "g2", x, d, y), g3(c, "g3", y, ny)
    {
        for (digital::SignalBase* s : c.signals()) {
            auto* logic = static_cast<digital::LogicSignal*>(s);
            digital::SignalWatch::onEvent(*s, [this, logic] {
                events.emplace_back(c.scheduler().now(), logic->name(),
                                    digital::toChar(logic->value()));
            });
        }
    }
    void capture(snapshot::Writer& w) const
    {
        c.scheduler().captureState(w);
        for (const digital::SignalBase* s : c.signals()) {
            s->captureState(w);
        }
    }
    void restore(snapshot::Reader& r)
    {
        c.scheduler().restoreState(r, [this](const std::string& name) -> digital::SignalBase& {
            return c.findSignal(name);
        });
        for (digital::SignalBase* s : c.signals()) {
            s->restoreState(r);
        }
    }

    digital::Circuit c;
    digital::LogicSignal& a;
    digital::LogicSignal& b;
    digital::LogicSignal& d;
    digital::LogicSignal& x;
    digital::LogicSignal& y;
    digital::LogicSignal& ny;
    digital::XorGate g1;
    digital::XorGate g2;
    digital::NotGate g3;
    std::vector<std::tuple<SimTime, std::string, char>> events;
};

TEST(SnapshotScheduler, MidRunCaptureListsPendingInTimeSeqOrderAndResumes)
{
    XorChain original;
    original.c.runUntil(kNanosecond); // startup pass, gates settled
    // Pending at 2, 5 and 9 ns (relative), pushed in interleaved time order;
    // the d write at 2 ns cancels (but leaves queued) the d write at 9 ns.
    const SimTime t0 = original.c.scheduler().now();
    original.a.scheduleTransport(digital::Logic::One, 5 * kNanosecond);
    original.b.scheduleTransport(digital::Logic::One, 2 * kNanosecond);
    original.d.scheduleTransport(digital::Logic::One, 9 * kNanosecond);
    original.b.scheduleTransport(digital::Logic::Zero, 5 * kNanosecond);
    original.a.scheduleTransport(digital::Logic::Zero, 9 * kNanosecond);
    original.d.scheduleTransport(digital::Logic::One, 2 * kNanosecond);
    original.b.scheduleTransport(digital::Logic::One, 9 * kNanosecond);
    ASSERT_EQ(original.c.scheduler().pendingEvents(), 7u);

    snapshot::Writer w;
    original.capture(w);

    // Walk the scheduler's part of the bytes down to its pending list.
    snapshot::Reader scan(w.bytes());
    EXPECT_EQ(scan.i64(), t0);  // now
    (void)scan.u64();           // seq counter
    (void)scan.u64();           // wave id
    (void)scan.u64();           // waves run
    EXPECT_TRUE(scan.boolean()); // started
    EXPECT_EQ(scan.u64(), 0u);  // no runnable process
    ASSERT_EQ(scan.u64(), 7u);
    std::vector<std::pair<SimTime, std::string>> pending;
    std::pair<SimTime, std::uint64_t> last{-1, 0};
    for (int i = 0; i < 7; ++i) {
        const SimTime t = scan.i64();
        const std::uint64_t seq = scan.u64();
        pending.emplace_back(t - t0, scan.str());
        (void)scan.u64(); // txn id
        EXPECT_LT(last, std::make_pair(t, seq)) << "entry " << i << " out of (time, seq) order";
        last = {t, seq};
    }
    const std::vector<std::pair<SimTime, std::string>> want{
        {2 * kNanosecond, "b"}, {2 * kNanosecond, "d"}, {5 * kNanosecond, "a"},
        {5 * kNanosecond, "b"}, {9 * kNanosecond, "d"}, {9 * kNanosecond, "a"},
        {9 * kNanosecond, "b"}};
    EXPECT_EQ(pending, want);

    XorChain twin;
    snapshot::Reader r(w.bytes());
    twin.restore(r);
    EXPECT_EQ(twin.c.scheduler().pendingEvents(), 7u);
    original.events.clear();
    original.c.runUntil(20 * kNanosecond);
    twin.c.runUntil(20 * kNanosecond);

    EXPECT_GE(original.events.size(), 8u);
    EXPECT_EQ(twin.events, original.events);
    EXPECT_EQ(twin.c.scheduler().deltaCycles(), original.c.scheduler().deltaCycles());
    EXPECT_EQ(twin.c.scheduler().queueHighWater(), original.c.scheduler().queueHighWater());
    EXPECT_EQ(twin.c.scheduler().pendingEvents(), 0u);
    EXPECT_EQ(original.c.scheduler().pendingEvents(), 0u);
}

// The bucketed queue refills in push order, so a pending list that is not in
// (time, seq) order, lies before the restored time or reuses a sequence
// number the restored counter will hand out again is refused, not misread.
TEST(SnapshotScheduler, RestoreRejectsPendingOutOfTimeSeqOrder)
{
    struct Pending {
        SimTime time;
        std::uint64_t seq;
    };
    const auto bytes = [](std::initializer_list<Pending> list) {
        snapshot::Writer w;
        w.i64(kNanosecond); // now
        w.u64(10);          // seq counter
        w.u64(0);           // wave id
        w.u64(0);           // waves run
        w.boolean(true);    // started
        w.u64(0);           // no runnable process
        w.u64(list.size());
        for (const Pending& p : list) {
            w.i64(p.time);
            w.u64(p.seq);
            w.str("a");
            w.u64(0);
        }
        return w.bytes();
    };
    const auto restore = [](const std::vector<std::uint8_t>& b) {
        XorChain chain;
        snapshot::Reader r(b);
        chain.c.scheduler().restoreState(r, [&chain](const std::string& name) -> digital::SignalBase& {
            return chain.c.findSignal(name);
        });
        return chain.c.scheduler().pendingEvents();
    };
    EXPECT_EQ(restore(bytes({{kNanosecond, 4}, {kNanosecond, 6}, {3 * kNanosecond, 2}})), 3u);
    using snapshot::SnapshotFormatError;
    EXPECT_THROW(restore(bytes({{3 * kNanosecond, 2}, {2 * kNanosecond, 4}})), SnapshotFormatError);
    EXPECT_THROW(restore(bytes({{2 * kNanosecond, 4}, {2 * kNanosecond, 3}})), SnapshotFormatError);
    EXPECT_THROW(restore(bytes({{2 * kNanosecond, 4}, {2 * kNanosecond, 4}})), SnapshotFormatError);
    EXPECT_THROW(restore(bytes({{0, 1}})), SnapshotFormatError);
    EXPECT_THROW(restore(bytes({{2 * kNanosecond, 10}})), SnapshotFormatError);
}

// ---------------------------------------------------------------------------
// fork-from-golden campaigns (byte identity with from-scratch campaigns, at
// any width and across resume, is pinned down by test_campaign_matrix.cpp)

namespace {

/// Golden's event times for @p factory's (purely digital) design, from a
/// convergence-plan replay on a fresh build.
std::vector<SimTime> goldenEventTimes(const fault::TestbenchFactory& factory)
{
    const auto twin = factory();
    return ams::ConvergencePlan::record(twin->sim(), twin->duration(), {}).eventTimes();
}

/// The checkpoint a fault injected at @p t forks from: golden's last event
/// strictly before t, or 0 (from scratch) when there is none after time 0.
SimTime lastEventBefore(const std::vector<SimTime>& times, SimTime t)
{
    const auto it = std::lower_bound(times.begin(), times.end(), t);
    return it == times.begin() ? 0 : *std::prev(it);
}

} // namespace

// A forked run must record which checkpoint it used and how much it re-ran
// (when timing recording is on), and the summary table must show the savings.
// Golden captures at its last event strictly before each injection instant,
// never at time 0.
TEST(ForkFromGolden, RecordsCheckpointDiagnostics)
{
    const fault::TestbenchFactory factory = [] {
        return std::make_unique<duts::DigitalDutTestbench>();
    };
    campaign::CampaignRunner runner(factory);
    runner.setCheckpointCadence(1); // > 0 turns fork mode on

    const duts::DigitalDutTestbench probe;
    const std::string target = probe.sim().digital().instrumentation().names().front();
    const std::vector<SimTime> events = goldenEventTimes(factory);
    ASSERT_GT(events.size(), 2u);
    ASSERT_GT(events.front(), 0);
    const SimTime late = 3 * kMicrosecond + 100 * kNanosecond;
    const std::vector<fault::FaultSpec> faults{
        fault::FaultSpec{},                               // golden: never forks
        fault::BitFlipFault{target, 0, late},
        fault::BitFlipFault{target, 0, events.front()},   // only time 0 before it
        fault::BitFlipFault{target, 1, 0},                // at t = 0: never forks
    };
    const campaign::CampaignReport report = runner.run(faults);
    ASSERT_EQ(report.runs.size(), 4u);
    EXPECT_EQ(runner.checkpointCount(), 1u) << "one instant has an event before it";

    EXPECT_EQ(report.runs[0].diagnostics.checkpointTime, 0);
    EXPECT_EQ(report.runs[2].diagnostics.checkpointTime, 0) << "time 0 is never captured";
    EXPECT_EQ(report.runs[3].diagnostics.checkpointTime, 0);

    const auto& forked = report.runs[1].diagnostics;
    EXPECT_EQ(forked.checkpointTime, lastEventBefore(events, late));
    EXPECT_GT(forked.checkpointTime, late - 100 * kNanosecond) << "not a cadence mark";
    EXPECT_GT(forked.resimulatedTime, 0);
    EXPECT_EQ(forked.checkpointTime + forked.resimulatedTime, probe.duration());

    const std::string summary = report.summaryTable();
    EXPECT_NE(summary.find("forked runs"), std::string::npos) << summary;

    // The journal/CSV rows surface the same numbers.
    const std::string line = campaign::CampaignJournal::entryToJson(1, report.runs[1]);
    EXPECT_NE(line.find("\"checkpoint_fs\": " + std::to_string(forked.checkpointTime)),
              std::string::npos)
        << line;
    EXPECT_NE(line.find("\"resim_fs\": " + std::to_string(forked.resimulatedTime)),
              std::string::npos)
        << line;
    const auto parsed = campaign::CampaignJournal::parseLine(line);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->result.diagnostics.checkpointTime, forked.checkpointTime);
    EXPECT_EQ(parsed->result.diagnostics.resimulatedTime, forked.resimulatedTime);
}

// The runner's checkpoint lookup: a first attempt forks from the latest
// checkpoint strictly before its injection instant (one taken at that instant
// would re-run the injection wave); golden runs and retries never look; the
// checkpoints come from the first campaign's fault list and are captured
// and billed once per runner, hits and misses once per run().
TEST(RunnerCheckpoints, ForksStrictlyBeforeInjectionAndBillsEachRun)
{
    const fault::TestbenchFactory factory = [] {
        return std::make_unique<duts::DigitalDutTestbench>();
    };
    campaign::CampaignRunner runner(factory);
    runner.setCheckpointCadence(1); // > 0 turns fork mode on
    // An unknown target passes to the kernel with preflight off and fails to
    // arm (SimError), so its retry is observable.
    runner.setPreflight(false);
    campaign::RetryPolicy retry;
    retry.maxAttempts = 2;
    retry.retrySimError = true;
    runner.setRetryPolicy(retry);
    obs::Telemetry telemetry;
    runner.setTelemetry(telemetry);
    const auto counter = [&telemetry](const char* name) {
        return telemetry.metrics().counterValue(name);
    };

    const duts::DigitalDutTestbench probe;
    const std::string target = probe.sim().digital().instrumentation().names().front();
    const std::vector<SimTime> events = goldenEventTimes(factory);
    ASSERT_GT(events.size(), 2u);
    const SimTime mid = 2 * kMicrosecond + 3 * kNanosecond;
    const SimTime late = 3 * kMicrosecond + 500 * kNanosecond;
    // Injected at golden's first event: only time 0 precedes it.
    const fault::FaultSpec early = fault::BitFlipFault{target, 0, events.front()};

    // Lookups: the mid and late faults and the retried fault's first attempt
    // hit, the early fault misses, the golden run and the retry do not look.
    const campaign::CampaignReport first = runner.run({
        fault::FaultSpec{},
        fault::BitFlipFault{target, 0, late},
        early,
        fault::BitFlipFault{"no_such_target", 0, late},
        fault::BitFlipFault{target, 1, mid},
    });
    ASSERT_EQ(first.runs.size(), 5u);
    const SimTime cp = first.runs[1].diagnostics.checkpointTime;
    const SimTime cpMid = first.runs[4].diagnostics.checkpointTime;
    EXPECT_EQ(cp, lastEventBefore(events, late));
    EXPECT_EQ(cpMid, lastEventBefore(events, mid));
    ASSERT_GT(cpMid, 0);
    ASSERT_LT(cpMid, cp);
    EXPECT_EQ(first.runs[2].diagnostics.checkpointTime, 0);
    EXPECT_EQ(first.runs[3].outcome, campaign::Outcome::SimError);
    EXPECT_EQ(first.runs[3].diagnostics.attempts, 2);
    EXPECT_EQ(runner.checkpointCount(), 2u) << "one per instant with an event before it";
    EXPECT_EQ(counter("gfi_snapshot_checkpoints_total"), 2u);
    EXPECT_EQ(counter("gfi_snapshot_checkpoint_hits_total"), 3u);
    EXPECT_EQ(counter("gfi_snapshot_checkpoint_misses_total"), 1u)
        << "a checkpoint at time 0 would have turned the early miss into a hit";

    // A second campaign on the same runner forks from the first one's
    // checkpoints: injected exactly at cp it forks from the one before, 1 fs
    // later from cp itself, and at an instant the first list lacked from
    // the latest checkpoint before it.
    const fault::FaultSpec atCheckpoint = fault::BitFlipFault{target, 0, cp};
    const campaign::CampaignReport second = runner.run({
        fault::FaultSpec{},
        atCheckpoint,
        fault::BitFlipFault{target, 0, cp + 1},
        fault::BitFlipFault{target, 0, late + 200 * kNanosecond},
        early,
    });
    ASSERT_EQ(second.runs.size(), 5u);
    EXPECT_EQ(second.runs[1].diagnostics.checkpointTime, cpMid);
    EXPECT_EQ(second.runs[2].diagnostics.checkpointTime, cp);
    EXPECT_EQ(second.runs[3].diagnostics.checkpointTime, cp);
    EXPECT_EQ(second.runs[4].diagnostics.checkpointTime, 0);
    EXPECT_EQ(runner.checkpointCount(), 2u) << "golden ran once";
    EXPECT_EQ(counter("gfi_snapshot_checkpoints_total"), 2u) << "billed once";
    EXPECT_EQ(counter("gfi_snapshot_checkpoint_hits_total"), 6u);
    EXPECT_EQ(counter("gfi_snapshot_checkpoint_misses_total"), 2u);

    // The at-checkpoint fork classifies as a from-scratch run does; a runner
    // without checkpoints counts no lookups.
    campaign::CampaignRunner scratch(factory);
    scratch.setCheckpointCadence(0);
    obs::Telemetry scratchTelemetry;
    scratch.setTelemetry(scratchTelemetry);
    const campaign::CampaignReport fromScratch = scratch.run({atCheckpoint});
    EXPECT_EQ(fromScratch.runs[0].outcome, second.runs[1].outcome);
    EXPECT_EQ(fromScratch.runs[0].firstOutputError, second.runs[1].firstOutputError);
    EXPECT_EQ(fromScratch.runs[0].corruptedState, second.runs[1].corruptedState);
    EXPECT_EQ(scratch.checkpointCount(), 0u);
    EXPECT_EQ(scratchTelemetry.metrics().counterValue("gfi_snapshot_checkpoint_hits_total"), 0u);
    EXPECT_EQ(scratchTelemetry.metrics().counterValue("gfi_snapshot_checkpoint_misses_total"),
              0u);
}

// A checkpoint taken at the instant an observed output changes holds that
// change in golden's part of the trace: the forked run records only what
// follows, and classifies exactly as a from-scratch run does.
TEST(ForkFromGolden, CheckpointOnAnObservedEventClassifiesAsScratch)
{
    const fault::TestbenchFactory factory = [] {
        return std::make_unique<duts::DigitalDutTestbench>();
    };
    const auto reference = factory();
    reference->run();
    const std::string observed = reference->observedDigital().front();
    const auto& events = reference->recorder().digitalTrace(observed).events;
    const auto at = std::find_if(events.begin(), events.end(),
                                 [](const auto& ev) { return ev.first >= kMicrosecond; });
    ASSERT_NE(at, events.end());
    const SimTime tEvent = at->first;
    const std::vector<SimTime> goldenEvents = goldenEventTimes(factory);

    // A fault 1 fs after tEvent forks from the capture at tEvent itself; one
    // 40 ns later from golden's last event before it.
    campaign::CampaignRunner forked(factory);
    forked.setCheckpointCadence(1); // > 0 turns fork mode on
    campaign::CampaignRunner scratch(factory);
    scratch.setCheckpointCadence(0);
    const std::vector<std::string> targets =
        reference->sim().digital().instrumentation().names();
    std::vector<fault::FaultSpec> faults;
    for (std::size_t i = 0; i < targets.size(); i += 3) {
        faults.push_back(fault::BitFlipFault{targets[i], 0, tEvent + 1});
        faults.push_back(fault::BitFlipFault{targets[i], 1, tEvent + 40 * kNanosecond});
    }
    const campaign::CampaignReport got = forked.run(faults);
    const campaign::CampaignReport want = scratch.run(faults);
    ASSERT_EQ(got.runs.size(), want.runs.size());
    for (std::size_t i = 0; i < got.runs.size(); ++i) {
        SCOPED_TRACE(fault::describe(faults[i]));
        const SimTime tInj = fault::injectionTime(faults[i]);
        EXPECT_EQ(got.runs[i].diagnostics.checkpointTime, lastEventBefore(goldenEvents, tInj));
        if (tInj == tEvent + 1) {
            EXPECT_EQ(got.runs[i].diagnostics.checkpointTime, tEvent);
        }
        EXPECT_EQ(got.runs[i].outcome, want.runs[i].outcome);
        EXPECT_EQ(got.runs[i].erredSignals, want.runs[i].erredSignals);
        EXPECT_EQ(got.runs[i].firstOutputError, want.runs[i].firstOutputError);
        EXPECT_EQ(got.runs[i].lastOutputErrorEnd, want.runs[i].lastOutputErrorEnd);
        EXPECT_EQ(got.runs[i].totalOutputErrorTime, want.runs[i].totalOutputErrorTime);
        EXPECT_EQ(got.runs[i].corruptedState, want.runs[i].corruptedState);
    }
}

// ---------------------------------------------------------------------------
// watchdog: budgets meter only post-restore work in fork mode

TEST(ForkFromGolden, WatchdogBudgetCountsOnlyTheSuffix)
{
    const auto factory = [] { return std::make_unique<duts::DigitalDutTestbench>(); };
    std::uint64_t goldenWaves = 0;
    {
        campaign::CampaignRunner probe(factory);
        probe.runGolden();
        goldenWaves = probe.golden().sim().digital().scheduler().deltaCycles();
    }
    ASSERT_GT(goldenWaves, 100u);

    const duts::DigitalDutTestbench probeTb;
    const std::string target = probeTb.sim().digital().instrumentation().names().front();
    // Inject late: the fork resumes just before 3.5 us of 4 us, so the
    // suffix costs roughly an eighth of the golden wave count.
    const fault::FaultSpec fault =
        fault::BitFlipFault{target, 0, 3 * kMicrosecond + 500 * kNanosecond};
    WatchdogConfig budget;
    budget.digitalWaves = goldenWaves * 6 / 10;

    campaign::CampaignRunner scratch(factory);
    scratch.setWatchdogConfig(budget);
    const campaign::RunResult fromScratch = scratch.runOne(fault);
    EXPECT_EQ(fromScratch.outcome, campaign::Outcome::Timeout)
        << "budget sized to trip a full-length run";

    campaign::CampaignRunner forked(factory);
    forked.setWatchdogConfig(budget);
    forked.setCheckpointCadence(1); // > 0 turns fork mode on
    const campaign::RunResult fromFork = forked.runOne(fault);
    EXPECT_NE(fromFork.outcome, campaign::Outcome::Timeout)
        << "forked run must be charged only for the post-restore suffix: "
        << fromFork.diagnostics.error;
    EXPECT_GT(fromFork.diagnostics.checkpointTime, 0);
}

// Retries must fall back to from-scratch simulation (a tightened solver step
// invalidates captured integrator history), and their diagnostics must say so.
TEST(ForkFromGolden, RetriesRunFromScratch)
{
    const auto factory = [] { return std::make_unique<duts::DigitalDutTestbench>(); };
    std::uint64_t goldenWaves = 0;
    {
        campaign::CampaignRunner probe(factory);
        probe.runGolden();
        goldenWaves = probe.golden().sim().digital().scheduler().deltaCycles();
    }
    const duts::DigitalDutTestbench probeTb;
    const std::string target = probeTb.sim().digital().instrumentation().names().front();
    const fault::FaultSpec fault =
        fault::BitFlipFault{target, 0, 3 * kMicrosecond + 500 * kNanosecond};

    // Budget below even the forked suffix: attempt 1 (forked) times out, the
    // retry re-simulates from scratch and times out again.
    WatchdogConfig budget;
    budget.digitalWaves = goldenWaves / 20;
    campaign::CampaignRunner runner(factory);
    runner.setWatchdogConfig(budget);
    runner.setCheckpointCadence(1); // > 0 turns fork mode on
    runner.setRetryPolicy(
        campaign::RetryPolicy{.maxAttempts = 2, .retryTimeout = true});
    const campaign::RunResult result = runner.runOne(fault);
    EXPECT_EQ(result.outcome, campaign::Outcome::Timeout);
    EXPECT_EQ(result.diagnostics.attempts, 2);
    EXPECT_EQ(result.diagnostics.checkpointTime, 0)
        << "the final (retried) attempt must not have forked";
}

// ---------------------------------------------------------------------------
// PRE006: fork mode requires Snapshottable stateful components

namespace {

/// Deliberately stateful and NOT Snapshottable: restoring a checkpoint would
/// silently resume it with a stale counter.
class ShadowCounter : public digital::Component {
public:
    ShadowCounter(digital::Circuit& c, std::string name, digital::LogicSignal& clk)
        : digital::Component(std::move(name))
    {
        c.process(this->name() + "/count", [this] { ++count_; }, {&clk});
    }

private:
    std::uint64_t count_ = 0;
};

fault::TestbenchFactory shadowedFactory()
{
    return [] {
        auto tb = std::make_unique<fault::Testbench>();
        auto& dig = tb->sim().digital();
        auto& clk = dig.logicSignal("tb/clk", digital::Logic::Zero);
        dig.add<digital::ClockGen>(dig, "tb/clkgen", clk, 100 * kNanosecond);
        dig.add<ShadowCounter>(dig, "tb/shadow", clk);
        tb->observeDigital("tb/clk");
        tb->setDuration(2 * kMicrosecond);
        return tb;
    };
}

} // namespace

TEST(ForkFromGolden, Pre006RejectsNonSnapshottableStatefulComponents)
{
    {
        auto tb = shadowedFactory()();
        const lint::Report rep = lint::preflightSnapshot(*tb);
        EXPECT_GT(rep.count(lint::Severity::Error), 0u);
        EXPECT_NE(rep.table().find("PRE006"), std::string::npos) << rep.table();
        EXPECT_NE(rep.table().find("tb/shadow"), std::string::npos) << rep.table();
    }
    // The campaign preflight only applies the rule while forking is enabled.
    {
        campaign::CampaignRunner runner(shadowedFactory());
        runner.setCheckpointCadence(1); // > 0 turns fork mode on
        try {
            (void)runner.run({fault::FaultSpec{}});
            FAIL() << "fork-from-golden accepted a non-Snapshottable stateful component";
        } catch (const lint::PreflightError& e) {
            EXPECT_NE(std::string(e.what()).find("PRE006"), std::string::npos) << e.what();
            EXPECT_NE(std::string(e.what()).find("tb/shadow"), std::string::npos) << e.what();
        }
    }
    {
        campaign::CampaignRunner runner(shadowedFactory());
        runner.setCheckpointCadence(0); // forking off: the design is acceptable
        const campaign::CampaignReport report = runner.run({fault::FaultSpec{}});
        EXPECT_EQ(report.runs.size(), 1u);
    }
    // All shipped testbenches must pass PRE006.
    {
        duts::DigitalDutTestbench dut;
        EXPECT_EQ(lint::preflightSnapshot(dut).count(lint::Severity::Error), 0u);
        pll::PllConfig cfg;
        pll::PllTestbench pllTb(cfg);
        EXPECT_EQ(lint::preflightSnapshot(pllTb).count(lint::Severity::Error), 0u);
        adc::SarAdcTestbench adcTb;
        EXPECT_EQ(lint::preflightSnapshot(adcTb).count(lint::Severity::Error), 0u);
    }
}

} // namespace
} // namespace gfi
