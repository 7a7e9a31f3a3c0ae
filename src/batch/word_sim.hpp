#pragma once
// 64-lane word simulation kernel.
//
// WordSim replays the event-driven scheduler's three-phase wave algorithm on
// machine words: every net holds one uint64_t whose bit L is the net's value
// in lane L. Lane 0 is the golden circuit; lanes 1..63 each carry one armed
// fault. Per-lane exactness is the design invariant — for every lane L, the
// sequence of (time, settled value) changes on every net, the end-of-run
// state of every sequential element and the wave (delta-cycle) count are
// identical to what one scalar event-driven run of that lane's circuit would
// produce. The campaign backend relies on this to classify lanes by their
// divergence masks against lane 0 and emit byte-identical results.
//
// The replication hinges on three bookkeeping words per signal: the value
// word, a previous-value word with last-change semantics (rising-edge
// detection), and a per-wave change mask (the lane-wise analog of the scalar
// kernel's event stamps). Queue entries carry a lane-occupancy mask: a wave
// "happens" in exactly the lanes that have an entry due, which keeps the
// per-lane wave counters equal to the scalar kernel's deltaCycles().

#include "batch/word_model.hpp"
#include "digital/time_buckets.hpp"

#include <array>
#include <cstdint>
#include <functional>

namespace gfi::batch {

/// All 64 lanes.
inline constexpr std::uint64_t kAllLanes = ~0ull;

/// One recorded trace point of an observed signal: the settled value word at
/// @p time plus the mask of lanes whose value changed at that time point.
struct TracePoint {
    SimTime time;
    std::uint64_t changed;
    std::uint64_t value;
};

/// The word simulator, one per fault group. Every group of a campaign reads
/// the same compiled model, which must outlive the sim; the sim only reads
/// it, so groups may run on several threads at once.
class WordSim {
public:
    explicit WordSim(const WordModel& model);

    /// Arms @p fault in lane @p lane (1..63). Must be called before run().
    /// Precondition: faultEligibility(model, fault).eligible — callers vet
    /// the list with it; an ineligible fault throws std::logic_error naming
    /// the fault and the reason.
    void armFault(int lane, const fault::FaultSpec& fault);

    /// Runs startup pass + waves to the model duration. Returns false when
    /// the kernel bails out (per-time-point wave runaway) — the caller then
    /// falls back to the event-driven kernel for the whole group.
    bool run();

    /// Per-lane wave count (the scalar scheduler's deltaCycles()).
    [[nodiscard]] std::uint64_t waveCount(int lane) const
    {
        return waveCount_[static_cast<std::size_t>(lane)];
    }

    /// Recorded points of observed signal slot @p obs (model.observedDigital
    /// order). A signal observed twice has one list, read through both slots.
    [[nodiscard]] const std::vector<TracePoint>& points(int obs) const
    {
        const int first = sig_[static_cast<std::size_t>(
                                   model_.observedDigital[static_cast<std::size_t>(obs)])]
                              .obs;
        return trace_[static_cast<std::size_t>(first)];
    }

    /// Initial bit of observed slot @p obs.
    [[nodiscard]] bool initialBit(int obs) const
    {
        const int sig = model_.observedDigital[static_cast<std::size_t>(obs)];
        return model_.signalInit[static_cast<std::size_t>(sig)] != 0;
    }

    /// Lane @p lane's end-of-run value of hook @p h (instrumentation get()).
    [[nodiscard]] std::uint64_t hookValue(const WordHook& h, int lane) const;

private:
    struct Txn {
        std::uint64_t id;
        std::uint64_t value; ///< scheduled value word (live lanes meaningful)
        std::uint64_t live;  ///< lanes not yet canceled
    };

    struct SigState {
        std::uint64_t val = 0;
        std::uint64_t prev = 0;       ///< last-change previous value, per lane
        std::uint64_t waveChange = 0; ///< lanes evented in the current wave
        std::uint64_t tpChange = 0;   ///< lanes evented at the current time point
        std::vector<Txn> pending;
        int obs = -1; ///< observed slot, -1 when unobserved
    };

    /// One queued entry, filed in the bucket of its due time; buckets keep
    /// push order, which is the scalar kernel's (time, seq) order.
    struct Entry {
        int signal = -1;                       ///< >= 0: transaction entry
        std::uint64_t txnId = 0;
        std::function<void(std::uint64_t)> fn; ///< action entry when signal < 0
        std::uint64_t occ = 0;                 ///< lanes this entry exists in
    };

    // --- scheduling primitives (scalar-kernel replicas) ---------------------
    void scheduleInertial(int sig, std::uint64_t value, std::uint64_t lanes,
                          SimTime delay);
    void scheduleAction(SimTime t, std::uint64_t occ, std::function<void(std::uint64_t)> fn);
    void forceValue(int sig, std::uint64_t value, std::uint64_t lanes);
    void applyTxn(int sig, std::uint64_t id);
    void noteEvent(int sigIdx, SigState& s, std::uint64_t changed);
    void wake(int proc);
    void runWave();
    void flushTimePoint(SimTime t);

    // --- construction-time schedule (clocks, stimuli) -----------------------
    void armConstruction();
    void clockRise(int clock, SimTime t);
    void clockFall(int clock, SimTime t);

    // --- process bodies -----------------------------------------------------
    void runProcess(int proc, std::uint64_t runMask);
    [[nodiscard]] std::uint64_t risingLanes(int clkSig) const;
    [[nodiscard]] std::uint64_t resetLanes(int rstnSig, std::uint64_t runMask) const;

    void runGate(const WordGate& g, std::uint64_t m);
    void runSaboteur(int idx, std::uint64_t m);
    void runDff(int idx, std::uint64_t m);
    void runRegister(int idx, std::uint64_t m);
    void runCounter(int idx, std::uint64_t m);
    void runShift(int idx, std::uint64_t m);
    void runLfsr(int idx, std::uint64_t m);
    void runFsm(int idx, std::uint64_t m);
    void runAdder(const WordAdder& a, std::uint64_t m);
    void runEq(const WordEq& e, std::uint64_t m);

    // --- per-component propagation (shared by processes and fault hooks) ----
    void propagateDff(int idx, std::uint64_t lanes);
    void propagateRegister(int idx, std::uint64_t lanes);
    void propagateCounter(int idx, std::uint64_t lanes);
    void propagateShift(int idx, std::uint64_t lanes);
    void propagateLfsr(int idx, std::uint64_t lanes);
    void driveFsm(int idx, std::uint64_t lanes);
    void driveSaboteur(int idx, std::uint64_t lanes);

    // --- fault hook semantics (single-lane) ---------------------------------
    [[nodiscard]] std::uint64_t readLaneState(const WordHook& h, int lane) const;
    void writeLaneState(const WordHook& h, int lane, std::uint64_t v);

    [[nodiscard]] std::uint64_t busLaneValue(const std::vector<int>& bits, int lane) const;

    const WordModel& model_;
    std::vector<SigState> sig_;
    digital::TimeBuckets<Entry> queue_;
    std::vector<Entry> due_; ///< the entries of the wave being dispatched
    std::vector<int> runnable_;       ///< processes woken this wave, wake order
    std::vector<char> queued_;        ///< per process: already in runnable_
    std::vector<int> changedSignals_; ///< signals with waveChange != 0
    std::vector<int> tpSignals_;      ///< observed signals with tpChange != 0
    SimTime now_ = 0;
    std::uint64_t nextTxnId_ = 1;
    std::array<std::uint64_t, 64> waveCount_{};
    std::vector<std::vector<TracePoint>> trace_;

    // mutable component state
    std::vector<std::uint64_t> dffState_;
    std::vector<std::vector<std::uint64_t>> regState_;
    std::vector<std::vector<std::uint64_t>> cntState_;
    std::vector<std::vector<std::uint64_t>> shiftState_;
    std::vector<std::vector<std::uint64_t>> lfsrState_;
    struct FsmState {
        std::array<int, 64> state{};
        std::array<int, 64> forcedNext{};
        std::uint64_t forcedMask = 0;
    };
    std::vector<FsmState> fsmState_;
    struct SabState {
        std::uint64_t invertMask = 0; ///< lanes inside an SET pulse
        std::uint64_t stuckMask = 0;
        std::uint64_t stuckVal = 0;
    };
    std::vector<SabState> sabState_;

    bool failed_ = false;
};

} // namespace gfi::batch
