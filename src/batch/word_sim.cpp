#include "batch/word_sim.hpp"

#include <algorithm>
#include <stdexcept>

namespace gfi::batch {

namespace {

/// Per-time-point wave budget, mirroring the scalar kernel's delta limit. A
/// word run that trips it bails out and the group re-runs event-driven, where
/// the scalar kernel raises its structured SchedulerLimitError per lane.
constexpr std::uint64_t kWaveLimit = 1'000'000;

std::uint64_t bitWord(bool b)
{
    return b ? kAllLanes : 0;
}

} // namespace

WordSim::WordSim(const WordModel& model) : model_(model)
{
    sig_.resize(static_cast<std::size_t>(model.signalCount()));
    for (std::size_t i = 0; i < sig_.size(); ++i) {
        const std::uint64_t v = bitWord(model.signalInit[i] != 0);
        sig_[i].val = v;
        sig_[i].prev = v;
    }
    // Duplicate observations record into the first slot's points.
    trace_.resize(model.observedDigital.size());
    for (std::size_t k = 0; k < model.observedDigital.size(); ++k) {
        SigState& s = sig_[static_cast<std::size_t>(model.observedDigital[k])];
        if (s.obs < 0) {
            s.obs = static_cast<int>(k);
        }
    }
    queued_.assign(model.processes.size(), 0);

    dffState_.assign(model.dffs.size(), 0);
    regState_.resize(model.regs.size());
    for (std::size_t i = 0; i < model.regs.size(); ++i) {
        regState_[i].assign(model.regs[i].d.size(), 0);
    }
    cntState_.resize(model.counters.size());
    for (std::size_t i = 0; i < model.counters.size(); ++i) {
        cntState_[i].assign(model.counters[i].q.size(), 0);
    }
    shiftState_.resize(model.shifts.size());
    for (std::size_t i = 0; i < model.shifts.size(); ++i) {
        shiftState_[i].assign(model.shifts[i].taps.size(), 0);
    }
    lfsrState_.resize(model.lfsrs.size());
    for (std::size_t i = 0; i < model.lfsrs.size(); ++i) {
        const WordLfsr& l = model.lfsrs[i];
        lfsrState_[i].resize(l.q.size());
        for (std::size_t b = 0; b < l.q.size(); ++b) {
            lfsrState_[i][b] = bitWord(((l.seed >> b) & 1) != 0);
        }
    }
    fsmState_.resize(model.fsms.size());
    for (std::size_t i = 0; i < model.fsms.size(); ++i) {
        fsmState_[i].state.fill(model.fsms[i].resetState);
    }
    sabState_.assign(model.sabs.size(), SabState{});

    armConstruction();
}

// --- scheduling primitives --------------------------------------------------

void WordSim::scheduleInertial(int sigIdx, std::uint64_t value, std::uint64_t lanes,
                               SimTime delay)
{
    SigState& s = sig_[static_cast<std::size_t>(sigIdx)];
    // Inertial semantics: a new schedule cancels every pending transaction —
    // lane-wise here. Canceled transactions stay queued (and still cost a
    // wave when dispatched), exactly like the scalar kernel.
    for (Txn& t : s.pending) {
        t.live &= ~lanes;
    }
    const std::uint64_t id = nextTxnId_++;
    s.pending.push_back(Txn{id, value, lanes});
    Entry e;
    e.signal = sigIdx;
    e.txnId = id;
    e.occ = lanes;
    queue_.push(now_ + delay, std::move(e));
}

void WordSim::scheduleAction(SimTime t, std::uint64_t occ,
                             std::function<void(std::uint64_t)> fn)
{
    Entry e;
    e.fn = std::move(fn);
    e.occ = occ;
    queue_.push(std::max(t, now_), std::move(e));
}

void WordSim::applyTxn(int sigIdx, std::uint64_t id)
{
    SigState& s = sig_[static_cast<std::size_t>(sigIdx)];
    for (std::size_t i = 0; i < s.pending.size(); ++i) {
        if (s.pending[i].id != id) {
            continue;
        }
        const Txn txn = s.pending[i];
        s.pending.erase(s.pending.begin() + static_cast<std::ptrdiff_t>(i));
        const std::uint64_t changed = txn.live & (s.val ^ txn.value);
        if (changed != 0) {
            s.prev = (s.prev & ~changed) | (s.val & changed);
            s.val = (s.val & ~changed) | (txn.value & changed);
            noteEvent(sigIdx, s, changed);
        }
        return;
    }
}

void WordSim::forceValue(int sigIdx, std::uint64_t value, std::uint64_t lanes)
{
    SigState& s = sig_[static_cast<std::size_t>(sigIdx)];
    const std::uint64_t changed = lanes & (s.val ^ value);
    if (changed == 0) {
        return;
    }
    s.prev = (s.prev & ~changed) | (s.val & changed);
    s.val = (s.val & ~changed) | (value & changed);
    noteEvent(sigIdx, s, changed);
}

void WordSim::noteEvent(int sigIdx, SigState& s, std::uint64_t changed)
{
    if (s.waveChange == 0) {
        changedSignals_.push_back(sigIdx);
    }
    s.waveChange |= changed;
    if (s.obs >= 0) {
        if (s.tpChange == 0) {
            tpSignals_.push_back(sigIdx);
        }
        s.tpChange |= changed;
    }
    for (const int p : model_.listeners[static_cast<std::size_t>(sigIdx)]) {
        wake(p);
    }
}

void WordSim::wake(int proc)
{
    if (queued_[static_cast<std::size_t>(proc)] == 0) {
        queued_[static_cast<std::size_t>(proc)] = 1;
        runnable_.push_back(proc);
    }
}

void WordSim::runWave()
{
    for (const int s : changedSignals_) {
        sig_[static_cast<std::size_t>(s)].waveChange = 0;
    }
    changedSignals_.clear();

    // Dispatch: take everything due now, in (time, seq) order.
    queue_.popDue(now_, due_);
    std::uint64_t occupied = 0;
    for (const Entry& e : due_) {
        occupied |= e.occ;
    }
    for (std::uint64_t w = occupied; w != 0; w &= w - 1) {
        ++waveCount_[static_cast<std::size_t>(__builtin_ctzll(w))];
    }

    // Phase 1: transactions. Phase 2: actions. Phase 3: woken processes.
    for (const Entry& e : due_) {
        if (e.signal >= 0) {
            applyTxn(e.signal, e.txnId);
        }
    }
    for (Entry& e : due_) {
        if (e.signal < 0) {
            e.fn(e.occ);
        }
    }
    static thread_local std::vector<int> toRun;
    toRun.clear();
    toRun.swap(runnable_);
    for (const int p : toRun) {
        queued_[static_cast<std::size_t>(p)] = 0;
        std::uint64_t mask = 0;
        for (const int s : model_.processes[static_cast<std::size_t>(p)].sens) {
            mask |= sig_[static_cast<std::size_t>(s)].waveChange;
        }
        runProcess(p, mask);
    }
}

void WordSim::flushTimePoint(SimTime t)
{
    for (const int s : tpSignals_) {
        SigState& st = sig_[static_cast<std::size_t>(s)];
        trace_[static_cast<std::size_t>(st.obs)].push_back(
            TracePoint{t, st.tpChange, st.val});
        st.tpChange = 0;
    }
    tpSignals_.clear();
}

// --- construction-time schedule ---------------------------------------------

void WordSim::armConstruction()
{
    for (std::size_t i = 0; i < model_.clocks.size(); ++i) {
        // The ClockGen constructor parks the clock low with a zero-delay
        // transaction, then arms the first rising edge.
        scheduleInertial(model_.clocks[i].clk, 0, kAllLanes, 0);
        clockRise(static_cast<int>(i), model_.clocks[i].start);
    }
    for (const WordStimulus& stim : model_.stimuli) {
        for (const WordStimulus::Item& item : stim.items) {
            const int sigIdx = item.signal;
            const std::uint64_t v = bitWord(item.value);
            scheduleAction(item.time, kAllLanes, [this, sigIdx, v](std::uint64_t occ) {
                forceValue(sigIdx, v, occ);
            });
        }
    }
}

void WordSim::clockRise(int clock, SimTime t)
{
    scheduleAction(t, kAllLanes, [this, clock, t](std::uint64_t occ) {
        const WordClockGen& ck = model_.clocks[static_cast<std::size_t>(clock)];
        forceValue(ck.clk, kAllLanes, occ);
        clockFall(clock, t + ck.highTime);
        clockRise(clock, t + ck.period);
    });
}

void WordSim::clockFall(int clock, SimTime t)
{
    scheduleAction(t, kAllLanes, [this, clock](std::uint64_t occ) {
        forceValue(model_.clocks[static_cast<std::size_t>(clock)].clk, 0, occ);
    });
}

// --- process bodies ---------------------------------------------------------

std::uint64_t WordSim::risingLanes(int clkSig) const
{
    const SigState& s = sig_[static_cast<std::size_t>(clkSig)];
    return s.waveChange & s.val & ~s.prev;
}

std::uint64_t WordSim::resetLanes(int rstnSig, std::uint64_t runMask) const
{
    if (rstnSig < 0) {
        return 0;
    }
    return runMask & ~sig_[static_cast<std::size_t>(rstnSig)].val;
}

void WordSim::runProcess(int proc, std::uint64_t runMask)
{
    const WordProcess& p = model_.processes[static_cast<std::size_t>(proc)];
    switch (p.kind) {
    case WordKind::Gate:
        runGate(model_.gates[static_cast<std::size_t>(p.comp)], runMask);
        break;
    case WordKind::Saboteur:
        runSaboteur(p.comp, runMask);
        break;
    case WordKind::Dff:
        runDff(p.comp, runMask);
        break;
    case WordKind::Register:
        runRegister(p.comp, runMask);
        break;
    case WordKind::Counter:
        runCounter(p.comp, runMask);
        break;
    case WordKind::Shift:
        runShift(p.comp, runMask);
        break;
    case WordKind::Lfsr:
        runLfsr(p.comp, runMask);
        break;
    case WordKind::Fsm:
        runFsm(p.comp, runMask);
        break;
    case WordKind::Adder:
        runAdder(model_.adders[static_cast<std::size_t>(p.comp)], runMask);
        break;
    case WordKind::Eq:
        runEq(model_.eqs[static_cast<std::size_t>(p.comp)], runMask);
        break;
    }
}

void WordSim::runGate(const WordGate& g, std::uint64_t m)
{
    const auto in = [&](std::size_t i) {
        return sig_[static_cast<std::size_t>(g.in[i])].val;
    };
    std::uint64_t v = in(0);
    switch (g.kind) {
    case digital::GateKind::Buf:
        break;
    case digital::GateKind::Not:
        v = ~v;
        break;
    case digital::GateKind::And:
    case digital::GateKind::Nand:
        for (std::size_t i = 1; i < g.in.size(); ++i) {
            v &= in(i);
        }
        if (g.kind == digital::GateKind::Nand) {
            v = ~v;
        }
        break;
    case digital::GateKind::Or:
    case digital::GateKind::Nor:
        for (std::size_t i = 1; i < g.in.size(); ++i) {
            v |= in(i);
        }
        if (g.kind == digital::GateKind::Nor) {
            v = ~v;
        }
        break;
    case digital::GateKind::Xor:
    case digital::GateKind::Xnor:
        for (std::size_t i = 1; i < g.in.size(); ++i) {
            v ^= in(i);
        }
        if (g.kind == digital::GateKind::Xnor) {
            v = ~v;
        }
        break;
    }
    scheduleInertial(g.out, v, m, g.delay);
}

void WordSim::runSaboteur(int idx, std::uint64_t m)
{
    driveSaboteur(idx, m);
}

void WordSim::driveSaboteur(int idx, std::uint64_t lanes)
{
    const WordSaboteur& sab = model_.sabs[static_cast<std::size_t>(idx)];
    const SabState& st = sabState_[static_cast<std::size_t>(idx)];
    const std::uint64_t in = sig_[static_cast<std::size_t>(sab.in)].val;
    const std::uint64_t v =
        ((in ^ st.invertMask) & ~st.stuckMask) | (st.stuckVal & st.stuckMask);
    scheduleInertial(sab.out, v, lanes, sab.delay);
}

void WordSim::runDff(int idx, std::uint64_t m)
{
    const WordDff& d = model_.dffs[static_cast<std::size_t>(idx)];
    const std::uint64_t reset = resetLanes(d.rstn, m);
    const std::uint64_t load = m & ~reset & risingLanes(d.clk);
    const std::uint64_t eff = reset | load;
    if (eff == 0) {
        return;
    }
    std::uint64_t state = dffState_[static_cast<std::size_t>(idx)];
    state &= ~reset;
    state = (state & ~load) | (sig_[static_cast<std::size_t>(d.d)].val & load);
    dffState_[static_cast<std::size_t>(idx)] = state;
    propagateDff(idx, eff);
}

void WordSim::propagateDff(int idx, std::uint64_t lanes)
{
    const WordDff& d = model_.dffs[static_cast<std::size_t>(idx)];
    const std::uint64_t state = dffState_[static_cast<std::size_t>(idx)];
    scheduleInertial(d.q, state, lanes, d.clkToQ);
    if (d.qn >= 0) {
        scheduleInertial(d.qn, ~state, lanes, d.clkToQ);
    }
}

void WordSim::runRegister(int idx, std::uint64_t m)
{
    const WordRegister& r = model_.regs[static_cast<std::size_t>(idx)];
    const std::uint64_t reset = resetLanes(r.rstn, m);
    const std::uint64_t en =
        r.en < 0 ? kAllLanes : sig_[static_cast<std::size_t>(r.en)].val;
    const std::uint64_t load = m & ~reset & risingLanes(r.clk) & en;
    const std::uint64_t eff = reset | load;
    if (eff == 0) {
        return;
    }
    std::vector<std::uint64_t>& planes = regState_[static_cast<std::size_t>(idx)];
    for (std::size_t b = 0; b < planes.size(); ++b) {
        std::uint64_t p = planes[b];
        p = (p & ~reset) | (((r.resetValue >> b) & 1) != 0 ? reset : 0);
        p = (p & ~load) | (sig_[static_cast<std::size_t>(r.d[b])].val & load);
        planes[b] = p;
    }
    propagateRegister(idx, eff);
}

void WordSim::propagateRegister(int idx, std::uint64_t lanes)
{
    const WordRegister& r = model_.regs[static_cast<std::size_t>(idx)];
    const std::vector<std::uint64_t>& planes = regState_[static_cast<std::size_t>(idx)];
    for (std::size_t b = 0; b < planes.size(); ++b) {
        scheduleInertial(r.q[b], planes[b], lanes, r.clkToQ);
    }
}

void WordSim::runCounter(int idx, std::uint64_t m)
{
    const WordCounter& n = model_.counters[static_cast<std::size_t>(idx)];
    const std::uint64_t reset = resetLanes(n.rstn, m);
    const std::uint64_t en =
        n.en < 0 ? kAllLanes : sig_[static_cast<std::size_t>(n.en)].val;
    const std::uint64_t inc = m & ~reset & risingLanes(n.clk) & en;
    const std::uint64_t eff = reset | inc;
    if (eff == 0) {
        return;
    }
    std::vector<std::uint64_t>& planes = cntState_[static_cast<std::size_t>(idx)];
    const std::size_t w = planes.size();
    for (std::size_t b = 0; b < w; ++b) {
        planes[b] &= ~reset;
    }
    // Ripple-carry increment in the inc lanes.
    std::uint64_t carry = inc;
    for (std::size_t b = 0; b < w; ++b) {
        const std::uint64_t nb = planes[b] ^ carry;
        const std::uint64_t c2 = planes[b] & carry;
        planes[b] = (planes[b] & ~inc) | (nb & inc);
        carry = c2;
    }
    // Modulo wrap: lanes whose (width+1)-bit incremented value equals the
    // wrap value go back to zero (the invariant count < modulo makes the
    // equality test exact).
    std::uint64_t wrap = inc;
    for (std::size_t b = 0; b < w; ++b) {
        wrap &= ((n.modulo >> b) & 1) != 0 ? planes[b] : ~planes[b];
    }
    if (w < 64) {
        wrap &= ((n.modulo >> w) & 1) != 0 ? carry : ~carry;
    } else {
        wrap &= ~carry;
    }
    for (std::size_t b = 0; b < w; ++b) {
        planes[b] &= ~wrap;
    }
    propagateCounter(idx, eff);
}

void WordSim::propagateCounter(int idx, std::uint64_t lanes)
{
    const WordCounter& n = model_.counters[static_cast<std::size_t>(idx)];
    const std::vector<std::uint64_t>& planes = cntState_[static_cast<std::size_t>(idx)];
    for (std::size_t b = 0; b < planes.size(); ++b) {
        scheduleInertial(n.q[b], planes[b], lanes, n.clkToQ);
    }
    if (n.tc >= 0) {
        const std::uint64_t last = n.modulo - 1;
        std::uint64_t tcVal = kAllLanes;
        for (std::size_t b = 0; b < planes.size(); ++b) {
            tcVal &= ((last >> b) & 1) != 0 ? planes[b] : ~planes[b];
        }
        scheduleInertial(n.tc, tcVal, lanes, n.clkToQ);
    }
}

void WordSim::runShift(int idx, std::uint64_t m)
{
    const WordShift& s = model_.shifts[static_cast<std::size_t>(idx)];
    const std::uint64_t reset = resetLanes(s.rstn, m);
    const std::uint64_t shift = m & ~reset & risingLanes(s.clk);
    const std::uint64_t eff = reset | shift;
    if (eff == 0) {
        return;
    }
    std::vector<std::uint64_t>& planes = shiftState_[static_cast<std::size_t>(idx)];
    const std::size_t w = planes.size();
    for (std::size_t b = 0; b < w; ++b) {
        planes[b] &= ~reset;
    }
    const std::uint64_t in = sig_[static_cast<std::size_t>(s.serialIn)].val;
    for (std::size_t b = 0; b < w; ++b) {
        const std::uint64_t nb = b + 1 < w ? planes[b + 1] : in;
        planes[b] = (planes[b] & ~shift) | (nb & shift);
    }
    propagateShift(idx, eff);
}

void WordSim::propagateShift(int idx, std::uint64_t lanes)
{
    const WordShift& s = model_.shifts[static_cast<std::size_t>(idx)];
    const std::vector<std::uint64_t>& planes = shiftState_[static_cast<std::size_t>(idx)];
    for (std::size_t b = 0; b < planes.size(); ++b) {
        scheduleInertial(s.taps[b], planes[b], lanes, s.clkToQ);
    }
}

void WordSim::runLfsr(int idx, std::uint64_t m)
{
    const WordLfsr& l = model_.lfsrs[static_cast<std::size_t>(idx)];
    const std::uint64_t reset = resetLanes(l.rstn, m);
    const std::uint64_t shift = m & ~reset & risingLanes(l.clk);
    const std::uint64_t eff = reset | shift;
    if (eff == 0) {
        return;
    }
    std::vector<std::uint64_t>& planes = lfsrState_[static_cast<std::size_t>(idx)];
    const std::size_t w = planes.size();
    for (std::size_t b = 0; b < w; ++b) {
        planes[b] = (planes[b] & ~reset) | (((l.seed >> b) & 1) != 0 ? reset : 0);
    }
    // Fibonacci feedback: parity of the tapped stages, then shift left.
    std::uint64_t fb = 0;
    for (std::size_t b = 0; b < w; ++b) {
        if (((l.taps >> b) & 1) != 0) {
            fb ^= planes[b];
        }
    }
    for (std::size_t b = w; b-- > 1;) {
        planes[b] = (planes[b] & ~shift) | (planes[b - 1] & shift);
    }
    planes[0] = (planes[0] & ~shift) | (fb & shift);
    propagateLfsr(idx, eff);
}

void WordSim::propagateLfsr(int idx, std::uint64_t lanes)
{
    const WordLfsr& l = model_.lfsrs[static_cast<std::size_t>(idx)];
    const std::vector<std::uint64_t>& planes = lfsrState_[static_cast<std::size_t>(idx)];
    for (std::size_t b = 0; b < planes.size(); ++b) {
        scheduleInertial(l.q[b], planes[b], lanes, l.clkToQ);
    }
}

void WordSim::runFsm(int idx, std::uint64_t m)
{
    const WordFsm& f = model_.fsms[static_cast<std::size_t>(idx)];
    FsmState& st = fsmState_[static_cast<std::size_t>(idx)];
    const std::uint64_t reset = resetLanes(f.rstn, m);
    const std::uint64_t trans = m & ~reset & risingLanes(f.clk);
    const std::uint64_t eff = reset | trans;
    if (eff == 0) {
        return;
    }
    for (std::uint64_t w = reset; w != 0; w &= w - 1) {
        st.state[static_cast<std::size_t>(__builtin_ctzll(w))] = f.resetState;
    }
    st.forcedMask &= ~reset;
    for (std::uint64_t w = trans; w != 0; w &= w - 1) {
        const int lane = __builtin_ctzll(w);
        const auto l = static_cast<std::size_t>(lane);
        if (((st.forcedMask >> lane) & 1) != 0) {
            st.state[l] = st.forcedNext[l];
            st.forcedMask &= ~(1ull << lane);
        } else {
            st.state[l] = f.next(st.state[l], busLaneValue(f.in, lane));
        }
    }
    driveFsm(idx, eff);
}

void WordSim::driveFsm(int idx, std::uint64_t lanes)
{
    const WordFsm& f = model_.fsms[static_cast<std::size_t>(idx)];
    const FsmState& st = fsmState_[static_cast<std::size_t>(idx)];
    std::vector<std::uint64_t> bits(f.out.size(), 0);
    for (std::uint64_t w = lanes; w != 0; w &= w - 1) {
        const int lane = __builtin_ctzll(w);
        const std::uint64_t out =
            f.output(st.state[static_cast<std::size_t>(lane)], busLaneValue(f.in, lane));
        for (std::size_t b = 0; b < bits.size(); ++b) {
            bits[b] |= ((out >> b) & 1) << lane;
        }
    }
    for (std::size_t b = 0; b < bits.size(); ++b) {
        scheduleInertial(f.out[b], bits[b], lanes, f.clkToQ);
    }
}

void WordSim::runAdder(const WordAdder& a, std::uint64_t m)
{
    static thread_local std::vector<std::uint64_t> sum;
    sum.assign(a.sum.size(), 0);
    std::uint64_t carry = a.cin < 0 ? 0 : sig_[static_cast<std::size_t>(a.cin)].val;
    for (std::size_t b = 0; b < sum.size(); ++b) {
        const std::uint64_t ab = sig_[static_cast<std::size_t>(a.a[b])].val;
        const std::uint64_t bb = sig_[static_cast<std::size_t>(a.b[b])].val;
        sum[b] = ab ^ bb ^ carry;
        carry = (ab & bb) | (carry & (ab ^ bb));
    }
    for (std::size_t b = 0; b < sum.size(); ++b) {
        scheduleInertial(a.sum[b], sum[b], m, a.delay);
    }
    if (a.cout >= 0) {
        scheduleInertial(a.cout, a.width < 64 ? carry : 0, m, a.delay);
    }
}

void WordSim::runEq(const WordEq& e, std::uint64_t m)
{
    std::uint64_t v = kAllLanes;
    for (std::size_t b = 0; b < e.a.size(); ++b) {
        v &= ~(sig_[static_cast<std::size_t>(e.a[b])].val ^
               sig_[static_cast<std::size_t>(e.b[b])].val);
    }
    scheduleInertial(e.eq, v, m, e.delay);
}

std::uint64_t WordSim::busLaneValue(const std::vector<int>& bits, int lane) const
{
    std::uint64_t v = 0;
    for (std::size_t b = 0; b < bits.size(); ++b) {
        v |= ((sig_[static_cast<std::size_t>(bits[b])].val >> lane) & 1) << b;
    }
    return v;
}

// --- fault hooks ------------------------------------------------------------

std::uint64_t WordSim::readLaneState(const WordHook& h, int lane) const
{
    const auto i = static_cast<std::size_t>(h.comp);
    const auto pick = [lane](const std::vector<std::uint64_t>& planes) {
        std::uint64_t v = 0;
        for (std::size_t b = 0; b < planes.size(); ++b) {
            v |= ((planes[b] >> lane) & 1) << b;
        }
        return v;
    };
    switch (h.kind) {
    case HookKind::Dff:
        return (dffState_[i] >> lane) & 1;
    case HookKind::Register:
        return pick(regState_[i]);
    case HookKind::Counter:
        return pick(cntState_[i]);
    case HookKind::Shift:
        return pick(shiftState_[i]);
    case HookKind::Lfsr:
        return pick(lfsrState_[i]);
    case HookKind::Fsm:
        return static_cast<std::uint64_t>(
            fsmState_[i].state[static_cast<std::size_t>(lane)]);
    }
    return 0;
}

std::uint64_t WordSim::hookValue(const WordHook& h, int lane) const
{
    return readLaneState(h, lane);
}

void WordSim::writeLaneState(const WordHook& h, int lane, std::uint64_t v)
{
    const auto i = static_cast<std::size_t>(h.comp);
    const std::uint64_t laneMask = 1ull << lane;
    const auto put = [lane, laneMask](std::vector<std::uint64_t>& planes,
                                      std::uint64_t value) {
        for (std::size_t b = 0; b < planes.size(); ++b) {
            planes[b] = (planes[b] & ~laneMask) | (((value >> b) & 1) << lane);
        }
    };
    // Each branch replicates the scalar component's setState()/setCount()/
    // forceState() masking, then re-propagates the injected lane.
    switch (h.kind) {
    case HookKind::Dff:
        dffState_[i] = (dffState_[i] & ~laneMask) | ((v & 1) << lane);
        propagateDff(h.comp, laneMask);
        break;
    case HookKind::Register:
        put(regState_[i], v & model_.regs[i].mask);
        propagateRegister(h.comp, laneMask);
        break;
    case HookKind::Counter:
        put(cntState_[i], (v & model_.counters[i].mask) % model_.counters[i].modulo);
        propagateCounter(h.comp, laneMask);
        break;
    case HookKind::Shift:
        put(shiftState_[i], v & ((1ull << shiftState_[i].size()) - 1));
        propagateShift(h.comp, laneMask);
        break;
    case HookKind::Lfsr:
        put(lfsrState_[i], v & model_.lfsrs[i].mask);
        propagateLfsr(h.comp, laneMask);
        break;
    case HookKind::Fsm:
        fsmState_[i].state[static_cast<std::size_t>(lane)] =
            static_cast<int>(v) & ((1 << model_.fsms[i].stateBits) - 1);
        driveFsm(h.comp, laneMask);
        break;
    }
}

void WordSim::armFault(int lane, const fault::FaultSpec& fault)
{
    if (const FaultEligibility e = faultEligibility(model_, fault); !e.eligible) {
        throw std::logic_error("WordSim::armFault: '" + fault::describe(fault) +
                               "' cannot ride a lane: " + e.reason);
    }
    const std::uint64_t laneMask = 1ull << lane;

    // NOTE: the deferred actions below must never capture the Visitor's
    // `this` — the Visitor is a stack temporary, dead long before run()
    // dispatches the action. Everything is init-captured by value (plus a
    // reference to the long-lived WordSim).
    struct Visitor {
        WordSim& sim;
        int lane;
        std::uint64_t laneMask;

        static void flipBit(WordSim& s, const WordHook& h, int lane, int bit)
        {
            // The DFF hook ignores the bit index (single-bit toggle); the
            // multi-bit hooks XOR the addressed bit, then re-mask on write.
            const std::uint64_t cur = s.readLaneState(h, lane);
            const std::uint64_t v =
                h.kind == HookKind::Dff ? cur ^ 1 : cur ^ (1ull << bit);
            s.writeLaneState(h, lane, v);
        }

        void operator()(const fault::BitFlipFault& f) const
        {
            const WordHook h = sim.model_.hooks.at(f.target);
            sim.scheduleAction(
                f.time, laneMask,
                [&s = sim, h, lane = lane, bit = f.bit](std::uint64_t) {
                    flipBit(s, h, lane, bit);
                });
        }
        void operator()(const fault::DoubleBitFlipFault& f) const
        {
            const WordHook h = sim.model_.hooks.at(f.target);
            sim.scheduleAction(
                f.time, laneMask,
                [&s = sim, h, lane = lane, bitA = f.bitA, bitB = f.bitB](std::uint64_t) {
                    flipBit(s, h, lane, bitA);
                    flipBit(s, h, lane, bitB);
                });
        }
        void operator()(const fault::StateWriteFault& f) const
        {
            const WordHook h = sim.model_.hooks.at(f.target);
            sim.scheduleAction(
                f.time, laneMask,
                [&s = sim, h, lane = lane, value = f.value](std::uint64_t) {
                    s.writeLaneState(h, lane, value);
                });
        }
        void operator()(const fault::FsmTransitionFault& f) const
        {
            const int idx = sim.model_.fsmIndex.at(f.target);
            sim.scheduleAction(
                f.time, laneMask,
                [&s = sim, idx, lane = lane, mask = laneMask,
                 forced = f.forcedState](std::uint64_t) {
                    FsmState& st = s.fsmState_[static_cast<std::size_t>(idx)];
                    st.forcedNext[static_cast<std::size_t>(lane)] = forced;
                    st.forcedMask |= mask;
                });
        }
        void operator()(const fault::DigitalPulseFault& f) const
        {
            // DigitalSaboteur::injectPulse: invert at time, back to
            // transparent at time + width, each a mode change that re-drives
            // the output through the saboteur's inertial delay.
            const int idx = sim.model_.sabIndex.at(f.saboteur);
            sim.scheduleAction(f.time, laneMask,
                               [&s = sim, idx, mask = laneMask](std::uint64_t) {
                                   s.sabState_[static_cast<std::size_t>(idx)].invertMask |= mask;
                                   s.driveSaboteur(idx, mask);
                               });
            sim.scheduleAction(f.time + f.width, laneMask,
                               [&s = sim, idx, mask = laneMask](std::uint64_t) {
                                   s.sabState_[static_cast<std::size_t>(idx)].invertMask &= ~mask;
                                   s.driveSaboteur(idx, mask);
                               });
        }
        void operator()(const fault::StuckAtFault& f) const
        {
            const int idx = sim.model_.sabIndex.at(f.saboteur);
            const bool one = f.value == digital::Logic::One;
            sim.scheduleAction(
                f.time, laneMask,
                [&s = sim, idx, one, mask = laneMask](std::uint64_t) {
                    SabState& st = s.sabState_[static_cast<std::size_t>(idx)];
                    st.stuckMask |= mask;
                    st.stuckVal = (st.stuckVal & ~mask) | (one ? mask : 0);
                    s.driveSaboteur(idx, mask);
                });
            if (f.duration > 0) {
                sim.scheduleAction(
                    f.time + f.duration, laneMask,
                    [&s = sim, idx, mask = laneMask](std::uint64_t) {
                        s.sabState_[static_cast<std::size_t>(idx)].stuckMask &= ~mask;
                        s.driveSaboteur(idx, mask);
                    });
            }
        }
        // The golden run and the analog kinds never pass the precondition.
        void operator()(const std::monostate&) const {}
        void operator()(const fault::CurrentPulseFault&) const {}
        void operator()(const fault::ParametricFault&) const {}
    };
    std::visit(Visitor{*this, lane, laneMask}, fault);
}

// --- top-level run ----------------------------------------------------------

bool WordSim::run()
{
    // Startup pass: every process runs once in creation order (uncounted),
    // exactly like Scheduler::start(). No events exist yet, so sequential
    // elements see their asserted resets and no clock edges.
    for (std::size_t p = 0; p < model_.processes.size(); ++p) {
        runProcess(static_cast<int>(p), kAllLanes);
    }

    // Counted waves at time zero (the scalar kernel's runDeltasNow()).
    std::uint64_t wavesHere = 0;
    while (!runnable_.empty() || (!queue_.empty() && queue_.nextTime() <= now_)) {
        if (++wavesHere > kWaveLimit) {
            failed_ = true;
            return false;
        }
        runWave();
    }
    flushTimePoint(now_);

    while (!queue_.empty() && queue_.nextTime() <= model_.duration) {
        now_ = queue_.nextTime();
        wavesHere = 0;
        while (!runnable_.empty() || (!queue_.empty() && queue_.nextTime() <= now_)) {
            if (++wavesHere > kWaveLimit) {
                failed_ = true;
                return false;
            }
            runWave();
        }
        flushTimePoint(now_);
    }
    now_ = model_.duration;
    return true;
}

} // namespace gfi::batch
