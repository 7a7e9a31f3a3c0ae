#include "batch/word_model.hpp"

#include "analyze/graph.hpp"
#include "core/saboteur.hpp"
#include "digital/arith.hpp"
#include "digital/sequential.hpp"
#include "digital/stimulus.hpp"

#include <unordered_map>
#include <unordered_set>

namespace gfi::batch {

namespace {

using digital::Logic;

/// Width-safe hook masks, mirroring the sequential components' widthMask().
std::uint64_t widthMask(int w)
{
    return w >= 64 ? ~0ull : (1ull << w) - 1;
}

class Compiler {
public:
    explicit Compiler(const fault::Testbench& tb) : tb_(tb) {}

    CompileResult compile()
    {
        const digital::Circuit& dig = tb_.sim().digital();

        if (tb_.sim().analog().unknownCount() > 0) {
            return fail("design has an analog domain (the word kernel is digital-only)");
        }
        if (!tb_.observedAnalog().empty()) {
            return fail("campaign observes analog nodes");
        }

        model_ = std::make_unique<WordModel>();
        model_->duration = tb_.duration();

        // Signals: every signal must be a two-valued logic signal so the
        // word representation (one bit per lane) is exact from time zero.
        for (const std::string& name : dig.signalNames()) {
            const digital::SignalBase& base = dig.findSignal(name);
            const auto* sig = dynamic_cast<const digital::LogicSignal*>(&base);
            if (sig == nullptr) {
                return fail("signal '" + name + "' is not a logic signal");
            }
            const Logic v = sig->value();
            if (v != Logic::Zero && v != Logic::One) {
                return fail("signal '" + name + "' initializes to a non-two-valued level");
            }
            sigIndex_[&base] = static_cast<int>(model_->signalNames.size());
            model_->signalNames.push_back(name);
            model_->signalInit.push_back(v == Logic::One ? 1 : 0);
        }

        // Components: each must belong to the compiled library. Their process
        // names are claimed so nothing outside the library can schedule work.
        for (const auto& comp : dig.components()) {
            if (!compileComponent(*comp)) {
                return fail(reason_);
            }
        }

        // Processes: creation order is the startup-pass order and defines the
        // per-signal wake order; every process must have been claimed above.
        model_->listeners.resize(model_->signalNames.size());
        for (const digital::ProcessConnectivity& conn : dig.connectivity()) {
            const auto it = claimed_.find(conn.process->name());
            if (it == claimed_.end()) {
                return fail("process '" + conn.process->name() +
                            "' is not owned by a word-compilable component");
            }
            WordProcess p = it->second;
            const int procIdx = static_cast<int>(model_->processes.size());
            for (digital::SignalBase* s : conn.triggers) {
                const int idx = indexOf(s);
                if (idx < 0) {
                    return fail("process '" + conn.process->name() +
                                "' is sensitive to an unknown signal");
                }
                p.sens.push_back(idx);
                model_->listeners[static_cast<std::size_t>(idx)].push_back(procIdx);
            }
            model_->processes.push_back(std::move(p));
        }

        // Zero-delay combinational cycles have event-driven delta-limit
        // semantics the word kernel does not reproduce.
        if (analyze::SignalGraph(tb_).cyclicSignals() != 0) {
            return fail("design has combinational cycles (delta-limit semantics "
                        "require the event-driven kernel)");
        }

        // Observation configuration.
        for (const std::string& name : tb_.observedDigital()) {
            const int idx = indexOf(&dig.findSignal(name));
            if (idx < 0) {
                return fail("observed signal '" + name + "' is unknown");
            }
            model_->observedDigital.push_back(idx);
        }
        for (const std::string& name : tb_.observedState()) {
            if (model_->hooks.count(name) == 0) {
                return fail("observed state '" + name +
                            "' is not a word-compiled state element");
            }
            model_->observedState.push_back(name);
        }

        return CompileResult{std::move(model_), ""};
    }

private:
    CompileResult fail(std::string why)
    {
        return CompileResult{nullptr, std::move(why)};
    }

    int indexOf(const digital::SignalBase* s) const
    {
        const auto it = sigIndex_.find(s);
        return it == sigIndex_.end() ? -1 : it->second;
    }

    /// Maps a required port; records a failure reason when absent.
    bool port(const digital::LogicSignal* s, const std::string& owner, int& out)
    {
        out = s == nullptr ? -1 : indexOf(s);
        if (out < 0) {
            reason_ = "component '" + owner + "' has an unmapped port signal";
            return false;
        }
        return true;
    }

    /// Maps an optional port (-1 when the component does not wire it).
    bool optPort(const digital::LogicSignal* s, const std::string& owner, int& out)
    {
        if (s == nullptr) {
            out = -1;
            return true;
        }
        return port(s, owner, out);
    }

    bool busPorts(const digital::Bus& bus, const std::string& owner, std::vector<int>& out)
    {
        for (digital::LogicSignal* bit : bus.bits()) {
            int idx = -1;
            if (!port(bit, owner, idx)) {
                return false;
            }
            out.push_back(idx);
        }
        return true;
    }

    void claim(const std::string& procName, WordKind kind, int comp)
    {
        claimed_[procName] = WordProcess{kind, comp, {}};
    }

    /// Asynchronous-reset requirement: a DFF powers up 'U', so without a reset
    /// asserted from time zero a bit-flip before the first load would have to
    /// propagate an unknown — outside the two-valued word representation.
    bool requireAssertedReset(const digital::LogicSignal* rstn, const std::string& owner)
    {
        if (rstn == nullptr || rstn->value() != Logic::Zero) {
            reason_ = "component '" + owner +
                      "' powers up unknown (needs an asserted active-low reset)";
            return false;
        }
        return true;
    }

    bool compileComponent(const digital::Component& c)
    {
        if (const auto* g = dynamic_cast<const digital::ClockGen*>(&c)) {
            WordClockGen w;
            if (!port(g->clk(), c.name(), w.clk)) {
                return false;
            }
            w.period = g->period();
            w.highTime = g->highTime();
            w.start = g->nextRise();
            model_->clocks.push_back(w);
            return true;
        }
        if (const auto* s = dynamic_cast<const digital::StimulusSchedule*>(&c)) {
            WordStimulus w;
            for (const digital::StimulusSchedule::Item& item : s->items()) {
                const Logic v = item.value;
                if (v != Logic::Zero && v != Logic::One) {
                    reason_ = "component '" + c.name() +
                              "' schedules a non-two-valued stimulus";
                    return false;
                }
                const int idx = indexOf(item.signal);
                if (idx < 0) {
                    reason_ = "component '" + c.name() + "' drives an unknown signal";
                    return false;
                }
                w.items.push_back(WordStimulus::Item{item.time, idx, v == Logic::One});
            }
            model_->stimuli.push_back(std::move(w));
            return true;
        }
        if (const auto* g = dynamic_cast<const digital::Gate*>(&c)) {
            WordGate w;
            w.kind = g->kind();
            w.delay = g->delay();
            for (const digital::LogicSignal* in : g->inputs()) {
                int idx = -1;
                if (!port(in, c.name(), idx)) {
                    return false;
                }
                w.in.push_back(idx);
            }
            if (!port(g->output(), c.name(), w.out)) {
                return false;
            }
            claim(c.name() + "/eval", WordKind::Gate, static_cast<int>(model_->gates.size()));
            model_->gates.push_back(std::move(w));
            return true;
        }
        if (const auto* s = dynamic_cast<const fault::DigitalSaboteur*>(&c)) {
            WordSaboteur w;
            w.name = c.name();
            w.delay = s->delay();
            if (!port(s->input(), c.name(), w.in) || !port(s->output(), c.name(), w.out)) {
                return false;
            }
            claim(c.name() + "/pass", WordKind::Saboteur,
                  static_cast<int>(model_->sabs.size()));
            model_->sabIndex[c.name()] = static_cast<int>(model_->sabs.size());
            model_->sabs.push_back(std::move(w));
            return true;
        }
        if (const auto* f = dynamic_cast<const digital::DFlipFlop*>(&c)) {
            if (!requireAssertedReset(f->rstn(), c.name())) {
                return false;
            }
            WordDff w;
            w.name = c.name();
            w.clkToQ = f->clkToQ();
            if (!port(f->clk(), c.name(), w.clk) || !port(f->d(), c.name(), w.d) ||
                !port(f->q(), c.name(), w.q) || !optPort(f->qn(), c.name(), w.qn) ||
                !port(f->rstn(), c.name(), w.rstn)) {
                return false;
            }
            claim(c.name() + "/seq", WordKind::Dff, static_cast<int>(model_->dffs.size()));
            model_->hooks[c.name()] =
                WordHook{HookKind::Dff, static_cast<int>(model_->dffs.size()), 1};
            model_->dffs.push_back(std::move(w));
            return true;
        }
        if (const auto* r = dynamic_cast<const digital::Register*>(&c)) {
            WordRegister w;
            w.name = c.name();
            w.resetValue = r->resetValue();
            w.mask = widthMask(r->d().width());
            w.clkToQ = r->clkToQ();
            if (!port(r->clk(), c.name(), w.clk) || !optPort(r->en(), c.name(), w.en) ||
                !optPort(r->rstn(), c.name(), w.rstn) ||
                !busPorts(r->d(), c.name(), w.d) || !busPorts(r->q(), c.name(), w.q)) {
                return false;
            }
            claim(c.name() + "/seq", WordKind::Register,
                  static_cast<int>(model_->regs.size()));
            model_->hooks[c.name()] = WordHook{
                HookKind::Register, static_cast<int>(model_->regs.size()), r->d().width()};
            model_->regs.push_back(std::move(w));
            return true;
        }
        if (const auto* n = dynamic_cast<const digital::Counter*>(&c)) {
            WordCounter w;
            w.name = c.name();
            w.mask = widthMask(n->q().width());
            w.modulo = n->modulo();
            w.clkToQ = n->clkToQ();
            if (!port(n->clk(), c.name(), w.clk) || !optPort(n->rstn(), c.name(), w.rstn) ||
                !optPort(n->en(), c.name(), w.en) || !optPort(n->tc(), c.name(), w.tc) ||
                !busPorts(n->q(), c.name(), w.q)) {
                return false;
            }
            claim(c.name() + "/seq", WordKind::Counter,
                  static_cast<int>(model_->counters.size()));
            model_->hooks[c.name()] = WordHook{
                HookKind::Counter, static_cast<int>(model_->counters.size()), n->q().width()};
            model_->counters.push_back(std::move(w));
            return true;
        }
        if (const auto* s = dynamic_cast<const digital::ShiftRegister*>(&c)) {
            WordShift w;
            w.name = c.name();
            w.clkToQ = s->clkToQ();
            if (!port(s->clk(), c.name(), w.clk) ||
                !port(s->serialIn(), c.name(), w.serialIn) ||
                !optPort(s->rstn(), c.name(), w.rstn) ||
                !busPorts(s->taps(), c.name(), w.taps)) {
                return false;
            }
            claim(c.name() + "/seq", WordKind::Shift,
                  static_cast<int>(model_->shifts.size()));
            model_->hooks[c.name()] = WordHook{
                HookKind::Shift, static_cast<int>(model_->shifts.size()),
                s->taps().width()};
            model_->shifts.push_back(std::move(w));
            return true;
        }
        if (const auto* l = dynamic_cast<const digital::Lfsr*>(&c)) {
            WordLfsr w;
            w.name = c.name();
            w.taps = l->taps();
            w.seed = l->seed();
            w.mask = widthMask(l->q().width());
            w.clkToQ = l->clkToQ();
            if (!port(l->clk(), c.name(), w.clk) || !optPort(l->rstn(), c.name(), w.rstn) ||
                !busPorts(l->q(), c.name(), w.q)) {
                return false;
            }
            claim(c.name() + "/seq", WordKind::Lfsr, static_cast<int>(model_->lfsrs.size()));
            model_->hooks[c.name()] = WordHook{
                HookKind::Lfsr, static_cast<int>(model_->lfsrs.size()), l->q().width()};
            model_->lfsrs.push_back(std::move(w));
            return true;
        }
        if (const auto* f = dynamic_cast<const digital::TableFsm*>(&c)) {
            WordFsm w;
            w.name = c.name();
            w.numStates = f->numStates();
            w.resetState = f->resetState();
            w.stateBits = f->stateBits();
            w.next = f->transitionFn();
            w.output = f->outputFn();
            w.clkToQ = f->clkToQ();
            if (!port(f->clk(), c.name(), w.clk) || !optPort(f->rstn(), c.name(), w.rstn) ||
                !busPorts(f->inBus(), c.name(), w.in) ||
                !busPorts(f->outBus(), c.name(), w.out)) {
                return false;
            }
            claim(c.name() + "/seq", WordKind::Fsm, static_cast<int>(model_->fsms.size()));
            model_->hooks[c.name()] = WordHook{
                HookKind::Fsm, static_cast<int>(model_->fsms.size()), f->stateBits()};
            model_->fsmIndex[c.name()] = static_cast<int>(model_->fsms.size());
            model_->fsms.push_back(std::move(w));
            return true;
        }
        if (const auto* a = dynamic_cast<const digital::Adder*>(&c)) {
            WordAdder w;
            w.width = a->a().width();
            w.delay = a->delay();
            if (!busPorts(a->a(), c.name(), w.a) || !busPorts(a->b(), c.name(), w.b) ||
                !busPorts(a->sum(), c.name(), w.sum) ||
                !optPort(a->cin(), c.name(), w.cin) ||
                !optPort(a->cout(), c.name(), w.cout)) {
                return false;
            }
            claim(c.name() + "/eval", WordKind::Adder,
                  static_cast<int>(model_->adders.size()));
            model_->adders.push_back(std::move(w));
            return true;
        }
        if (const auto* e = dynamic_cast<const digital::EqComparator*>(&c)) {
            WordEq w;
            w.delay = e->delay();
            if (!busPorts(e->a(), c.name(), w.a) || !busPorts(e->b(), c.name(), w.b) ||
                !port(e->eq(), c.name(), w.eq)) {
                return false;
            }
            claim(c.name() + "/eval", WordKind::Eq, static_cast<int>(model_->eqs.size()));
            model_->eqs.push_back(std::move(w));
            return true;
        }
        reason_ = "component '" + c.name() + "' is outside the word-compiled library";
        return false;
    }

    const fault::Testbench& tb_;
    std::unique_ptr<WordModel> model_;
    std::unordered_map<const digital::SignalBase*, int> sigIndex_;
    std::unordered_map<std::string, WordProcess> claimed_;
    std::string reason_;
};

} // namespace

CompileResult compileWordModel(const fault::Testbench& tb)
{
    return Compiler(tb).compile();
}

FaultEligibility faultEligibility(const WordModel& model, const fault::FaultSpec& fault)
{
    struct Visitor {
        const WordModel& m;

        FaultEligibility operator()(const std::monostate&) const
        {
            return {false, "golden reference run"};
        }
        FaultEligibility hookTarget(const std::string& target, int bit) const
        {
            if (m.hooks.count(target) == 0) {
                return {false, "target '" + target +
                                   "' is not a word-compiled state element"};
            }
            if (bit < 0 || bit > 63) {
                return {false, "target '" + target + "' bit index out of word range"};
            }
            return {true, ""};
        }
        FaultEligibility operator()(const fault::BitFlipFault& f) const
        {
            return hookTarget(f.target, f.bit);
        }
        FaultEligibility operator()(const fault::DoubleBitFlipFault& f) const
        {
            const FaultEligibility a = hookTarget(f.target, f.bitA);
            return a.eligible ? hookTarget(f.target, f.bitB) : a;
        }
        FaultEligibility operator()(const fault::StateWriteFault& f) const
        {
            return hookTarget(f.target, 0);
        }
        FaultEligibility operator()(const fault::FsmTransitionFault& f) const
        {
            if (m.fsmIndex.count(f.target) == 0) {
                return {false, "target '" + f.target + "' is not a word-compiled FSM"};
            }
            return {true, ""};
        }
        FaultEligibility operator()(const fault::DigitalPulseFault& f) const
        {
            if (m.sabIndex.count(f.saboteur) == 0) {
                return {false, "saboteur '" + f.saboteur + "' is not word-compiled"};
            }
            return {true, ""};
        }
        FaultEligibility operator()(const fault::StuckAtFault& f) const
        {
            if (m.sabIndex.count(f.saboteur) == 0) {
                return {false, "saboteur '" + f.saboteur + "' is not word-compiled"};
            }
            if (f.value != digital::Logic::Zero && f.value != digital::Logic::One) {
                return {false, "saboteur '" + f.saboteur +
                                   "': stuck value is not two-valued"};
            }
            return {true, ""};
        }
        FaultEligibility operator()(const fault::CurrentPulseFault& f) const
        {
            return {false, "saboteur '" + f.saboteur + "': analog current-pulse fault"};
        }
        FaultEligibility operator()(const fault::ParametricFault& f) const
        {
            return {false, "parameter '" + f.parameter + "': analog/parametric fault"};
        }
    };
    return std::visit(Visitor{model}, fault);
}

} // namespace gfi::batch
