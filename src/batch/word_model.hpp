#pragma once
// Word-level netlist model for bit-parallel (PPSFP-style) fault simulation.
//
// The event-driven kernel simulates one fault per run. Classic test-generation
// literature batches them instead: every net becomes one machine word, bit
// lane 0 carries the golden circuit and lanes 1..63 carry fault variants, so
// one word-level simulation evaluates 64 circuits at once and a lane's
// divergence mask against lane 0 yields its classification. compileWordModel
// lifts an elaborated Testbench into that representation — or refuses, with a
// reason naming the offending component, when the design uses constructs the
// word kernel cannot reproduce bit-exactly (analog domains, unknown values,
// components outside the compiled library). The compiler is deliberately
// conservative: a design is only eligible when the word kernel provably
// replays the VHDL-style wave scheduler lane-for-lane, which is what lets the
// campaign layer swap backends without changing a byte of output.

#include "core/fault.hpp"
#include "core/testbench.hpp"
#include "digital/fsm.hpp"
#include "digital/gates.hpp"

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace gfi::batch {

/// Kinds of word-compiled processes (one per scalar Process).
enum class WordKind {
    Gate,
    Saboteur,
    Dff,
    Register,
    Counter,
    Shift,
    Lfsr,
    Fsm,
    Adder,
    Eq,
};

/// Stateful element kinds addressable by instrumentation-hook name.
enum class HookKind { Dff, Register, Counter, Shift, Lfsr, Fsm };

struct WordGate {
    digital::GateKind kind;
    std::vector<int> in;
    int out = -1;
    SimTime delay = 0;
};

struct WordSaboteur {
    std::string name;
    int in = -1;
    int out = -1;
    SimTime delay = 0;
};

struct WordDff {
    std::string name;
    int clk = -1;
    int d = -1;
    int q = -1;
    int qn = -1; ///< -1 when absent
    int rstn = -1;
    SimTime clkToQ = 0;
};

struct WordRegister {
    std::string name;
    int clk = -1;
    int en = -1;   ///< -1 when absent
    int rstn = -1; ///< -1 when absent
    std::vector<int> d;
    std::vector<int> q;
    std::uint64_t resetValue = 0;
    std::uint64_t mask = 0;
    SimTime clkToQ = 0;
};

struct WordCounter {
    std::string name;
    int clk = -1;
    int rstn = -1;
    int en = -1;
    int tc = -1;
    std::vector<int> q;
    std::uint64_t modulo = 0; ///< resolved wrap value (never 0)
    std::uint64_t mask = 0;
    SimTime clkToQ = 0;
};

struct WordShift {
    std::string name;
    int clk = -1;
    int serialIn = -1;
    int rstn = -1;
    std::vector<int> taps;
    SimTime clkToQ = 0;
};

struct WordLfsr {
    std::string name;
    int clk = -1;
    int rstn = -1;
    std::vector<int> q;
    std::uint64_t taps = 0;
    std::uint64_t seed = 0;
    std::uint64_t mask = 0;
    SimTime clkToQ = 0;
};

struct WordFsm {
    std::string name;
    int clk = -1;
    int rstn = -1;
    std::vector<int> in;
    std::vector<int> out;
    int numStates = 0;
    int resetState = 0;
    int stateBits = 0;
    digital::TableFsm::TransitionFn next;
    digital::TableFsm::OutputFn output;
    SimTime clkToQ = 0;
};

struct WordAdder {
    std::vector<int> a;
    std::vector<int> b;
    std::vector<int> sum;
    int cin = -1;
    int cout = -1;
    int width = 0;
    SimTime delay = 0;
};

struct WordEq {
    std::vector<int> a;
    std::vector<int> b;
    int eq = -1;
    SimTime delay = 0;
};

struct WordClockGen {
    int clk = -1;
    SimTime period = 0;
    SimTime highTime = 0;
    SimTime start = 0;
};

struct WordStimulus {
    struct Item {
        SimTime time;
        int signal;
        bool value; ///< two-valued by eligibility
    };
    std::vector<Item> items;
};

/// One word process: kind + index into the per-kind table + sensitivity list.
struct WordProcess {
    WordKind kind;
    int comp = 0;
    std::vector<int> sens; ///< signal indices, declaration order
};

/// One compiled hook target (BitFlip / StateWrite faults address these).
struct WordHook {
    HookKind kind;
    int comp = 0;
    int width = 1;
};

/// The compiled design: plain data plus the FSM callables, with no pointer
/// into the testbench it was compiled from. A campaign compiles one model;
/// it is read-only from then on and shared by every word group, so the FSM
/// callables are called concurrently (TableFsm requires them to be pure).
struct WordModel {
    std::vector<std::string> signalNames; ///< creation order
    std::vector<std::uint8_t> signalInit; ///< initial bit per signal
    std::vector<std::vector<int>> listeners; ///< per signal: woken processes, wake order

    std::vector<WordProcess> processes; ///< creation order (startup pass order)

    std::vector<WordGate> gates;
    std::vector<WordSaboteur> sabs;
    std::vector<WordDff> dffs;
    std::vector<WordRegister> regs;
    std::vector<WordCounter> counters;
    std::vector<WordShift> shifts;
    std::vector<WordLfsr> lfsrs;
    std::vector<WordFsm> fsms;
    std::vector<WordAdder> adders;
    std::vector<WordEq> eqs;
    std::vector<WordClockGen> clocks;
    std::vector<WordStimulus> stimuli;

    std::map<std::string, WordHook> hooks;  ///< state-element faults by name
    std::map<std::string, int> sabIndex;    ///< stuck-at and SET faults by saboteur name
    std::map<std::string, int> fsmIndex;    ///< transition faults by FSM name

    std::vector<int> observedDigital;       ///< signal index per observed name
    std::vector<std::string> observedState; ///< hook names, observation order

    SimTime duration = 0;

    [[nodiscard]] int signalCount() const noexcept
    {
        return static_cast<int>(signalNames.size());
    }
};

/// Compilation outcome: a model, or a reason naming what blocked it.
struct CompileResult {
    std::unique_ptr<WordModel> model; ///< null when the design is ineligible
    std::string reason;               ///< why, when null
};

/// Lifts @p tb (a freshly built, not-yet-run testbench) into a WordModel.
[[nodiscard]] CompileResult compileWordModel(const fault::Testbench& tb);

/// Per-fault batch eligibility against a compiled design.
struct FaultEligibility {
    bool eligible = false;
    std::string reason; ///< why not, naming the component/target
};

/// Decides whether @p fault can ride a 64-lane word simulation of @p model.
/// Analog faults, stuck-at-X and faults addressing targets outside the
/// compiled netlist fall back to the event-driven kernel.
[[nodiscard]] FaultEligibility faultEligibility(const WordModel& model,
                                                const fault::FaultSpec& fault);

} // namespace gfi::batch
