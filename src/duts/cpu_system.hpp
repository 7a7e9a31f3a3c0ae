#pragma once
// Processor system under architectural SEU campaigns.
//
// The COAST-style supervisor (src/inject) needs a CPU design whose
// software-visible effects are measurable: a TinyCpu core, a program ROM, a
// data memory (raw or SEC-DED with an optional scrubbing engine) and an
// output-port register that can be built in any of the hardened variants
// (none / TMR / DWC / SEC-DED). On top of the plain signal-level observation
// the testbench registers *supervisor hooks* — hang flag, detection evidence,
// correction evidence and a digest of the architectural memory image — as
// ordinary instrumentation state observed via observeState(). The
// architectural verdict of a run is therefore fully determined by the
// journaled RunResult (erredSignals + corruptedState), which is what lets the
// supervisor ride the campaign engine's journal resume, parallel ordered
// commits and fork-from-golden paths unchanged.

#include "core/testbench.hpp"
#include "duts/protected_dut.hpp" // Protection
#include "duts/tiny_cpu.hpp"
#include "harden/ecc_ram.hpp"
#include "harden/scrubber.hpp"
#include "harden/tmr.hpp"

namespace gfi::duts {

/// Preset hardening configurations for sweep reports.
enum class HardeningMode {
    None,       ///< raw RAM, plain output register
    Tmr,        ///< TMR output register
    Dwc,        ///< DWC output register (detection only)
    EccScrub,   ///< SEC-DED RAM + scrubber, ECC output register
    TmrEccScrub ///< TMR output register + SEC-DED RAM + scrubber
};

/// Short name for reports.
[[nodiscard]] const char* toString(HardeningMode m);

/// Hardening configuration of the CPU system.
struct CpuHardening {
    Protection outReg = Protection::None; ///< output-port register variant
    bool eccRam = false;                  ///< SEC-DED data RAM instead of raw
    SimTime scrubPeriod = 0;              ///< 0 = no scrubber (needs eccRam)
};

/// The preset hardening for a sweep mode.
[[nodiscard]] CpuHardening hardeningPreset(HardeningMode m);

/// The default supervisor workload: seeds RAM[16] with a stride, then sums it
/// into the accumulator in a backward JNZ loop, streaming each partial sum to
/// the output port and spilling it to RAM[17], until the 8-bit sum wraps to
/// zero and the program halts. Exercises every target class (PC, ACC, halt
/// state, RAM data, output register) and reacts to a corrupted stride with
/// the full taxonomy: an odd stride multiplies the iteration count (hang), a
/// changed even stride alters the streamed values (SDC).
[[nodiscard]] std::vector<std::uint64_t> defaultCpuProgram();

/// Parameters of the CPU system experiment.
struct CpuSystemConfig {
    double clockHz = 50e6;
    SimTime duration = 6 * kMicrosecond;
    /// No-halt detector deadline: a run whose CPU has not halted by this time
    /// is declared a Hang and stops simulating. 0 = duration / 2. The golden
    /// program must halt before the deadline (the supervisor enforces this).
    SimTime hangDeadline = 0;
    std::vector<std::uint64_t> program = defaultCpuProgram();
    /// Data-RAM words whose *decoded* end-of-run contents define the
    /// architectural memory image (the SDC criterion alongside the OUT port).
    std::vector<int> dataWords{16, 17};
    CpuHardening hardening;
};

// Supervisor-hook names (observed via observeState; the supervisor keys its
// taxonomy off their presence in RunResult.corruptedState).
inline constexpr const char* kHangHook = "sys/sup/hang";
inline constexpr const char* kDetectedHook = "sys/sup/detected";
inline constexpr const char* kCorrectedHook = "sys/sup/corrected";
inline constexpr const char* kMemImageHook = "sys/sup/memimage";

/// The elaborated CPU system: core + ROM + (ECC) RAM + hardened out-register.
/// The supervisor's own state (the hang flag and the meta-hook overlays) is
/// Snapshottable and sits in the simulator's state registry, so a restored
/// testbench re-runs without a stale verdict from its previous run.
class CpuSystemTestbench : public fault::Testbench, public snapshot::Snapshottable {
public:
    explicit CpuSystemTestbench(CpuSystemConfig config = {});

    /// Configuration used.
    [[nodiscard]] const CpuSystemConfig& config() const noexcept { return config_; }

    /// The CPU core (diagnostics).
    [[nodiscard]] TinyCpu& cpu() noexcept { return *cpu_; }

    /// The resolved no-halt deadline.
    [[nodiscard]] SimTime hangDeadline() const noexcept;

    /// True once the no-halt detector tripped (the run stopped early).
    [[nodiscard]] bool hangDetected() const noexcept { return hang_; }

    /// True when any protection mechanism reported an error it could not
    /// transparently absorb: a DWC mismatch pulse, an ECC uncorrectable flag
    /// (register or RAM read path), or an uncorrectable word met by the
    /// scrubber.
    [[nodiscard]] bool detectionEvidence() const;

    /// True when any protection mechanism transparently repaired an upset
    /// (ECC read/scrub corrections). TMR leaves no counter behind, so TMR
    /// masking reports as Masked, not Corrected.
    [[nodiscard]] bool correctionEvidence() const;

    /// FNV-1a digest of the decoded contents of config().dataWords — the
    /// architectural memory image at the time of the call.
    [[nodiscard]] std::uint64_t memoryDigest() const;

    /// Staged execution with the no-halt detector: run to the hang deadline;
    /// if the CPU has not halted, declare a Hang and stop (well under any
    /// sane wall-clock watchdog budget), else run out the full duration. For
    /// a golden program that halts before the deadline this is equivalent to
    /// the default run(), which keeps fork-from-golden checkpoints valid.
    void run() override;

    void captureState(snapshot::Writer& w) const override;
    void restoreState(snapshot::Reader& r) override;

private:
    [[nodiscard]] bool traceSawOne(const std::string& signal) const;

    CpuSystemConfig config_;
    TinyCpu* cpu_ = nullptr;
    digital::Ram* rawRam_ = nullptr;
    harden::EccRam* eccRam_ = nullptr;
    harden::Scrubber* scrubber_ = nullptr;
    harden::EccRegister* eccOutReg_ = nullptr;
    std::vector<std::string> flagSignals_; ///< recorded detection flags
    bool hang_ = false;
    // Injection overlays for the supervisor meta-hooks: the hooks must be
    // writable like any other state element (preflight targets them, tests
    // perturb them), but their natural value is derived, so writes land in an
    // overlay instead.
    bool detectedFlip_ = false;
    bool correctedFlip_ = false;
    std::uint64_t digestXor_ = 0;
};

} // namespace gfi::duts
