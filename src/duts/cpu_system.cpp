#include "duts/cpu_system.hpp"

namespace gfi::duts {

using namespace digital;

const char* toString(HardeningMode m)
{
    switch (m) {
    case HardeningMode::None:
        return "none";
    case HardeningMode::Tmr:
        return "TMR";
    case HardeningMode::Dwc:
        return "DWC";
    case HardeningMode::EccScrub:
        return "ECC+scrub";
    case HardeningMode::TmrEccScrub:
        return "TMR+ECC+scrub";
    }
    return "?";
}

CpuHardening hardeningPreset(HardeningMode m)
{
    CpuHardening h;
    switch (m) {
    case HardeningMode::None:
        break;
    case HardeningMode::Tmr:
        h.outReg = Protection::Tmr;
        break;
    case HardeningMode::Dwc:
        h.outReg = Protection::Dwc;
        break;
    case HardeningMode::EccScrub:
        h.outReg = Protection::Ecc;
        h.eccRam = true;
        h.scrubPeriod = 200 * kNanosecond;
        break;
    case HardeningMode::TmrEccScrub:
        h.outReg = Protection::Tmr;
        h.eccRam = true;
        h.scrubPeriod = 200 * kNanosecond;
        break;
    }
    return h;
}

std::vector<std::uint64_t> defaultCpuProgram()
{
    return {
        asm1(Op::Ldi, 16), // 0: ACC = 16
        asm1(Op::Sta, 16), // 1: RAM[16] = 16 (the stride)
        asm1(Op::Ldi, 0),  // 2: ACC = 0
        asm1(Op::Add, 16), // 3: loop: ACC += stride
        asm1(Op::Out),     // 4: stream the partial sum
        asm1(Op::Sta, 17), // 5: spill it to RAM[17]
        asm1(Op::Jnz, 3),  // 6: until the 8-bit sum wraps to 0
        asm1(Op::Out),     // 7: final zero
        asm1(Op::Hlt),     // 8: done (~69 cycles golden)
    };
}

CpuSystemTestbench::CpuSystemTestbench(CpuSystemConfig config) : config_(std::move(config))
{
    auto& dig = sim().digital();
    const SimTime period = fromSeconds(1.0 / config_.clockHz);

    auto& clk = dig.logicSignal("sys/clk", Logic::Zero);
    // Start the clock well after elaboration so the first fetch settles.
    dig.add<ClockGen>(dig, "sys/clkgen", clk, period, 0.5, period);

    Bus romAddr = dig.bus("sys/rom_addr", 5, Logic::Zero);
    Bus instr = dig.bus("sys/instr", 8, Logic::Zero);
    dig.add<Rom>(dig, "sys/rom", romAddr, instr, config_.program);

    Bus ramAddr = dig.bus("sys/ram_addr", 5, Logic::Zero);
    Bus ramWData = dig.bus("sys/ram_wdata", 8, Logic::Zero);
    Bus ramRData = dig.bus("sys/ram_rdata", 8, Logic::U);
    auto& ramWe = dig.logicSignal("sys/ram_we", Logic::Zero);
    if (config_.hardening.eccRam) {
        auto& ramUe = dig.logicSignal("sys/ram_ue", Logic::U);
        eccRam_ = &dig.add<harden::EccRam>(dig, "sys/ram", clk, ramWe, ramAddr, ramWData,
                                           ramRData, &ramUe);
        flagSignals_.push_back("sys/ram_ue");
        if (config_.hardening.scrubPeriod > 0) {
            scrubber_ =
                &dig.add<harden::Scrubber>(dig, "sys/scrub", *eccRam_,
                                           config_.hardening.scrubPeriod);
        }
    } else {
        rawRam_ = &dig.add<Ram>(dig, "sys/ram", clk, ramWe, ramAddr, ramWData, ramRData);
    }

    Bus port = dig.bus("sys/port", 8, Logic::Zero);
    auto& halted = dig.logicSignal("sys/halted", Logic::U);
    cpu_ = &dig.add<TinyCpu>(dig, "sys/core", clk, instr, romAddr, ramAddr, ramWData,
                             ramRData, ramWe, port, halted);

    // Output-port register: the hardened element between the CPU's port bus
    // and the observed system output.
    Bus out = dig.bus("sys/out", 8, Logic::U);
    switch (config_.hardening.outReg) {
    case Protection::None:
        dig.add<Register>(dig, "sys/outreg", clk, port, out);
        break;
    case Protection::Tmr:
        dig.add<harden::TmrRegister>(dig, "sys/outreg", clk, port, out);
        break;
    case Protection::Dwc: {
        auto& err = dig.logicSignal("sys/outreg_err", Logic::U);
        dig.add<harden::DwcRegister>(dig, "sys/outreg", clk, port, out, err);
        flagSignals_.push_back("sys/outreg_err");
        break;
    }
    case Protection::Ecc: {
        auto& ue = dig.logicSignal("sys/outreg_ue", Logic::U);
        eccOutReg_ = &dig.add<harden::EccRegister>(dig, "sys/outreg", clk, port, out, &ue);
        flagSignals_.push_back("sys/outreg_ue");
        break;
    }
    }

    // Supervisor meta-hooks: derived evidence exposed as ordinary state so
    // classify() journals the architectural verdict via corruptedState.
    dig.instrumentation().add(StateHook{
        kHangHook, 1, [this] { return static_cast<std::uint64_t>(hang_ ? 1 : 0); },
        [this](std::uint64_t v) { hang_ = (v & 1) != 0; },
        [this](int) { hang_ = !hang_; }});
    dig.instrumentation().add(StateHook{
        kDetectedHook, 1,
        [this] {
            return static_cast<std::uint64_t>((detectionEvidence() != detectedFlip_) ? 1 : 0);
        },
        [this](std::uint64_t v) { detectedFlip_ = ((v & 1) != 0) != detectionEvidence(); },
        [this](int) { detectedFlip_ = !detectedFlip_; }});
    dig.instrumentation().add(StateHook{
        kCorrectedHook, 1,
        [this] {
            return static_cast<std::uint64_t>((correctionEvidence() != correctedFlip_) ? 1
                                                                                       : 0);
        },
        [this](std::uint64_t v) { correctedFlip_ = ((v & 1) != 0) != correctionEvidence(); },
        [this](int) { correctedFlip_ = !correctedFlip_; }});
    dig.instrumentation().add(StateHook{
        kMemImageHook, 64, [this] { return memoryDigest() ^ digestXor_; },
        [this](std::uint64_t v) { digestXor_ = memoryDigest() ^ v; },
        [this](int bit) { digestXor_ ^= 1ull << bit; }});
    sim().stateRegistry().add("sys/sup", this);

    // Compared outputs: the registered OUT-port stream and the halt line.
    for (int b = 0; b < 8; ++b) {
        observeDigital("sys/out[" + std::to_string(b) + "]");
    }
    observeDigital("sys/halted");
    // Detection flags are recorded (so a pulse leaves trace evidence for the
    // detected hook) but NOT compared — a raised flag is the mechanism doing
    // its job, not an output error.
    for (const std::string& name : flagSignals_) {
        recorder().recordDigital(name);
    }
    // Every state element — architectural registers, RAM words, hardened
    // copies/codewords and the supervisor hooks — enters the end-of-run
    // latent comparison.
    observeAllState();
    setDuration(config_.duration);
}

SimTime CpuSystemTestbench::hangDeadline() const noexcept
{
    return config_.hangDeadline > 0 ? config_.hangDeadline : duration() / 2;
}

bool CpuSystemTestbench::detectionEvidence() const
{
    for (const std::string& name : flagSignals_) {
        if (traceSawOne(name)) {
            return true;
        }
    }
    return scrubber_ != nullptr && scrubber_->uncorrectables() > 0;
}

bool CpuSystemTestbench::correctionEvidence() const
{
    return (eccRam_ != nullptr && eccRam_->correctionCount() > 0) ||
           (scrubber_ != nullptr && scrubber_->repairs() > 0) ||
           (eccOutReg_ != nullptr && eccOutReg_->correctionCount() > 0);
}

std::uint64_t CpuSystemTestbench::memoryDigest() const
{
    // FNV-1a over (address, decoded word) pairs: corruption anywhere in the
    // architectural data words changes the digest; an ECC-corrected word does
    // not (decode absorbs the flip even before a scrub rewrites it).
    std::uint64_t h = 1469598103934665603ull;
    const auto mix = [&h](std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xFF;
            h *= 1099511628211ull;
        }
    };
    for (int a : config_.dataWords) {
        mix(static_cast<std::uint64_t>(a));
        mix(eccRam_ != nullptr ? eccRam_->word(a) : rawRam_->word(a));
    }
    return h;
}

void CpuSystemTestbench::run()
{
    const SimTime deadline = std::min(hangDeadline(), duration());
    sim().run(deadline);
    if (!cpu_->halted()) {
        hang_ = true; // no-halt detector: stop burning the watchdog budget
        return;
    }
    sim().run(duration());
}

void CpuSystemTestbench::captureState(snapshot::Writer& w) const
{
    w.boolean(hang_);
    w.boolean(detectedFlip_);
    w.boolean(correctedFlip_);
    w.u64(digestXor_);
}

void CpuSystemTestbench::restoreState(snapshot::Reader& r)
{
    hang_ = r.boolean();
    detectedFlip_ = r.boolean();
    correctedFlip_ = r.boolean();
    digestXor_ = r.u64();
}

bool CpuSystemTestbench::traceSawOne(const std::string& signal) const
{
    const trace::DigitalTrace& tr = recorder().digitalTrace(signal);
    if (toX01(tr.initial) == Logic::One) {
        return true;
    }
    for (const auto& [t, v] : tr.events) {
        if (toX01(v) == Logic::One) {
            return true;
        }
    }
    return false;
}

} // namespace gfi::duts
