#pragma once
// Run watchdog: wall-clock deadline plus digital-wave and analog-step budgets
// for one simulation run. The campaign engine arms one watchdog per injection
// run and threads it through ams::MixedSimulator into both kernels; when a
// budget is exhausted the kernels unwind with WatchdogTimeout, which the
// campaign layer classifies as Outcome::Timeout instead of hanging forever on
// a pathological fault.
//
// Cost model: the counters are bumped from the kernels' inner loops, so
// charging is a branch + increment; the wall clock is only sampled every
// kWallCheckInterval charges (steady_clock reads are ~20 ns — cheap, but not
// free at millions of waves per run).

#include "sim/errors.hpp"

#include <chrono>
#include <cstdint>
#include <thread>

namespace gfi {

/// Per-run resource budgets. Zero means "unlimited" for each field.
struct WatchdogConfig {
    double wallClockSeconds = 0.0;    ///< real-time deadline for one run
    std::uint64_t digitalWaves = 0;   ///< total delta-cycle (wave) budget
    std::uint64_t analogSteps = 0;    ///< total analog step attempts budget

    /// Budgets for one of @p workers concurrent runs. The wave and step
    /// budgets count simulated work — deterministic, so they stay exact.
    /// The wall-clock deadline measures real time, which stretches when
    /// workers oversubscribe the cores: scale it by the oversubscription
    /// factor so a run that fits its budget alone does not flip to Timeout
    /// merely because the campaign went parallel.
    [[nodiscard]] WatchdogConfig scaledFor(unsigned workers) const
    {
        WatchdogConfig scaled = *this;
        if (workers > 1 && wallClockSeconds > 0.0) {
            const unsigned hc = std::thread::hardware_concurrency();
            const unsigned cores = hc != 0 ? hc : 1;
            if (workers > cores) {
                scaled.wallClockSeconds =
                    wallClockSeconds * static_cast<double>(workers) / cores;
            }
        }
        return scaled;
    }
};

/// Counts a run's resource use and throws WatchdogTimeout past any budget.
class Watchdog {
public:
    explicit Watchdog(WatchdogConfig config = {}) : config_(config) { arm(); }

    /// (Re)starts the wall clock and zeroes the counters.
    void arm()
    {
        start_ = std::chrono::steady_clock::now();
        waves_ = 0;
        steps_ = 0;
        sinceWallCheck_ = 0;
    }

    /// Charges one digital wave (delta cycle).
    void chargeDigitalWave()
    {
        ++waves_;
        if (config_.digitalWaves != 0 && waves_ > config_.digitalWaves) {
            throw WatchdogTimeout("watchdog: digital wave budget exhausted (" +
                                  std::to_string(config_.digitalWaves) + " waves)");
        }
        pollWallClock();
    }

    /// Charges @p n digital waves at once when they fit the wave budget and
    /// returns true; charges nothing and returns false when the n-th wave
    /// would trip it (a convergence exit then keeps simulating, so the run
    /// times out on the very wave it always did).
    [[nodiscard]] bool tryChargeDigitalWaves(std::uint64_t n) noexcept
    {
        if (config_.digitalWaves != 0 && waves_ + n > config_.digitalWaves) {
            return false;
        }
        waves_ += n;
        return true;
    }

    /// Charges one analog step attempt (accepted or rejected).
    void chargeAnalogStep()
    {
        ++steps_;
        if (config_.analogSteps != 0 && steps_ > config_.analogSteps) {
            throw WatchdogTimeout("watchdog: analog step budget exhausted (" +
                                  std::to_string(config_.analogSteps) + " steps)");
        }
        pollWallClock();
    }

    /// Immediate wall-clock check (call from coarse loop boundaries).
    void checkWallClock() const
    {
        if (config_.wallClockSeconds <= 0.0) {
            return;
        }
        const double elapsed = elapsedSeconds();
        if (elapsed > config_.wallClockSeconds) {
            throw WatchdogTimeout("watchdog: wall-clock deadline exceeded (" +
                                  std::to_string(elapsed) + " s > " +
                                  std::to_string(config_.wallClockSeconds) + " s)");
        }
    }

    /// Seconds of real time since arm().
    [[nodiscard]] double elapsedSeconds() const
    {
        return std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
            .count();
    }

    [[nodiscard]] std::uint64_t digitalWaves() const noexcept { return waves_; }
    [[nodiscard]] std::uint64_t analogSteps() const noexcept { return steps_; }
    [[nodiscard]] const WatchdogConfig& config() const noexcept { return config_; }

private:
    static constexpr std::uint32_t kWallCheckInterval = 256;

    void pollWallClock()
    {
        if (++sinceWallCheck_ >= kWallCheckInterval) {
            sinceWallCheck_ = 0;
            checkWallClock();
        }
    }

    WatchdogConfig config_;
    std::chrono::steady_clock::time_point start_;
    std::uint64_t waves_ = 0;
    std::uint64_t steps_ = 0;
    std::uint32_t sinceWallCheck_ = 0;
};

} // namespace gfi
