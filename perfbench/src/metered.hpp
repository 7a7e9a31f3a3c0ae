#pragma once
// Kernel-counter metering from outside the engine. Every testbench a
// benchmark campaign builds is a Metered<Tb>: it reads the always-on kernel
// counters (scheduler, transient solver, AMS bridges) around its run() and
// adds the difference to the campaign's Tally. Nothing in the engine changes:
// the runner still calls the testbench's own run(), and fork-from-golden
// restores land before run() starts, so a forked run is billed only for the
// suffix it re-simulates.
//
// The tally also marks the end of the campaign's set-up phase: the golden
// run's run() returning, or the first testbench built after the golden one,
// whichever comes first (fork-mode goldens advance the simulator directly
// and never call run()). The mark holds both the wall clock and the process
// CPU clock at that instant.

#include "core/testbench.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <ctime>
#include <memory>
#include <mutex>
#include <utility>

namespace gfi::perfbench {

/// CPU seconds used so far by every thread of this process. Time a thread
/// waits for a core, or that the hypervisor steals from its vCPU, is not
/// counted.
inline double processCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// One reading of a simulator's monotone kernel counters.
struct KernelCounts {
    std::uint64_t waves = 0;          ///< digital delta cycles
    std::uint64_t events = 0;         ///< digital queue entries dispatched
    std::uint64_t queueHighWater = 0; ///< deepest pending queue (a level: max, not sum)
    std::uint64_t accepted = 0;       ///< accepted analog steps
    std::uint64_t rejected = 0;       ///< rejected analog steps
    std::uint64_t newton = 0;         ///< Newton iterations
    std::uint64_t linearSolves = 0;   ///< MNA linear solves
    std::uint64_t crossings = 0;      ///< located threshold crossings
    std::uint64_t atod = 0;           ///< analog->digital bridge firings
    std::uint64_t dtoa = 0;           ///< digital->analog drive updates
    SimTime simulated = 0;            ///< simulated time covered

    [[nodiscard]] static KernelCounts read(ams::MixedSimulator& sim)
    {
        KernelCounts c;
        const auto& sched = sim.digital().scheduler();
        c.waves = sched.deltaCycles();
        c.events = sched.eventsDispatched();
        c.queueHighWater = sched.queueHighWater();
        if (sim.elaborated()) {
            const auto& st = sim.solver().stats();
            c.accepted = st.acceptedSteps;
            c.rejected = st.rejectedSteps;
            c.newton = st.newtonIterations;
            c.linearSolves = st.linearSolves;
            c.crossings = st.crossingsLocated;
        }
        c.atod = sim.bridgeCounters().atodCrossings;
        c.dtoa = sim.bridgeCounters().dtoaEvents;
        c.simulated = sim.now();
        return c;
    }

    /// This reading minus @p base (the queue high-water mark is kept as-is).
    [[nodiscard]] KernelCounts since(const KernelCounts& base) const
    {
        KernelCounts d = *this;
        d.waves -= base.waves;
        d.events -= base.events;
        d.accepted -= base.accepted;
        d.rejected -= base.rejected;
        d.newton -= base.newton;
        d.linearSolves -= base.linearSolves;
        d.crossings -= base.crossings;
        d.atod -= base.atod;
        d.dtoa -= base.dtoa;
        d.simulated -= base.simulated;
        return d;
    }

    void add(const KernelCounts& o)
    {
        waves += o.waves;
        events += o.events;
        queueHighWater = std::max(queueHighWater, o.queueHighWater);
        accepted += o.accepted;
        rejected += o.rejected;
        newton += o.newton;
        linearSolves += o.linearSolves;
        crossings += o.crossings;
        atod += o.atod;
        dtoa += o.dtoa;
        simulated += o.simulated;
    }
};

/// Per-campaign accumulator shared by every testbench the factory builds
/// (workers add concurrently).
class Tally {
public:
    using Clock = std::chrono::steady_clock;

    void add(const KernelCounts& c)
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        counts_.add(c);
    }

    [[nodiscard]] KernelCounts counts() const
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        return counts_;
    }

    /// Called by the factory; the second build ends set-up.
    void noteBuild()
    {
        if (builds_.fetch_add(1) == 1) {
            markSetupEnd();
        }
    }

    /// Records "now" as the end of set-up unless an earlier mark exists.
    void markSetupEnd()
    {
        keepEarliest(setupEnd_, Clock::now().time_since_epoch().count());
        keepEarliest(setupEndCpuNs_, static_cast<std::int64_t>(processCpuSeconds() * 1e9));
    }

    /// The set-up end mark; meaningful only once setupEnded().
    [[nodiscard]] bool setupEnded() const { return setupEnd_.load() >= 0; }
    [[nodiscard]] Clock::time_point setupEnd() const
    {
        return Clock::time_point(Clock::duration(setupEnd_.load()));
    }
    /// processCpuSeconds() at the set-up end mark.
    [[nodiscard]] double setupEndCpu() const
    {
        return 1e-9 * static_cast<double>(setupEndCpuNs_.load());
    }

private:
    static void keepEarliest(std::atomic<std::int64_t>& mark, std::int64_t now)
    {
        std::int64_t seen = mark.load();
        while ((seen < 0 || now < seen) && !mark.compare_exchange_weak(seen, now)) {
        }
    }

    mutable std::mutex mutex_;
    KernelCounts counts_;
    std::atomic<int> builds_{0};
    std::atomic<std::int64_t> setupEnd_{-1};
    std::atomic<std::int64_t> setupEndCpuNs_{-1};
};

/// A testbench of type @p Tb whose run() is metered into a Tally.
template <typename Tb>
class Metered final : public Tb {
public:
    template <typename... Args>
    explicit Metered(std::shared_ptr<Tally> tally, Args&&... args)
        : Tb(std::forward<Args>(args)...), tally_(std::move(tally))
    {
    }

    Metered(const Metered&) = delete;
    Metered& operator=(const Metered&) = delete;

    /// A fork-mode golden advances its simulator without run(): bill its
    /// whole history when it is destroyed. Never-run testbenches (preflight
    /// probes, word-kernel compiles) have simulated nothing and add nothing.
    ~Metered() override
    {
        if (!ran_ && this->sim().now() > 0) {
            tally_->add(KernelCounts::read(this->sim()));
        }
    }

    void run() override
    {
        const KernelCounts before = KernelCounts::read(this->sim());
        ran_ = true;
        try {
            Tb::run();
        } catch (...) {
            tally_->add(KernelCounts::read(this->sim()).since(before));
            throw;
        }
        tally_->add(KernelCounts::read(this->sim()).since(before));
        tally_->markSetupEnd();
    }

private:
    std::shared_ptr<Tally> tally_;
    bool ran_ = false;
};

/// A campaign factory stamping out Metered<Tb>(args...) and noting each build.
template <typename Tb, typename... Args>
fault::TestbenchFactory meteredFactory(const std::shared_ptr<Tally>& tally, Args... args)
{
    return [tally, args...] {
        tally->noteBuild();
        return std::make_unique<Metered<Tb>>(tally, args...);
    };
}

} // namespace gfi::perfbench
