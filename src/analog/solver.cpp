#include "analog/solver.hpp"

#include "analog/crossing.hpp"
#include "obs/flight_recorder.hpp"
#include "sim/errors.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace gfi::analog {

namespace {

// Runtime <-> static cross-reference: the lint pass diagnoses the usual
// divergence topologies (floating nodes, V-source loops, current cutsets)
// before any solve, so every DivergenceError points the user at it.
const char* kLintHint = "; hint: run lint — rules ANA001-ANA005 report floating "
                        "nodes, source loops and singular topologies statically";

bool allFinite(const std::vector<double>& x) noexcept
{
    for (double v : x) {
        if (!std::isfinite(v)) {
            return false;
        }
    }
    return true;
}

} // namespace

TransientSolver::TransientSolver(AnalogSystem& sys, SolverOptions options)
    : sys_(&sys), options_(options), dtNext_(options.dtInitial)
{
    const int n = sys.unknownCount();
    A_.resize(n);
    rhs_.assign(static_cast<std::size_t>(n), 0.0);
    if (sys.state().size() != static_cast<std::size_t>(n)) {
        sys.state().assign(static_cast<std::size_t>(n), 0.0);
    }

    std::vector<NodeId> nodes;
    for (const auto& comp : sys.components()) {
        anyNonlinear_ = anyNonlinear_ || comp->isNonlinear();
        comp->integratedNodes(nodes);
    }
    for (NodeId node : nodes) {
        if (node != kGround) {
            integrated_.push_back(node - 1);
        }
    }
    std::sort(integrated_.begin(), integrated_.end());
    integrated_.erase(std::unique(integrated_.begin(), integrated_.end()), integrated_.end());
}

bool TransientSolver::trySolveStep(double dt, std::vector<double>& xOut, bool dcMode,
                                   double tEvalOverride)
{
    const int n = sys_->unknownCount();
    const double t1 = tEvalOverride >= 0.0 ? tEvalOverride : time_ + dt;
    sawNonFinite_ = false;

    xOut = sys_->state();
    const int iterCap = anyNonlinear_ ? options_.maxNewtonIter : 1;
    for (int iter = 0; iter < iterCap; ++iter) {
        ++stats_.newtonIterations;
        A_.clear();
        std::fill(rhs_.begin(), rhs_.end(), 0.0);
        Stamper stamper(A_, rhs_, sys_->nodeCount());
        const Solution candidate(xOut, sys_->nodeCount());
        for (const auto& comp : sys_->components()) {
            comp->stamp(stamper, candidate, t1, dt, dcMode);
        }
        // gmin from every node to ground keeps floating nodes solvable.
        for (int node = 1; node < sys_->nodeCount(); ++node) {
            stamper.conductance(node, kGround, options_.gmin);
        }

        // rhs_ is re-zeroed every iteration, so it doubles as the solution
        // buffer: solve in place, then swap it into xOut.
        ++stats_.linearSolves;
        if (!luSolveInPlace(A_, rhs_)) {
            return false; // singular matrix
        }
        if (!allFinite(rhs_)) {
            sawNonFinite_ = true; // NaN/Inf source or overflowed companion model
            return false;
        }

        double maxDelta = 0.0;
        for (int i = 0; i < n; ++i) {
            maxDelta = std::max(maxDelta,
                                std::fabs(rhs_[static_cast<std::size_t>(i)] -
                                          xOut[static_cast<std::size_t>(i)]));
        }
        xOut.swap(rhs_);
        if (!anyNonlinear_ || maxDelta < options_.newtonTol) {
            return true;
        }
    }
    return false; // Newton did not converge
}

void TransientSolver::solveDc()
{
    std::vector<double> x;
    if (!trySolveStep(0.0, x, /*dcMode=*/true)) {
        throw DivergenceError(
            (sawNonFinite_ ? "TransientSolver: non-finite DC operating point"
                           : "TransientSolver: DC operating point did not converge") +
            std::string(kLintHint));
    }
    // A second pass lets dynamic components observe the converged operating
    // point in their dcMode stamp (capacitors prime their initial voltage).
    sys_->state() = x;
    if (!trySolveStep(0.0, x, /*dcMode=*/true)) {
        throw DivergenceError(
            (sawNonFinite_ ? "TransientSolver: non-finite DC operating point"
                           : "TransientSolver: DC operating point did not converge") +
            std::string(kLintHint));
    }
    sys_->state() = x;
    dcDone_ = true;
    havePrev_ = false;
    dtNext_ = options_.dtInitial;
}

double TransientSolver::nextBreakpoint(double tMax)
{
    // Slight epsilon so a breakpoint we just landed on is not re-proposed.
    const double eps = std::max(1e-18, std::fabs(time_) * 1e-15);
    double best = tMax;

    for (const auto& comp : sys_->components()) {
        bpScratch_.clear();
        comp->collectBreakpoints(time_ + eps, tMax, bpScratch_);
        for (double bp : bpScratch_) {
            if (bp > time_ + eps && bp < best) {
                best = bp;
            }
        }
    }
    // External breakpoints: drop stale ones as we pass them.
    while (!breakpoints_.empty() && *breakpoints_.begin() <= time_ + eps) {
        breakpoints_.erase(breakpoints_.begin());
    }
    if (!breakpoints_.empty()) {
        best = std::min(best, *breakpoints_.begin());
    }
    return best;
}

double TransientSolver::maxStepHint() const
{
    double hint = 1e30;
    for (const auto& comp : sys_->components()) {
        hint = std::min(hint, comp->maxStep(time_));
    }
    return hint;
}

void TransientSolver::acceptStep(const std::vector<double>& x, double dt,
                                 obs::StepLimit limit)
{
    const Solution sol(x, sys_->nodeCount());
    for (const auto& comp : sys_->components()) {
        comp->acceptStep(sol, time_ + dt, dt);
    }
    xPrev_ = sys_->state();
    dtPrev_ = dt;
    havePrev_ = true;
    sys_->state() = x;
    time_ += dt;
    ++stats_.acceptedSteps;
    ++stats_.stepsLimitedBy[static_cast<std::size_t>(limit)];
    stats_.lastAcceptedDt = dt;
    if (stats_.minAcceptedDt == 0.0 || dt < stats_.minAcceptedDt) {
        stats_.minAcceptedDt = dt;
    }
    if (recorder_ != nullptr) {
        recorder_->record(obs::FlightRecorder::Kind::SolverAccept, fromSeconds(time_),
                          time_, stats_.acceptedSteps, 0, dt);
    }
    for (const auto& probe : probes_) {
        probe(time_);
    }
}

void TransientSolver::markDiscontinuity()
{
    ++stats_.companionRebuilds;
    for (const auto& comp : sys_->components()) {
        comp->notifyDiscontinuity();
    }
    havePrev_ = false;
    dtNext_ = options_.dtInitial;
}

CrossingMonitor& TransientSolver::addMonitor(NodeId node, double threshold,
                                             CrossingMonitor::Edge edge,
                                             std::function<void(double, bool)> cb)
{
    monitors_.push_back(
        std::make_unique<CrossingMonitor>(node, threshold, edge, std::move(cb)));
    return *monitors_.back();
}

void TransientSolver::captureState(snapshot::Writer& w) const
{
    w.boolean(dcDone_);
    w.f64(time_);
    w.f64(dtNext_);
    w.f64(dtPrev_);
    w.boolean(havePrev_);
    w.boolean(sawNonFinite_);

    const std::vector<double>& x = sys_->state();
    w.u64(x.size());
    for (double v : x) {
        w.f64(v);
    }
    w.u64(xPrev_.size());
    for (double v : xPrev_) {
        w.f64(v);
    }

    w.u64(stats_.acceptedSteps);
    w.u64(stats_.rejectedSteps);
    w.u64(stats_.newtonIterations);
    w.u64(stats_.linearSolves);
    w.u64(stats_.crossingsLocated);

    w.u64(breakpoints_.size());
    for (double bp : breakpoints_) {
        w.f64(bp);
    }
}

void TransientSolver::restoreState(snapshot::Reader& r)
{
    dcDone_ = r.boolean();
    time_ = r.f64();
    dtNext_ = r.f64();
    dtPrev_ = r.f64();
    havePrev_ = r.boolean();
    sawNonFinite_ = r.boolean();

    const std::uint64_t n = r.u64();
    if (n != static_cast<std::uint64_t>(sys_->unknownCount())) {
        throw snapshot::SnapshotFormatError(
            "TransientSolver: snapshot has " + std::to_string(n) + " unknowns, system has " +
            std::to_string(sys_->unknownCount()));
    }
    std::vector<double>& x = sys_->state();
    x.assign(static_cast<std::size_t>(n), 0.0);
    for (double& v : x) {
        v = r.f64();
    }
    const std::uint64_t np = r.u64();
    xPrev_.assign(static_cast<std::size_t>(np), 0.0);
    for (double& v : xPrev_) {
        v = r.f64();
    }

    stats_.acceptedSteps = r.u64();
    stats_.rejectedSteps = r.u64();
    stats_.newtonIterations = r.u64();
    stats_.linearSolves = r.u64();
    stats_.crossingsLocated = r.u64();

    breakpoints_.clear();
    const std::uint64_t nb = r.u64();
    for (std::uint64_t i = 0; i < nb; ++i) {
        breakpoints_.insert(r.f64());
    }
}

double TransientSolver::advanceTo(double tStop)
{
    if (!dcDone_) {
        solveDc();
    }
    std::vector<double> xCand;

    while (time_ < tStop) {
        if (watchdog_ != nullptr) {
            watchdog_->chargeAnalogStep();
        }
        const double bp = nextBreakpoint(tStop);
        const double hardLimit = std::min(bp, tStop);

        // The step is the smallest bound; the limiter is billed per accepted
        // step (ties go to the later bound, see obs::StepLimit).
        double dt = dtNext_;
        obs::StepLimit limit = obs::StepLimit::Lte;
        for (const auto& [bound, which] :
             {std::pair{options_.dtMax, obs::StepLimit::DtMax},
              std::pair{maxStepHint(), obs::StepLimit::Hint},
              std::pair{hardLimit - time_, obs::StepLimit::Breakpoint}}) {
            if (bound <= dt) {
                dt = bound;
                limit = which;
            }
        }
        dt = std::max(dt, options_.dtMin);
        bool landsOnBreakpoint = time_ + dt >= bp - 1e-18 && bp < tStop;
        if (landsOnBreakpoint) {
            dt = bp - time_;
            limit = obs::StepLimit::Breakpoint;
        }

        // --- solve, shrinking on Newton failure -------------------------
        // A step landing exactly on a breakpoint is evaluated just left of
        // it: jump discontinuities take effect only after the corner, so the
        // landing step integrates with the pre-jump source values.
        const double leftOfBp =
            landsOnBreakpoint ? bp - std::max(1e-20, bp * 1e-13) : -1.0;
        bool solved = trySolveStep(dt, xCand, false, leftOfBp);
        while (!solved && dt > options_.dtMin * 2.0) {
            ++stats_.rejectedSteps;
            if (recorder_ != nullptr) {
                recorder_->record(obs::FlightRecorder::Kind::SolverReject,
                                  fromSeconds(time_), time_, stats_.rejectedSteps, 0, dt);
            }
            dt *= 0.25;
            landsOnBreakpoint = false;
            limit = obs::StepLimit::Lte;
            solved = trySolveStep(dt, xCand, false);
        }
        if (!solved) {
            throw DivergenceError(
                "TransientSolver: step failed at t=" + std::to_string(time_) + " s, dt=" +
                std::to_string(dt) + " s (" +
                (sawNonFinite_ ? "non-finite solution"
                               : "Newton non-convergence or singular matrix") +
                " at the minimum step)" + kLintHint);
        }

        // --- local truncation error control (integrated state only) -------
        if (havePrev_ && !landsOnBreakpoint) {
            const std::vector<double>& x0 = sys_->state();
            const double ratio = dtPrev_ > 0.0 ? dt / dtPrev_ : 0.0;
            double err = 0.0;
            for (const int idx : integrated_) {
                const auto i = static_cast<std::size_t>(idx);
                const double pred = x0[i] + (x0[i] - xPrev_[i]) * ratio;
                const double scale =
                    options_.lteAbsTol +
                    options_.lteRelTol * std::max(std::fabs(xCand[i]), std::fabs(x0[i]));
                err = std::max(err, std::fabs(xCand[i] - pred) / scale);
            }
            if (err > 4.0 && dt > options_.dtMin * 2.0) {
                ++stats_.rejectedSteps;
                if (recorder_ != nullptr) {
                    recorder_->record(obs::FlightRecorder::Kind::SolverReject,
                                      fromSeconds(time_), time_, stats_.rejectedSteps, 0,
                                      dt);
                }
                dtNext_ = std::max(dt * std::max(0.9 / std::sqrt(err), 0.1),
                                   options_.dtMin);
                continue; // reject and retry smaller
            }
            const double grow =
                std::clamp(err > 1e-12 ? 0.9 / std::sqrt(err) : options_.growthLimit, 0.3,
                           options_.growthLimit);
            dtNext_ = std::clamp(dt * grow, options_.dtMin, options_.dtMax);
        } else {
            dtNext_ = std::clamp(dt * options_.growthLimit, options_.dtMin, options_.dtMax);
        }

        // --- crossing monitors -------------------------------------------
        {
            const Solution before(sys_->state(), sys_->nodeCount());
            Solution after(xCand, sys_->nodeCount());
            // Of the monitors that crossed, track the one whose chord puts
            // its crossing earliest; g is its distance past the threshold,
            // oriented to cross from below.
            const CrossingMonitor* track = nullptr;
            double sign = 1.0;
            double g0 = 0.0;
            double g1 = 0.0;
            double firstRoot = 0.0; // as a fraction of dt
            for (const auto& mon : monitors_) {
                const double v0 = before.voltage(mon->node());
                const double v1 = after.voltage(mon->node());
                if (!mon->crossed(v0, v1)) {
                    continue;
                }
                const double s = v0 < mon->threshold() ? 1.0 : -1.0;
                const double d0 = s * (v0 - mon->threshold());
                const double d1 = s * (v1 - mon->threshold());
                const double root = d0 / (d0 - d1);
                if (track == nullptr || root < firstRoot) {
                    track = mon.get();
                    sign = s;
                    g0 = d0;
                    g1 = d1;
                    firstRoot = root;
                }
            }
            if (track != nullptr && dt > options_.crossingTol) {
                // Each probe re-solves the step from the committed state;
                // a crossed probe's state moves to xHi_, so xHi_ always holds
                // the most recent crossed probe (locateCrossing's cut state).
                const Solution solMid(xMid_, sys_->nodeCount());
                auto probe = [&](double t) {
                    CrossingProbe p;
                    p.ok = trySolveStep(t, xMid_, false);
                    if (!p.ok) {
                        return p;
                    }
                    for (const auto& mon : monitors_) {
                        p.crossed = p.crossed || mon->crossed(before.voltage(mon->node()),
                                                              solMid.voltage(mon->node()));
                    }
                    p.g = sign * (solMid.voltage(track->node()) - track->threshold());
                    if (p.crossed) {
                        xHi_.swap(xMid_);
                    }
                    return p;
                };
                const CrossingBracket bracket =
                    locateCrossing(dt, g0, g1, options_.crossingTol, probe);
                if (bracket.fellBack) {
                    ++stats_.crossingFallbacks;
                }
                if (bracket.hi < dt) {
                    xCand.swap(xHi_);
                    limit = obs::StepLimit::Crossing;
                }
                dt = bracket.hi;
                ++stats_.crossingsLocated;

                // Determine which monitors fire at this cut.
                Solution cut(xCand, sys_->nodeCount());
                firedScratch_.clear();
                for (const auto& mon : monitors_) {
                    const double v0 = before.voltage(mon->node());
                    const double v1 = cut.voltage(mon->node());
                    if (mon->crossed(v0, v1)) {
                        firedScratch_.emplace_back(mon.get(), v1 >= v0);
                    }
                }
                acceptStep(xCand, dt, limit);
                for (auto& [mon, rising] : firedScratch_) {
                    if (mon->cb_) {
                        mon->cb_(time_, rising);
                    }
                }
                return time_; // yield to the mixed-mode synchronizer
            }
        }

        acceptStep(xCand, dt, limit);
        if (landsOnBreakpoint) {
            // Source corner: restart conservatively on the far side.
            markDiscontinuity();
        }
    }
    return time_;
}

} // namespace gfi::analog
