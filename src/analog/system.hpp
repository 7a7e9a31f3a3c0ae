#pragma once
// AnalogSystem: the analog half of the mixed-signal circuit.
//
// Modified nodal analysis (MNA): unknowns are the node voltages (ground
// excluded) plus one branch current per voltage-defined element. Components
// contribute to the system matrix and right-hand side through a Stamper each
// Newton iteration; dynamic elements keep their own companion-model history.
//
// This is the C++ equivalent of the VHDL-AMS "electrical" discipline the
// paper instruments: a node is a KCL equation, and injecting a fault is
// adding a current contribution to that equation — exactly the saboteur
// semantics of the paper's Figure 4.

#include "snapshot/snapshot.hpp"

#include <complex>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

namespace gfi::analog {

/// Node handle; 0 is ground.
using NodeId = int;
inline constexpr NodeId kGround = 0;

class AnalogSystem;

/// View of the current candidate solution during stamping.
class Solution {
public:
    Solution(const std::vector<double>& x, int nodeCount) : x_(&x), nodeCount_(nodeCount) {}

    /// Voltage of @p n (0 for ground).
    [[nodiscard]] double voltage(NodeId n) const
    {
        return n == kGround ? 0.0 : (*x_)[static_cast<std::size_t>(n - 1)];
    }

    /// Current of MNA branch @p b.
    [[nodiscard]] double branchCurrent(int b) const
    {
        return (*x_)[static_cast<std::size_t>(nodeCount_ - 1 + b)];
    }

private:
    const std::vector<double>* x_;
    int nodeCount_;
};

/// Observes the structure of MNA stamps as components emit them. The lint
/// subsystem attaches one to a Stamper to reconstruct circuit topology
/// (conductance graph, branch incidence, current injections) without adding
/// any bookkeeping to the components themselves.
class StampObserver {
public:
    virtual ~StampObserver() = default;
    virtual void onConductance(NodeId a, NodeId b, double g) = 0;
    virtual void onCurrentInto(NodeId n, double i) = 0;
    virtual void onVccs(NodeId outP, NodeId outM, NodeId ctrlP, NodeId ctrlM, double g) = 0;
    virtual void onAddA(int row, int col, double v) = 0;
    virtual void onAddB(int row, double v) = 0;
};

/// Assembles component contributions into the MNA matrix and RHS.
class Stamper {
public:
    Stamper(class DenseMatrix& A, std::vector<double>& b, int nodeCount);

    /// Attaches a structure observer (not owned; nullptr detaches). Every
    /// subsequent stamp call is mirrored to it.
    void setObserver(StampObserver* obs) noexcept { observer_ = obs; }

    /// Conductance @p g between nodes @p a and @p b (the classic 4-entry stamp).
    void conductance(NodeId a, NodeId b, double g);

    /// Independent/Norton current @p i flowing INTO node @p n.
    void currentInto(NodeId n, double i);

    /// VCCS: current g*(Vc+ - Vc-) flows from @p out_p to @p out_m.
    void vccs(NodeId outP, NodeId outM, NodeId ctrlP, NodeId ctrlM, double g);

    /// Row/column index of a node variable, or -1 for ground.
    [[nodiscard]] int varOfNode(NodeId n) const noexcept { return n == kGround ? -1 : n - 1; }

    /// Row/column index of branch variable @p b.
    [[nodiscard]] int varOfBranch(int b) const noexcept { return nodeCount_ - 1 + b; }

    /// Raw matrix element add (for voltage-defined branch stamps).
    void addA(int row, int col, double v);

    /// Raw RHS element add.
    void addB(int row, double v);

private:
    class DenseMatrix* A_;
    std::vector<double>* b_;
    int nodeCount_;
    StampObserver* observer_ = nullptr;
};

/// Assembles small-signal (AC) contributions into a complex MNA system.
class ComplexStamper {
public:
    using Complex = std::complex<double>;

    ComplexStamper(std::vector<Complex>& A, std::vector<Complex>& b, int nodeCount,
                   const std::string& acInput)
        : A_(&A), b_(&b), n_(static_cast<int>(b.size())), nodeCount_(nodeCount),
          acInput_(&acInput)
    {
    }

    /// Name of the voltage source selected as the 1 V AC input.
    [[nodiscard]] const std::string& acInput() const noexcept { return *acInput_; }

    /// Complex admittance @p y between nodes @p a and @p b.
    void admittance(NodeId a, NodeId b, Complex y);

    /// VCCS with real gain @p g (current from out+ to out-).
    void vccs(NodeId outP, NodeId outM, NodeId ctrlP, NodeId ctrlM, double g);

    /// Row/column of a node variable (-1 for ground) / branch variable.
    [[nodiscard]] int varOfNode(NodeId n) const noexcept { return n == kGround ? -1 : n - 1; }
    [[nodiscard]] int varOfBranch(int b) const noexcept { return nodeCount_ - 1 + b; }

    /// Raw element adds.
    void addA(int row, int col, Complex v);
    void addB(int row, Complex v);

private:
    std::vector<Complex>* A_; // row-major n x n
    std::vector<Complex>* b_;
    int n_;
    int nodeCount_;
    const std::string* acInput_;
};

/// Base class for analog components (the behavioral sub-blocks of the paper's
/// mixed structural/behavioral descriptions).
class AnalogComponent : public snapshot::Snapshottable {
public:
    explicit AnalogComponent(std::string name) : name_(std::move(name)) {}
    ~AnalogComponent() override = default;
    AnalogComponent(const AnalogComponent&) = delete;
    AnalogComponent& operator=(const AnalogComponent&) = delete;

    /// Hierarchical instance name.
    [[nodiscard]] const std::string& name() const noexcept { return name_; }

    /// Adds this component's contribution for a step ending at time @p t with
    /// step size @p dt (seconds), given the current Newton candidate @p x.
    /// With @p dcMode true the solver is computing the operating point:
    /// capacitors stamp as open circuits, inductors as shorts.
    virtual void stamp(Stamper& s, const Solution& x, double t, double dt, bool dcMode) = 0;

    /// Notification that the step ending at @p t was accepted with solution
    /// @p x; dynamic components commit their companion-model history here.
    virtual void acceptStep(const Solution& x, double t, double dt)
    {
        (void)x;
        (void)t;
        (void)dt;
    }

    /// Appends discontinuity times in (tNow, tMax] that the integrator must
    /// land on exactly (source corners, pulse edges, ...).
    virtual void collectBreakpoints(double tNow, double tMax, std::vector<double>& out)
    {
        (void)tNow;
        (void)tMax;
        (void)out;
    }

    /// True when the component's stamp depends on the candidate solution —
    /// forces Newton iteration to convergence.
    [[nodiscard]] virtual bool isNonlinear() const { return false; }

    /// Appends the nodes whose voltages carry this component's integration
    /// history (a capacitor's charge, an inductor's flux). The transient
    /// solver estimates local truncation error on the union of these nodes
    /// only: every other unknown is an algebraic function of them, of the
    /// sources and of component-internal state at the same instant, so it has
    /// no truncation error of its own. A component that integrates internal
    /// state (the behavioral VCO's phase) bounds its error through maxStep.
    /// Structural, not state: declared once, never snapshotted. Default: none.
    virtual void integratedNodes(std::vector<NodeId>& out) const { (void)out; }

    /// Called when the circuit experiences a discontinuity (source level
    /// switched, fault pulse corner): dynamic components drop companion
    /// history so the next step restarts with backward Euler.
    virtual void notifyDiscontinuity() {}

    /// Largest step the component tolerates around time @p t (behavioral
    /// oscillators bound the phase advance per step). Default: unlimited.
    [[nodiscard]] virtual double maxStep(double t) const
    {
        (void)t;
        return 1e30;
    }

    /// Serializes integration history / behavioral state for a simulation
    /// snapshot. Stateless components (the default) write nothing; stateful
    /// ones (capacitors, inductors, behavioral oscillators, externally
    /// driven sources) override both hooks symmetrically.
    void captureState(snapshot::Writer& w) const override { (void)w; }

    /// Restores state written by captureState. Must consume exactly the
    /// bytes the capture wrote.
    void restoreState(snapshot::Reader& r) override { (void)r; }

    /// Adds this component's small-signal contribution at angular frequency
    /// @p omega. Returns false when the component has no linear small-signal
    /// model (the AC sweep then rejects the circuit). Components that are
    /// simply absent at AC (e.g. a disarmed saboteur) stamp nothing and
    /// return true.
    virtual bool stampAc(ComplexStamper& s, double omega) const
    {
        (void)s;
        (void)omega;
        return false;
    }

private:
    std::string name_;
};

/// The analog circuit: nodes + components + last accepted solution.
class AnalogSystem {
public:
    AnalogSystem() = default;
    AnalogSystem(const AnalogSystem&) = delete;
    AnalogSystem& operator=(const AnalogSystem&) = delete;

    /// Gets or creates the node named @p name ("0" and "gnd" are ground).
    NodeId node(const std::string& name);

    /// Number of nodes including ground.
    [[nodiscard]] int nodeCount() const noexcept { return static_cast<int>(nodeNames_.size()); }

    /// Name of node @p n.
    [[nodiscard]] const std::string& nodeName(NodeId n) const
    {
        return nodeNames_.at(static_cast<std::size_t>(n));
    }

    /// Allocates an MNA branch-current variable (voltage sources, inductors
    /// in branch form). Returns the branch index.
    int allocateBranch() { return branchCount_++; }

    /// Number of allocated branch variables.
    [[nodiscard]] int branchCount() const noexcept { return branchCount_; }

    /// Total unknown count: (nodes - ground) + branches.
    [[nodiscard]] int unknownCount() const noexcept { return nodeCount() - 1 + branchCount_; }

    /// Constructs a component in place; the system owns it.
    template <typename C, typename... Args>
    C& add(Args&&... args)
    {
        auto comp = std::make_unique<C>(std::forward<Args>(args)...);
        C& ref = *comp;
        components_.push_back(std::move(comp));
        return ref;
    }

    /// All components (solver iteration).
    [[nodiscard]] const std::vector<std::unique_ptr<AnalogComponent>>& components() const noexcept
    {
        return components_;
    }

    /// Finds a component by name, or nullptr.
    [[nodiscard]] AnalogComponent* findComponent(const std::string& name) const
    {
        for (const auto& comp : components_) {
            if (comp->name() == name) {
                return comp.get();
            }
        }
        return nullptr;
    }

    /// Voltage of @p n in the last accepted solution.
    [[nodiscard]] double voltage(NodeId n) const
    {
        return n == kGround ? 0.0 : state_[static_cast<std::size_t>(n - 1)];
    }

    /// The last accepted solution vector (solver use).
    [[nodiscard]] std::vector<double>& state() noexcept { return state_; }
    [[nodiscard]] const std::vector<double>& state() const noexcept { return state_; }

private:
    std::unordered_map<std::string, NodeId> nodeIndex_;
    std::vector<std::string> nodeNames_{"0"};
    std::vector<std::unique_ptr<AnalogComponent>> components_;
    std::vector<double> state_;
    int branchCount_ = 0;
};

} // namespace gfi::analog
