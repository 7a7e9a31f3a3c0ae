#pragma once
// Ordered-commit worker pool for embarrassingly parallel campaigns.
//
// A fault-injection campaign evaluates N independent jobs (one contained
// simulation per fault) whose *results* must nevertheless be observed in
// fault-list order: the journal is an append-only prefix, reports are
// position-indexed, and resuming relies on index stability. The Executor
// separates the two concerns: `produce(i)` runs concurrently on a worker
// pool, and the commit closure it returns runs serialized, in strict index
// order, regardless of completion order. A parallel campaign is therefore
// byte-identical to a serial one everywhere its committed side effects are
// observed.
//
// Scheduling: workers pull indices from a shared in-order cursor (sharding
// without a materialized queue) and park completed commits in a reorder
// buffer. The buffer is bounded by a commit window of 4x the worker count —
// a worker that sprints too far ahead of the slowest outstanding job blocks
// instead of buffering unbounded results — and the producer of the
// next-to-commit index is by construction never one of the blocked workers,
// so the window cannot deadlock. An exception from produce or commit stops
// index hand-out; in-flight jobs finish, their in-order commits drain, and
// forEachOrdered() rethrows with the committed prefix intact.

#include <cstddef>
#include <functional>

namespace gfi::core {

/// A job's deferred side effect: returned by produce, invoked serialized and
/// in index order. An empty function commits nothing (the slot still counts).
using CommitFn = std::function<void()>;

/// Produces job @p index's result concurrently and returns its commit.
using ProduceFn = std::function<CommitFn(std::size_t index)>;

class Executor {
public:
    /// @param workers  worker-thread count; 0 = defaultWorkers().
    explicit Executor(unsigned workers = 0) noexcept : workers_(workers) {}

    /// The auto worker count: std::thread::hardware_concurrency(), at least 1.
    [[nodiscard]] static unsigned defaultWorkers();

    /// The count forEachOrdered() will actually use.
    [[nodiscard]] unsigned effectiveWorkers() const
    {
        return workers_ != 0 ? workers_ : defaultWorkers();
    }

    /// Runs jobs 0..count-1: produce concurrently, commit serialized in index
    /// order. The first exception from produce or commit is rethrown here
    /// after the pool drains; the jobs committed before it form a prefix.
    /// With an effective worker count of 1 (or count < 2) everything runs
    /// inline on the calling thread.
    void forEachOrdered(std::size_t count, const ProduceFn& produce);

private:
    unsigned workers_ = 0;
};

} // namespace gfi::core
