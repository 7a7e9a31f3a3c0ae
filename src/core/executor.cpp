#include "core/executor.hpp"

#include <chrono>
#include <condition_variable>
#include <exception>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

namespace gfi::core {

unsigned Executor::defaultWorkers()
{
    const unsigned hc = std::thread::hardware_concurrency();
    return hc != 0 ? hc : 1;
}

std::size_t Executor::runInline(std::size_t count, const ProduceFn& produce)
{
    std::size_t committed = 0;
    for (std::size_t i = 0; i < count; ++i) {
        if (cancelRequested()) {
            break;
        }
        CommitFn commit = produce(i);
        if (commit) {
            commit();
        }
        ++committed;
    }
    return committed;
}

std::size_t Executor::forEachOrdered(std::size_t count, const ProduceFn& produce)
{
    cancel_.store(false, std::memory_order_relaxed);
    if (count == 0) {
        return 0;
    }
    const unsigned n = static_cast<unsigned>(
        std::min<std::size_t>(effectiveWorkers(), count));
    if (n <= 1) {
        return runInline(count, produce);
    }
    const std::size_t window = window_ != 0 ? window_ : 4u * n;

    // Shared scheduling state. `nextFetch` is the in-order hand-out cursor,
    // `nextCommit` the committed-prefix length, `pending` the reorder buffer.
    std::mutex mutex;
    std::condition_variable cv;
    std::size_t nextFetch = 0;
    std::size_t nextCommit = 0;
    std::map<std::size_t, CommitFn> pending;
    std::exception_ptr firstError;
    bool commitFailed = false;

    auto worker = [&] {
        std::unique_lock<std::mutex> lock(mutex);
        for (;;) {
            // Backpressure: wait while the reorder window is full. Poll with
            // a timeout so an external requestCancel() (atomic store only,
            // no notify) is observed promptly.
            while (nextFetch < count && firstError == nullptr && !cancelRequested() &&
                   nextFetch >= nextCommit + window) {
                cv.wait_for(lock, std::chrono::milliseconds(20));
            }
            if (nextFetch >= count || firstError != nullptr || cancelRequested()) {
                return;
            }
            const std::size_t index = nextFetch++;
            lock.unlock();

            CommitFn commit;
            bool failed = false;
            try {
                commit = produce(index);
            } catch (...) {
                failed = true;
                lock.lock();
                if (firstError == nullptr) {
                    firstError = std::current_exception();
                }
            }
            if (!failed) {
                lock.lock();
                pending[index] = std::move(commit);
            }

            // Drain every commit that is now in order. Commits run under the
            // lock: they are cheap (journal line, vector slot, callback) and
            // this serializes them without a dedicated committer thread.
            // A produce failure leaves a gap that stops the drain at the
            // failed index; a commit failure stops committing outright (the
            // journal is likely broken — don't keep writing past the error).
            while (!commitFailed && !pending.empty() &&
                   pending.begin()->first == nextCommit) {
                CommitFn fn = std::move(pending.begin()->second);
                pending.erase(pending.begin());
                if (fn) {
                    try {
                        fn();
                    } catch (...) {
                        if (firstError == nullptr) {
                            firstError = std::current_exception();
                        }
                        commitFailed = true;
                        break;
                    }
                }
                ++nextCommit;
            }
            cv.notify_all();
        }
    };

    std::vector<std::thread> pool;
    pool.reserve(n);
    for (unsigned i = 0; i < n; ++i) {
        pool.emplace_back(worker);
    }
    for (std::thread& t : pool) {
        t.join();
    }
    if (firstError != nullptr) {
        std::rethrow_exception(firstError);
    }
    return nextCommit;
}

} // namespace gfi::core
