#pragma once
// Time-bucketed event queue, shared by the scalar event kernel
// (digital::Scheduler) and the 64-lane word kernel (batch::WordSim).
//
// Both kernels dispatch in (time, seq) order, and every push draws the next
// sequence number, so among entries due at one time push order *is* seq
// order. The queue therefore keeps one bucket per distinct pending time, each
// holding its entries in push order, and never sorts or sifts an entry:
// dispatch hands over the whole bucket due next. An entry pushed while that
// bucket is being dispatched (a zero-delay write, an action re-arming at the
// current time) opens a fresh bucket at the same time, which is due in the
// next wave — exactly where a (time, seq) heap would have put it.
//
// Buckets live in one flat vector, latest first: the bucket due next is the
// last live one, and a push scans from there because near-future times are
// the common case. Slots past the live buckets keep the storage of buckets
// already dispatched and are reused when a bucket opens, so steady-state
// pushes and dispatches allocate nothing. Entries are moved, never copied,
// so they may own resources (the word kernel's entries carry closures).

#include "sim/time.hpp"

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

namespace gfi::digital {

template <class Entry>
class TimeBuckets {
public:
    [[nodiscard]] bool empty() const noexcept { return live_ == 0; }

    /// Entries queued, over all buckets.
    [[nodiscard]] std::size_t size() const noexcept { return size_; }

    /// Time of the bucket due next, or kTimeMax if the queue is empty.
    [[nodiscard]] SimTime nextTime() const noexcept
    {
        return live_ == 0 ? kTimeMax : buckets_[live_ - 1].time;
    }

    /// Appends @p e to the bucket at @p t, opening the bucket if needed.
    void push(SimTime t, Entry e)
    {
        // i = number of buckets due at or after t. Pushes in rising time
        // order (a testbench arming its stimuli) skip the scan.
        std::size_t i = live_;
        if (live_ > 0 && t >= buckets_[0].time) {
            i = t == buckets_[0].time ? 1 : 0;
        }
        while (i > 0 && buckets_[i - 1].time < t) {
            --i;
        }
        if (i == 0 || buckets_[i - 1].time != t) {
            // Open the bucket in the first unused slot and rotate it into
            // place, behind the buckets due later.
            if (live_ == buckets_.size()) {
                buckets_.emplace_back();
            }
            const auto first = buckets_.begin() + static_cast<std::ptrdiff_t>(i);
            const auto unused = buckets_.begin() + static_cast<std::ptrdiff_t>(live_);
            std::rotate(first, unused, unused + 1);
            first->time = t;
            ++live_;
            ++i;
        }
        buckets_[i - 1].entries.push_back(std::move(e));
        ++size_;
    }

    /// Replaces the contents of @p out with the entries of the bucket due
    /// next, in push order, and closes the bucket; leaves @p out empty when
    /// nothing is due at @p now. Both kernels push no entry before their
    /// current time and advance time only to nextTime(), so at most one
    /// bucket is ever due.
    void popDue(SimTime now, std::vector<Entry>& out)
    {
        out.clear();
        if (live_ == 0 || buckets_[live_ - 1].time > now) {
            return;
        }
        --live_;
        out.swap(buckets_[live_].entries); // the slot keeps out's old storage
        size_ -= out.size();
    }

    /// Calls @p f(time, entry) for every entry in (time, push) order.
    template <class F>
    void forEach(F&& f) const
    {
        for (std::size_t b = live_; b-- > 0;) {
            for (const Entry& e : buckets_[b].entries) {
                f(buckets_[b].time, e);
            }
        }
    }

    /// Drops every entry.
    void clear()
    {
        for (std::size_t b = 0; b < live_; ++b) {
            buckets_[b].entries.clear();
        }
        live_ = 0;
        size_ = 0;
    }

private:
    struct Bucket {
        SimTime time = 0;
        std::vector<Entry> entries;
    };

    std::vector<Bucket> buckets_; // [0, live_) latest first, then unused slots
    std::size_t live_ = 0;
    std::size_t size_ = 0;
};

} // namespace gfi::digital
