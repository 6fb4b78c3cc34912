/**
 * @file
 * Span batching for the HIT-copy hot path: coalesce per-row copies
 * into contiguous ranges so they run as few large memcpy-class moves.
 *
 * forEachConsecutiveSpan partitions a (row, owner) forwarding list
 * into maximal runs where BOTH sequences advance by exactly one —
 * i.e. rows r..r+L-1 forward from owners o..o+L-1. For such a run the
 * destination rows and the source rows are each contiguous in the
 * output tensor, so the whole run is one copySpan of L*row_width
 * floats. The copy is always memcpy-safe: owners are computed rows
 * and spans' rows are HIT rows, the two index sets are disjoint, and
 * every owner precedes its row — so a consecutive run satisfies
 * o + L <= r and the ranges cannot overlap.
 */

#ifndef MERCURY_CORE_SPAN_BATCHER_HPP
#define MERCURY_CORE_SPAN_BATCHER_HPP

#include <cstdint>

namespace mercury {

/**
 * Invoke fn(i0, i1) for each maximal run of [0, n) where rows and
 * owners both step by one. Every index lands in exactly one run;
 * singleton runs are delivered too (callers fall back to per-row
 * copies for those).
 */
template <typename Fn>
inline void
forEachConsecutiveSpan(const int64_t *rows, const int64_t *owners,
                       int64_t n, Fn &&fn)
{
    int64_t i0 = 0;
    while (i0 < n) {
        int64_t i1 = i0 + 1;
        while (i1 < n && rows[i1] == rows[i1 - 1] + 1 &&
               owners[i1] == owners[i1 - 1] + 1)
            ++i1;
        fn(i0, i1);
        i0 = i1;
    }
}

} // namespace mercury

#endif // MERCURY_CORE_SPAN_BATCHER_HPP
