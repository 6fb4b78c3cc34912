/**
 * @file
 * Software-prefetch hint, compiled out on toolchains without
 * __builtin_prefetch. Purely a host-side latency hint: nothing in the
 * timing model or the bit-identity contract observes it. The MCACHE
 * block probe (MCache::probeBlock) uses it to pull the sets of rows a
 * few ahead into cache while the current row is being probed.
 */

#ifndef MERCURY_UTIL_PREFETCH_HPP
#define MERCURY_UTIL_PREFETCH_HPP

namespace mercury {

/** Hint a read of `p` into a low cache level (best effort, may no-op). */
inline void
prefetchRead(const void *p)
{
#if defined(__GNUC__) || defined(__clang__)
    __builtin_prefetch(p, 0 /* read */, 1 /* low temporal locality */);
#else
    (void)p;
#endif
}

} // namespace mercury

#endif // MERCURY_UTIL_PREFETCH_HPP
