/**
 * @file
 * PassArena: reusable, cache-aligned scratch storage for the reuse
 * passes, plus the arena-backed per-pass data plane the convolution
 * forward runs HIT forwarding through.
 *
 * ## PassArena
 *
 * A bump allocator over a list of 64-byte-aligned chunks. take()
 * calls bump within the current chunk; reset() rewinds to the first
 * chunk WITHOUT freeing, so a steady-state pass sequence (the 64
 * channel passes of one conv layer call, say) allocates on the first
 * pass and reuses the same cache-hot memory on every later one —
 * replacing the per-block / per-pass std::vector churn the profile
 * showed in the scheduler hot loops.
 *
 * Lifetime contract: pointers from take() stay valid until the next
 * reset() (chunks never move or free before then). reset() must not
 * run while any task still reads an arena pointer — the scheduler
 * resets only at run* entry, after every task of the previous pass
 * has joined. One thread calls take()/reset(); worker tasks may read
 * and write the taken buffers concurrently as long as they partition
 * them (the same rule any shared output buffer obeys).
 *
 * ## PassDataPlane
 *
 * The flat (version, entry) value/valid store that holds the MCACHE
 * data half — computed dot products per (version, entry) — for
 * conv-forward HIT forwarding. It takes no locks; the reuse
 * scheduler's ordering contract makes locking unnecessary:
 * within one in-flight filter group each filter owns one distinct
 * version slot, a filter's segments are chained in stream order
 * (owner deposit happens-before hit read on the same chain), and
 * groups are separated by joins — so no two threads ever touch the
 * same (version, entry) cell, and plain unsynchronized loads/stores
 * are race-free. Validity lives in bytes, not packed bits: two
 * filters writing neighboring entries must not share a memory
 * location. invalidateAll() requires quiescence (driving thread,
 * between groups) — it is the Valid-Data bitline of §III-B3.
 */

#ifndef MERCURY_CORE_PASS_ARENA_HPP
#define MERCURY_CORE_PASS_ARENA_HPP

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <vector>

#include "util/prefetch.hpp"

namespace mercury {

/** Cache-aligned bump arena; storage persists across reset(). */
class PassArena
{
  public:
    PassArena() = default;
    PassArena(const PassArena &) = delete;
    PassArena &operator=(const PassArena &) = delete;

    ~PassArena()
    {
        for (Chunk &c : chunks_)
            ::operator delete(c.mem, std::align_val_t(kAlign));
    }

    /** Rewind to the start; every previously taken pointer dies. */
    void reset()
    {
        chunk_ = 0;
        used_ = 0;
    }

    /** Uninitialized 64-byte-aligned buffer of n floats. */
    float *floats(int64_t n) { return take<float>(n); }

    /** Uninitialized 64-byte-aligned buffer of n indices. */
    int64_t *indices(int64_t n) { return take<int64_t>(n); }

    /** Uninitialized 64-byte-aligned buffer of n bytes. */
    uint8_t *bytes(int64_t n) { return take<uint8_t>(n); }

  private:
    static constexpr size_t kAlign = 64;
    static constexpr size_t kMinChunk = 1 << 16;

    struct Chunk
    {
        void *mem;
        size_t cap;
    };

    template <typename T>
    T *take(int64_t n)
    {
        const size_t bytes =
            (static_cast<size_t>(n) * sizeof(T) + kAlign - 1) &
            ~(kAlign - 1);
        while (chunk_ < chunks_.size() &&
               used_ + bytes > chunks_[chunk_].cap) {
            ++chunk_;
            used_ = 0;
        }
        if (chunk_ == chunks_.size()) {
            const size_t cap =
                bytes > kMinChunk
                    ? (bytes + kMinChunk - 1) & ~(kMinChunk - 1)
                    : kMinChunk;
            chunks_.push_back(
                {::operator new(cap, std::align_val_t(kAlign)), cap});
            used_ = 0;
        }
        T *p = reinterpret_cast<T *>(
            static_cast<char *>(chunks_[chunk_].mem) + used_);
        used_ += bytes;
        return p;
    }

    std::vector<Chunk> chunks_;
    size_t chunk_ = 0; ///< chunk currently bumping
    size_t used_ = 0;  ///< bytes used in that chunk
};

/** Lock-free (version, entry) value store for conv HIT forwarding. */
class PassDataPlane
{
  public:
    /**
     * Size the plane (reallocates only on growth/shape change) and
     * invalidate every cell. Driving thread, between passes.
     */
    void configure(int64_t entries, int versions)
    {
        entries_ = entries;
        versions_ = versions;
        const size_t cells = static_cast<size_t>(entries) *
                             static_cast<size_t>(versions);
        if (values_.size() < cells) {
            values_.resize(cells);
            valid_.resize(cells);
        }
        invalidateAll();
    }

    /** Clear every validity byte. Requires quiescence. */
    void invalidateAll()
    {
        if (!valid_.empty())
            std::memset(valid_.data(), 0,
                        static_cast<size_t>(entries_) *
                            static_cast<size_t>(versions_));
    }

    /** Valid-check + read of one cell (callers own the slot). */
    bool readIfValid(int64_t entry, int version, float &value) const
    {
        const size_t c = cell(entry, version);
        if (!valid_[c])
            return false;
        value = values_[c];
        return true;
    }

    /** Deposit one cell and mark it valid. */
    void write(int64_t entry, int version, float value)
    {
        const size_t c = cell(entry, version);
        values_[c] = value;
        valid_[c] = 1;
    }

    /**
     * Hint a future readIfValid(entry, version) into cache (the
     * filter-segment walk prefetches row i+1's slot while row i's dot
     * product runs). Out-of-range entries (MNU rows carry -1) no-op.
     */
    void prefetch(int64_t entry, int version) const
    {
        if (entry < 0 || entry >= entries_)
            return;
        const size_t c = cell(entry, version);
        prefetchRead(&values_[c]);
        prefetchRead(&valid_[c]);
    }

    int64_t entries() const { return entries_; }
    int versions() const { return versions_; }

  private:
    // Version-major layout: one filter's slot is a contiguous
    // entries_-sized region, so a chained filter's reads and writes
    // stay within its own cache lines.
    size_t cell(int64_t entry, int version) const
    {
        return static_cast<size_t>(version) *
                   static_cast<size_t>(entries_) +
               static_cast<size_t>(entry);
    }

    int64_t entries_ = 0;
    int versions_ = 0;
    std::vector<float> values_;
    std::vector<uint8_t> valid_;
};

} // namespace mercury

#endif // MERCURY_CORE_PASS_ARENA_HPP
