/**
 * @file
 * PassArena: reusable, cache-aligned scratch storage for the reuse
 * scheduler's per-pass bookkeeping.
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
 * resets only at pass entry, after every task of the previous pass
 * has joined. One thread calls take()/reset(); worker tasks may read
 * and write the taken buffers concurrently as long as they partition
 * them (the same rule any shared output buffer obeys).
 */

#ifndef MERCURY_CORE_PASS_ARENA_HPP
#define MERCURY_CORE_PASS_ARENA_HPP

#include <cstddef>
#include <cstdint>
#include <new>
#include <vector>

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

    /** Uninitialized 64-byte-aligned buffer of n row ids. */
    int32_t *rows(int64_t n) { return take<int32_t>(n); }

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

} // namespace mercury

#endif // MERCURY_CORE_PASS_ARENA_HPP
