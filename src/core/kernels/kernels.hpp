/**
 * @file
 * Runtime-dispatched SIMD kernel layer for the reuse hot paths.
 *
 * Every kernel has an AVX2 body and a scalar fallback that are
 * bit-identical: each output element is produced by the same sequence
 * of IEEE operations in the same order in both bodies. The projection
 * kernel guarantees this by accumulating every (row, filter) sum in
 * ascending element order with separate multiply and add (no FMA —
 * fused rounding would diverge from the scalar path); the span
 * kernels are elementwise, so lane width cannot reorder anything; the
 * sign-pack kernel compares with `_CMP_LT_OQ` against +0.0f, which
 * matches `p < 0.0f` exactly (including -0.0f from all-zero padding
 * rows, which must NOT set the bit).
 *
 * Dispatch happens once, on first use: the AVX2 table is selected
 * when the compiler could build it and the CPU reports AVX2, unless
 * `MERCURY_KERNELS=scalar` (or `=avx2`) overrides the choice. Tests
 * may swap the active table with forceForTesting() to compare both
 * paths in one process.
 *
 * Layout contract of projectRows: `cols` is the column-major
 * projection matrix (filter n contiguous at cols[n*d .. (n+1)*d));
 * `inter` is its bit-interleaved mirror (element i of every filter
 * contiguous at inter[i*inter_stride .. i*inter_stride + bits)).
 * A table sets `wantsInterleaved` when its projection body reads
 * `inter`; callers may then pass inter = nullptr to tables that do
 * not, and skip building the mirror entirely.
 *
 * The three owner kernels (ownerValues, ownerScatter, ownerWeightMul)
 * are the dense bodies of the conv reuse passes. Each output element
 * keeps the operation order of the scalar loop: the AVX2 bodies block
 * several independent chains side by side (rows x filter octets,
 * transposed 8x8 tiles, taps x filter octets) and never reorder the
 * steps of any one chain, with separate multiply and add.
 *
 * Masked-octet contract: a vector body may read all 8 filters of the
 * octet holding the last `bits % 8` filters whenever the mirror has
 * them (n + 8 <= inter_stride; RPQEngine provisions its maximum
 * length, so a shorter pass has the room), but writes only the first
 * `bits` lanes of each row — nothing past the (nrows, bits) block.
 * Extra lanes are independent filters, so reading them changes no
 * stored bit.
 */

#ifndef MERCURY_CORE_KERNELS_KERNELS_HPP
#define MERCURY_CORE_KERNELS_KERNELS_HPP

#include <cstdint>

namespace mercury {
namespace kernels {

/** One dispatchable table of hot-path kernel bodies. */
struct KernelOps
{
    const char *name;      ///< "scalar" or "avx2"
    bool wantsInterleaved; ///< projection reads the interleaved mirror

    /**
     * Project `nrows` row-major d-vectors against the first `bits`
     * random filters, writing a row-major (nrows, bits) block to
     * `out`. Each (row, filter) accumulator sums elements in
     * ascending order with mul+add.
     */
    void (*projectRows)(const float *rows, int64_t nrows, int64_t d,
                        const float *cols, const float *inter,
                        int inter_stride, int bits, float *out);

    /**
     * Pack the sign bits of a row-major (nrows, bits) projection
     * block: bit n of row r is (proj[r*bits + n] < 0.0f), written
     * into `words_per_row` little-endian 64-bit words per row
     * (unused high bits zeroed). Reads nothing past the block: a
     * partial last octet loads masked.
     */
    void (*signPack)(const float *proj, int64_t nrows, int bits,
                     int64_t words_per_row, uint64_t *out);

    /** dst[0..n) = src[0..n) (ranges must not overlap). */
    void (*copySpan)(float *dst, const float *src, int64_t n);

    /** dst[e] += src[e] for e in [0, n) — elementwise, no reorder. */
    void (*addSpan)(float *dst, const float *src, int64_t n);

    /**
     * Extract im2col patch rows [r0, r1) of one (in_h, in_w) input
     * plane into a row-major (rows, k*k) tensor at `rows` (indexed by
     * absolute row: row r starts at rows + r*k*k). Row r covers
     * output position (y, x) = (r / ow, r % ow); element ky*k + kx
     * reads plane[y*stride - pad + ky][x*stride - pad + kx], or 0.0f
     * outside the plane. Both bodies only move data (span-clipped
     * copies and zero fills; the AVX2 body writes a kernel row of
     * k <= 8 with one masked load and one masked store), so
     * bit-identity is structural — there is no arithmetic to
     * reorder. Only rows [r0, r1) are written, so disjoint row ranges
     * may be filled concurrently (the fused detection blocks extract
     * their own rows in place).
     */
    void (*extractPatches)(const float *plane, int64_t in_h, int64_t in_w,
                           int64_t ow, int64_t stride, int64_t pad,
                           int64_t k, int64_t r0, int64_t r1, float *rows);

    /**
     * Owner values of a conv channel pass: for each of the `count`
     * distinct rows r listed in `rows`, vals[r*filters + f] is the sum
     * over taps t ascending, from +0, of w[t*filters + f] *
     * patches[r*d + t] — the dot product filter f computes on its
     * own, with `w` the channel's kernels laid out (tap, filter).
     * Writes exactly the listed rows' `filters` values.
     */
    void (*ownerValues)(const float *patches, int64_t d,
                        const int32_t *rows, int64_t count, const float *w,
                        int64_t filters, float *vals);

    /**
     * Owner scatter: out[f*outPitch + i] += vals[owner[i]*valsPitch + f]
     * for f in [0, filters) and i in [0, n) — one add per element, so
     * every output gets one partial per call.
     */
    void (*ownerScatter)(const float *vals, int64_t valsPitch,
                         int64_t filters, const int32_t *owner, int64_t n,
                         float *out, int64_t outPitch);

    /**
     * Weight-gradient owner multiply: acc[t*filters + f] +=
     * sums[j*filters + f] * frame[base[j] + tapOff[t]] for owners j in
     * [0, owners) ascending — each accumulator adds one product per
     * owner, in owner order. Owner j's patch value at tap t is read
     * from a conv frame at base[j] + tapOff[t].
     */
    void (*ownerWeightMul)(const float *sums, int64_t filters,
                           int64_t owners, const float *frame,
                           const int64_t *base, const int64_t *tapOff,
                           int64_t taps, float *acc);
};

/** The scalar reference table (always available). */
const KernelOps &scalarOps();

/** The AVX2 table, or nullptr when compiler or CPU lacks AVX2. */
const KernelOps *avx2Ops();

/**
 * The active table: dispatched once on first call — AVX2 when
 * available, overridable with MERCURY_KERNELS=scalar|avx2 (an
 * unsatisfiable avx2 request falls back to scalar with a warning).
 */
const KernelOps &ops();

/**
 * Test hook: pin the active table (nullptr re-arms normal dispatch).
 * Call only from a single thread with no passes in flight.
 */
void forceForTesting(const KernelOps *table);

} // namespace kernels
} // namespace mercury

#endif // MERCURY_CORE_KERNELS_KERNELS_HPP
