/**
 * @file
 * Runtime-dispatched SIMD kernel layer for the reuse hot paths and
 * the exact conv ops.
 *
 * Every kernel has an AVX2 body and a scalar fallback that are
 * bit-identical: each output element is produced by the same sequence
 * of IEEE operations in the same order in both bodies. The projection
 * kernel guarantees this by accumulating every (row, filter) sum in
 * ascending element order with separate multiply and add (no FMA —
 * fused rounding would diverge from the scalar path); the span
 * kernels (copy, gather) are elementwise, so lane width cannot
 * reorder anything; both sign kernels (signPack, signFrame) compare
 * with `_CMP_LT_OQ` against +0.0f, which matches `p < 0.0f` exactly
 * (including -0.0f from all-zero padding patches, which must NOT set
 * the bit, and NaN).
 * groupSums copies and adds elementwise too, each group's steps in
 * the same order in both bodies.
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
 * groupSums builds the dW replays' hit-group sums (conv, FC and
 * attention), one call per pass; gatherSpan moves a conv dX pass's
 * output gradients through the owner map, every filter plane in one
 * call. The three owner kernels (ownerValues, ownerScatter,
 * ownerWeightMul) are the dense bodies of the conv reuse passes; the two that read
 * patches (ownerValues, ownerWeightMul) read them from the channel's
 * conv frame, so no pass extracts a patch tensor. Each output element
 * keeps the operation order of the scalar loop: the AVX2 bodies block
 * several independent chains side by side (rows x filter octets,
 * transposed 8x8 tiles, taps x filter octets) and never reorder the
 * steps of any one chain, with separate multiply and add.
 *
 * The exact conv entry, convForward, is the body of tensor/ops'
 * conv2dForward and of the input gradient that conv2dBackwardInput and
 * the conv engine's dX replay share (a convolution of the output
 * gradients' frames with the flipped kernels, tensor/ops.hpp's
 * ConvGradFrame); the exact weight gradient runs ownerWeightMul with
 * every output position an owner. Their AVX2 bodies hold a tile of
 * outputs in registers, one chain per output, and store each output
 * once.
 *
 * signFrame is the conv signature pass (Fig. 7a, RPQEngine's frame
 * signatureWords): the projection convForward would compute with the
 * RPQ matrix as its weights over a one-channel frame, turned into sign
 * bits and packed words in one pass, with no projection stored. Its
 * AVX2 body holds an octet of positions x a group of bits in
 * registers and folds each compare into per-lane words.
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

    /**
     * Frame signatures (Fig. 7a): the packed words of output positions
     * [r0, r1) of one input channel's conv frame (tensor/ops.hpp's
     * ConvFrame). Position r = y * ow + x reads tap t, of taps >= 1,
     * at frame[y * rowStep + x + tapOff[t]]; bit b of its words is
     * p < 0.0f, where p starts at +0 and adds frame[...] * R[b][t]
     * over taps t ascending, a rounded multiply then a rounded add —
     * the projection convForward computes with the random filters as
     * its weights. R is given as projectRows takes it: `cols`
     * (R[b][t] = cols[b * taps + t]) and, for a table that
     * wantsInterleaved, its mirror (R[b][t] = inter[t * inter_stride +
     * b]). Writes `words_per_row` words per position at
     * out + (r - r0) * words_per_row (unused high bits zeroed) and
     * nothing else. Any tap count, stride, pad and bit length; a range
     * may start and end mid output row.
     */
    void (*signFrame)(const float *frame, const int64_t *tapOff,
                      int64_t taps, int64_t rowStep, int64_t ow, int64_t r0,
                      int64_t r1, const float *cols, const float *inter,
                      int inter_stride, int bits, int64_t words_per_row,
                      uint64_t *out);

    /** dst[0..n) = src[0..n) (ranges must not overlap). */
    void (*copySpan)(float *dst, const float *src, int64_t n);

    /**
     * Gather `rows` rows of n cells through one index map into each of
     * `planes` planes: for plane p, row y and i in [0, n),
     * dst[p*dstPlane + y*dstPitch + i] =
     * src[p*srcPlane + idx[y*idxPitch + i]]. The conv dX replay moves
     * a whole pass's output gradients (every filter plane) into its
     * gradient frames in one call (ConvGradFrame::load); the AVX2 body
     * checks each index octet once per block of eight planes. dst must
     * not overlap src.
     */
    void (*gatherSpan)(float *dst, int64_t dstPitch, int64_t dstPlane,
                       const float *src, int64_t srcPlane,
                       const int32_t *idx, int64_t idxPitch, int64_t rows,
                       int64_t n, int64_t planes);

    /**
     * Hit-group sums of one pass, the dW replays' sum-then-multiply
     * (§III-C2 on Eq. 1): `rows` rows of `cols` floats at src (row r at
     * src + r*cols), grouped by `owner` (owner[r] == r for an owner
     * row, an earlier owner row otherwise). Group j, of the j-th owner
     * row ascending, is written to sums + j*cols: a copy of its owner's
     * row, then + each of its forwarded rows' in ascending row order —
     * per group the operation sequence of a walk in stream order.
     * `scratch` holds 2*rows int32; on return its first `groups`
     * entries list the owner rows ascending. Returns `groups`, and
     * writes exactly groups*cols floats of `sums`.
     */
    int64_t (*groupSums)(const float *src, int64_t cols,
                         const int32_t *owner, int64_t rows,
                         int32_t *scratch, float *sums);

    /**
     * Owner values of a conv channel pass: for each of the `count`
     * distinct rows r listed in `rows`, vals[r*filters + f] is the sum
     * over taps t ascending, from +0, of w[t*filters + f] *
     * frame[base[r] + tapOff[t]] — the dot product filter f computes
     * on its own, with `w` the channel's kernels laid out (tap,
     * filter). Row r's patch is read from the channel's conv frame
     * (tensor/ops.hpp's ConvFrame: base from positionSlots, tapOff
     * from tapOffsets(1)). Writes exactly the listed rows' `filters`
     * values.
     */
    void (*ownerValues)(const float *frame, const int64_t *base,
                        const int64_t *tapOff, int64_t d,
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

    /**
     * Exact conv forward of one (image, group): for each of `filters`
     * filters f and output (y, x), y < oh, x < ow,
     * out[f*outPitch + y*ow + x] is bias[f] (+0 when bias is null),
     * then + frames[tapOff[t] + y*rowStep + x] * w[f*taps + t] over
     * taps t ascending. `frames` are conv frames (tensor/ops.hpp's
     * ConvFrame) and tapOff[t] the slot tap t reads for output (0, 0),
     * taps walking (channel, ky, kx). Writes exactly those outputs.
     */
    void (*convForward)(const float *frames, const int64_t *tapOff,
                        int64_t taps, int64_t rowStep, const float *w,
                        const float *bias, int64_t filters, int64_t oh,
                        int64_t ow, float *out, int64_t outPitch);
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
