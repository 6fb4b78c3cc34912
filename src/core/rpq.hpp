/**
 * @file
 * Random Projection with Quantization engine (§II-A, §III-B).
 *
 * The engine owns a random projection matrix R of shape d x N whose
 * columns, reshaped to the kernel geometry, act as "random filters".
 * A signature bit is the sign of the dot product between an input
 * vector and one random filter, so signature generation is exactly a
 * convolution pass per bit and reuses the PE array (§III-B1). The
 * engine runs it in both forms: the row form hashes the rows of a
 * (n, d) matrix (FC and attention inputs, detect()), and the frame
 * form convolves one input channel's conv frame with the random
 * filters (Fig. 7a) — the exact conv kernel with the matrix as its
 * weights — so a conv pass never extracts its patches. The two agree
 * bit for bit. The engine supports incremental extension: growing the
 * signature length reuses the existing columns and only adds new
 * ones, which is what the adaptive controller needs (§III-D).
 */

#ifndef MERCURY_CORE_RPQ_HPP
#define MERCURY_CORE_RPQ_HPP

#include <cstdint>
#include <mutex>
#include <vector>

#include "core/signature.hpp"
#include "tensor/tensor.hpp"
#include "util/rng.hpp"

namespace mercury {

class ConvFrame;

/** RPQ signature generator for vectors of a fixed dimension. */
class RPQEngine
{
  public:
    /**
     * @param vector_dim dimensionality d of input vectors
     * @param max_bits   maximum signature length to provision
     * @param seed       RNG seed for the projection matrix
     */
    RPQEngine(int64_t vector_dim, int max_bits, uint64_t seed);

    int64_t vectorDim() const { return vectorDim_; }
    int maxBits() const { return maxBits_; }

    /** Projection of a vector onto random filter n (before the sign). */
    float project(const float *vec, int n) const;

    /** Signature of one vector with the given number of bits. */
    Signature signatureOf(const float *vec, int bits) const;

    /** Signature of one vector given as a tensor row. */
    Signature signatureOfRow(const Tensor &rows, int64_t row,
                             int bits) const;

    /**
     * Signatures for every row of a (num_vectors, d) matrix. This is
     * the batch form the accelerator executes as `bits` convolution
     * passes (one per random filter).
     */
    std::vector<Signature> signaturesOf(const Tensor &rows,
                                        int bits) const;

    /**
     * Blocked matrix-matrix projection (the pipeline's batch front
     * end, Fig. 7/8): project rows [row0, row1) of a (n, d) matrix
     * against the first `bits` random filters at once, writing a
     * row-major (row1 - row0, bits) block to `out`. Runs through the
     * dispatched kernel table (src/core/kernels/): the AVX2 body
     * vectorizes over independent per-filter accumulators of the
     * bit-interleaved matrix mirror, while each per-(row, filter)
     * sum accumulates in the same element order as project() —
     * results are bit-identical to the scalar path.
     */
    void projectBlock(const Tensor &rows, int64_t row0, int64_t row1,
                      int bits, float *out) const;

    /**
     * Blocked signature generation: the packed words of signatureOf()
     * for rows [row0, row1), Signature::wordsFor(bits) words per row
     * (the Signature::words layout, bits past `bits` zero), written
     * to out[0 .. (row1-row0) * wordsFor(bits)). Bit-identical to
     * signatureOfRow per row, but runs through projectBlock in
     * cache-sized row tiles whose sign-pack writes straight into
     * `out`.
     */
    void signatureWords(const Tensor &rows, int64_t row0, int64_t row1,
                        int bits, uint64_t *out) const;

    /**
     * Frame form of signatureWords (§III-B1, Fig. 7a): the words of
     * output positions [row0, row1) of one input channel, loaded at
     * `frame` as the conv frame `geometry` describes (tensor/ops.hpp),
     * whose kH * kW patches are the vectors (kH * kW == vectorDim()).
     * Equal, word for word, to the row form over the channel's im2col
     * rows: the active table's signFrame convolves the frame with the
     * first `bits` random filters — each projection from +0, taps
     * ascending, as projectRows sums a row — and writes the sign bits
     * straight into `out`, with no projection stored. A range may
     * start and end mid output row. Allocates nothing (past the
     * interleaved mirror, built once).
     */
    void signatureWords(const ConvFrame &geometry, const float *frame,
                        int64_t row0, int64_t row1, int bits,
                        uint64_t *out) const;

    /**
     * Random filter n reshaped as a (k, k) tensor, k*k == d. This is
     * the weight layout streamed through the PE array when signature
     * generation runs as a convolution (§III-B1, Fig. 7).
     */
    Tensor randomFilter2D(int n, int64_t k) const;

  private:
    int64_t vectorDim_;
    int maxBits_;
    // Column-major random matrix: filter n occupies
    // [n * vectorDim_, (n + 1) * vectorDim_).
    std::vector<float> matrix_;
    // Bit-interleaved mirror for the blocked projection: element i of
    // every filter is contiguous at [i * maxBits_, (i + 1) * maxBits_).
    // Built lazily on the first projectBlock call under a kernel
    // table that wants it (the scalar table never pays the 2x matrix
    // memory); call_once keeps concurrent block projections safe.
    mutable std::vector<float> interleaved_;
    mutable std::once_flag interleavedOnce_;

    const float *interleaved() const;
};

} // namespace mercury

#endif // MERCURY_CORE_RPQ_HPP
