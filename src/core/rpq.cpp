#include "core/rpq.hpp"

#include <algorithm>

#include "core/kernels/kernels.hpp"
#include "tensor/ops.hpp"
#include "util/logging.hpp"

namespace mercury {

RPQEngine::RPQEngine(int64_t vector_dim, int max_bits, uint64_t seed)
    : vectorDim_(vector_dim), maxBits_(max_bits)
{
    if (vector_dim <= 0)
        panic("RPQEngine vector dim must be positive, got ", vector_dim);
    if (max_bits <= 0)
        panic("RPQEngine max bits must be positive, got ", max_bits);
    Rng rng(seed);
    matrix_.resize(static_cast<size_t>(vector_dim) *
                   static_cast<size_t>(max_bits));
    // Elements drawn from N(0, 1) as in classic random projection.
    for (auto &v : matrix_)
        v = static_cast<float>(rng.normal());
}

const float *
RPQEngine::interleaved() const
{
    std::call_once(interleavedOnce_, [this] {
        interleaved_.resize(matrix_.size());
        for (int n = 0; n < maxBits_; ++n)
            for (int64_t i = 0; i < vectorDim_; ++i)
                interleaved_[static_cast<size_t>(i) * maxBits_ + n] =
                    matrix_[static_cast<size_t>(n) * vectorDim_ + i];
    });
    return interleaved_.data();
}

float
RPQEngine::project(const float *vec, int n) const
{
    if (n < 0 || n >= maxBits_)
        panic("random filter index ", n, " out of range");
    const float *col =
        matrix_.data() + static_cast<size_t>(n) *
                             static_cast<size_t>(vectorDim_);
    float acc = 0.0f;
    for (int64_t i = 0; i < vectorDim_; ++i)
        acc += vec[i] * col[i];
    return acc;
}

Signature
RPQEngine::signatureOf(const float *vec, int bits) const
{
    if (bits > maxBits_)
        panic("asked for ", bits, " signature bits, engine has ",
              maxBits_);
    Signature sig(bits);
    for (int n = 0; n < bits; ++n) {
        // Sign quantization: negative projections map to 1, matching
        // the sign-bit rule of §II-A.
        sig.setBit(n, project(vec, n) < 0.0f);
    }
    return sig;
}

Signature
RPQEngine::signatureOfRow(const Tensor &rows, int64_t row, int bits) const
{
    if (rows.rank() != 2 || rows.dim(1) != vectorDim_)
        panic("signatureOfRow expects (n, ", vectorDim_, ") got ",
              rows.shapeStr());
    return signatureOf(rows.data() + row * vectorDim_, bits);
}

std::vector<Signature>
RPQEngine::signaturesOf(const Tensor &rows, int bits) const
{
    if (rows.rank() != 2 || rows.dim(1) != vectorDim_)
        panic("signaturesOf expects (n, ", vectorDim_, ") got ",
              rows.shapeStr());
    std::vector<Signature> out;
    out.reserve(static_cast<size_t>(rows.dim(0)));
    for (int64_t r = 0; r < rows.dim(0); ++r)
        out.push_back(signatureOf(rows.data() + r * vectorDim_, bits));
    return out;
}

void
RPQEngine::projectBlock(const Tensor &rows, int64_t row0, int64_t row1,
                        int bits, float *out) const
{
    if (rows.rank() != 2 || rows.dim(1) != vectorDim_)
        panic("projectBlock expects (n, ", vectorDim_, ") got ",
              rows.shapeStr());
    if (row0 < 0 || row1 < row0 || row1 > rows.dim(0))
        panic("projectBlock row range [", row0, ", ", row1,
              ") outside 0..", rows.dim(0));
    if (bits <= 0 || bits > maxBits_)
        panic("projectBlock asked for ", bits, " bits, engine has ",
              maxBits_);
    // The active kernel table does the work: every table accumulates
    // each (row, filter) sum in ascending element order with mul+add,
    // so results are bit-identical to the scalar project() path no
    // matter which table dispatched. Only tables that read the
    // bit-interleaved mirror pay for building it.
    const kernels::KernelOps &k = kernels::ops();
    k.projectRows(rows.data() + row0 * vectorDim_, row1 - row0,
                  vectorDim_, matrix_.data(),
                  k.wantsInterleaved ? interleaved() : nullptr, maxBits_,
                  bits, out);
}

void
RPQEngine::signatureWords(const Tensor &rows, int64_t row0, int64_t row1,
                          int bits, uint64_t *out) const
{
    // Tile so the projection block stays L1-resident even for long
    // signatures; the sign-pack kernel turns each tile's projections
    // into packed words in place. The tile buffer is per thread (hash
    // blocks run on pool workers) and only ever grows.
    constexpr int64_t kTileRows = 32;
    const int wpr = Signature::wordsFor(bits);
    const size_t tile_floats =
        static_cast<size_t>(kTileRows) * static_cast<size_t>(std::max(bits, 1));
    thread_local std::vector<float> proj;
    if (proj.size() < tile_floats)
        proj.resize(tile_floats);
    const kernels::KernelOps &k = kernels::ops();
    for (int64_t t0 = row0; t0 < row1; t0 += kTileRows) {
        const int64_t t1 = std::min(row1, t0 + kTileRows);
        projectBlock(rows, t0, t1, bits, proj.data());
        k.signPack(proj.data(), t1 - t0, bits, wpr,
                   out + (t0 - row0) * wpr);
    }
}

void
RPQEngine::signatureWords(const ConvFrame &geometry, const float *frame,
                          int64_t row0, int64_t row1, int bits,
                          uint64_t *out) const
{
    const std::vector<int64_t> &taps = geometry.channelTaps();
    const int64_t ow = geometry.outW();
    if (static_cast<int64_t>(taps.size()) != vectorDim_)
        panic("frame signatures need a kernel of ", vectorDim_,
              " taps, the frame's has ", taps.size());
    if (row0 < 0 || row1 < row0 || row1 > geometry.outH() * ow)
        panic("frame signature range [", row0, ", ", row1, ") outside 0..",
              geometry.outH() * ow);
    if (bits <= 0 || bits > maxBits_)
        panic("frame signatures asked for ", bits, " bits, engine has ",
              maxBits_);
    const kernels::KernelOps &k = kernels::ops();
    k.signFrame(frame, taps.data(), vectorDim_, geometry.rowStep(), ow, row0,
                row1, matrix_.data(),
                k.wantsInterleaved ? interleaved() : nullptr, maxBits_, bits,
                Signature::wordsFor(bits), out);
}

Tensor
RPQEngine::randomFilter2D(int n, int64_t k) const
{
    if (k * k != vectorDim_)
        panic("randomFilter2D: k*k = ", k * k, " != vector dim ",
              vectorDim_);
    Tensor f({k, k});
    const float *col =
        matrix_.data() + static_cast<size_t>(n) *
                             static_cast<size_t>(vectorDim_);
    for (int64_t i = 0; i < vectorDim_; ++i)
        f[i] = col[i];
    return f;
}

} // namespace mercury
