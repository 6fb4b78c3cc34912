#include "nn/attention_layer.hpp"

#include "core/attention_engine.hpp"
#include "util/logging.hpp"

namespace mercury {

SelfAttentionLayer::SelfAttentionLayer(int64_t seq_len, int64_t embed_dim,
                                       uint64_t layer_id, float scale)
    : seqLen_(seq_len), embedDim_(embed_dim), layerId_(layer_id),
      scale_(scale)
{
}

Tensor
SelfAttentionLayer::forward(const Tensor &x, MercuryContext *ctx)
{
    if (x.rank() != 2 || x.dim(1) != seqLen_ * embedDim_)
        panic("attention expects (N, ", seqLen_ * embedDim_, "), got ",
              x.shapeStr());
    lastInput_ = x;
    recordValid_ = false;
    const int64_t n = x.dim(0);
    Tensor out({n, seqLen_ * embedDim_});

    const bool capture = ctx && ctx->capturesRecords();
    if (capture)
        record_.clear();
    for (int64_t s = 0; s < n; ++s) {
        Tensor xi({seqLen_, embedDim_});
        for (int64_t i = 0; i < xi.numel(); ++i)
            xi[i] = x[s * xi.numel() + i];
        Tensor yi;
        if (ctx) {
            AttentionEngine engine(ctx->frontendFor(layerId_),
                                   ctx->signatureBits());
            ReuseStats stats;
            yi = engine.forward(xi, stats, capture ? &record_ : nullptr);
            ctx->accumulate(stats);
        } else {
            Tensor w = matmulTransposeB(xi, xi);
            yi = matmul(w, xi);
        }
        for (int64_t i = 0; i < yi.numel(); ++i)
            out[s * yi.numel() + i] = scale_ * yi[i];
    }
    recordValid_ = capture;
    return out;
}

Tensor
SelfAttentionLayer::backwardImpl(const Tensor &grad, MercuryContext *ctx)
{
    // Y = X Xt X with factors U = X, V = Xt, W = X:
    //   dL/dX = G (Xt X) + X Gt X + (X Xt) G
    const int64_t n = grad.dim(0);
    const bool has_record = recordValid_ && record_.passCount() == n;
    const bool replay = ctx && ctx->backwardReuse() && has_record;
    // Weight-gradient reuse (§III-C2 on the projection factor): the
    // parameter-free formulation's dW-shaped reduction is the shared
    // Xt X factor — replay it by sum-then-multiply over the sample's
    // forward hit-groups and feed it to whichever backward runs.
    const bool proj = ctx && ctx->weightGradReuse() && has_record;
    Tensor out({n, seqLen_ * embedDim_});
    for (int64_t s = 0; s < n; ++s) {
        Tensor xi({seqLen_, embedDim_});
        Tensor gi({seqLen_, embedDim_});
        for (int64_t i = 0; i < xi.numel(); ++i) {
            xi[i] = lastInput_[s * xi.numel() + i];
            gi[i] = scale_ * grad[s * xi.numel() + i];
        }
        Tensor xtx;
        if (proj) {
            AttentionEngine engine(ctx->frontendFor(layerId_),
                                   ctx->signatureBits());
            ReuseStats wstats;
            xtx = engine.backwardProjection(xi, record_, s, wstats);
            ctx->accumulateWeightGrad(wstats);
        }
        if (replay) {
            // Replay the sample's forward detection pass (§III-C2):
            // forward-HIT token rows copy their owner's gradient row.
            AttentionEngine engine(ctx->frontendFor(layerId_),
                                   ctx->signatureBits());
            ReuseStats stats;
            Tensor gx = engine.backward(xi, gi, record_, s, stats,
                                        proj ? &xtx : nullptr);
            ctx->accumulateBackward(stats);
            for (int64_t i = 0; i < gx.numel(); ++i)
                out[s * gx.numel() + i] = gx[i];
            continue;
        }
        if (!proj)
            xtx = matmul(transpose2d(xi), xi);        // (E, E)
        Tensor term1 = matmul(gi, xtx);               // (T, E)
        Tensor term2 = matmul(matmul(xi, transpose2d(gi)), xi);
        Tensor term3 = matmul(matmulTransposeB(xi, xi), gi);
        for (int64_t i = 0; i < term1.numel(); ++i)
            out[s * term1.numel() + i] =
                term1[i] + term2[i] + term3[i];
    }
    return out;
}

} // namespace mercury
