#include "core/attention_engine.hpp"

#include <vector>

#include "core/reuse_runtime.hpp"
#include "tensor/ops.hpp"
#include "util/logging.hpp"

namespace mercury {

AttentionEngine::AttentionEngine(MCache &cache, int sig_bits,
                                 uint64_t seed, const PipelineConfig &pipe)
    : frontend_(cache, sig_bits, seed, pipe, "AttentionEngine")
{
}

AttentionEngine::AttentionEngine(DetectionFrontend &frontend, int sig_bits)
    : frontend_(frontend, sig_bits, "AttentionEngine")
{
}

Tensor
AttentionEngine::forward(const Tensor &x, ReuseStats &stats,
                         SignatureRecord *record)
{
    if (x.rank() != 2)
        panic("AttentionEngine expects (T, D), got ", x.shapeStr());
    const int64_t t = x.dim(0);
    const int64_t d = x.dim(1);

    stats = ReuseStats{};
    // W = X Xt costs T*T*D MACs; Y = W X costs T*T*D MACs.
    stats.macsTotal = 2ull * static_cast<uint64_t>(t) *
                      static_cast<uint64_t>(t) *
                      static_cast<uint64_t>(d);

    Tensor w({t, t});
    Tensor y({t, d});

    // One detection pass over the token rows (§III-C3-style
    // forwarding): a computed row is self-contained — w_i = X x_i needs
    // only X, then y_i = w_i X needs only the row's own w_i — and a HIT
    // row copies only its owner's Y row (its W row is never read,
    // exactly as in the staged formulation).
    SignatureRecord::Pass det =
        frontend_->detect(x, frontend_.signatureBits());
    for (int64_t i = 0; i < t; ++i) {
        if (det.owner(i) != i)
            continue;
        for (int64_t j = 0; j < t; ++j) {
            float acc = 0.0f;
            for (int64_t e = 0; e < d; ++e)
                acc += x.at2(i, e) * x.at2(j, e);
            w.at2(i, j) = acc;
        }
        for (int64_t j = 0; j < d; ++j) {
            float acc = 0.0f;
            for (int64_t e = 0; e < t; ++e)
                acc += w.at2(i, e) * x.at2(e, j);
            y.at2(i, j) = acc;
        }
    }
    copyHitRows(y, det);
    // A forwarded row skips both of its stages: t*d (W) + t*d (Y).
    stats.addPass(det, 2ull * static_cast<uint64_t>(t) *
                           static_cast<uint64_t>(d));
    if (record)
        record->append(std::move(det), frontend_->dataVersions(),
                       frontend_->entries());
    return y;
}

Tensor
AttentionEngine::backward(const Tensor &x, const Tensor &g,
                          const SignatureRecord &record,
                          int64_t pass_index, ReuseStats &stats,
                          const Tensor *xtx_pre)
{
    if (x.rank() != 2 || g.rank() != 2 || x.shape() != g.shape())
        panic("AttentionEngine backward expects matching (T, D) input "
              "and gradient, got ",
              x.shapeStr(), " and ", g.shapeStr());
    const int64_t t = x.dim(0);
    const int64_t d = x.dim(1);
    const SignatureRecord::Pass &pass = record.pass(pass_index);
    if (pass.rows != t)
        panic("recorded pass holds ", pass.rows, " rows, sample has ", t);

    // Per computed row: the three gradient terms of Y = (X Xt) X cost
    // d*d (t1) + 4*t*d (u, t2, v, t3) MACs; the shared Xt X factor
    // costs t*d*d once per sample regardless of hits.
    const uint64_t row_cost =
        static_cast<uint64_t>(d) * static_cast<uint64_t>(d) +
        4ull * static_cast<uint64_t>(t) * static_cast<uint64_t>(d);
    stats = ReuseStats{};
    // The shared Xt X factor is charged here only when this call
    // computes it; a precomputed factor was charged to the
    // weight-gradient pass that produced it (backwardProjection).
    stats.macsTotal = static_cast<uint64_t>(t) * row_cost;
    if (!xtx_pre) {
        stats.macsTotal += static_cast<uint64_t>(t) *
                           static_cast<uint64_t>(d) *
                           static_cast<uint64_t>(d);
    }

    // Shared factor, via the same tensor op the exact path uses so a
    // zero-hit replay stays bit-identical (a replayed factor is
    // itself bit-identical to this op at zero hits).
    Tensor xtx_local;
    if (!xtx_pre)
        xtx_local = matmul(transpose2d(x), x); // (D, D)
    const Tensor &xtx = xtx_pre ? *xtx_pre : xtx_local;
    Tensor out({t, d});

    // One replayed pass (§III-C2): owner rows run the three-term
    // gradient of dX = G (Xt X) + X Gt X + (X Xt) G — every term is
    // row-wise in the row's own X / G row plus whole matrices, and the
    // element accumulation order matches the exact matmul-factored path
    // exactly — fanned out over the frontend's pool, if it has one;
    // forward-HIT token rows then copy their owner's row.
    stats.addPass(pass, row_cost);
    std::vector<int64_t> owners;
    for (int64_t i = 0; i < t; ++i)
        if (pass.owner(i) == i)
            owners.push_back(i);

    const int64_t nowners = static_cast<int64_t>(owners.size());
    ThreadPool *pool = frontend_->workerPool();
    parallelRanges(pool, nowners, [&](int64_t k0, int64_t k1) {
        std::vector<float> t1(static_cast<size_t>(d));
        std::vector<float> u(static_cast<size_t>(t));
        std::vector<float> t2(static_cast<size_t>(d));
        std::vector<float> vv(static_cast<size_t>(t));
        std::vector<float> t3(static_cast<size_t>(d));
        for (int64_t k = k0; k < k1; ++k) {
            const int64_t i = owners[static_cast<size_t>(k)];
            for (int64_t j = 0; j < d; ++j) {
                float acc = 0.0f;
                for (int64_t e = 0; e < d; ++e)
                    acc += g.at2(i, e) * xtx.at2(e, j);
                t1[static_cast<size_t>(j)] = acc;
            }
            for (int64_t e = 0; e < t; ++e) {
                float acc = 0.0f;
                for (int64_t p = 0; p < d; ++p)
                    acc += x.at2(i, p) * g.at2(e, p);
                u[static_cast<size_t>(e)] = acc;
            }
            for (int64_t j = 0; j < d; ++j) {
                float acc = 0.0f;
                for (int64_t e = 0; e < t; ++e)
                    acc += u[static_cast<size_t>(e)] * x.at2(e, j);
                t2[static_cast<size_t>(j)] = acc;
            }
            for (int64_t e = 0; e < t; ++e) {
                float acc = 0.0f;
                for (int64_t p = 0; p < d; ++p)
                    acc += x.at2(i, p) * x.at2(e, p);
                vv[static_cast<size_t>(e)] = acc;
            }
            for (int64_t j = 0; j < d; ++j) {
                float acc = 0.0f;
                for (int64_t e = 0; e < t; ++e)
                    acc += vv[static_cast<size_t>(e)] * g.at2(e, j);
                t3[static_cast<size_t>(j)] = acc;
            }
            for (int64_t j = 0; j < d; ++j) {
                out.at2(i, j) = t1[static_cast<size_t>(j)] +
                                t2[static_cast<size_t>(j)] +
                                t3[static_cast<size_t>(j)];
            }
        }
    });
    copyHitRows(out, pass);
    return out;
}

Tensor
AttentionEngine::backwardProjection(const Tensor &x,
                                    const SignatureRecord &record,
                                    int64_t pass_index, ReuseStats &stats)
{
    if (x.rank() != 2)
        panic("AttentionEngine expects (T, D), got ", x.shapeStr());
    const int64_t t = x.dim(0);
    const int64_t d = x.dim(1);
    const SignatureRecord::Pass &pass = record.pass(pass_index);
    if (pass.rows != t)
        panic("recorded pass holds ", pass.rows, " rows, sample has ", t);

    stats = ReuseStats{};
    stats.macsTotal = static_cast<uint64_t>(t) *
                      static_cast<uint64_t>(d) * static_cast<uint64_t>(d);

    // Sum-then-multiply (§III-C2 on the dW-shaped projection factor):
    // group the token rows by forward owner, one outer product per
    // group with the owner's row.
    return ownerWeightGrad(pass, x, x, stats);
}

} // namespace mercury
