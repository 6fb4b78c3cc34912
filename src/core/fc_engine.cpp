#include "core/fc_engine.hpp"

#include "core/reuse_runtime.hpp"
#include "tensor/ops.hpp"
#include "util/logging.hpp"

namespace mercury {

FcEngine::FcEngine(MCache &cache, int sig_bits, uint64_t seed,
                   const PipelineConfig &pipe)
    : frontend_(cache, sig_bits, seed, pipe, "FcEngine")
{
}

FcEngine::FcEngine(DetectionFrontend &frontend, int sig_bits)
    : frontend_(frontend, sig_bits, "FcEngine")
{
}

Tensor
FcEngine::forward(const Tensor &input, const Tensor &weight,
                  ReuseStats &stats, std::vector<int64_t> *owner_rows,
                  SignatureRecord *record)
{
    if (record)
        record->clear();
    if (input.rank() != 2 || weight.rank() != 2 ||
        input.dim(1) != weight.dim(0)) {
        panic("FcEngine shape mismatch ", input.shapeStr(), " x ",
              weight.shapeStr());
    }
    const int64_t n = input.dim(0);
    const int64_t d = input.dim(1);
    const int64_t m = weight.dim(1);

    stats = ReuseStats{};
    stats.macsTotal =
        static_cast<uint64_t>(n) * static_cast<uint64_t>(d) *
        static_cast<uint64_t>(m);

    Tensor out({n, m});

    // One detection pass over the minibatch resolves the owner map
    // ("earlier PE", §III-C3; OwnerTable states the rule): owner rows
    // compute their dot products, then HIT rows take their owner's
    // result row.
    SignatureRecord::Pass det =
        frontend_->detect(input, frontend_.signatureBits());
    for (int64_t i = 0; i < n; ++i) {
        if (det.owner(i) != i)
            continue;
        for (int64_t j = 0; j < m; ++j) {
            float acc = 0.0f;
            for (int64_t e = 0; e < d; ++e)
                acc += input.at2(i, e) * weight.at2(e, j);
            out.at2(i, j) = acc;
        }
    }
    copyHitRows(out, det);
    stats.addPass(det, static_cast<uint64_t>(d) * static_cast<uint64_t>(m));
    if (owner_rows)
        owner_rows->assign(det.owners.begin(), det.owners.end());
    if (record)
        record->append(std::move(det), frontend_->dataVersions(),
                       frontend_->entries());
    return out;
}

Tensor
FcEngine::backwardInput(const Tensor &grad, const Tensor &weight,
                        const SignatureRecord &record, ReuseStats &stats)
{
    if (grad.rank() != 2 || weight.rank() != 2 ||
        grad.dim(1) != weight.dim(1)) {
        panic("FcEngine backward shape mismatch ", grad.shapeStr(),
              " x ", weight.shapeStr(), "^T");
    }
    const int64_t n = grad.dim(0);
    const int64_t d = weight.dim(0);
    const int64_t m = weight.dim(1);
    if (record.passCount() != 1)
        panic("FC backward needs the forward minibatch's single "
              "recorded pass, got ",
              record.passCount());
    const SignatureRecord::Pass &pass = record.pass(0);
    if (pass.rows != n)
        panic("recorded pass holds ", pass.rows, " rows, gradient has ",
              n);

    stats = ReuseStats{};
    stats.macsTotal = static_cast<uint64_t>(n) *
                      static_cast<uint64_t>(d) * static_cast<uint64_t>(m);

    // One replayed pass (§III-C2): the owner rows run through
    // matmulTransposeB — per row the accumulation order of the exact
    // input gradient — and forward-HIT rows take their owner's row.
    stats.addPass(pass, static_cast<uint64_t>(d) * static_cast<uint64_t>(m));
    if (pass.forwarded == 0)
        return matmulTransposeB(grad, weight);
    return forwardOwnerRows(
        matmulTransposeB(gatherOwnerRows(grad, pass), weight), pass);
}

Tensor
FcEngine::backwardWeights(const Tensor &input, const Tensor &grad,
                          const SignatureRecord &record, ReuseStats &stats)
{
    if (input.rank() != 2 || grad.rank() != 2 ||
        input.dim(0) != grad.dim(0)) {
        panic("FcEngine weight-gradient shape mismatch ",
              input.shapeStr(), "^T x ", grad.shapeStr());
    }
    const int64_t n = input.dim(0);
    const int64_t d = input.dim(1);
    const int64_t m = grad.dim(1);
    if (record.passCount() != 1)
        panic("FC weight gradient needs the forward minibatch's single "
              "recorded pass, got ",
              record.passCount());
    const SignatureRecord::Pass &pass = record.pass(0);
    if (pass.rows != n)
        panic("recorded pass holds ", pass.rows, " rows, gradient has ",
              n);

    stats = ReuseStats{};
    stats.macsTotal = static_cast<uint64_t>(n) *
                      static_cast<uint64_t>(d) * static_cast<uint64_t>(m);

    // Sum-then-multiply (§III-C2 on Eq. 1): group the output
    // gradients by forward owner, then one outer product per group
    // with the owner's input row.
    return ownerWeightGrad(pass, input, grad, stats);
}

} // namespace mercury
