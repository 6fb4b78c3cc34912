/**
 * @file
 * Test oracle: the reuse engines' arithmetic as it stood before owner-map
 * execution, as plain serial functions over a captured SignatureRecord.
 *
 * Each function re-derives one engine pass from the record alone and
 * states its IEEE operation order in the plainest form:
 *
 *  - conv forward: one filter pass at a time over a per-pass data plane
 *    (a value and a valid flag per MCACHE entry, cleared at every pass):
 *    a HIT on a valid entry reads the plane, every other row computes
 *    its dot product tap-ascending from +0 and a MAU row deposits it;
 *  - conv dX: per filter, a grad column of go * w products (HIT rows
 *    copy their owner's column row), scattered into the input gradient
 *    filter by filter, output positions ascending, one kernel row at a
 *    time;
 *  - conv dW: per filter, a group sum of output gradients in stream
 *    order (the owner copies, HIT rows add), then one multiply-add per
 *    owner row through its patch, owners ascending;
 *  - FC and attention: the per-row forward and dX bodies, HIT rows
 *    copying their owner's row, and the sum-then-multiply weight
 *    gradient (group sums, then owners ascending with the zero skip).
 *
 * The owner rule is restated here rather than taken from the library:
 * a HIT row whose entry was installed (MAU) by an earlier row of the
 * same pass takes that row's result; every other row owns itself.
 * Every function also rebuilds the ReuseStats the engine books, so a
 * test can compare totals as well as bits (test_reuse_oracle).
 */

#ifndef MERCURY_TESTS_REUSE_ORACLE_HPP
#define MERCURY_TESTS_REUSE_ORACLE_HPP

#include <cstdint>
#include <vector>

#include "core/reuse_runtime.hpp"
#include "pipeline/signature_record.hpp"
#include "tensor/ops.hpp"
#include "tensor/tensor.hpp"

namespace reuse_oracle {

using mercury::ConvSpec;
using mercury::McacheOutcome;
using mercury::ReuseStats;
using mercury::SignatureRecord;
using mercury::Tensor;

/** Owner of every row of one recorded pass (see the file comment). */
inline std::vector<int64_t>
owners(const SignatureRecord &record, const SignatureRecord::Pass &p)
{
    std::vector<int64_t> owner(static_cast<size_t>(p.rows));
    std::vector<int64_t> owner_of_entry(
        static_cast<size_t>(record.entries()), -1);
    for (int64_t i = 0; i < p.rows; ++i) {
        owner[static_cast<size_t>(i)] = i;
        const int64_t e = p.entryId(i);
        if (p.outcome(i) == McacheOutcome::Hit &&
            owner_of_entry[static_cast<size_t>(e)] >= 0) {
            owner[static_cast<size_t>(i)] =
                owner_of_entry[static_cast<size_t>(e)];
        } else if (p.outcome(i) == McacheOutcome::Mau) {
            owner_of_entry[static_cast<size_t>(e)] = i;
        }
    }
    return owner;
}

/** Fold one pass into the stats: its mix, and one detection pass. */
inline void
bookPass(const SignatureRecord::Pass &p, ReuseStats &stats)
{
    stats.mix += p.mix;
    ++stats.channelPasses;
}

/** (oh*ow, k*k) patch rows of one (image, channel) plane. */
inline std::vector<float>
patches(const Tensor &input, const ConvSpec &spec, int64_t b, int64_t c,
        int64_t oh, int64_t ow)
{
    const int64_t k = spec.kernelH;
    std::vector<float> rows(static_cast<size_t>(oh * ow * k * k));
    for (int64_t y = 0; y < oh; ++y)
        for (int64_t x = 0; x < ow; ++x)
            for (int64_t ky = 0; ky < k; ++ky)
                for (int64_t kx = 0; kx < k; ++kx) {
                    const int64_t iy = y * spec.stride - spec.pad + ky;
                    const int64_t ix = x * spec.stride - spec.pad + kx;
                    const bool in = iy >= 0 && ix >= 0 &&
                                    iy < input.dim(2) && ix < input.dim(3);
                    rows[static_cast<size_t>(((y * ow + x) * k + ky) * k +
                                             kx)] =
                        in ? input.at4(b, c, iy, ix) : 0.0f;
                }
    return rows;
}

/** Weight pointer of filter `f` of group g against channel ic. */
inline const float *
kernelOf(const Tensor &weight, const ConvSpec &spec, int64_t g, int64_t f,
         int64_t ic)
{
    const int64_t cin_g = spec.inChannels / spec.groups;
    const int64_t cout_g = spec.outChannels / spec.groups;
    const int64_t k = spec.kernelH;
    return weight.data() + ((g * cout_g + f) * cin_g + ic) * k * k;
}

/** Conv forward over the record's outcomes (data-plane forwarding). */
inline Tensor
convForward(const Tensor &input, const Tensor &weight, const Tensor &bias,
            const ConvSpec &spec, const SignatureRecord &record,
            ReuseStats &stats)
{
    const int64_t n = input.dim(0);
    const int64_t oh = spec.outH(input.dim(2));
    const int64_t ow = spec.outW(input.dim(3));
    const int64_t d = spec.kernelH * spec.kernelW;
    const int64_t v = oh * ow;
    const int64_t cin_g = spec.inChannels / spec.groups;
    const int64_t cout_g = spec.outChannels / spec.groups;
    Tensor out({n, spec.outChannels, oh, ow});
    for (int64_t b = 0; b < n; ++b)
        for (int64_t oc = 0; oc < spec.outChannels; ++oc)
            for (int64_t i = 0; i < v; ++i)
                out[out.offset4(b, oc, 0, 0) + i] =
                    bias.numel() ? bias[oc] : 0.0f;

    stats = ReuseStats{};
    const size_t entries = static_cast<size_t>(record.entries());
    int64_t pi = 0;
    for (int64_t b = 0; b < n; ++b)
        for (int64_t g = 0; g < spec.groups; ++g)
            for (int64_t ic = 0; ic < cin_g; ++ic) {
                const SignatureRecord::Pass &p = record.pass(pi++);
                const std::vector<float> rows =
                    patches(input, spec, b, g * cin_g + ic, oh, ow);
                for (int64_t f = 0; f < cout_g; ++f) {
                    std::vector<float> plane(entries, 0.0f);
                    std::vector<char> valid(entries, 0);
                    const float *w = kernelOf(weight, spec, g, f, ic);
                    float *o = out.data() +
                               out.offset4(b, g * cout_g + f, 0, 0);
                    for (int64_t i = 0; i < v; ++i) {
                        const int64_t e = p.entryId(i);
                        float val;
                        if (p.outcome(i) == McacheOutcome::Hit &&
                            valid[static_cast<size_t>(e)]) {
                            val = plane[static_cast<size_t>(e)];
                            stats.macsSkipped += static_cast<uint64_t>(d);
                        } else {
                            float acc = 0.0f;
                            for (int64_t t = 0; t < d; ++t)
                                acc += rows[static_cast<size_t>(i * d + t)] *
                                       w[t];
                            val = acc;
                            if (p.outcome(i) == McacheOutcome::Mau) {
                                plane[static_cast<size_t>(e)] = acc;
                                valid[static_cast<size_t>(e)] = 1;
                            }
                        }
                        o[i] += val;
                    }
                }
                stats.macsTotal += static_cast<uint64_t>(v * cout_g * d);
                bookPass(p, stats);
            }
    return out;
}

/** Conv input gradient: grad columns, then the ordered scatter. */
inline Tensor
convBackwardInput(const Tensor &gradOut, const Tensor &weight,
                  const ConvSpec &spec, int64_t in_h, int64_t in_w,
                  const SignatureRecord &record, ReuseStats &stats)
{
    const int64_t n = gradOut.dim(0);
    const int64_t oh = gradOut.dim(2);
    const int64_t ow = gradOut.dim(3);
    const int64_t k = spec.kernelH;
    const int64_t d = k * k;
    const int64_t v = oh * ow;
    const int64_t cin_g = spec.inChannels / spec.groups;
    const int64_t cout_g = spec.outChannels / spec.groups;
    Tensor grad_in({n, spec.inChannels, in_h, in_w});

    stats = ReuseStats{};
    std::vector<float> col(static_cast<size_t>(v * d));
    int64_t pi = 0;
    for (int64_t b = 0; b < n; ++b)
        for (int64_t g = 0; g < spec.groups; ++g)
            for (int64_t ic = 0; ic < cin_g; ++ic) {
                const SignatureRecord::Pass &p = record.pass(pi++);
                const std::vector<int64_t> owner = owners(record, p);
                float *gin = grad_in.data() +
                             grad_in.offset4(b, g * cin_g + ic, 0, 0);
                for (int64_t f = 0; f < cout_g; ++f) {
                    const float *go =
                        gradOut.data() +
                        gradOut.offset4(b, g * cout_g + f, 0, 0);
                    const float *w = kernelOf(weight, spec, g, f, ic);
                    for (int64_t r = 0; r < v; ++r) {
                        const int64_t o = owner[static_cast<size_t>(r)];
                        for (int64_t t = 0; t < d; ++t)
                            col[static_cast<size_t>(r * d + t)] =
                                o == r ? go[r] * w[t]
                                       : col[static_cast<size_t>(o * d + t)];
                        if (o != r)
                            stats.macsSkipped += static_cast<uint64_t>(d);
                    }
                    for (int64_t y = 0; y < oh; ++y)
                        for (int64_t x = 0; x < ow; ++x)
                            for (int64_t ky = 0; ky < k; ++ky)
                                for (int64_t kx = 0; kx < k; ++kx) {
                                    const int64_t iy =
                                        y * spec.stride - spec.pad + ky;
                                    const int64_t ix =
                                        x * spec.stride - spec.pad + kx;
                                    if (iy < 0 || ix < 0 || iy >= in_h ||
                                        ix >= in_w)
                                        continue;
                                    gin[iy * in_w + ix] +=
                                        col[static_cast<size_t>(
                                            (y * ow + x) * d + ky * k + kx)];
                                }
                }
                stats.macsTotal += static_cast<uint64_t>(v * cout_g * d);
                bookPass(p, stats);
            }
    return grad_in;
}

/** Conv weight gradient: group sums, then one multiply per owner. */
inline Tensor
convBackwardWeights(const Tensor &input, const Tensor &gradOut,
                    const ConvSpec &spec, const SignatureRecord &record,
                    ReuseStats &stats)
{
    const int64_t n = input.dim(0);
    const int64_t oh = gradOut.dim(2);
    const int64_t ow = gradOut.dim(3);
    const int64_t k = spec.kernelH;
    const int64_t d = k * k;
    const int64_t v = oh * ow;
    const int64_t cin_g = spec.inChannels / spec.groups;
    const int64_t cout_g = spec.outChannels / spec.groups;
    Tensor grad_w({spec.outChannels, cin_g, k, k});

    stats = ReuseStats{};
    std::vector<float> gcol(static_cast<size_t>(v));
    int64_t pi = 0;
    for (int64_t b = 0; b < n; ++b)
        for (int64_t g = 0; g < spec.groups; ++g)
            for (int64_t ic = 0; ic < cin_g; ++ic) {
                const SignatureRecord::Pass &p = record.pass(pi++);
                const std::vector<int64_t> owner = owners(record, p);
                const std::vector<float> rows =
                    patches(input, spec, b, g * cin_g + ic, oh, ow);
                for (int64_t f = 0; f < cout_g; ++f) {
                    const int64_t oc = g * cout_g + f;
                    const float *go =
                        gradOut.data() + gradOut.offset4(b, oc, 0, 0);
                    for (int64_t r = 0; r < v; ++r) {
                        const int64_t o = owner[static_cast<size_t>(r)];
                        if (o == r) {
                            gcol[static_cast<size_t>(r)] = go[r];
                        } else {
                            gcol[static_cast<size_t>(o)] += go[r];
                            stats.macsSkipped += static_cast<uint64_t>(d);
                        }
                    }
                    float *gw = grad_w.data() + (oc * cin_g + ic) * d;
                    for (int64_t r = 0; r < v; ++r) {
                        if (owner[static_cast<size_t>(r)] != r)
                            continue;
                        for (int64_t t = 0; t < d; ++t)
                            gw[t] += gcol[static_cast<size_t>(r)] *
                                     rows[static_cast<size_t>(r * d + t)];
                    }
                }
                stats.macsTotal += static_cast<uint64_t>(v * cout_g * d);
                bookPass(p, stats);
            }
    return grad_w;
}

/** Copy row `o` of a row-major (rows, width) buffer into row `i`. */
inline void
copyRow(float *base, int64_t width, int64_t i, int64_t o)
{
    for (int64_t j = 0; j < width; ++j)
        base[i * width + j] = base[o * width + j];
}

/** FC forward over the record's pass 0. */
inline Tensor
fcForward(const Tensor &input, const Tensor &weight,
          const SignatureRecord &record, ReuseStats &stats)
{
    const int64_t n = input.dim(0), d = input.dim(1), m = weight.dim(1);
    const SignatureRecord::Pass &p = record.pass(0);
    const std::vector<int64_t> owner = owners(record, p);
    stats = ReuseStats{};
    stats.macsTotal = static_cast<uint64_t>(n * d * m);
    Tensor out({n, m});
    for (int64_t i = 0; i < n; ++i) {
        if (owner[static_cast<size_t>(i)] != i)
            continue;
        for (int64_t j = 0; j < m; ++j) {
            float acc = 0.0f;
            for (int64_t e = 0; e < d; ++e)
                acc += input.at2(i, e) * weight.at2(e, j);
            out.at2(i, j) = acc;
        }
    }
    for (int64_t i = 0; i < n; ++i) {
        const int64_t o = owner[static_cast<size_t>(i)];
        if (o != i) {
            copyRow(out.data(), m, i, o);
            stats.macsSkipped += static_cast<uint64_t>(d * m);
        }
    }
    bookPass(p, stats);
    return out;
}

/** FC input gradient: computed rows in matmulTransposeB's order. */
inline Tensor
fcBackwardInput(const Tensor &grad, const Tensor &weight,
                const SignatureRecord &record, ReuseStats &stats)
{
    const int64_t n = grad.dim(0), d = weight.dim(0), m = weight.dim(1);
    const SignatureRecord::Pass &p = record.pass(0);
    const std::vector<int64_t> owner = owners(record, p);
    stats = ReuseStats{};
    stats.macsTotal = static_cast<uint64_t>(n * d * m);
    Tensor out({n, d});
    for (int64_t i = 0; i < n; ++i) {
        if (owner[static_cast<size_t>(i)] != i)
            continue;
        for (int64_t j = 0; j < d; ++j) {
            float acc = 0.0f;
            for (int64_t q = 0; q < m; ++q)
                acc += grad.at2(i, q) * weight.at2(j, q);
            out.at2(i, j) = acc;
        }
    }
    for (int64_t i = 0; i < n; ++i) {
        const int64_t o = owner[static_cast<size_t>(i)];
        if (o != i) {
            copyRow(out.data(), d, i, o);
            stats.macsSkipped += static_cast<uint64_t>(d * m);
        }
    }
    bookPass(p, stats);
    return out;
}

/**
 * At B over one recorded pass, sum-then-multiply: b-rows grouped by
 * owner in stream order, then per output row one multiply-add per
 * owner, owners ascending, skipping zero a-values. Books da x db
 * skipped MACs per HIT row.
 */
inline Tensor
weightGrad(const Tensor &a, const Tensor &b, const SignatureRecord &record,
           const SignatureRecord::Pass &p, ReuseStats &stats)
{
    const int64_t n = p.rows, da = a.dim(1), db = b.dim(1);
    const std::vector<int64_t> owner = owners(record, p);
    std::vector<float> gsum(static_cast<size_t>(n * db));
    for (int64_t r = 0; r < n; ++r) {
        const int64_t o = owner[static_cast<size_t>(r)];
        for (int64_t j = 0; j < db; ++j) {
            if (o == r)
                gsum[static_cast<size_t>(r * db + j)] = b.at2(r, j);
            else
                gsum[static_cast<size_t>(o * db + j)] += b.at2(r, j);
        }
        if (o != r)
            stats.macsSkipped += static_cast<uint64_t>(da * db);
    }
    Tensor out({da, db});
    for (int64_t i = 0; i < da; ++i)
        for (int64_t r = 0; r < n; ++r) {
            if (owner[static_cast<size_t>(r)] != r)
                continue;
            const float av = a.at2(r, i);
            if (av == 0.0f)
                continue;
            for (int64_t j = 0; j < db; ++j)
                out.at2(i, j) += av * gsum[static_cast<size_t>(r * db + j)];
        }
    bookPass(p, stats);
    return out;
}

/** FC weight gradient (input^T grad, sum-then-multiply). */
inline Tensor
fcBackwardWeights(const Tensor &input, const Tensor &grad,
                  const SignatureRecord &record, ReuseStats &stats)
{
    stats = ReuseStats{};
    stats.macsTotal =
        static_cast<uint64_t>(input.dim(0) * input.dim(1) * grad.dim(1));
    return weightGrad(input, grad, record, record.pass(0), stats);
}

/** Attention forward Y = (X Xt) X of one sample over pass `pi`. */
inline Tensor
attentionForward(const Tensor &x, const SignatureRecord &record,
                 int64_t pi, ReuseStats &stats)
{
    const int64_t t = x.dim(0), d = x.dim(1);
    const SignatureRecord::Pass &p = record.pass(pi);
    const std::vector<int64_t> owner = owners(record, p);
    stats = ReuseStats{};
    stats.macsTotal = static_cast<uint64_t>(2 * t * t * d);
    Tensor w({t, t});
    Tensor y({t, d});
    for (int64_t i = 0; i < t; ++i) {
        if (owner[static_cast<size_t>(i)] != i)
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
    for (int64_t i = 0; i < t; ++i) {
        const int64_t o = owner[static_cast<size_t>(i)];
        if (o != i) {
            copyRow(y.data(), d, i, o);
            stats.macsSkipped += static_cast<uint64_t>(2 * t * d);
        }
    }
    bookPass(p, stats);
    return y;
}

/** Attention input gradient of one sample over pass `pi`. */
inline Tensor
attentionBackward(const Tensor &x, const Tensor &g,
                  const SignatureRecord &record, int64_t pi,
                  ReuseStats &stats)
{
    const int64_t t = x.dim(0), d = x.dim(1);
    const SignatureRecord::Pass &p = record.pass(pi);
    const std::vector<int64_t> owner = owners(record, p);
    const uint64_t row_cost = static_cast<uint64_t>(d * d + 4 * t * d);
    stats = ReuseStats{};
    stats.macsTotal = static_cast<uint64_t>(t) * row_cost +
                      static_cast<uint64_t>(t * d * d);
    const Tensor xtx = mercury::matmul(mercury::transpose2d(x), x);
    Tensor out({t, d});
    std::vector<float> t1(static_cast<size_t>(d)), t2(t1), t3(t1);
    std::vector<float> u(static_cast<size_t>(t)), vv(u);
    for (int64_t i = 0; i < t; ++i) {
        if (owner[static_cast<size_t>(i)] != i)
            continue;
        for (int64_t j = 0; j < d; ++j) {
            float acc = 0.0f;
            for (int64_t e = 0; e < d; ++e)
                acc += g.at2(i, e) * xtx.at2(e, j);
            t1[static_cast<size_t>(j)] = acc;
        }
        for (int64_t e = 0; e < t; ++e) {
            float acc = 0.0f;
            for (int64_t q = 0; q < d; ++q)
                acc += x.at2(i, q) * g.at2(e, q);
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
            for (int64_t q = 0; q < d; ++q)
                acc += x.at2(i, q) * x.at2(e, q);
            vv[static_cast<size_t>(e)] = acc;
        }
        for (int64_t j = 0; j < d; ++j) {
            float acc = 0.0f;
            for (int64_t e = 0; e < t; ++e)
                acc += vv[static_cast<size_t>(e)] * g.at2(e, j);
            t3[static_cast<size_t>(j)] = acc;
        }
        for (int64_t j = 0; j < d; ++j)
            out.at2(i, j) = t1[static_cast<size_t>(j)] +
                            t2[static_cast<size_t>(j)] +
                            t3[static_cast<size_t>(j)];
    }
    for (int64_t i = 0; i < t; ++i) {
        const int64_t o = owner[static_cast<size_t>(i)];
        if (o != i) {
            copyRow(out.data(), d, i, o);
            stats.macsSkipped += row_cost;
        }
    }
    bookPass(p, stats);
    return out;
}

/** Attention projection factor Xt X of one sample over pass `pi`. */
inline Tensor
attentionProjection(const Tensor &x, const SignatureRecord &record,
                    int64_t pi, ReuseStats &stats)
{
    stats = ReuseStats{};
    stats.macsTotal =
        static_cast<uint64_t>(x.dim(0) * x.dim(1) * x.dim(1));
    return weightGrad(x, x, record, record.pass(pi), stats);
}

} // namespace reuse_oracle

#endif // MERCURY_TESTS_REUSE_ORACLE_HPP
