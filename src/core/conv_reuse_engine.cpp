#include "core/conv_reuse_engine.hpp"

#include <algorithm>

#include "core/kernels/kernels.hpp"
#include "util/logging.hpp"

namespace mercury {

ConvReuseEngine::ConvReuseEngine(MCache &cache, int sig_bits,
                                 uint64_t seed, const PipelineConfig &pipe)
    : frontend_(cache, sig_bits, seed, pipe, "ConvReuseEngine")
{
}

ConvReuseEngine::ConvReuseEngine(DetectionFrontend &frontend, int sig_bits)
    : frontend_(frontend, sig_bits, "ConvReuseEngine")
{
}

namespace {

/** Shape of one conv layer call, as the three passes see it. */
struct ConvGeometry
{
    int64_t n, oh, ow, k, d, v, cin_g, cout_g;

    ConvGeometry(const ConvSpec &spec, int64_t batch, int64_t out_h,
                 int64_t out_w)
        : n(batch), oh(out_h), ow(out_w), k(spec.kernelH), d(k * k),
          v(oh * ow), cin_g(spec.inChannels / spec.groups),
          cout_g(spec.outChannels / spec.groups)
    {
        if (spec.kernelW != k)
            panic("ConvReuseEngine expects square kernels");
    }

    /** MACs of one row of a channel pass: one dot product per filter. */
    uint64_t rowMacs() const
    {
        return static_cast<uint64_t>(cout_g) * static_cast<uint64_t>(d);
    }

    /** MACs of one channel pass: every row against every filter. */
    uint64_t passMacs() const { return static_cast<uint64_t>(v) * rowMacs(); }
};

/**
 * Check that `record` holds one pass of `v` rows per (image, group,
 * channel) of the layer, before any replay work fans out.
 */
void
checkRecord(const SignatureRecord &record, const ConvSpec &spec,
            const ConvGeometry &geo, const char *what)
{
    const int64_t passes = geo.n * spec.groups * geo.cin_g;
    if (record.passCount() != passes)
        panic("record holds ", record.passCount(), " passes, ", what,
              " needs ", passes,
              " — was forward captured with the same layer geometry?");
    for (int64_t p = 0; p < passes; ++p)
        if (record.pass(p).rows != geo.v)
            panic("recorded pass holds ", record.pass(p).rows,
                  " rows, gradient has ", geo.v);
}

/**
 * Book a replay: every recorded pass's mix and MACs, and the MACs of
 * the `forwarded[p]` rows of pass p that took their owner's result.
 */
void
bookReplay(const SignatureRecord &record, const ConvGeometry &geo,
           const std::vector<int64_t> &forwarded, ReuseStats &stats)
{
    for (int64_t pi = 0; pi < record.passCount(); ++pi) {
        stats.addReplayedPass(record.pass(pi));
        stats.macsTotal += geo.passMacs();
        stats.macsSkipped +=
            static_cast<uint64_t>(forwarded[static_cast<size_t>(pi)]) *
            geo.rowMacs();
    }
}

} // namespace

// Declared in the header (shared with the pipeline's fused
// extraction): the Fig. 7a per-channel vector extraction, routed
// through the extractPatches kernel (span-clipped copies —
// bit-identical to the elementwise loop it replaced, since extraction
// moves values without arithmetic).
void
extractChannelPatchRows(const Tensor &input, const ConvSpec &spec,
                        int64_t b, int64_t c, int64_t ow, int64_t r0,
                        int64_t r1, Tensor &rows)
{
    kernels::ops().extractPatches(
        input.data() + input.offset4(b, c, 0, 0), input.dim(2),
        input.dim(3), ow, spec.stride, spec.pad, spec.kernelH, r0, r1,
        rows.data());
}

Tensor
ConvReuseEngine::forward(const Tensor &input, const Tensor &weight,
                         const Tensor &bias, const ConvSpec &spec,
                         ReuseStats &stats, SignatureRecord *record)
{
    checkConvSpec(spec);
    checkConvInput(input, spec);
    checkConvWeight(weight, spec);
    const ConvGeometry geo(spec, input.dim(0), spec.outH(input.dim(2)),
                           spec.outW(input.dim(3)));
    const int64_t n = geo.n, ow = geo.ow, d = geo.d, v = geo.v;
    const int64_t cin_g = geo.cin_g, cout_g = geo.cout_g;

    Tensor out({n, spec.outChannels, geo.oh, ow});
    if (bias.numel()) {
        for (int64_t b = 0; b < n; ++b)
            for (int64_t oc = 0; oc < spec.outChannels; ++oc)
                for (int64_t i = 0; i < v; ++i)
                    out[out.offset4(b, oc, 0, 0) + i] = bias[oc];
    }

    ReuseRuntime rt(*frontend_, frontend_.signatureBits());
    if (record)
        record->clear();

    // Each (group, channel)'s kernels transposed to (tap, filter): an
    // owner row computes all cout_g filter values in one sweep.
    std::vector<float> wt(static_cast<size_t>(weight.numel()));
    for (int64_t g = 0; g < spec.groups; ++g)
        for (int64_t ic = 0; ic < cin_g; ++ic)
            for (int64_t f = 0; f < cout_g; ++f)
                for (int64_t t = 0; t < d; ++t)
                    wt[static_cast<size_t>(
                        ((g * cin_g + ic) * d + t) * cout_g + f)] =
                        weight[((g * cout_g + f) * cin_g + ic) * d + t];

    // Channel passes in execution order (also the record's pass
    // order, which the backward replays re-walk). Grouped / depthwise
    // convolutions enumerate (group, channel-within-group) pairs; the
    // per-pass descriptor below is the same for every grouping.
    struct PassId
    {
        int64_t b, g, ic;
    };
    std::vector<PassId> order;
    order.reserve(static_cast<size_t>(n * spec.groups * cin_g));
    for (int64_t b = 0; b < n; ++b)
        for (int64_t g = 0; g < spec.groups; ++g)
            for (int64_t ic = 0; ic < cin_g; ++ic)
                order.push_back({b, g, ic});

    // Double-buffered extraction tensors (cross-channel overlap): pass
    // p+1 is extracted and hashed into the other buffer while pass p's
    // owner computes drain. Single-touch fusion: a pass's extraction
    // rides its hash job as a RowFiller — each projection block
    // extracts its row range immediately before hashing it, so a
    // block's patches are still cache-hot when the RPQ projection
    // reads them (and on a pool the filler fans out with the hash
    // blocks). Without a pool the job defers hashing into the probe
    // half, so each block runs hash, probe, then its owner computes,
    // inline.
    Tensor bufs[2] = {Tensor({v, d}), Tensor({v, d})};
    const auto begin_hash = [&](size_t pi) {
        const PassId p = order[pi];
        Tensor &rows = bufs[pi & 1];
        return frontend_->beginHashStream(
            rows, frontend_.signatureBits(),
            [&input, &spec, &rows, cin_g, ow, p](int64_t r0, int64_t r1) {
                extractChannelPatchRows(input, spec, p.b,
                                        p.g * cin_g + p.ic, ow, r0, r1,
                                        rows);
            });
    };

    // Owner map and owner values of the pass in flight: vals holds the
    // cout_g filter values of each owner row (row-major by row).
    OwnerTable table(frontend_->entries());
    std::vector<int64_t> owner(static_cast<size_t>(v));
    std::vector<float> vals(static_cast<size_t>(v * cout_g));

    stats = ReuseStats{};
    std::unique_ptr<DetectionHashJob> job;
    if (!order.empty())
        job = begin_hash(0);

    for (size_t pi = 0; pi < order.size(); ++pi) {
        const PassId p = order[pi];
        const Tensor &rows = bufs[pi & 1];
        const float *w_p =
            wt.data() + (p.g * cin_g + p.ic) * d * cout_g;

        ReuseRuntime::RowPass pass;
        pass.ownerOf = [&](int64_t i, McacheOutcome outcome,
                           int64_t entry) {
            const int64_t o = table.ownerOf(i, outcome, entry);
            owner[static_cast<size_t>(i)] = o;
            return o;
        };
        // Each value sums tap-ascending from +0: the dot product the
        // filter would compute on its own.
        pass.computeRow = [&, w_p](int64_t i) {
            float *val = vals.data() + i * cout_g;
            const float *row = rows.data() + i * d;
            std::fill(val, val + cout_g, 0.0f);
            for (int64_t t = 0; t < d; ++t)
                mulAddRows(val, 0, w_p + t * cout_g, 0, 1, cout_g, row[t]);
        };
        pass.rowSkipCost = geo.rowMacs();
        // Cross-channel overlap: begin hashing the next pass into the
        // other buffer while this pass's owner computes drain. Hashing
        // touches no MCACHE state, so it is safe beside them.
        std::unique_ptr<DetectionHashJob> next_job;
        pass.onStreamDelivered = [&] {
            if (pi + 1 < order.size())
                next_job = begin_hash(pi + 1);
        };

        rt.runRows(ReuseRuntime::StreamSource::hashed(*job, record), pass,
                   stats);
        table.nextPass();
        job = std::move(next_job);

        // Every row adds its owner's value, filter by filter: each
        // output gets one partial per channel pass, in channel order.
        float *out_g = out.data() + out.offset4(p.b, p.g * cout_g, 0, 0);
        rt.parallelRanges(cout_g, [&](int64_t f0, int64_t f1) {
            for (int64_t f = f0; f < f1; ++f) {
                float *o = out_g + f * v;
                for (int64_t i = 0; i < v; ++i)
                    o[i] += vals[static_cast<size_t>(
                        owner[static_cast<size_t>(i)] * cout_g + f)];
            }
        });
        stats.macsTotal += geo.passMacs();
    }
    return out;
}

Tensor
ConvReuseEngine::backwardInput(const Tensor &gradOut, const Tensor &weight,
                               const ConvSpec &spec, int64_t in_h,
                               int64_t in_w, const SignatureRecord &record,
                               ReuseStats &stats)
{
    checkConvSpec(spec);
    checkConvWeight(weight, spec);
    if (gradOut.rank() != 4)
        panic("conv gradOut must be rank 4, got ", gradOut.shapeStr());
    // The replay's frame is sized from (in_h, in_w) and reads v rows of
    // gradOut per filter, so both must describe the same layer.
    checkConvGradOut(gradOut, gradOut.dim(0), in_h, in_w, spec);
    const ConvGeometry geo(spec, gradOut.dim(0), gradOut.dim(2),
                           gradOut.dim(3));
    const int64_t v = geo.v, d = geo.d;
    const int64_t cin_g = geo.cin_g, cout_g = geo.cout_g;
    checkRecord(record, spec, geo, "backward");

    ReuseRuntime rt(*frontend_, frontend_.signatureBits());
    Tensor grad_in({geo.n, spec.inChannels, in_h, in_w});
    stats = ReuseStats{};
    const int64_t passes = record.passCount();
    if (passes == 0 || v == 0)
        return grad_in;

    // A forward-HIT row's products are go[owner] * w, so one pass's
    // replay is the exact per-channel input gradient of the output
    // gradients gathered through the owner map — each cell still sums
    // in (filter, y, x) order from +0, bit for bit the products the
    // owner rows would scatter. Passes write disjoint grad_in planes,
    // so on a pool they fan out per pass.
    const ConvFrame frame(spec, in_h, in_w);
    rt.beginPass(v);
    std::vector<int64_t> forwarded(static_cast<size_t>(passes));
    rt.parallelRanges(passes, [&](int64_t p0, int64_t p1) {
        OwnerTable table(record.entries());
        std::vector<int64_t> owner;
        std::vector<float> gathered(static_cast<size_t>(cout_g * v));
        std::vector<float> scratch(static_cast<size_t>(frame.size()));
        for (int64_t pi = p0; pi < p1; ++pi) {
            const int64_t b = pi / (spec.groups * cin_g);
            const int64_t g = pi / cin_g % spec.groups;
            const int64_t ic = pi % cin_g;
            const int64_t fwd =
                record.ownersOf(record.pass(pi), table, owner);
            const float *go =
                gradOut.data() + gradOut.offset4(b, g * cout_g, 0, 0);
            if (fwd > 0) {
                for (int64_t f = 0; f < cout_g; ++f) {
                    const float *src = go + f * v;
                    float *dst = gathered.data() + f * v;
                    for (int64_t r = 0; r < v; ++r)
                        dst[r] = src[owner[static_cast<size_t>(r)]];
                }
                go = gathered.data();
            }
            conv2dBackwardInputChannel(
                frame, go, cout_g,
                weight.data() + (g * cout_g * cin_g + ic) * d, cin_g * d,
                scratch.data(),
                grad_in.data() + grad_in.offset4(b, g * cin_g + ic, 0, 0));
            forwarded[static_cast<size_t>(pi)] = fwd;
        }
    });
    bookReplay(record, geo, forwarded, stats);
    return grad_in;
}

Tensor
ConvReuseEngine::backwardWeights(const Tensor &input, const Tensor &gradOut,
                                 const ConvSpec &spec,
                                 const SignatureRecord &record,
                                 ReuseStats &stats)
{
    checkConvSpec(spec);
    checkConvInput(input, spec);
    checkConvGradOut(gradOut, input.dim(0), input.dim(2), input.dim(3),
                     spec);
    const ConvGeometry geo(spec, input.dim(0), gradOut.dim(2),
                           gradOut.dim(3));
    const int64_t n = geo.n, ow = geo.ow, d = geo.d, v = geo.v;
    const int64_t cin_g = geo.cin_g, cout_g = geo.cout_g;
    checkRecord(record, spec, geo, "weight gradient");

    ReuseRuntime rt(*frontend_, frontend_.signatureBits());
    Tensor grad_w({spec.outChannels, cin_g, geo.k, geo.k});
    stats = ReuseStats{};
    const int64_t passes = record.passCount();
    if (passes == 0 || v == 0)
        return grad_w;

    // Sum-then-multiply (§III-C2 on Eq. 1): a forward-HIT row's
    // x_hit (x) dy_hit factors through its owner's patch, so each pass
    // first sums every hit-group's output gradients, then multiplies
    // once per owner row. The chains of a group's filters run side by
    // side, as in conv2dBackwardWeight: the output gradients are
    // transposed to (position, filter) once per (image, group), and
    // the accumulators, laid out (tap, filter), carry across the
    // batch. Every weight element still sums (image, owner) ascending
    // from +0.
    std::vector<float> go_t(static_cast<size_t>(gradOut.numel()));
    for (int64_t bg = 0; bg < n * spec.groups; ++bg) {
        const float *go = gradOut.data() + bg * cout_g * v;
        float *dst = go_t.data() + bg * v * cout_g;
        for (int64_t f = 0; f < cout_g; ++f)
            for (int64_t r = 0; r < v; ++r)
                dst[r * cout_g + f] = go[f * v + r];
    }

    // (group, channel) pairs write disjoint grad_w slices: on a pool
    // they fan out, each walking the batch in order.
    const int64_t pairs = spec.groups * cin_g;
    rt.beginPass(v);
    std::vector<int64_t> forwarded(static_cast<size_t>(passes));
    rt.parallelRanges(pairs, [&](int64_t gi0, int64_t gi1) {
        OwnerTable table(record.entries());
        std::vector<int64_t> owner;
        std::vector<float> sums(static_cast<size_t>(v * cout_g));
        std::vector<float> acc(static_cast<size_t>(d * cout_g));
        Tensor patches({v, d});
        for (int64_t gi = gi0; gi < gi1; ++gi) {
            const int64_t g = gi / cin_g, ic = gi % cin_g;
            std::fill(acc.begin(), acc.end(), 0.0f);
            for (int64_t b = 0; b < n; ++b) {
                const int64_t pi = (b * spec.groups + g) * cin_g + ic;
                forwarded[static_cast<size_t>(pi)] =
                    record.ownersOf(record.pass(pi), table, owner);
                // Group sums in stream order: the owner row copies its
                // own gradients, HIT rows add theirs.
                const float *gt =
                    go_t.data() + (b * spec.groups + g) * v * cout_g;
                for (int64_t r = 0; r < v; ++r) {
                    const int64_t o = owner[static_cast<size_t>(r)];
                    const float *src = gt + r * cout_g;
                    float *dst = sums.data() + o * cout_g;
                    if (o == r)
                        std::copy(src, src + cout_g, dst);
                    else
                        kernels::ops().addSpan(dst, src, cout_g);
                }
                // Patches of the owner rows only (runs of consecutive
                // owners extract as one range), then one multiply per
                // owner, owners ascending.
                for (int64_t r0 = 0; r0 < v;) {
                    if (owner[static_cast<size_t>(r0)] != r0) {
                        ++r0;
                        continue;
                    }
                    int64_t r1 = r0 + 1;
                    while (r1 < v && owner[static_cast<size_t>(r1)] == r1)
                        ++r1;
                    extractChannelPatchRows(input, spec, b, g * cin_g + ic,
                                            ow, r0, r1, patches);
                    for (int64_t r = r0; r < r1; ++r) {
                        const float *gr = sums.data() + r * cout_g;
                        const float *pr = patches.data() + r * d;
                        for (int64_t t = 0; t < d; ++t)
                            mulAddRows(acc.data() + t * cout_g, 0, gr, 0, 1,
                                       cout_g, pr[t]);
                    }
                    r0 = r1;
                }
            }
            for (int64_t f = 0; f < cout_g; ++f) {
                float *gw =
                    grad_w.data() + ((g * cout_g + f) * cin_g + ic) * d;
                for (int64_t t = 0; t < d; ++t)
                    gw[t] = acc[static_cast<size_t>(t * cout_g + f)];
            }
        }
    });
    bookReplay(record, geo, forwarded, stats);
    return grad_w;
}

} // namespace mercury
