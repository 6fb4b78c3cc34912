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
 * its forwarded rows, which took their owner's result.
 */
void
bookReplay(const SignatureRecord &record, const ConvGeometry &geo,
           ReuseStats &stats)
{
    for (int64_t pi = 0; pi < record.passCount(); ++pi) {
        stats.addPass(record.pass(pi), geo.rowMacs());
        stats.macsTotal += geo.passMacs();
    }
}

} // namespace

// Declared in the header (the forward's fused extraction): the Fig. 7a
// per-channel vector extraction, routed through the extractPatches
// kernel (span-clipped copies — bit-identical to the elementwise loop
// it replaced, since extraction moves values without arithmetic).
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

    // Two extraction tensors, alternating by pass: pass p+1 extracts
    // and hashes into one on the pool while pass p's owner computes
    // read the other. Single-touch fusion: a pass's extraction rides
    // its hash job as a RowFiller — each projection block extracts its
    // row range immediately before hashing it, so a block's patches
    // are still cache-hot when the RPQ projection reads them. Without
    // a pool the job defers hashing into finishStream.
    Tensor rows[2] = {Tensor({v, d}), Tensor({v, d})};
    const auto begin_hash = [&](size_t pi) {
        const PassId p = order[pi];
        Tensor &dst = rows[pi % 2];
        return frontend_->beginHashStream(
            dst, frontend_.signatureBits(),
            [&input, &spec, &dst, cin_g, ow, p](int64_t r0, int64_t r1) {
                extractChannelPatchRows(input, spec, p.b,
                                        p.g * cin_g + p.ic, ow, r0, r1,
                                        dst);
            });
    };

    // vals holds the cout_g filter values of each owner row (row-major
    // by row); each value sums tap-ascending from +0: the dot product
    // the filter would compute on its own.
    std::vector<float> vals(static_cast<size_t>(v * cout_g));
    std::vector<int32_t> owner_rows(static_cast<size_t>(v));

    stats = ReuseStats{};
    std::unique_ptr<DetectionHashJob> job;
    if (!order.empty())
        job = begin_hash(0);

    for (size_t pi = 0; pi < order.size(); ++pi) {
        const PassId p = order[pi];
        SignatureRecord::Pass det = frontend_->finishStream(*job);
        job = pi + 1 < order.size() ? begin_hash(pi + 1) : nullptr;

        // The pass's owner rows, ascending; written without a branch,
        // since which rows own themselves follows no pattern.
        int64_t nowners = 0;
        for (int32_t r = 0; r < v; ++r) {
            owner_rows[static_cast<size_t>(nowners)] = r;
            nowners += det.owner(r) == r;
        }
        kernels::ops().ownerValues(
            rows[pi % 2].data(), d, owner_rows.data(), nowners,
            wt.data() + (p.g * cin_g + p.ic) * d * cout_g, cout_g,
            vals.data());
        // Every row adds its owner's value, filter by filter: each
        // output gets one partial per channel pass, in channel order.
        kernels::ops().ownerScatter(
            vals.data(), cout_g, cout_g, det.owners.data(), v,
            out.data() + out.offset4(p.b, p.g * cout_g, 0, 0), v);
        stats.addPass(det, geo.rowMacs());
        stats.macsTotal += geo.passMacs();
        if (record)
            record->append(std::move(det), frontend_->dataVersions(),
                           frontend_->entries());
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

    Tensor grad_in({geo.n, spec.inChannels, in_h, in_w});
    stats = ReuseStats{};
    const int64_t passes = record.passCount();
    if (passes == 0 || v == 0)
        return grad_in;

    // A forward-HIT row's products are go[owner] * w, so one pass's
    // replay is the exact per-channel input gradient of the output
    // gradients gathered through the owner map — each cell still sums
    // in (filter, y, x) order from +0, bit for bit the products the
    // owner rows would scatter. The gather writes straight into the
    // bordered gradient frame the exact body reads. Passes write
    // disjoint grad_in planes, so on a pool they fan out per pass.
    const ConvGradFrame frame(spec, in_h, in_w);
    ThreadPool *pool = frontend_->workerPool();
    parallelRanges(pool, passes, [&](int64_t p0, int64_t p1) {
        std::vector<float> frames(static_cast<size_t>(cout_g * frame.size()));
        for (int64_t pi = p0; pi < p1; ++pi) {
            const SignatureRecord::Pass &pass = record.pass(pi);
            const int64_t b = pi / (spec.groups * cin_g);
            const int64_t g = pi / cin_g % spec.groups;
            const int64_t ic = pi % cin_g;
            frame.load(gradOut.data() + gradOut.offset4(b, g * cout_g, 0, 0),
                       cout_g, pass.forwarded > 0 ? pass.owners.data() : nullptr,
                       frames.data());
            frame.backwardInput(
                frames.data(), cout_g,
                weight.data() + (g * cout_g * cin_g + ic) * d, cin_g * d,
                grad_in.data() + grad_in.offset4(b, g * cin_g + ic, 0, 0));
        }
    });
    bookReplay(record, geo, stats);
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
    const int64_t n = geo.n, d = geo.d, v = geo.v;
    const int64_t cin_g = geo.cin_g, cout_g = geo.cout_g;
    checkRecord(record, spec, geo, "weight gradient");

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
    // transposed to (position, filter) once per (image, group), each
    // pass's input plane is loaded into its conv frame once (owners
    // read their patch values from it, as conv2dBackwardWeight reads
    // every position's), and the accumulators, laid out (tap, filter),
    // carry across the batch. Every weight element still sums
    // (image, owner) ascending from +0.
    const std::vector<float> go_t = gradOutByPosition(gradOut, spec.groups);
    const ConvFrame frame(spec, input.dim(2), input.dim(3));
    const std::vector<int64_t> tap_off = frame.tapOffsets(1);
    const std::vector<int64_t> slots = frame.positionSlots();

    // (group, channel) pairs write disjoint grad_w slices: on a pool
    // they fan out, each walking the batch in order.
    const int64_t pairs = spec.groups * cin_g;
    ThreadPool *pool = frontend_->workerPool();
    parallelRanges(pool, pairs, [&](int64_t gi0, int64_t gi1) {
        std::vector<float> plane(static_cast<size_t>(frame.size()));
        std::vector<float> sums(static_cast<size_t>(v * cout_g));
        std::vector<int32_t> slot(static_cast<size_t>(v));
        std::vector<int64_t> base(static_cast<size_t>(v));
        std::vector<float> acc(static_cast<size_t>(d * cout_g));
        for (int64_t gi = gi0; gi < gi1; ++gi) {
            const int64_t g = gi / cin_g, ic = gi % cin_g;
            std::fill(acc.begin(), acc.end(), 0.0f);
            for (int64_t b = 0; b < n; ++b) {
                const SignatureRecord::Pass &pass =
                    record.pass((b * spec.groups + g) * cin_g + ic);
                frame.load(input.data() +
                               input.offset4(b, g * cin_g + ic, 0, 0),
                           1, plane.data());
                // Group sums in stream order, in compacted owner slots
                // (owners ascending): the owner row copies its own
                // gradients, HIT rows add theirs. Without forwards every
                // row is an owner summing only itself, so the
                // transposed gradients serve as they are. Each owner's
                // patch starts at base[slot] in the frame.
                const float *gt =
                    go_t.data() + (b * spec.groups + g) * v * cout_g;
                const bool grouped = pass.forwarded > 0;
                int64_t u = 0;
                for (int32_t r = 0; r < v; ++r) {
                    const int32_t o = pass.owner(r);
                    const float *src = gt + r * cout_g;
                    if (o == r) {
                        slot[static_cast<size_t>(r)] = static_cast<int32_t>(u);
                        base[static_cast<size_t>(u)] =
                            slots[static_cast<size_t>(r)];
                        if (grouped)
                            std::copy(src, src + cout_g,
                                      sums.data() + u * cout_g);
                        ++u;
                    } else {
                        kernels::ops().addSpan(
                            sums.data() +
                                slot[static_cast<size_t>(o)] * cout_g,
                            src, cout_g);
                    }
                }
                kernels::ops().ownerWeightMul(grouped ? sums.data() : gt,
                                              cout_g, u, plane.data(),
                                              base.data(), tap_off.data(),
                                              d, acc.data());
            }
            for (int64_t f = 0; f < cout_g; ++f) {
                float *gw =
                    grad_w.data() + ((g * cout_g + f) * cin_g + ic) * d;
                for (int64_t t = 0; t < d; ++t)
                    gw[t] = acc[static_cast<size_t>(t * cout_g + f)];
            }
        }
    });
    bookReplay(record, geo, stats);
    return grad_w;
}

} // namespace mercury
