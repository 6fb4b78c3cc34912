#include "core/conv_reuse_engine.hpp"

#include <algorithm>

#include "core/kernels/kernels.hpp"
#include "core/span_batcher.hpp"
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

/**
 * One filter pass over rows [r0, r1): HIT vectors fetch the owner's
 * dot product from the runtime's arena-backed data plane (version
 * slot `ver`), misses compute, MAU rows deposit. Returns the MACs
 * skipped. The runtime guarantees rows arrive in stream order per
 * filter, so every HIT's owner (an earlier MAU row) has already
 * deposited; each filter owns its version slot exclusively for the
 * whole channel pass, which is what makes the plane's unsynchronized
 * access race-free (see pass_arena.hpp).
 */
uint64_t
filterSegment(PassDataPlane &plane, const Tensor &rows,
              const std::vector<McacheResult> &row_results,
              const float *w, int ver, int64_t r0, int64_t r1, int64_t d,
              float *out_base)
{
    uint64_t skipped = 0;
    for (int64_t i = r0; i < r1; ++i) {
        const McacheResult &mr = row_results[static_cast<size_t>(i)];
        // Hide the next row's data-plane latency behind this row's
        // dot product (entry ids jump around the arena, so the
        // hardware stride prefetcher cannot see this pattern).
        if (i + 1 < r1)
            plane.prefetch(row_results[static_cast<size_t>(i + 1)].entryId,
                           ver);
        float val;
        if (mr.outcome == McacheOutcome::Hit &&
            plane.readIfValid(mr.entryId, ver, val)) {
            // Reuse the earlier vector's result.
            skipped += static_cast<uint64_t>(d);
        } else {
            const float *row = rows.data() + i * d;
            float acc = 0.0f;
            for (int64_t e = 0; e < d; ++e)
                acc += row[e] * w[e];
            val = acc;
            if (mr.outcome == McacheOutcome::Mau)
                plane.write(mr.entryId, ver, acc);
        }
        out_base[i] += val;
    }
    return skipped;
}

/**
 * One backward filter segment over rows [r0, r1): fill the filter's
 * grad-column rows. A row that computed forward multiplies its output
 * gradient into the kernel; a forward-HIT row copies its owner's
 * already-filled row (§III-C2 — the owner is an earlier row of the
 * same pass, so per-filter stream order makes the copy safe). Returns
 * the MACs skipped.
 */
uint64_t
backwardSegment(const std::vector<int64_t> &owner, const float *go,
                const float *w, float *col, int64_t r0, int64_t r1,
                int64_t d)
{
    const kernels::KernelOps &k = kernels::ops();
    uint64_t skipped = 0;
    int64_t r = r0;
    while (r < r1) {
        const int64_t o = owner[static_cast<size_t>(r)];
        if (o == r) {
            k.scaleSpan(col + r * d, go[r], w, d);
            ++r;
            continue;
        }
        // Coalesce adjacent HIT rows whose owners are also adjacent
        // into one span copy: destination rows r.. and source rows
        // o.. are each contiguous in the column buffer, and the
        // owner run ends before row r (owners are computed rows, so
        // the index sets are disjoint and o + len <= r) — the ranges
        // never overlap.
        int64_t e = r + 1;
        while (e < r1 && owner[static_cast<size_t>(e)] != e &&
               owner[static_cast<size_t>(e)] ==
                   owner[static_cast<size_t>(e - 1)] + 1)
            ++e;
        k.copySpan(col + r * d, col + o * d, (e - r) * d);
        skipped += static_cast<uint64_t>(e - r) * static_cast<uint64_t>(d);
        r = e;
    }
    return skipped;
}

/**
 * One weight-gradient group-sum segment over rows [r0, r1) of one
 * filter: fold each row's output gradient into its owner's group
 * accumulator (§III-C2 sum-then-multiply, Eq. 1). An owner slot
 * starts as a bit-exact copy of its own gradient, so singleton groups
 * reproduce the exact per-row contribution; HIT rows accumulate with
 * adds. Stream order per filter guarantees the owner's copy lands
 * before any of its hits fold in. Returns the MACs the filter's
 * deferred outer products will skip.
 */
uint64_t
weightGradSumSegment(const std::vector<int64_t> &owner, const float *go,
                     float *gcol, int64_t r0, int64_t r1, int64_t d)
{
    uint64_t skipped = 0;
    for (int64_t r = r0; r < r1; ++r) {
        const int64_t o = owner[static_cast<size_t>(r)];
        if (o == r) {
            gcol[r] = go[r];
        } else {
            gcol[o] += go[r];
            skipped += static_cast<uint64_t>(d);
        }
    }
    return skipped;
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

void
extractChannelPatches(const Tensor &input, const ConvSpec &spec, int64_t b,
                      int64_t c, int64_t oh, int64_t ow, Tensor &rows)
{
    extractChannelPatchRows(input, spec, b, c, ow, 0, oh * ow, rows);
}

Tensor
ConvReuseEngine::forward(const Tensor &input, const Tensor &weight,
                         const Tensor &bias, const ConvSpec &spec,
                         ReuseStats &stats, SignatureRecord *record)
{
    if (input.rank() != 4 || weight.rank() != 4)
        panic("ConvReuseEngine expects rank-4 input and weight");
    const int64_t n = input.dim(0);
    const int64_t oh = spec.outH(input.dim(2));
    const int64_t ow = spec.outW(input.dim(3));
    const int64_t k = spec.kernelH;
    if (spec.kernelW != k)
        panic("ConvReuseEngine expects square kernels");
    const int64_t d = k * k;
    const int64_t v = oh * ow;
    const int64_t cin_g = spec.inChannels / spec.groups;
    const int64_t cout_g = spec.outChannels / spec.groups;

    Tensor out({n, spec.outChannels, oh, ow});
    if (bias.numel()) {
        for (int64_t b = 0; b < n; ++b)
            for (int64_t oc = 0; oc < spec.outChannels; ++oc)
                for (int64_t i = 0; i < v; ++i)
                    out[out.offset4(b, oc, 0, 0) + i] = bias[oc];
    }

    ReuseRuntime rt(*frontend_, frontend_.signatureBits());
    if (record)
        record->clear();

    // HIT forwarding runs on the runtime's arena-backed data plane:
    // MCACHE Valid-Data semantics with plain unsynchronized access —
    // the scheduler's version-slot discipline already guarantees
    // exclusive cells (see pass_arena.hpp). The plane is host scratch
    // memory, not a model of the MCACHE's version SRAM (the cycle
    // model still charges the Fig. 11 version constraint), so it
    // affords one slot PER FILTER: forwarding only ever reads a value
    // the same filter deposited, unique slots make that true with
    // every filter of a channel pass in flight at once — no filter
    // groups, no between-group invalidation barriers.
    PassDataPlane &plane = rt.dataPlane();
    plane.configure(frontend_->entries(), static_cast<int>(cout_g));

    // Weight pointer of one filter pass: filter `of` of group g
    // against input channel c.
    const auto weight_of = [&](int64_t g, int64_t of, int64_t ic) {
        const int64_t oc = g * cout_g + of;
        return weight.data() + ((oc * cin_g + ic) * k) * k;
    };

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
    // filter chains drain. Single-touch fusion: a pass's extraction
    // rides its hash job as a RowFiller — each projection block
    // extracts its row range immediately before hashing it, so a
    // block's patches are still cache-hot when the RPQ projection
    // reads them (and on a pool the filler fans out with the hash
    // blocks instead of running as a serial pre-pass on the driving
    // thread). Without a pool the job defers hashing into the probe
    // half, so each block runs hash, probe, then filter, inline.
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

    stats = ReuseStats{};
    std::unique_ptr<DetectionHashJob> job;
    if (!order.empty())
        job = begin_hash(0);

    for (size_t pi = 0; pi < order.size(); ++pi) {
        const PassId p = order[pi];
        const Tensor &rows = bufs[pi & 1];

        // Pass-start clear of the data plane (the MCACHE tag plane is
        // cleared by the detection pass itself). Driving thread, no
        // segments in flight yet — quiescent by construction.
        plane.invalidateAll();

        // One FilterPassSet per channel pass: cout_g filter passes,
        // ALL in flight (each filter owns data-plane slot f outright,
        // so no slot is ever recycled within a pass — the runtime
        // streams the whole pass through its chains with no group
        // barriers).
        const std::vector<McacheResult> &row_results = rt.rowResults();
        ReuseRuntime::FilterPassSet set;
        set.rows = v;
        set.filters = cout_g;
        set.inFlight = cout_g;
        set.segment = [&, p](int64_t f, int64_t r0, int64_t r1) {
            return filterSegment(
                plane, rows, row_results, weight_of(p.g, f, p.ic),
                static_cast<int>(f), r0, r1, d,
                out.data() + out.offset4(p.b, p.g * cout_g + f, 0, 0));
        };
        // Cross-channel overlap: begin hashing the next pass into the
        // other buffer while this channel's chains drain. Hashing
        // touches no MCACHE state, so it is safe beside the
        // data-plane traffic of the in-flight filters.
        std::unique_ptr<DetectionHashJob> next_job;
        set.onStreamDelivered = [&] {
            if (pi + 1 < order.size())
                next_job = begin_hash(pi + 1);
        };

        rt.runFilterPasses(ReuseRuntime::StreamSource::hashed(*job, record),
                           set, stats);
        job = std::move(next_job);

        stats.macsTotal += static_cast<uint64_t>(v) *
                           static_cast<uint64_t>(cout_g) *
                           static_cast<uint64_t>(d);
    }
    return out;
}

Tensor
ConvReuseEngine::backwardInput(const Tensor &gradOut, const Tensor &weight,
                               const ConvSpec &spec, int64_t in_h,
                               int64_t in_w, const SignatureRecord &record,
                               ReuseStats &stats)
{
    if (gradOut.rank() != 4 || weight.rank() != 4)
        panic("ConvReuseEngine expects rank-4 gradient and weight");
    const int64_t n = gradOut.dim(0);
    const int64_t oh = gradOut.dim(2);
    const int64_t ow = gradOut.dim(3);
    const int64_t k = spec.kernelH;
    if (spec.kernelW != k)
        panic("ConvReuseEngine expects square kernels");
    const int64_t d = k * k;
    const int64_t v = oh * ow;
    const int64_t cin_g = spec.inChannels / spec.groups;
    const int64_t cout_g = spec.outChannels / spec.groups;
    if (record.passCount() != n * spec.groups * cin_g)
        panic("record holds ", record.passCount(),
              " passes, backward needs ", n * spec.groups * cin_g,
              " — was forward captured with the same layer geometry?");
    // Backward keeps as many filters in flight as the forward pass
    // kept data versions, one grad-column buffer per slot.
    const int64_t slots =
        std::max<int64_t>(1, std::min<int64_t>(record.dataVersions(),
                                               cout_g));

    ReuseRuntime rt(*frontend_, frontend_.signatureBits());
    Tensor grad_in({n, spec.inChannels, in_h, in_w});
    stats = ReuseStats{};

    const auto weight_of = [&](int64_t g, int64_t of, int64_t ic) {
        const int64_t oc = g * cout_g + of;
        return weight.data() + ((oc * cin_g + ic) * k) * k;
    };

    std::vector<int64_t> owner;
    std::vector<std::vector<float>> cols(
        static_cast<size_t>(slots),
        std::vector<float>(static_cast<size_t>(v * d)));

    int64_t pass_idx = 0;
    for (int64_t b = 0; b < n; ++b) {
        for (int64_t g = 0; g < spec.groups; ++g) {
            for (int64_t ic = 0; ic < cin_g; ++ic) {
                const SignatureRecord::Pass &pass =
                    record.pass(pass_idx++);
                if (pass.rows != v)
                    panic("recorded pass holds ", pass.rows,
                          " rows, gradient has ", v);
                record.ownersOf(pass, owner);

                stats.macsTotal += static_cast<uint64_t>(v) *
                                   static_cast<uint64_t>(cout_g) *
                                   static_cast<uint64_t>(d);

                // One replayed FilterPassSet per channel pass
                // (§III-C2): the grad-column fills consume the
                // stream — every HIT's owner row is in an earlier
                // (or the same) block, so per-filter stream order
                // makes the copy source always filled first.
                ReuseRuntime::FilterPassSet set;
                set.rows = v;
                set.filters = cout_g;
                set.inFlight = slots;
                set.segment = [&](int64_t f, int64_t r0, int64_t r1) {
                    return backwardSegment(
                        owner,
                        gradOut.data() +
                            gradOut.offset4(b, g * cout_g + f, 0, 0),
                        weight_of(g, f, ic),
                        cols[static_cast<size_t>(f % slots)].data(), r0,
                        r1, d);
                };
                // Scatter the group's grad columns in the exact
                // path's accumulation order — filters ascending,
                // output positions ascending — so a zero-hit replay
                // reproduces conv2dBackwardInput bit for bit. Each
                // kernel row clips to one contiguous in-bounds
                // column window (span_batcher.hpp), so the scatter
                // runs as one addSpan per (position, kernel row) —
                // elementwise adds, each cell accumulated in the
                // same order as the per-element loop it replaces.
                //
                // The scatter fans out in BANDS of input rows: every
                // gradient cell lives on exactly one input row iy, so
                // a worker that owns iy in [a, z) executes precisely
                // the adds landing in its band — writes are disjoint
                // across workers, and each cell still receives its
                // adds in (f, y, x, ky) order (filtering a sequence
                // never reorders it), keeping the result bit-exact
                // regardless of scheduling.
                set.afterGroup = [&](int64_t f0, int64_t f1) {
                    const kernels::KernelOps &kn = kernels::ops();
                    float *gin_base =
                        grad_in.data() +
                        grad_in.offset4(b, g * cin_g + ic, 0, 0);
                    ThreadPool *sp = rt.pool();
                    const int64_t nbands =
                        sp ? std::min<int64_t>(
                                 in_h,
                                 static_cast<int64_t>(sp->workers()) + 1)
                           : 1;
                    rt.parallelChains(nbands, [&](int64_t bi) {
                        const int64_t a = bi * in_h / nbands;
                        const int64_t z = (bi + 1) * in_h / nbands;
                        for (int64_t f = f0; f < f1; ++f) {
                            const float *col =
                                cols[static_cast<size_t>(f % slots)]
                                    .data();
                            int64_t r = 0;
                            for (int64_t y = 0; y < oh; ++y) {
                                const int64_t iy0 =
                                    y * spec.stride - spec.pad;
                                if (iy0 >= z || iy0 + k <= a) {
                                    r += ow; // window misses the band
                                    continue;
                                }
                                for (int64_t x = 0; x < ow; ++x, ++r) {
                                    const float *src = col + r * d;
                                    const KxSpan kxs = kxSpan(
                                        x, spec.stride, spec.pad, k,
                                        in_w);
                                    if (kxs.kx0 >= kxs.kx1)
                                        continue;
                                    const int64_t ix0 =
                                        x * spec.stride - spec.pad +
                                        kxs.kx0;
                                    for (int64_t ky = 0; ky < k; ++ky) {
                                        const int64_t iy = iy0 + ky;
                                        if (iy < a || iy >= z)
                                            continue;
                                        kn.addSpan(
                                            gin_base + iy * in_w + ix0,
                                            src + ky * k + kxs.kx0,
                                            kxs.kx1 - kxs.kx0);
                                    }
                                }
                            }
                        }
                    });
                };

                rt.runFilterPasses(
                    ReuseRuntime::StreamSource::replay(pass), set,
                    stats);
            }
        }
    }
    return grad_in;
}

Tensor
ConvReuseEngine::backwardWeights(const Tensor &input, const Tensor &gradOut,
                                 const ConvSpec &spec,
                                 const SignatureRecord &record,
                                 ReuseStats &stats)
{
    if (input.rank() != 4 || gradOut.rank() != 4)
        panic("ConvReuseEngine expects rank-4 input and gradient");
    const int64_t n = input.dim(0);
    const int64_t oh = gradOut.dim(2);
    const int64_t ow = gradOut.dim(3);
    const int64_t k = spec.kernelH;
    if (spec.kernelW != k)
        panic("ConvReuseEngine expects square kernels");
    const int64_t d = k * k;
    const int64_t v = oh * ow;
    const int64_t cin_g = spec.inChannels / spec.groups;
    const int64_t cout_g = spec.outChannels / spec.groups;
    if (record.passCount() != n * spec.groups * cin_g)
        panic("record holds ", record.passCount(),
              " passes, weight gradient needs ", n * spec.groups * cin_g,
              " — was forward captured with the same layer geometry?");
    // Like backwardInput: as many filters in flight as the forward
    // pass kept data versions, one group-sum buffer per slot.
    const int64_t slots =
        std::max<int64_t>(1, std::min<int64_t>(record.dataVersions(),
                                               cout_g));

    ReuseRuntime rt(*frontend_, frontend_.signatureBits());
    Tensor grad_w({spec.outChannels, cin_g, k, k});
    stats = ReuseStats{};

    Tensor rows({v, d});
    std::vector<int64_t> owner;
    std::vector<std::vector<float>> gcols(
        static_cast<size_t>(slots),
        std::vector<float>(static_cast<size_t>(v)));

    int64_t pass_idx = 0;
    for (int64_t b = 0; b < n; ++b) {
        for (int64_t g = 0; g < spec.groups; ++g) {
            for (int64_t ic = 0; ic < cin_g; ++ic) {
                const SignatureRecord::Pass &pass =
                    record.pass(pass_idx++);
                if (pass.rows != v)
                    panic("recorded pass holds ", pass.rows,
                          " rows, gradient has ", v);
                record.ownersOf(pass, owner);
                // The owners' patches are the single representative
                // each hit-group multiplies through. Replay streams
                // never hash, so there is no pipeline to fuse the
                // extraction into — instead it fans out over the
                // worker pool in disjoint row bands (pure span
                // copies, bit-identical in any order) rather than
                // running as a serial pre-pass on the driving thread.
                if (ThreadPool *xp = frontend_->workerPool()) {
                    const int64_t nb = std::min<int64_t>(
                        v, static_cast<int64_t>(xp->workers()) + 1);
                    xp->parallelFor(nb, [&](int64_t bi) {
                        extractChannelPatchRows(
                            input, spec, b, g * cin_g + ic, ow,
                            bi * v / nb, (bi + 1) * v / nb, rows);
                    });
                } else {
                    extractChannelPatches(input, spec, b,
                                          g * cin_g + ic, oh, ow, rows);
                }

                stats.macsTotal += static_cast<uint64_t>(v) *
                                   static_cast<uint64_t>(cout_g) *
                                   static_cast<uint64_t>(d);

                // One replayed FilterPassSet per channel pass
                // (§III-C2 sum-then-multiply, Eq. 1): the segments
                // fold each row's output gradient into its owner's
                // group accumulator on the stream; afterGroup then
                // runs one multiply per group through the owner's
                // patch, owners ascending, so a zero-hit replay
                // accumulates each weight element in
                // conv2dBackwardWeight's (batch, output-position)
                // order. Filters write disjoint grad_w rows and fan
                // out in parallel.
                ReuseRuntime::FilterPassSet set;
                set.rows = v;
                set.filters = cout_g;
                set.inFlight = slots;
                set.segment = [&](int64_t f, int64_t r0, int64_t r1) {
                    return weightGradSumSegment(
                        owner,
                        gradOut.data() +
                            gradOut.offset4(b, g * cout_g + f, 0, 0),
                        gcols[static_cast<size_t>(f % slots)].data(), r0,
                        r1, d);
                };
                set.afterGroup = [&](int64_t f0, int64_t f1) {
                    const kernels::KernelOps &kn = kernels::ops();
                    rt.parallelChains(f1 - f0, [&](int64_t i) {
                        const int64_t f = f0 + i;
                        const int64_t oc = g * cout_g + f;
                        float *gw =
                            grad_w.data() + ((oc * cin_g + ic) * k) * k;
                        const float *gcol =
                            gcols[static_cast<size_t>(f % slots)].data();
                        for (int64_t r = 0; r < v; ++r) {
                            if (owner[static_cast<size_t>(r)] != r)
                                continue;
                            const float gv = gcol[r];
                            kn.axpy(gw, gv, rows.data() + r * d, d);
                        }
                    });
                };

                rt.runFilterPasses(
                    ReuseRuntime::StreamSource::replay(pass), set,
                    stats);
            }
        }
    }
    return grad_w;
}

} // namespace mercury
