#include "core/runtime_planner.hpp"

#include <algorithm>
#include <string>

namespace mercury {

namespace {

/** Records above this predicted size are planned as spilled to the
 *  global buffer between passes (the timing model charges the
 *  traffic); smaller ones are held. Functional execution always holds
 *  — host memory is the spill target. */
constexpr uint64_t kHoldRecordBytes = 8ull << 20;

} // namespace

StepDescBuilder::StepDescBuilder(const std::vector<int64_t> &input_shape)
{
    if (!input_shape.empty())
        batch_ = input_shape[0];
    if (input_shape.size() == 4) {
        valid4d_ = true;
        c_ = input_shape[1];
        h_ = input_shape[2];
        w_ = input_shape[3];
    }
}

void
StepDescBuilder::conv(uint64_t layer_id, const ConvSpec &spec)
{
    LayerStepDesc d;
    d.kind = StepOpKind::Conv;
    d.layerId = layer_id;
    d.conv = spec;
    if (!valid4d_ || c_ != spec.inChannels) {
        // The walk lost (or never had) the activation shape before
        // this conv — its pass geometry cannot be resolved ahead of
        // time, so the whole step is unplannable.
        plannable_ = false;
        ops_.push_back(d);
        return;
    }
    d.inH = h_;
    d.inW = w_;
    ops_.push_back(d);
    c_ = spec.outChannels;
    h_ = spec.outH(d.inH);
    w_ = spec.outW(d.inW);
}

void
StepDescBuilder::dense(uint64_t layer_id, int64_t in_features,
                       int64_t out_features)
{
    LayerStepDesc d;
    d.kind = StepOpKind::Dense;
    d.layerId = layer_id;
    d.inFeatures = in_features;
    d.outFeatures = out_features;
    ops_.push_back(d);
    valid4d_ = false; // dense output is (N, M)
}

void
StepDescBuilder::attention(uint64_t layer_id, int64_t seq_len,
                           int64_t embed_dim)
{
    LayerStepDesc d;
    d.kind = StepOpKind::Attention;
    d.layerId = layer_id;
    d.seqLen = seq_len;
    d.embedDim = embed_dim;
    ops_.push_back(d);
    valid4d_ = false;
}

void
StepDescBuilder::relu()
{
    LayerStepDesc d;
    d.kind = StepOpKind::Relu;
    ops_.push_back(d); // channelwise: shape unchanged
}

void
StepDescBuilder::maxPool2x2()
{
    LayerStepDesc d;
    d.kind = StepOpKind::MaxPool2x2;
    ops_.push_back(d);
    if (valid4d_) {
        h_ /= 2;
        w_ /= 2;
    }
}

void
StepDescBuilder::opaque()
{
    LayerStepDesc d;
    d.kind = StepOpKind::Opaque;
    ops_.push_back(d);
    valid4d_ = false;
}

const LayerPlan *
StepPlan::layerPlan(uint64_t layer_id) const
{
    for (const LayerPlan &lp : layers)
        if (lp.desc.layerId == layer_id)
            return &lp;
    return nullptr;
}

std::shared_ptr<const StepPlan>
RuntimePlanner::compile(const StepDescBuilder &desc,
                        const PlanConfig &cfg)
{
    auto plan = std::make_shared<StepPlan>();
    plan->batch = desc.batch();
    plan->plannable = desc.plannable() && desc.batch() > 0;
    if (!plan->plannable)
        return plan;

    const std::vector<LayerStepDesc> &ops = desc.ops();
    // Bytes one recorded pass stores per row: packed signature words,
    // entry id (int32), outcome byte — mirrors SignatureRecord::Pass.
    const uint64_t sig_words =
        static_cast<uint64_t>((cfg.sigBits + 63) / 64);
    const uint64_t record_bytes_per_row = sig_words * 8 + 4 + 1;
    const bool captures = cfg.backwardReuse || cfg.weightGradReuse;

    std::vector<int> op_to_layer(ops.size(), -1);
    for (size_t i = 0; i < ops.size(); ++i) {
        const LayerStepDesc &op = ops[i];
        LayerPlan lp;
        lp.desc = op;
        switch (op.kind) {
        case StepOpKind::Conv: {
            const ConvSpec &s = op.conv;
            lp.outH = s.outH(op.inH);
            lp.outW = s.outW(op.inW);
            lp.rows = lp.outH * lp.outW;
            lp.vecDim = s.kernelH * s.kernelW;
            lp.passes =
                plan->batch * s.groups * (s.inChannels / s.groups);
            lp.inFlight = s.outChannels / s.groups;
            lp.backwardSlots = std::max<int64_t>(
                1, std::min<int64_t>(cfg.dataVersions, lp.inFlight));
            break;
        }
        case StepOpKind::Dense:
            lp.rows = plan->batch;
            lp.vecDim = op.inFeatures;
            lp.passes = 1;
            lp.inFlight = op.outFeatures;
            lp.backwardSlots = 1;
            break;
        case StepOpKind::Attention:
            lp.rows = op.seqLen;
            lp.vecDim = op.embedDim;
            lp.passes = plan->batch; // one pass per sample
            lp.inFlight = 1;
            lp.backwardSlots = 1;
            break;
        default:
            continue; // channelwise / opaque ops carry no plan
        }
        // Knob resolution happens here, once per layer shape.
        lp.pipe = cfg.pipe.resolvedFor(lp.rows);
        ++plan->knobResolutions;
        lp.recordBytes = captures
                             ? static_cast<uint64_t>(lp.passes) *
                                   static_cast<uint64_t>(lp.rows) *
                                   record_bytes_per_row
                             : 0;
        lp.holdRecord = lp.recordBytes <= kHoldRecordBytes;
        op_to_layer[i] = static_cast<int>(plan->layers.size());
        plan->layers.push_back(std::move(lp));
    }

    // Dependency edges: a conv whose output reaches the next conv
    // through channelwise transforms only (ReLU / 2x2 max pool) can
    // hand its successor's first-channel hash off before its own
    // trailing filter ranges drain. Any other op in between is a real
    // barrier: either a data dependence the plan cannot see through
    // (opaque) or a reuse layer with its own detection pass whose
    // MCACHE probes must stay ordered after this layer's (only the
    // successor's *hash* moves early; its probe stays inside its own
    // pass — see ARCHITECTURE.md "Plan compilation").
    int last_conv_op = -1;
    std::vector<StepOpKind> pending;
    for (size_t i = 0; i < ops.size(); ++i) {
        const StepOpKind kind = ops[i].kind;
        if (kind == StepOpKind::Relu || kind == StepOpKind::MaxPool2x2) {
            pending.push_back(kind);
            continue;
        }
        if (kind != StepOpKind::Conv) {
            last_conv_op = -1;
            pending.clear();
            continue;
        }
        if (last_conv_op >= 0) {
            const int pred = op_to_layer[static_cast<size_t>(last_conv_op)];
            const int succ = op_to_layer[i];
            if (pred >= 0 && succ >= 0) {
                plan->layers[static_cast<size_t>(pred)].nextConv = succ;
                plan->layers[static_cast<size_t>(pred)].edgeTransforms =
                    pending;
                plan->layers[static_cast<size_t>(succ)].prevConv = pred;
                ++plan->fusedEdges;
            }
        }
        last_conv_op = static_cast<int>(i);
        pending.clear();
    }
    if (!plan->layers.empty())
        plan->stepBarriers =
            static_cast<int>(plan->layers.size()) - 1 - plan->fusedEdges;
    return plan;
}

std::vector<PassDescriptor>
exportPassDescriptors(const StepPlan &plan)
{
    std::vector<PassDescriptor> out;
    if (!plan.plannable)
        return out;
    out.reserve(plan.layers.size());
    for (const LayerPlan &lp : plan.layers) {
        PassDescriptor d;
        d.layerId = lp.desc.layerId;
        d.kind = lp.desc.kind;
        d.rows = lp.rows;
        d.vecDim = lp.vecDim;
        d.passes = lp.passes;
        d.inFlight = lp.inFlight;
        switch (lp.desc.kind) {
        case StepOpKind::Conv:
            // One channel plane per pass — patch extraction runs
            // on-chip over the streamed plane, so the raw activation
            // bytes (not the k*k-redundant patch bytes) hit the
            // hierarchy.
            d.inputBytesPerPass = lp.desc.inH * lp.desc.inW * 4;
            d.inputTensorBytes = plan.batch * lp.desc.conv.inChannels *
                                 lp.desc.inH * lp.desc.inW * 4;
            break;
        case StepOpKind::Attention:
            d.inputBytesPerPass = lp.rows * lp.vecDim * 4;
            d.inputTensorBytes = plan.batch * d.inputBytesPerPass;
            break;
        default: // Dense: the whole minibatch is one row pass
            d.inputBytesPerPass = lp.rows * lp.vecDim * 4;
            d.inputTensorBytes = d.inputBytesPerPass;
            break;
        }
        d.recordBytes = lp.recordBytes;
        d.holdRecord = lp.holdRecord;
        d.prevConv = lp.prevConv;
        d.nextConv = lp.nextConv;
        out.push_back(d);
    }
    return out;
}

StepDescBuilder
describeShapeStack(const std::vector<LayerShape> &stack, int64_t batch)
{
    std::vector<int64_t> input_shape{batch};
    const bool leads4d =
        !stack.empty() && (stack[0].type == LayerType::Conv ||
                           stack[0].type == LayerType::Pool);
    if (leads4d)
        input_shape = {batch, stack[0].inChannels, stack[0].inH,
                       stack[0].inW};
    StepDescBuilder b(input_shape);
    // Parallel activation track mirroring the builder's: a layer whose
    // recorded input disagrees with the track is a branch point the
    // sequential walk cannot follow — degrade to opaque, the same
    // verdict a live walk of such a topology would reach.
    bool tracked = leads4d;
    int64_t c = tracked ? stack[0].inChannels : 0;
    int64_t h = tracked ? stack[0].inH : 0;
    int64_t w = tracked ? stack[0].inW : 0;
    for (size_t i = 0; i < stack.size(); ++i) {
        const LayerShape &s = stack[i];
        const uint64_t id = static_cast<uint64_t>(i);
        switch (s.type) {
        case LayerType::Conv: {
            if (!tracked || c != s.inChannels || h != s.inH ||
                w != s.inW) {
                b.opaque();
                tracked = false;
            }
            ConvSpec spec;
            spec.inChannels = s.inChannels;
            spec.outChannels = s.outChannels;
            spec.kernelH = s.kernel;
            spec.kernelW = s.kernel;
            spec.stride = s.stride;
            spec.pad = s.pad;
            spec.groups = s.groups;
            b.conv(id, spec);
            if (tracked) {
                c = s.outChannels;
                h = s.outH();
                w = s.outW();
            }
            break;
        }
        case LayerType::Pool:
            // Only the 2x2/s2 pool is a tracked channelwise op of the
            // step description; other pool geometry drops tracking
            // (floor halving matches outH() for 2x2/s2, odd or even).
            if (tracked && s.kernel == 2 && s.stride == 2 &&
                c == s.inChannels && h == s.inH && w == s.inW) {
                b.maxPool2x2();
                h /= 2;
                w /= 2;
            } else {
                b.opaque();
                tracked = false;
            }
            break;
        case LayerType::FullyConnected:
            b.dense(id, s.inFeatures, s.outFeatures);
            tracked = false;
            break;
        case LayerType::Attention:
            b.attention(id, s.seqLen, s.embedDim);
            tracked = false;
            break;
        }
    }
    return b;
}

std::vector<LayerShape>
shapesFromStepDesc(const StepDescBuilder &desc)
{
    std::vector<LayerShape> out;
    // Activation track for pool reconstruction: valid after any conv
    // with resolved dims, kept by ReLU, dropped by everything else.
    bool tracked = false;
    int64_t c = 0, h = 0, w = 0;
    for (const LayerStepDesc &op : desc.ops()) {
        const std::string name = "op" + std::to_string(out.size());
        switch (op.kind) {
        case StepOpKind::Conv: {
            const ConvSpec &s = op.conv;
            out.push_back(LayerShape::conv(name, s.inChannels,
                                           s.outChannels, op.inH, op.inW,
                                           s.kernelH, s.stride, s.pad,
                                           s.groups));
            tracked = op.inH > 0;
            c = s.outChannels;
            h = s.outH(op.inH);
            w = s.outW(op.inW);
            break;
        }
        case StepOpKind::Dense:
            out.push_back(
                LayerShape::fc(name, op.inFeatures, op.outFeatures));
            tracked = false;
            break;
        case StepOpKind::Attention:
            out.push_back(
                LayerShape::attention(name, op.seqLen, op.embedDim));
            tracked = false;
            break;
        case StepOpKind::MaxPool2x2:
            if (tracked) {
                out.push_back(LayerShape::pool(name, c, h, w, 2, 2));
                h /= 2;
                w /= 2;
            }
            break;
        case StepOpKind::Relu:
            break; // channelwise, no cycles of its own
        default:
            tracked = false;
            break;
        }
    }
    return out;
}

} // namespace mercury
