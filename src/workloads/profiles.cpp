#include "workloads/profiles.hpp"

#include <algorithm>
#include <cmath>

#include "pipeline/detection_frontend.hpp"
#include "util/logging.hpp"
#include "workloads/synthetic.hpp"

namespace mercury {

namespace {

struct SpanPair
{
    SimilaritySpan input;
    SimilaritySpan gradient;
};

/**
 * Per-family calibration. Anchors: VGG13 input similarity reaches 75%
 * in early layers and decays (Fig. 1a), gradients trail inputs
 * (Fig. 1b), and bigger networks expose more similarity (§VII-A:
 * ResNet152, VGG19, Inception-V4 save the most).
 */
SpanPair
spansFor(const std::string &name)
{
    if (name == "AlexNet")
        return {{0.58, 0.38}, {0.48, 0.30}};
    if (name == "GoogleNet")
        return {{0.76, 0.50}, {0.64, 0.40}};
    if (name == "ResNet50")
        return {{0.78, 0.54}, {0.66, 0.44}};
    if (name == "ResNet101")
        return {{0.80, 0.56}, {0.68, 0.46}};
    if (name == "ResNet152")
        return {{0.84, 0.60}, {0.72, 0.50}};
    if (name == "VGG-13")
        return {{0.75, 0.45}, {0.67, 0.38}};
    if (name == "VGG-16")
        return {{0.78, 0.50}, {0.69, 0.42}};
    if (name == "VGG-19")
        return {{0.82, 0.54}, {0.72, 0.44}};
    if (name == "Incep-V4")
        return {{0.84, 0.58}, {0.73, 0.48}};
    if (name == "MobNet-V2")
        return {{0.72, 0.46}, {0.58, 0.36}};
    if (name == "Squeeze1.0")
        return {{0.74, 0.48}, {0.62, 0.38}};
    if (name == "Transformer")
        return {{0.68, 0.52}, {0.58, 0.42}};
    return {{0.60, 0.40}, {0.50, 0.30}};
}

} // namespace

SimilaritySpan
inputSimilaritySpan(const std::string &model_name)
{
    return spansFor(model_name).input;
}

SimilaritySpan
gradientSimilaritySpan(const std::string &model_name)
{
    return spansFor(model_name).gradient;
}

SyntheticSimilaritySource::SyntheticSimilaritySource(
    const ModelConfig &model, const AcceleratorConfig &cfg, uint64_t seed,
    int64_t sample_cap, int64_t dim_cap)
    : modelName_(model.name), cfg_(cfg), seed_(seed),
      sampleCap_(sample_cap), dimCap_(dim_cap)
{
    // Depth fraction over reusable layers only.
    const int reusable = std::max(model.reusableLayers(), 1);
    int idx = 0;
    for (const auto &l : model.layers) {
        if (!l.reusable())
            continue;
        depthOf_[l.name] =
            reusable > 1
                ? static_cast<double>(idx) / (reusable - 1)
                : 0.0;
        ++idx;
    }
}

double
SyntheticSimilaritySource::depthFor(const LayerShape &shape) const
{
    auto it = depthOf_.find(shape.name);
    return it == depthOf_.end() ? 0.5 : it->second;
}

double
SyntheticSimilaritySource::targetSimilarity(const LayerShape &shape,
                                            Phase phase) const
{
    const SpanPair spans = spansFor(modelName_);
    const SimilaritySpan &span =
        phase == Phase::Forward ? spans.input : spans.gradient;
    const double d = depthFor(shape);
    return span.first + (span.last - span.first) * d;
}

HitMix
SyntheticSimilaritySource::channelMix(const LayerShape &shape,
                                      int sig_bits, Phase phase)
{
    const auto key =
        std::make_tuple(shape.name, sig_bits, static_cast<int>(phase));
    auto cached = cache_.find(key);
    if (cached != cache_.end())
        return cached->second;

    // Population size: one channel pass (conv) or one block of rows
    // (FC / attention), capped for statistical tiling.
    int64_t pop = shape.vectorsPerImage();
    if (shape.type == LayerType::FullyConnected)
        pop = 256; // minibatch rows
    const int64_t v = std::clamp<int64_t>(pop, 16, sampleCap_);

    // Vector dimensionality: what the hardware actually hashes. For
    // pointwise convs the vectors span channels (see sim/dataflow).
    int64_t d = shape.vectorDim();
    if (shape.type == LayerType::Conv && shape.kernel == 1)
        d = shape.inChannels / shape.groups;
    d = std::clamp<int64_t>(d, 4, dimCap_);

    const double target = targetSimilarity(shape, phase);
    const int64_t uniques = std::max<int64_t>(
        1, static_cast<int64_t>(std::llround((1.0 - target) * v)));

    // The paper's Fig. 1 similarity percentages are themselves
    // RPQ-measured, so the generator's epsilon is small enough that
    // the detector recovers the target fraction at the initial
    // signature length, while longer signatures still split
    // borderline pairs (the §III-D growth mechanism).
    const float eps = 0.008f;
    uint64_t pass_seed = seed_;
    for (char c : shape.name)
        pass_seed = pass_seed * 1099511628211ull + static_cast<uint8_t>(c);
    pass_seed += static_cast<uint64_t>(sig_bits) * 7919 +
                 static_cast<uint64_t>(phase) * 104729;

    // Real activation streams concentrate repetitions on a few hot
    // prototypes (Zipf-like), which is how a ~1k-entry MCACHE covers
    // a 50k-vector layer. Statistical tiling therefore also scales
    // the cache with the sampling ratio so capacity pressure is
    // preserved: a full-size population against the full cache
    // behaves like the sample against the scaled cache.
    const double kZipf = 1.8;
    Tensor rows = prototypeVectors(v, d, std::min(uniques, v), eps,
                                   pass_seed, kZipf);
    const double sample_scale =
        std::min(1.0, static_cast<double>(v) /
                          static_cast<double>(std::max<int64_t>(pop, 1)));
    const int scaled_sets = std::max<int>(
        1, static_cast<int>(std::llround(cfg_.mcacheSets * sample_scale)));
    const PipelineConfig pipe = PipelineConfig::fromConfig(cfg_);
    DetectionFrontend frontend(scaled_sets, cfg_.mcacheWays, 1,
                               std::max(cfg_.maxSignatureBits, sig_bits),
                               pass_seed ^ 0xD1B54A32D192ED03ull, pipe);
    // One worker pool outlives the per-query frontends: thread spawn /
    // join per channelMix would dwarf the detect() it parallelizes.
    frontend.setSharedPool(ThreadPool::forKnob(pipe.threads, pool_));
    const HitMix mix = frontend.detect(rows, sig_bits).mix;
    cache_.emplace(key, mix);
    return mix;
}

} // namespace mercury
