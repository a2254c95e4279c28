#include "nerf/mlp.hpp"

#include <algorithm>
#include <cmath>
#include <type_traits>

#include "util/isa.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"

namespace asdr::nerf {

namespace {

/**
 * Widest lane block of the register-blocked batch kernels on target `t`
 * (util/isa.hpp). A 4-row block needs enough independent add chains to
 * hide add latency: 16 lanes are two ymm per row on x86-64-v3 (8
 * chains) but one zmm per row on x86-64-v4 (4 chains, latency-bound),
 * so v4 runs 32 lanes.
 */
constexpr int
laneBlock(isa::Target t)
{
    return t == isa::Target::X86_64_V4 ? 32 : 16;
}

/** Narrowest lane block: the whole block on v3 and default, and a
 *  wider target's last <= 16 points. */
constexpr int kMinLaneBlock = 16;

/** Output rows accumulated together over one lane block. */
constexpr int kRowBlock = 4;

/**
 * acc[r][p] = bias[r] + w[r][0]*lanes0[p] + w[r][1]*lanes1[p] + ... for
 * R consecutive output rows r of one layer (weights row-major, `in`
 * wide) over a block of L lanes. Lanes are independent points, and the
 * build pins -ffp-contract=off, so each lane does exactly the scalar
 * forward()'s separate multiply and add in the same order: every ISA
 * target (util/isa.hpp), lane width and row block is bitwise equal to
 * forward(). Blocking R rows gives R x L independent add chains that
 * share every lane load, so the kernel is bound by add throughput
 * rather than by one chain's add latency. The pragma (a no-op without
 * -fopenmp-simd) keeps the lanes in vector registers.
 */
template <int R, int L>
__attribute__((always_inline)) inline void
accumulateRows(const float *__restrict w, const float *__restrict bias,
               int in, const float *__restrict lanes, float (&acc)[R][L])
{
    for (int r = 0; r < R; ++r)
        for (int p = 0; p < L; ++p)
            acc[r][p] = bias[r];
    for (int i = 0; i < in; ++i) {
        const float *__restrict lane = lanes + size_t(i) * L;
        for (int r = 0; r < R; ++r) {
            const float wv = w[size_t(r) * size_t(in) + size_t(i)];
#pragma omp simd
            for (int p = 0; p < L; ++p)
                acc[r][p] += wv * lane[p];
        }
    }
}

/**
 * One layer over one feature-major block of L lanes (lane p of input i
 * at lanes[i * L + p]): rows in blocks of kRowBlock, the remainder one
 * at a time, each finished row handed to `emit(o, acc)` with its L
 * pre-activation values. THE matvec shared by both forwardBatch
 * variants -- this one function is the whole bit-identity contract.
 */
template <int L, typename Emit>
__attribute__((always_inline)) inline void
layerLanes(const float *w, const float *bias, int in, int out,
           const float *lanes, Emit &&emit)
{
    int o = 0;
    for (; o + kRowBlock <= out; o += kRowBlock) {
        float acc[kRowBlock][L];
        accumulateRows<kRowBlock, L>(w + size_t(o) * size_t(in), bias + o,
                                     in, lanes, acc);
        for (int r = 0; r < kRowBlock; ++r)
            emit(o + r, acc[r]);
    }
    for (; o < out; ++o) {
        float acc[1][L];
        accumulateRows<1, L>(w + size_t(o) * size_t(in), bias + o, in,
                             lanes, acc);
        emit(o, acc[0]);
    }
}

/**
 * Splits `count` points into lane blocks for a kernel whose widest
 * block is kLanes, calling block(std::integral_constant<int, L>(), p0,
 * bn) for the bn live points from p0 of each: kLanes-wide blocks while
 * more than kMinLaneBlock points are left, then one kMinLaneBlock-wide
 * block for the rest, so a short tail does not pay for a wide block of
 * dead lanes.
 */
template <int kLanes, typename Block>
__attribute__((always_inline)) inline void
forEachLaneBlock(int count, Block &&block)
{
    constexpr int kTail = kLanes > kMinLaneBlock ? kMinLaneBlock : 0;
    int p0 = 0;
    for (; count - p0 > kTail; p0 += kLanes)
        block(std::integral_constant<int, kLanes>(), p0,
              std::min(kLanes, count - p0));
    if constexpr (kTail > 0)
        if (p0 < count)
            block(std::integral_constant<int, kTail>(), p0, count - p0);
}

} // namespace

Mlp::Mlp(const MlpConfig &cfg, uint64_t seed) : cfg_(cfg)
{
    ASDR_ASSERT(cfg.input > 0 && cfg.output > 0, "bad MLP dimensions");
    std::vector<int> dims;
    dims.push_back(cfg.input);
    for (int h : cfg.hidden) {
        ASDR_ASSERT(h > 0, "bad hidden width");
        dims.push_back(h);
    }
    dims.push_back(cfg.output);

    Rng rng(seed, 0x31337);
    for (size_t i = 0; i + 1 < dims.size(); ++i) {
        Layer layer;
        layer.in = dims[i];
        layer.out = dims[i + 1];
        layer.w.resize(size_t(layer.in) * size_t(layer.out));
        layer.b.assign(size_t(layer.out), 0.0f);
        // He-normal init, scaled down on the output layer for stability.
        float std_dev = std::sqrt(2.0f / float(layer.in));
        if (i + 2 == dims.size())
            std_dev *= 0.5f;
        for (auto &w : layer.w)
            w = rng.nextGaussian() * std_dev;
        widest_ = std::max(widest_, size_t(layer.out));
        layers_.push_back(std::move(layer));
    }
}

void
Mlp::forward(const float *in, float *out) const
{
    // Two ping-pong buffers sized to the widest layer avoid allocation.
    thread_local std::vector<float> buf_a, buf_b;
    buf_a.resize(widest_);
    buf_b.resize(widest_);

    const float *src = in;
    float *dst = buf_a.data();
    for (size_t li = 0; li < layers_.size(); ++li) {
        const Layer &layer = layers_[li];
        bool last = li + 1 == layers_.size();
        float *target = last ? out : dst;
        for (int o = 0; o < layer.out; ++o) {
            const float *wrow = layer.w.data() + size_t(o) * layer.in;
            float acc = layer.b[size_t(o)];
            for (int i = 0; i < layer.in; ++i)
                acc += wrow[i] * src[i];
            target[o] = last ? acc : std::max(acc, 0.0f);
        }
        if (!last) {
            src = target;
            dst = (dst == buf_a.data()) ? buf_b.data() : buf_a.data();
        }
    }
}

template <int kLanes>
__attribute__((always_inline)) inline void
Mlp::forwardBatchKernel(const float *in, int count, int in_stride,
                        float *out, int out_stride) const
{
    ASDR_ASSERT(count >= 0 && in_stride >= cfg_.input &&
                    out_stride >= cfg_.output,
                "bad forwardBatch geometry");
    // Register-blocked micro-kernel: activations of a block of kBlock
    // points are held feature-major (lane p of feature i at
    // acts[i * kBlock + p]), so the inner loop runs *across points* --
    // independent accumulator lanes the compiler vectorizes -- while
    // each weight row streams exactly once per block (see layerLanes;
    // results are bit-identical to the scalar path).
    const size_t lane_w = std::max(size_t(cfg_.input), widest_);
    thread_local std::vector<float> acts_a, acts_b;
    acts_a.resize(lane_w * size_t(kLanes));
    acts_b.resize(lane_w * size_t(kLanes));

    forEachLaneBlock<kLanes>(count, [&](auto block, int p0, int bn)
                                        __attribute__((always_inline)) {
        constexpr int kBlock = decltype(block)::value;
        // Transpose the block's inputs into lanes; dead lanes are
        // zeroed so the arithmetic below stays finite.
        float *src_t = acts_a.data();
        float *dst_t = acts_b.data();
        for (int i = 0; i < cfg_.input; ++i) {
            float *lane = src_t + size_t(i) * kBlock;
            for (int p = 0; p < bn; ++p)
                lane[p] = in[size_t(p0 + p) * size_t(in_stride) + size_t(i)];
            for (int p = bn; p < kBlock; ++p)
                lane[p] = 0.0f;
        }

        for (size_t li = 0; li < layers_.size(); ++li) {
            const Layer &layer = layers_[li];
            const bool last = li + 1 == layers_.size();
            layerLanes<kBlock>(
                layer.w.data(), layer.b.data(), layer.in, layer.out, src_t,
                [&](int o, const float *acc) __attribute__((always_inline)) {
                    if (last) {
                        for (int p = 0; p < bn; ++p)
                            out[size_t(p0 + p) * size_t(out_stride) +
                                size_t(o)] = acc[p];
                    } else {
                        float *lane = dst_t + size_t(o) * kBlock;
                        for (int p = 0; p < kBlock; ++p)
                            lane[p] = std::max(acc[p], 0.0f);
                    }
                });
            std::swap(src_t, dst_t);
        }
    });
}

void
Mlp::forwardBatch(const float *in, int count, int in_stride, float *out,
                  int out_stride) const
{
    ASDR_ISA_DISPATCH(T, forwardBatchKernel<laneBlock(T)>(
                             in, count, in_stride, out, out_stride));
}

void
Mlp::forward(const float *in, float *out, MlpWorkspace &ws) const
{
    ws.acts.resize(layers_.size() + 1);
    ws.acts[0].assign(in, in + cfg_.input);
    for (size_t li = 0; li < layers_.size(); ++li) {
        const Layer &layer = layers_[li];
        bool last = li + 1 == layers_.size();
        ws.acts[li + 1].resize(size_t(layer.out));
        const float *src = ws.acts[li].data();
        float *dst = ws.acts[li + 1].data();
        for (int o = 0; o < layer.out; ++o) {
            const float *wrow = layer.w.data() + size_t(o) * layer.in;
            float acc = layer.b[size_t(o)];
            for (int i = 0; i < layer.in; ++i)
                acc += wrow[i] * src[i];
            dst[o] = last ? acc : std::max(acc, 0.0f);
        }
    }
    std::copy(ws.acts.back().begin(), ws.acts.back().end(), out);
}

template <int kLanes>
__attribute__((always_inline)) inline void
Mlp::forwardBatchKernel(const float *in, int count, int in_stride,
                        float *out, int out_stride,
                        MlpBatchWorkspace &ws) const
{
    ASDR_ASSERT(count >= 0 && in_stride >= cfg_.input &&
                    out_stride >= cfg_.output,
                "bad forwardBatch geometry");
    // Same layerLanes kernel as the inference forwardBatch above
    // -- identical accumulation order, so outputs are bit-identical to
    // per-sample forward() -- except every layer's activations are
    // written out row-major so backward(ws, p, ...) can replay any
    // sample.
    ws.count = count;
    ws.acts.resize(layers_.size() + 1);
    ws.acts[0].resize(size_t(count) * size_t(cfg_.input));
    for (int p = 0; p < count; ++p)
        std::copy(in + size_t(p) * size_t(in_stride),
                  in + size_t(p) * size_t(in_stride) + size_t(cfg_.input),
                  ws.acts[0].data() + size_t(p) * size_t(cfg_.input));

    thread_local std::vector<float> lanes;
    for (size_t li = 0; li < layers_.size(); ++li) {
        const Layer &layer = layers_[li];
        const bool last = li + 1 == layers_.size();
        ws.acts[li + 1].resize(size_t(count) * size_t(layer.out));
        const float *src = ws.acts[li].data();
        float *dst = ws.acts[li + 1].data();
        lanes.resize(size_t(layer.in) * size_t(kLanes));

        forEachLaneBlock<kLanes>(count, [&](auto block, int p0, int bn)
                                            __attribute__((always_inline)) {
            constexpr int kBlock = decltype(block)::value;
            // Transpose the block's rows into feature-major lanes; dead
            // lanes are zeroed so the arithmetic stays finite.
            for (int i = 0; i < layer.in; ++i) {
                float *lane = lanes.data() + size_t(i) * kBlock;
                for (int p = 0; p < bn; ++p)
                    lane[p] =
                        src[size_t(p0 + p) * size_t(layer.in) + size_t(i)];
                for (int p = bn; p < kBlock; ++p)
                    lane[p] = 0.0f;
            }
            layerLanes<kBlock>(
                layer.w.data(), layer.b.data(), layer.in, layer.out,
                lanes.data(),
                [&](int o, const float *acc) __attribute__((always_inline)) {
                    for (int p = 0; p < bn; ++p)
                        dst[size_t(p0 + p) * size_t(layer.out) + size_t(o)] =
                            last ? acc[p] : std::max(acc[p], 0.0f);
                });
        });
    }

    const std::vector<float> &last_acts = ws.acts.back();
    for (int p = 0; p < count; ++p)
        std::copy(last_acts.data() + size_t(p) * size_t(cfg_.output),
                  last_acts.data() + size_t(p + 1) * size_t(cfg_.output),
                  out + size_t(p) * size_t(out_stride));
}

void
Mlp::forwardBatch(const float *in, int count, int in_stride, float *out,
                  int out_stride, MlpBatchWorkspace &ws) const
{
    ASDR_ISA_DISPATCH(T, forwardBatchKernel<laneBlock(T)>(
                             in, count, in_stride, out, out_stride, ws));
}

void
Mlp::backwardImpl(const float *const *acts, const float *dout, float *din)
{
    for (auto &layer : layers_) {
        if (layer.gw.empty()) {
            layer.gw.assign(layer.w.size(), 0.0f);
            layer.gb.assign(layer.b.size(), 0.0f);
        }
    }

    // Ping-pong delta buffers, reused across calls: backward runs once
    // per sample inside the training loop, so per-call heap traffic
    // would dominate the small per-layer matvecs.
    const size_t buf_w = std::max(size_t(cfg_.input), widest_);
    thread_local std::vector<float> delta_buf, prev_buf;
    delta_buf.resize(buf_w);
    prev_buf.resize(buf_w);
    float *delta = delta_buf.data();
    float *prev = prev_buf.data();
    std::copy(dout, dout + layers_.back().out, delta);

    for (size_t li = layers_.size(); li-- > 0;) {
        Layer &layer = layers_[li];
        const float *input = acts[li];
        const float *output = acts[li + 1];
        bool last = li + 1 == layers_.size();

        // ReLU gate on hidden layers (output layer is linear).
        if (!last) {
            for (int o = 0; o < layer.out; ++o)
                if (output[size_t(o)] <= 0.0f)
                    delta[size_t(o)] = 0.0f;
        }

        for (int o = 0; o < layer.out; ++o) {
            float d = delta[size_t(o)];
            if (d == 0.0f)
                continue;
            float *grow = layer.gw.data() + size_t(o) * layer.in;
            for (int i = 0; i < layer.in; ++i)
                grow[i] += d * input[size_t(i)];
            layer.gb[size_t(o)] += d;
        }

        if (li > 0 || din) {
            std::fill(prev, prev + layer.in, 0.0f);
            for (int o = 0; o < layer.out; ++o) {
                float d = delta[size_t(o)];
                if (d == 0.0f)
                    continue;
                const float *wrow = layer.w.data() + size_t(o) * layer.in;
                for (int i = 0; i < layer.in; ++i)
                    prev[size_t(i)] += d * wrow[i];
            }
            if (li == 0) {
                std::copy(prev, prev + layer.in, din);
                break;
            }
            std::swap(delta, prev);
        }
    }
}

namespace {
/** Activation-pointer scratch bound (layers + 1; deepest net is 5). */
constexpr size_t kMaxBackwardDepth = 16;
} // namespace

void
Mlp::backward(const MlpWorkspace &ws, const float *dout, float *din)
{
    ASDR_ASSERT(ws.acts.size() == layers_.size() + 1,
                "workspace does not match a forward pass");
    ASDR_ASSERT(ws.acts.size() <= kMaxBackwardDepth, "MLP too deep");
    const float *acts[kMaxBackwardDepth];
    for (size_t li = 0; li < ws.acts.size(); ++li)
        acts[li] = ws.acts[li].data();
    backwardImpl(acts, dout, din);
}

void
Mlp::backward(const MlpBatchWorkspace &ws, int p, const float *dout,
              float *din)
{
    ASDR_ASSERT(ws.acts.size() == layers_.size() + 1 && p >= 0 &&
                    p < ws.count,
                "workspace does not match a batched forward pass");
    ASDR_ASSERT(ws.acts.size() <= kMaxBackwardDepth, "MLP too deep");
    const float *acts[kMaxBackwardDepth];
    acts[0] = ws.acts[0].data() + size_t(p) * size_t(cfg_.input);
    for (size_t li = 0; li < layers_.size(); ++li)
        acts[li + 1] = ws.acts[li + 1].data() +
                       size_t(p) * size_t(layers_[li].out);
    backwardImpl(acts, dout, din);
}

void
Mlp::zeroGrad()
{
    for (auto &layer : layers_) {
        std::fill(layer.gw.begin(), layer.gw.end(), 0.0f);
        std::fill(layer.gb.begin(), layer.gb.end(), 0.0f);
    }
}

void
Mlp::adamStep(float lr, float beta1, float beta2, float eps)
{
    ++adam_t_;
    float bc1 = 1.0f - std::pow(beta1, float(adam_t_));
    float bc2 = 1.0f - std::pow(beta2, float(adam_t_));
    for (auto &layer : layers_) {
        if (layer.gw.empty())
            continue;
        if (layer.mw.empty()) {
            layer.mw.assign(layer.w.size(), 0.0f);
            layer.vw.assign(layer.w.size(), 0.0f);
            layer.mb.assign(layer.b.size(), 0.0f);
            layer.vb.assign(layer.b.size(), 0.0f);
        }
        auto update = [&](std::vector<float> &p, std::vector<float> &g,
                          std::vector<float> &m, std::vector<float> &v) {
            for (size_t i = 0; i < p.size(); ++i) {
                m[i] = beta1 * m[i] + (1.0f - beta1) * g[i];
                v[i] = beta2 * v[i] + (1.0f - beta2) * g[i] * g[i];
                float mhat = m[i] / bc1;
                float vhat = v[i] / bc2;
                p[i] -= lr * mhat / (std::sqrt(vhat) + eps);
            }
        };
        update(layer.w, layer.gw, layer.mw, layer.vw);
        update(layer.b, layer.gb, layer.mb, layer.vb);
    }
}

size_t
Mlp::paramCount() const
{
    size_t n = 0;
    for (const auto &layer : layers_)
        n += layer.w.size() + layer.b.size();
    return n;
}

double
Mlp::forwardMacs() const
{
    double macs = 0.0;
    for (const auto &layer : layers_)
        macs += double(layer.in) * double(layer.out);
    return macs;
}

std::vector<float>
Mlp::serializeParams() const
{
    std::vector<float> flat;
    flat.reserve(paramCount());
    for (const auto &layer : layers_) {
        flat.insert(flat.end(), layer.w.begin(), layer.w.end());
        flat.insert(flat.end(), layer.b.begin(), layer.b.end());
    }
    return flat;
}

void
Mlp::deserializeParams(const std::vector<float> &flat)
{
    ASDR_ASSERT(flat.size() == paramCount(), "parameter blob size mismatch");
    size_t pos = 0;
    for (auto &layer : layers_) {
        std::copy(flat.begin() + pos, flat.begin() + pos + layer.w.size(),
                  layer.w.begin());
        pos += layer.w.size();
        std::copy(flat.begin() + pos, flat.begin() + pos + layer.b.size(),
                  layer.b.begin());
        pos += layer.b.size();
    }
}

} // namespace asdr::nerf
