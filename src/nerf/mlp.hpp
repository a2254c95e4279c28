/**
 * @file
 * Fully-connected MLP with ReLU hidden activations, single-sample forward
 * and backward passes, and a built-in Adam optimizer. Used for the
 * Instant-NGP density and color networks (paper Fig. 2c) and the TensoRF
 * appearance decoder. Kept deliberately simple: flat float storage,
 * cache-friendly row-major weights, no heap traffic in the hot path.
 */

#ifndef ASDR_NERF_MLP_HPP
#define ASDR_NERF_MLP_HPP

#include <cstddef>
#include <cstdint>
#include <vector>

namespace asdr::nerf {

/** Layer sizes of an MLP: input -> hidden... -> output. */
struct MlpConfig
{
    int input = 32;
    std::vector<int> hidden{64};
    int output = 16;
};

/** Scratch buffers holding the activations of one forward pass. */
struct MlpWorkspace
{
    std::vector<std::vector<float>> acts; ///< acts[0]=input, acts.back()=out
};

/**
 * Activations of a batched *training* forward: acts[li] holds `count`
 * row-major rows (point p's activation of layer li at row p), so the
 * per-sample backward can replay any point. acts[0] is the packed
 * input matrix, acts.back() the linear outputs.
 */
struct MlpBatchWorkspace
{
    std::vector<std::vector<float>> acts;
    int count = 0;
};

class Mlp
{
  public:
    Mlp(const MlpConfig &cfg, uint64_t seed);

    const MlpConfig &config() const { return cfg_; }
    int inputDim() const { return cfg_.input; }
    int outputDim() const { return cfg_.output; }

    /** Inference forward; `out` must hold outputDim() floats. */
    void forward(const float *in, float *out) const;

    /**
     * Batched inference forward over `count` points. Point p reads its
     * input at `in + p * in_stride` and writes its output at
     * `out + p * out_stride` (strides in floats, so SoA matrices and
     * strided struct members both work). Results are bit-identical to
     * `count` forward() calls on every ISA target (util/isa.hpp); the
     * win is data movement and lane width: points are processed in
     * cache-sized blocks, each weight row is streamed once per block
     * instead of once per point, and AVX2 and AVX-512 hosts run 8- and
     * 16-wide lanes.
     */
    void forwardBatch(const float *in, int count, int in_stride, float *out,
                      int out_stride) const;

    /** Training forward retaining activations for backward(). */
    void forward(const float *in, float *out, MlpWorkspace &ws) const;

    /**
     * Batched training forward: the same register-blocked lane kernel
     * as the inference forwardBatch (bit-identical outputs), but every
     * layer's activations are retained in `ws` so backward(ws, p, ...)
     * can replay any sample of the batch. This is what lets the
     * distillation trainer stream its whole batch through the fast
     * kernel and still run exact per-sample backprop.
     */
    void forwardBatch(const float *in, int count, int in_stride, float *out,
                      int out_stride, MlpBatchWorkspace &ws) const;

    /**
     * Backpropagate dL/d(out); accumulates weight gradients and, when
     * `din` is non-null, writes dL/d(in) (for chaining into the encoder
     * or an upstream network).
     */
    void backward(const MlpWorkspace &ws, const float *dout, float *din);

    /** Backward for sample `p` of a batched training forward;
     *  bit-identical to backward() on the per-sample workspace. */
    void backward(const MlpBatchWorkspace &ws, int p, const float *dout,
                  float *din);

    void zeroGrad();
    void adamStep(float lr, float beta1 = 0.9f, float beta2 = 0.999f,
                  float eps = 1e-8f);

    size_t paramCount() const;
    /** Multiply-accumulates of one forward pass (the paper's FLOPs/2). */
    double forwardMacs() const;

    /** Flat parameter access for serialization (layer-major W then b). */
    std::vector<float> serializeParams() const;
    void deserializeParams(const std::vector<float> &flat);

  private:
    /** The forwardBatch kernel bodies over lane blocks of up to kLanes
     *  points, inlined into each ISA target's entry point
     *  (util/isa.hpp). */
    template <int kLanes>
    void forwardBatchKernel(const float *in, int count, int in_stride,
                            float *out, int out_stride) const;
    template <int kLanes>
    void forwardBatchKernel(const float *in, int count, int in_stride,
                            float *out, int out_stride,
                            MlpBatchWorkspace &ws) const;

    /** Shared backward core: acts[li] points at layer li's input
     *  activation vector (acts[layer count] = the linear output). */
    void backwardImpl(const float *const *acts, const float *dout,
                      float *din);

    struct Layer
    {
        int in = 0;
        int out = 0;
        std::vector<float> w; ///< out x in, row-major
        std::vector<float> b;
        std::vector<float> gw;
        std::vector<float> gb;
        std::vector<float> mw, vw, mb, vb; ///< Adam moments
    };

    MlpConfig cfg_;
    std::vector<Layer> layers_;
    size_t widest_ = 0; ///< widest layer output, for scratch sizing
    int adam_t_ = 0;
};

} // namespace asdr::nerf

#endif // ASDR_NERF_MLP_HPP
