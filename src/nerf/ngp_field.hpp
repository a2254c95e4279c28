/**
 * @file
 * Instant-NGP radiance field: multiresolution hash encoding -> density
 * MLP -> (geometry features + SH direction encoding) -> color MLP, with
 * full backpropagation support so scenes can be distilled into it
 * (nerf/trainer).
 */

#ifndef ASDR_NERF_NGP_FIELD_HPP
#define ASDR_NERF_NGP_FIELD_HPP

#include <atomic>
#include <memory>
#include <thread>

#include "nerf/field.hpp"
#include "nerf/hash_grid.hpp"
#include "nerf/mlp.hpp"

namespace asdr::nerf {

/** Hyperparameters of the full Instant-NGP model. */
struct NgpModelConfig
{
    HashGridConfig grid;
    std::vector<int> density_hidden{64};
    std::vector<int> color_hidden{128, 128, 128};

    /**
     * Paper-faithful shape: color network carries ~92% of MLP FLOPs,
     * density ~8% (§3 Challenge 2). Used for all cost accounting.
     */
    static NgpModelConfig reference();

    /**
     * Host-speed shape for the fitted quality experiments (smaller color
     * network; the *counts* of executions are what quality experiments
     * measure, not FLOPs).
     */
    static NgpModelConfig fast();
};

class InstantNgpField : public RadianceField
{
  public:
    explicit InstantNgpField(const NgpModelConfig &cfg, uint64_t seed = 42);

    // RadianceField interface
    DensityOutput density(const Vec3 &pos) const override;
    Vec3 color(const Vec3 &pos, const Vec3 &dir,
               const DensityOutput &den) const override;
    /** Fast path: batch hash-grid encode into a contiguous feature
     *  matrix, then a cache-blocked batched MLP forward. */
    void densityBatch(const Vec3 *pos, int count,
                      DensityOutput *out) const override;
    void colorBatch(const Vec3 *pos, const Vec3 &dir,
                    const DensityOutput *den, int count,
                    Vec3 *out) const override;
    /** One SH encode per run of equal directions, then ONE color
     *  network pass over all `count` points. */
    void colorBatchDirs(const Vec3 *pos, const Vec3 *dirs,
                        const DensityOutput *den, int count,
                        Vec3 *out) const override;
    void traceLookups(const Vec3 &pos, LookupSink &sink) const override;
    TableSchema tableSchema() const override;
    FieldCosts costs() const override;
    std::string describe() const override;

    /** Grid structure (resolutions, dense/hashed, table sizes). */
    const GridGeometry &gridGeometry() const { return grid_.geometry(); }

    // --- training (distillation) ---
    struct TrainSample
    {
        Vec3 pos;
        Vec3 dir;
        float sigma_target = 0.0f;
        Vec3 color_target;
    };

    /**
     * One supervised sample: forward, loss, backward; gradients
     * accumulate until applyAdam(). Returns the sample's loss.
     */
    float trainStep(const TrainSample &s);

    /**
     * A whole batch of supervised samples: both MLP forwards stream
     * through Mlp::forwardBatch (register-blocked lanes) while the
     * backward replays each sample in order from the retained batch
     * activations. Losses, gradients, and therefore the trained field
     * are bit-identical to `count` trainStep() calls in the same order;
     * only the data movement changes. Returns the summed loss.
     */
    double trainBatch(const TrainSample *samples, int count);

    void zeroGrads();
    void applyAdam(float lr);

    HashGrid &grid() { return grid_; }
    const HashGrid &grid() const { return grid_; }
    Mlp &densityMlp() { return density_mlp_; }
    Mlp &colorMlp() { return color_mlp_; }
    const Mlp &densityMlp() const { return density_mlp_; }
    const Mlp &colorMlp() const { return color_mlp_; }
    const NgpModelConfig &modelConfig() const { return cfg_; }

    /** sigma = softplus(raw - 1): small initial density, smooth grads. */
    static float sigmaActivation(float raw);

    /**
     * Attach a reuse-stats accumulator to the batched encode path: every
     * densityBatch() call adds its per-level lookup/unique/coherent
     * counts, so a render measures the host-side data reuse the paper's
     * Fig. 15 predicts. The accumulator is written without locking --
     * attach only for single-threaded renders (densityBatch panics if a
     * second thread calls in while the hook is attached). nullptr
     * detaches. Const: the hook observes the encode, it does not alter
     * the field (engine sessions attach through a const reference).
     */
    void setEncodeReuseStats(EncodeReuseStats *stats) const
    {
        encode_stats_.store(stats, std::memory_order_release);
        stats_thread_ = std::thread::id();
    }

  private:
    /** Both color batch entries: point p's direction is
     *  dirs[p * dir_stride] (stride 0 = one shared direction). */
    void colorRows(const Vec3 *dirs, int dir_stride,
                   const DensityOutput *den, int count, Vec3 *out) const;

    NgpModelConfig cfg_;
    HashGrid grid_;
    Mlp density_mlp_;
    Mlp color_mlp_;
    mutable std::atomic<EncodeReuseStats *> encode_stats_{nullptr};
    /** First thread to run densityBatch while the hook is attached. */
    mutable std::thread::id stats_thread_;
};

} // namespace asdr::nerf

#endif // ASDR_NERF_NGP_FIELD_HPP
