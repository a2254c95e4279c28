/**
 * @file
 * Multiresolution hash-grid encoding (Instant-NGP, Mueller et al. 2022;
 * paper §2.2). L levels of 3D feature grids with geometrically growing
 * resolution; levels whose vertex lattice fits the table are stored
 * *densely* (injective index), larger levels are hashed with Eq. (2).
 *
 * The same GridGeometry object drives both the software encoder here and
 * the simulator's address mappings (sim/address_mapping), so renderer and
 * accelerator agree on every table index by construction.
 */

#ifndef ASDR_NERF_HASH_GRID_HPP
#define ASDR_NERF_HASH_GRID_HPP

#include <cstdint>
#include <vector>

#include "util/isa.hpp"
#include "util/vec.hpp"

namespace asdr::nerf {

/** Hash-grid hyperparameters (paper defaults: L=16, T=2^19, F=2). */
struct HashGridConfig
{
    int levels = 16;
    uint32_t log2_table_size = 15; ///< scaled-down default; 19 in the paper
    int features_per_level = 2;
    int base_resolution = 16;
    int max_resolution = 512;
};

/** Static structure of one resolution level. */
struct GridLevelInfo
{
    int resolution = 16;        ///< voxels per axis (vertices = res+1)
    bool dense = false;         ///< stored un-hashed (lattice fits table)
    uint32_t table_entries = 0; ///< entries actually addressable
    uint32_t param_offset = 0;  ///< offset into the flat embedding array
};

/**
 * Resolution schedule + indexing rules, shared by encoder and simulator.
 * Indexing: dense levels use x-major lattice linearization; hashed levels
 * use the Eq. (2) XOR-prime hash.
 */
class GridGeometry
{
  public:
    explicit GridGeometry(const HashGridConfig &cfg);

    const HashGridConfig &config() const { return cfg_; }
    int levels() const { return int(levels_.size()); }
    const GridLevelInfo &level(int l) const { return levels_.at(size_t(l)); }
    uint32_t tableSize() const { return 1u << cfg_.log2_table_size; }
    int featureDim() const { return cfg_.levels * cfg_.features_per_level; }

    /** Table index of vertex `v` at level `l` (dense or hashed). */
    uint32_t index(int l, const Vec3i &v) const;

    /** Number of levels stored densely (the paper's "low resolution"
     *  tables that the hybrid mapping de-hashes and replicates). */
    int denseLevels() const;

    /** Total embedding parameters across all levels (floats). */
    size_t paramCount() const;

    /**
     * Voxel containing `pos` (unit cube) at level `l` plus the
     * fractional offsets used for trilinear interpolation.
     */
    void locate(int l, const Vec3 &pos, Vec3i &voxel, Vec3 &frac) const;

    /** The 8 lattice vertices of a voxel, x-fastest order. */
    static void voxelVertices(const Vec3i &voxel, Vec3i out[8]);

    /** Trilinear weights matching voxelVertices() order. */
    static void trilinearWeights(const Vec3 &frac, float out[8]);

    /**
     * The complete per-level lookup setup for one position: the 8 table
     * indices and trilinear weights in voxelVertices() order. Exactly
     * locate + voxelVertices + trilinearWeights + index per vertex, but
     * the 8 indices are built from shared per-axis partial products
     * (x*pi1, y*pi2, z*pi3 and their +1 neighbors), so the hash costs 3
     * multiplies instead of 24. Bit-identical to index() by the
     * associativity of uint32 arithmetic. Every encode path and the
     * batched kernel's setup pass inline this one implementation.
     */
    void gatherSetup(int l, const Vec3 &pos, uint32_t idx[8],
                     float w[8]) const;

  private:
    HashGridConfig cfg_;
    std::vector<GridLevelInfo> levels_;
};

/**
 * Per-level reuse statistics of batched encodes: the software-path
 * counterpart of the paper's Fig. 15 repetition measurements. `unique`
 * counts distinct table entries touched inside each encodeBatch call
 * (order-independent); `coherent` counts lookups whose index equals the
 * same corner's index of the immediately preceding point, i.e. hits
 * that a stream buffer or cache line would serve for free -- this is
 * what Morton/tile-coherent ray ordering maximizes. Stats accumulate
 * across calls; reset() clears them.
 */
struct EncodeReuseStats
{
    std::vector<uint64_t> lookups;  ///< 8 * points per level
    std::vector<uint64_t> unique;   ///< distinct entries per batch, summed
    std::vector<uint64_t> coherent; ///< same-corner previous-point hits

    void reset(int levels);
    void merge(const EncodeReuseStats &o);
    /** Average lookups per distinct entry (>= 1; higher = more reuse). */
    double reuseFactor(int level) const;
    /** Fraction of lookups hitting the previous point's entry. */
    double coherentFraction(int level) const;
};

/**
 * Trainable multiresolution embedding storage + encoder. Gradients are
 * accumulated by backward() and applied by adamStep(); inference-only
 * users never touch the optimizer state (it is allocated lazily).
 */
class HashGrid
{
  public:
    explicit HashGrid(const HashGridConfig &cfg, uint64_t seed = 0x9106);

    const GridGeometry &geometry() const { return geom_; }
    int featureDim() const { return geom_.featureDim(); }

    /**
     * Encode a unit-cube position into the concatenated per-level
     * interpolated features. `out` must hold featureDim() floats.
     */
    void encode(const Vec3 &pos, float *out) const;

    /**
     * Encode `count` positions into a row-major feature matrix: point p
     * writes featureDim() floats at `out + p * out_stride`. Levels are
     * walked in the outer loop so one level's table region stays hot
     * across the whole batch (ray samples are spatially clustered).
     *
     * Internally a two-pass kernel per level over 512-point slices:
     * (1) a setup pass computes all 8 lattice indices + trilinear
     * weights for the slice, across points in SIMD lanes, into
     * corner-major SoA workspaces, then (2) a gather/interpolate pass
     * reads each corner's index and weight lanes unit-stride. For F=2
     * (the NGP config) the x86-64-v3 and -v4 targets run pass 2 with
     * AVX2 hardware gathers, 4 points per iteration; the default target,
     * and every F != 2, runs the scalar register-blocked loop, which is
     * the reference. Dispatched at runtime to the best ISA target
     * (util/isa.hpp); every target is bit-identical to per-point
     * encode() calls.
     *
     * `stats`, when non-null, accumulates per-level reuse counters for
     * this batch (measured host-side data reuse; see EncodeReuseStats).
     */
    void encodeBatch(const Vec3 *pos, int count, float *out,
                     int out_stride,
                     EncodeReuseStats *stats = nullptr) const;

    /** Cache of one encode() call, enough to backpropagate through it. */
    struct EncodeCache
    {
        // 8 (index, weight) pairs per level.
        std::vector<uint32_t> indices;
        std::vector<float> weights;
    };

    void encode(const Vec3 &pos, float *out, EncodeCache &cache) const;

    /** Accumulate dL/d(embeddings) given dL/d(out) of a cached encode. */
    void backward(const EncodeCache &cache, const float *dout);

    void zeroGrad();
    void adamStep(float lr, float beta1 = 0.9f, float beta2 = 0.999f,
                  float eps = 1e-8f);

    size_t paramCount() const { return params_.size(); }
    std::vector<float> &params() { return params_; }
    const std::vector<float> &params() const { return params_; }

    /** FLOPs of one encode() call (hash + interpolation), for profiles. */
    double encodeFlops() const;

  private:
    /** encodeBatch's one kernel body, inlined into each ISA target's
     *  entry point (util/isa.hpp); `target` is that entry's target. */
    void encodeBatchKernel(isa::Target target, const Vec3 *pos, int count,
                           float *out, int out_stride,
                           EncodeReuseStats *stats) const;

    /** dst[0..F) = sum_i w[i] * table[idx[i]] at level `l` -- the one
     *  scalar interpolate shared by every encode() variant. */
    void levelInterpolate(int l, const uint32_t idx[8], const float w[8],
                          float *dst) const;

    GridGeometry geom_;
    std::vector<float> params_;
    std::vector<float> grads_;
    std::vector<float> adam_m_;
    std::vector<float> adam_v_;
    int adam_t_ = 0;
};

} // namespace asdr::nerf

#endif // ASDR_NERF_HASH_GRID_HPP
