#include "nerf/hash_grid.hpp"

#include <algorithm>
#include <cmath>

#include "util/hashing.hpp"
#include "util/isa.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"

#if ASDR_ISA_HAS_X86_64_LEVELS
#include <immintrin.h>
#endif

namespace asdr::nerf {

namespace {

// The per-level lookup math. Every encode path -- the public locate /
// trilinearWeights / gatherSetup and the batched setup pass -- inlines
// these one implementations, which is what lets the batched pass run
// them across points in SIMD lanes.

/** Voxel of `pos` (unit cube) at a level of `res` voxels per axis, and
 *  the fractional offsets used for trilinear interpolation. */
__attribute__((always_inline)) inline void
locateAt(int res, const Vec3 &pos, Vec3i &voxel, Vec3 &frac)
{
    // Clamp to the cube so boundary samples index valid lattice
    // vertices. Scaling first and clamping to [0, res] gives the bits
    // of std::clamp(v, 0, 1) * res for every v, -0 and NaN included
    // (res >= 1, so a nonzero product never rounds to zero), but as
    // plain selects the batched setup loop can vectorize.
    const float fres = float(res);
    const auto scaled = [fres](float v) {
        const float s = v * fres;
        const float lo = s < 0.0f ? 0.0f : s;
        return fres < lo ? fres : lo;
    };
    const float sx = scaled(pos.x);
    const float sy = scaled(pos.y);
    const float sz = scaled(pos.z);
    const int vx = std::min(int(sx), res - 1);
    const int vy = std::min(int(sy), res - 1);
    const int vz = std::min(int(sz), res - 1);
    voxel = {vx, vy, vz};
    frac = {sx - float(vx), sy - float(vy), sz - float(vz)};
}

/** Trilinear weights in voxelVertices() order; corner i's weight goes
 *  to w[i * stride]. */
__attribute__((always_inline)) inline void
weightsAt(const Vec3 &frac, float *w, size_t stride)
{
    const float wx[2] = {1.0f - frac.x, frac.x};
    const float wy[2] = {1.0f - frac.y, frac.y};
    const float wz[2] = {1.0f - frac.z, frac.z};
    for (int i = 0; i < 8; ++i)
        w[size_t(i) * stride] = wx[i & 1] * wy[(i >> 1) & 1] * wz[(i >> 2) & 1];
}

/**
 * GridGeometry::gatherSetup's contract for one point at a level of `res`
 * voxels per axis: corner i's table index and weight go to
 * idx[i * stride] and w[i * stride]. `kDense` picks the dense
 * linearization or the Eq. (2) hash (masked by `mask`) at compile time,
 * so a loop over points has no branch.
 */
template <bool kDense>
__attribute__((always_inline)) inline void
cornerSetup(int res, uint32_t mask, const Vec3 &pos, uint32_t *idx,
            float *w, size_t stride)
{
    Vec3i voxel;
    Vec3 frac;
    locateAt(res, pos, voxel, frac);
    weightsAt(frac, w, stride);
    uint32_t c[8];
    if (kDense) {
        // denseIndex(v) = (z*V + y)*V + x; the 8 corners share per-axis
        // partial sums ((z[+1])*V + y[+1])*V and x[+1].
        const uint32_t V = uint32_t(res + 1);
        const uint32_t x0 = uint32_t(voxel.x);
        const uint32_t x1 = x0 + 1u;
        const uint32_t zv0 = uint32_t(voxel.z) * V;
        const uint32_t zv1 = (uint32_t(voxel.z) + 1u) * V;
        const uint32_t y0 = uint32_t(voxel.y);
        const uint32_t y1 = y0 + 1u;
        const uint32_t r0 = (zv0 + y0) * V;
        const uint32_t r1 = (zv0 + y1) * V;
        const uint32_t r2 = (zv1 + y0) * V;
        const uint32_t r3 = (zv1 + y1) * V;
        c[0] = r0 + x0;
        c[1] = r0 + x1;
        c[2] = r1 + x0;
        c[3] = r1 + x1;
        c[4] = r2 + x0;
        c[5] = r2 + x1;
        c[6] = r3 + x0;
        c[7] = r3 + x1;
    } else {
        // Eq. (2) hash of all 8 corners from 6 per-axis products:
        // (x+1)*pi = x*pi + pi in uint32, so the corner hashes are XORs
        // of precomputed halves -- identical bits to spatialHash().
        const uint32_t hx0 = uint32_t(voxel.x) * kHashPrime1;
        const uint32_t hx1 = hx0 + kHashPrime1;
        const uint32_t hy0 = uint32_t(voxel.y) * kHashPrime2;
        const uint32_t hy1 = hy0 + kHashPrime2;
        const uint32_t hz0 = uint32_t(voxel.z) * kHashPrime3;
        const uint32_t hz1 = hz0 + kHashPrime3;
        c[0] = (hx0 ^ hy0 ^ hz0) & mask;
        c[1] = (hx1 ^ hy0 ^ hz0) & mask;
        c[2] = (hx0 ^ hy1 ^ hz0) & mask;
        c[3] = (hx1 ^ hy1 ^ hz0) & mask;
        c[4] = (hx0 ^ hy0 ^ hz1) & mask;
        c[5] = (hx1 ^ hy0 ^ hz1) & mask;
        c[6] = (hx0 ^ hy1 ^ hz1) & mask;
        c[7] = (hx1 ^ hy1 ^ hz1) & mask;
    }
    for (int i = 0; i < 8; ++i)
        idx[size_t(i) * stride] = c[i];
}

} // namespace

GridGeometry::GridGeometry(const HashGridConfig &cfg) : cfg_(cfg)
{
    ASDR_ASSERT(cfg.levels >= 1 && cfg.levels <= 32, "bad level count");
    ASDR_ASSERT(cfg.log2_table_size >= 8 && cfg.log2_table_size <= 24,
                "bad table size");
    ASDR_ASSERT(cfg.max_resolution >= cfg.base_resolution,
                "max resolution below base");

    double growth = 1.0;
    if (cfg.levels > 1) {
        growth = std::exp((std::log(double(cfg.max_resolution)) -
                           std::log(double(cfg.base_resolution))) /
                          double(cfg.levels - 1));
    }

    uint32_t table = 1u << cfg.log2_table_size;
    uint32_t offset = 0;
    for (int l = 0; l < cfg.levels; ++l) {
        GridLevelInfo info;
        info.resolution = int(std::floor(
            double(cfg.base_resolution) * std::pow(growth, double(l)) + 0.5));
        uint64_t lattice = uint64_t(info.resolution + 1) *
                           uint64_t(info.resolution + 1) *
                           uint64_t(info.resolution + 1);
        info.dense = lattice <= table;
        info.table_entries = info.dense ? uint32_t(lattice) : table;
        info.param_offset = offset;
        offset += info.table_entries * uint32_t(cfg.features_per_level);
        levels_.push_back(info);
    }
}

uint32_t
GridGeometry::index(int l, const Vec3i &v) const
{
    const GridLevelInfo &info = levels_[size_t(l)];
    if (info.dense)
        return denseIndex(v, uint32_t(info.resolution + 1));
    return spatialHash(v, cfg_.log2_table_size);
}

int
GridGeometry::denseLevels() const
{
    int n = 0;
    for (const auto &info : levels_)
        if (info.dense)
            ++n;
    return n;
}

size_t
GridGeometry::paramCount() const
{
    size_t total = 0;
    for (const auto &info : levels_)
        total += size_t(info.table_entries) * size_t(cfg_.features_per_level);
    return total;
}

void
GridGeometry::locate(int l, const Vec3 &pos, Vec3i &voxel, Vec3 &frac) const
{
    locateAt(levels_[size_t(l)].resolution, pos, voxel, frac);
}

void
GridGeometry::voxelVertices(const Vec3i &voxel, Vec3i out[8])
{
    for (int i = 0; i < 8; ++i) {
        out[i] = {voxel.x + (i & 1), voxel.y + ((i >> 1) & 1),
                  voxel.z + ((i >> 2) & 1)};
    }
}

void
GridGeometry::trilinearWeights(const Vec3 &frac, float out[8])
{
    weightsAt(frac, out, 1);
}

void
GridGeometry::gatherSetup(int l, const Vec3 &pos, uint32_t idx[8],
                          float w[8]) const
{
    const GridLevelInfo &info = levels_[size_t(l)];
    const uint32_t mask = (1u << cfg_.log2_table_size) - 1u;
    if (info.dense)
        cornerSetup<true>(info.resolution, mask, pos, idx, w, 1);
    else
        cornerSetup<false>(info.resolution, mask, pos, idx, w, 1);
}

void
EncodeReuseStats::reset(int levels)
{
    lookups.assign(size_t(levels), 0);
    unique.assign(size_t(levels), 0);
    coherent.assign(size_t(levels), 0);
}

void
EncodeReuseStats::merge(const EncodeReuseStats &o)
{
    if (lookups.empty())
        reset(int(o.lookups.size()));
    ASDR_ASSERT(lookups.size() == o.lookups.size(),
                "merging reuse stats of different level counts");
    for (size_t l = 0; l < o.lookups.size(); ++l) {
        lookups[l] += o.lookups[l];
        unique[l] += o.unique[l];
        coherent[l] += o.coherent[l];
    }
}

double
EncodeReuseStats::reuseFactor(int level) const
{
    const size_t l = size_t(level);
    if (l >= unique.size() || unique[l] == 0)
        return 1.0;
    return double(lookups[l]) / double(unique[l]);
}

double
EncodeReuseStats::coherentFraction(int level) const
{
    const size_t l = size_t(level);
    if (l >= lookups.size() || lookups[l] == 0)
        return 0.0;
    return double(coherent[l]) / double(lookups[l]);
}

HashGrid::HashGrid(const HashGridConfig &cfg, uint64_t seed) : geom_(cfg)
{
    params_.resize(geom_.paramCount());
    // Instant-NGP initializes embeddings uniformly in [-1e-4, 1e-4].
    uint64_t s = seed;
    for (auto &p : params_) {
        uint64_t r = splitmix64(s);
        p = (float(r >> 40) / float(1 << 24) - 0.5f) * 2e-4f;
    }
}

void
HashGrid::levelInterpolate(int l, const uint32_t idx[8], const float w[8],
                           float *dst) const
{
    const int F = geom_.config().features_per_level;
    const float *base = params_.data() + geom_.level(l).param_offset;
    for (int f = 0; f < F; ++f)
        dst[f] = 0.0f;
    for (int i = 0; i < 8; ++i) {
        const float *entry = base + size_t(idx[i]) * size_t(F);
        for (int f = 0; f < F; ++f)
            dst[f] += w[i] * entry[f];
    }
}

void
HashGrid::encode(const Vec3 &pos, float *out) const
{
    const int F = geom_.config().features_per_level;
    for (int l = 0; l < geom_.levels(); ++l) {
        uint32_t idx[8];
        float w[8];
        geom_.gatherSetup(l, pos, idx, w);
        levelInterpolate(l, idx, w, out + size_t(l) * size_t(F));
    }
}

namespace {

/** Points per two-pass slice: the corner-major index/weight workspace
 *  of one slice is 8 * kEncChunk * 8 bytes = 32 KB, so it stays cache-
 *  resident between the setup and gather passes for any batch size. */
constexpr int kEncChunk = 512;

/** Points per register block of the gather/interpolate pass. */
constexpr int kEncBlock = 64;

/** Pass 1 of encodeBatch over one slice of `count` <= kEncChunk points:
 *  corner-major SoA indices and weights (corner i of point p at
 *  [i * kEncChunk + p]). */
template <bool kDense>
__attribute__((always_inline)) inline void
setupSlice(int res, uint32_t mask, const Vec3 *__restrict pos, int count,
           uint32_t *__restrict idx, float *__restrict w)
{
#pragma omp simd
    for (int p = 0; p < count; ++p)
        cornerSetup<kDense>(res, mask, pos[p], idx + p, w + p, kEncChunk);
}

#if ASDR_ISA_HAS_X86_64_LEVELS
/**
 * Pass 2 of encodeBatch for F=2 on the x86-64-v3 and -v4 targets, 4
 * points per iteration: one qword gather per corner fetches the four
 * points' 8-byte entries (f0, f1 interleaved), the weights are
 * duplicated to match, and the products are accumulated like the
 * scalar loop -- from 0, corner 0..7 in order, multiply and add rounded
 * separately -- so every lane is bitwise the scalar result. (Seeding
 * the accumulator with corner 0's product instead would turn 0 + -0
 * into -0.)
 *
 * GCC's generic tuning never emits vgather for the scalar loop, hence
 * the intrinsics; they live in this target-only function because the
 * kernel body is also compiled for the default target. One qword
 * gather loads half the elements of the two dword gathers (one per
 * feature) the same points would need, and measured faster per point
 * than that form. Indices stay below 2^24 (the table size), so the
 * scaled offsets fit the signed 32-bit gather index.
 */
__attribute__((target(ASDR_ISA_X86_64_V3_FEATURES)))
void
interpolateF2Avx2(const float *__restrict base,
                  const uint32_t *__restrict idx,
                  const float *__restrict w, int count,
                  float *__restrict out, size_t out_stride)
{
    const long long *entries = reinterpret_cast<const long long *>(base);
    const __m256i dup = _mm256_setr_epi32(0, 0, 1, 1, 2, 2, 3, 3);
    int p = 0;
    for (; p + 4 <= count; p += 4) {
        __m256 acc = _mm256_setzero_ps();
        for (int i = 0; i < 8; ++i) {
            const size_t k = size_t(i) * kEncChunk + size_t(p);
            const __m128i vi = _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(idx + k));
            const __m256 e = _mm256_castsi256_ps(
                _mm256_i32gather_epi64(entries, vi, 8));
            const __m256 wv = _mm256_permutevar8x32_ps(
                _mm256_castps128_ps256(_mm_loadu_ps(w + k)), dup);
            acc = _mm256_add_ps(acc, _mm256_mul_ps(wv, e));
        }
        // acc holds (f0, f1) of points p..p+3: one 8-byte store per
        // output row.
        const __m128 lo = _mm256_castps256_ps128(acc);
        const __m128 hi = _mm256_extractf128_ps(acc, 1);
        float *dst = out + size_t(p) * out_stride;
        _mm_storel_pi(reinterpret_cast<__m64 *>(dst), lo);
        _mm_storeh_pi(reinterpret_cast<__m64 *>(dst + out_stride), lo);
        _mm_storel_pi(reinterpret_cast<__m64 *>(dst + 2 * out_stride), hi);
        _mm_storeh_pi(reinterpret_cast<__m64 *>(dst + 3 * out_stride), hi);
    }
    // Tail: the same op sequence, one point at a time.
    for (; p < count; ++p) {
        float a0 = 0.0f;
        float a1 = 0.0f;
        for (int i = 0; i < 8; ++i) {
            const size_t k = size_t(i) * kEncChunk + size_t(p);
            const float *e = base + size_t(idx[k]) * 2;
            a0 += w[k] * e[0];
            a1 += w[k] * e[1];
        }
        float *dst = out + size_t(p) * out_stride;
        dst[0] = a0;
        dst[1] = a1;
    }
}
#endif

} // namespace

__attribute__((always_inline)) inline void
HashGrid::encodeBatchKernel([[maybe_unused]] isa::Target target,
                            const Vec3 *pos, int count, float *out,
                            int out_stride, EncodeReuseStats *stats) const
{
    const int F = geom_.config().features_per_level;
    const int L = geom_.levels();
    if (count <= 0)
        return;
    if (stats && int(stats->lookups.size()) != L)
        stats->reset(L);

    // Corner-major SoA workspaces for one slice: corner i of slice
    // point p lives at [i * kEncChunk + p], so the gather pass reads
    // each corner's index/weight lane unit-stride.
    thread_local std::vector<uint32_t> ws_idx;
    thread_local std::vector<float> ws_w;
    thread_local std::vector<uint32_t> ws_sorted; // stats scratch
    thread_local std::vector<float> ws_acc;       // generic-F lanes
    ws_idx.resize(8 * size_t(kEncChunk));
    ws_w.resize(8 * size_t(kEncChunk));

#if ASDR_ISA_HAS_X86_64_LEVELS
    const bool hw_gather = F == 2 && target != isa::Target::Default;
#endif
    const uint32_t mask = geom_.tableSize() - 1u;
    for (int l = 0; l < L; ++l) {
        const GridLevelInfo &info = geom_.level(l);
        const float *__restrict base = params_.data() + info.param_offset;
        if (stats) {
            ws_sorted.clear();
            ws_sorted.reserve(size_t(count) * 8);
        }
        uint32_t prev[8] = {};
        uint64_t coherent = 0;
        bool has_prev = false;

        for (int c0 = 0; c0 < count; c0 += kEncChunk) {
            const int cn = std::min(kEncChunk, count - c0);

            // ---- pass 1: lattice indices + trilinear weights, SoA,
            // across points in SIMD lanes (integer index math and
            // separately rounded float ops: bitwise gatherSetup).
            if (info.dense)
                setupSlice<true>(info.resolution, mask, pos + c0, cn,
                                 ws_idx.data(), ws_w.data());
            else
                setupSlice<false>(info.resolution, mask, pos + c0, cn,
                                  ws_idx.data(), ws_w.data());

            if (stats) {
                for (int i = 0; i < 8; ++i) {
                    const uint32_t *lane = ws_idx.data() +
                                           size_t(i) * kEncChunk;
                    if (has_prev && lane[0] == prev[i])
                        ++coherent;
                    for (int p = 1; p < cn; ++p)
                        if (lane[p] == lane[p - 1])
                            ++coherent;
                    prev[i] = lane[cn - 1];
                    ws_sorted.insert(ws_sorted.end(), lane, lane + cn);
                }
                has_prev = true;
            }

            // ---- pass 2: gather + interpolate across points (AVX2
            // hardware gathers for F=2 on the v3 and v4 targets, else
            // register-blocked lanes). Lanes are independent points,
            // each accumulating corner 0..7 per output feature in the
            // scalar order with separate multiply and add (the build
            // pins -ffp-contract=off), so every ISA target
            // (util/isa.hpp) is bitwise equal to encode(). The level's
            // table segment is the only gathered region, so it alone
            // streams through the cache.
#if ASDR_ISA_HAS_X86_64_LEVELS
            if (hw_gather) {
                interpolateF2Avx2(base, ws_idx.data(), ws_w.data(), cn,
                                  out + size_t(c0) * size_t(out_stride) +
                                      size_t(l) * 2,
                                  size_t(out_stride));
                continue;
            }
#endif
            if (F == 2) {
                // The common NGP config: both features of a corner
                // share one 8-byte entry load; accumulators stay in
                // registers.
                for (int p0 = 0; p0 < cn; p0 += kEncBlock) {
                    const int bn = std::min(kEncBlock, cn - p0);
                    float acc0[kEncBlock];
                    float acc1[kEncBlock];
                    for (int p = 0; p < bn; ++p) {
                        acc0[p] = 0.0f;
                        acc1[p] = 0.0f;
                    }
                    for (int i = 0; i < 8; ++i) {
                        const uint32_t *__restrict idx =
                            ws_idx.data() + size_t(i) * kEncChunk + p0;
                        const float *__restrict wv =
                            ws_w.data() + size_t(i) * kEncChunk + p0;
#pragma omp simd
                        for (int p = 0; p < bn; ++p) {
                            const float *__restrict e =
                                base + size_t(idx[p]) * 2;
                            acc0[p] += wv[p] * e[0];
                            acc1[p] += wv[p] * e[1];
                        }
                    }
                    for (int p = 0; p < bn; ++p) {
                        float *dst = out +
                                     size_t(c0 + p0 + p) *
                                         size_t(out_stride) +
                                     size_t(l) * 2;
                        dst[0] = acc0[p];
                        dst[1] = acc1[p];
                    }
                }
            } else {
                ws_acc.resize(size_t(F) * kEncBlock);
                for (int p0 = 0; p0 < cn; p0 += kEncBlock) {
                    const int bn = std::min(kEncBlock, cn - p0);
                    std::fill(ws_acc.begin(),
                              ws_acc.begin() + size_t(F) * kEncBlock,
                              0.0f);
                    for (int i = 0; i < 8; ++i) {
                        const uint32_t *__restrict idx =
                            ws_idx.data() + size_t(i) * kEncChunk + p0;
                        const float *__restrict wv =
                            ws_w.data() + size_t(i) * kEncChunk + p0;
                        for (int f = 0; f < F; ++f) {
                            float *__restrict lane =
                                ws_acc.data() + size_t(f) * kEncBlock;
#pragma omp simd
                            for (int p = 0; p < bn; ++p)
                                lane[p] += wv[p] *
                                           base[size_t(idx[p]) *
                                                    size_t(F) +
                                                size_t(f)];
                        }
                    }
                    for (int p = 0; p < bn; ++p) {
                        float *dst = out +
                                     size_t(c0 + p0 + p) *
                                         size_t(out_stride) +
                                     size_t(l) * size_t(F);
                        for (int f = 0; f < F; ++f)
                            dst[f] =
                                ws_acc[size_t(f) * kEncBlock + size_t(p)];
                    }
                }
            }
        }

        if (stats) {
            stats->lookups[size_t(l)] += uint64_t(count) * 8;
            stats->coherent[size_t(l)] += coherent;
            std::sort(ws_sorted.begin(), ws_sorted.end());
            uint64_t uniq = 0;
            for (size_t k = 0; k < ws_sorted.size(); ++k)
                if (k == 0 || ws_sorted[k] != ws_sorted[k - 1])
                    ++uniq;
            stats->unique[size_t(l)] += uniq;
        }
    }
}

void
HashGrid::encodeBatch(const Vec3 *pos, int count, float *out,
                      int out_stride, EncodeReuseStats *stats) const
{
    ASDR_ISA_DISPATCH(
        T, encodeBatchKernel(T, pos, count, out, out_stride, stats));
}


void
HashGrid::encode(const Vec3 &pos, float *out, EncodeCache &cache) const
{
    const int F = geom_.config().features_per_level;
    const size_t slots = size_t(geom_.levels()) * 8;
    cache.indices.resize(slots);
    cache.weights.resize(slots);
    for (int l = 0; l < geom_.levels(); ++l) {
        uint32_t idx[8];
        float w[8];
        geom_.gatherSetup(l, pos, idx, w);
        for (int i = 0; i < 8; ++i) {
            cache.indices[size_t(l) * 8 + size_t(i)] = idx[i];
            cache.weights[size_t(l) * 8 + size_t(i)] = w[i];
        }
        levelInterpolate(l, idx, w, out + size_t(l) * size_t(F));
    }
}

void
HashGrid::backward(const EncodeCache &cache, const float *dout)
{
    if (grads_.empty())
        grads_.resize(params_.size(), 0.0f);
    const int F = geom_.config().features_per_level;
    for (int l = 0; l < geom_.levels(); ++l) {
        float *base = grads_.data() + geom_.level(l).param_offset;
        for (int i = 0; i < 8; ++i) {
            uint32_t idx = cache.indices[size_t(l) * 8 + i];
            float w = cache.weights[size_t(l) * 8 + i];
            for (int f = 0; f < F; ++f)
                base[size_t(idx) * size_t(F) + f] += w * dout[l * F + f];
        }
    }
}

void
HashGrid::zeroGrad()
{
    std::fill(grads_.begin(), grads_.end(), 0.0f);
}

void
HashGrid::adamStep(float lr, float beta1, float beta2, float eps)
{
    if (grads_.empty())
        return;
    if (adam_m_.empty()) {
        adam_m_.resize(params_.size(), 0.0f);
        adam_v_.resize(params_.size(), 0.0f);
    }
    ++adam_t_;
    float bc1 = 1.0f - std::pow(beta1, float(adam_t_));
    float bc2 = 1.0f - std::pow(beta2, float(adam_t_));
    for (size_t i = 0; i < params_.size(); ++i) {
        float g = grads_[i];
        if (g == 0.0f)
            continue; // sparse update: untouched embeddings skip the step
        adam_m_[i] = beta1 * adam_m_[i] + (1.0f - beta1) * g;
        adam_v_[i] = beta2 * adam_v_[i] + (1.0f - beta2) * g * g;
        float mhat = adam_m_[i] / bc1;
        float vhat = adam_v_[i] / bc2;
        params_[i] -= lr * mhat / (std::sqrt(vhat) + eps);
    }
}

double
HashGrid::encodeFlops() const
{
    // Per level: weight computation (~12), 8 hash/dense index computations
    // (~6 each), 8 vertices x F features x 2 (mul+add).
    const int F = geom_.config().features_per_level;
    return double(geom_.levels()) * (12.0 + 8.0 * 6.0 + 8.0 * F * 2.0);
}

} // namespace asdr::nerf
