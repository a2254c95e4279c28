/**
 * @file
 * Runtime ISA dispatch for the hot kernels (hash-grid encode and the
 * batched MLP forward). A dispatched function keeps ONE kernel body --
 * an always-inline function -- and calls it through ASDR_ISA_DISPATCH,
 * which inlines it into three entry points: the build's baseline ISA
 * (the "default" target), x86-64-v3 (AVX2, FMA, BMI2) and x86-64-v4
 * (v3 plus AVX-512 F/BW/CD/DQ/VL). The best target the CPU runs is
 * detected once per process; a portable build thus runs 8- or 16-wide
 * lanes on any AVX2 or AVX-512 host without -march=native.
 *
 * Contract: every target is bitwise equal to the scalar reference. The
 * build pins -ffp-contract=off, so no target fuses a*b + c into an FMA,
 * and the kernels vectorize only across independent points, so the
 * lane width never changes one point's sequence of roundings.
 *
 * Usage (the kernel returns void). The macro names a constexpr Target
 * (here `T`) that each entry point sees as its own target, so a kernel
 * can pick per-target constants such as a lane block:
 *
 *     __attribute__((always_inline)) inline void kernel(args...) { ... }
 *     void entry(args...) { ASDR_ISA_DISPATCH(T, kernel(args...)); }
 *
 * Define the kernel (and any template it instantiates) before the entry
 * point: GCC otherwise may emit an out-of-line copy built for the
 * baseline ISA, and every target silently runs that.
 *
 * On toolchains without the x86-64 levels (non-x86, or not GCC >= 12)
 * the macro is a plain call and only the default target exists.
 */

#ifndef ASDR_UTIL_ISA_HPP
#define ASDR_UTIL_ISA_HPP

#include <atomic>

namespace asdr::isa {

/** A compilation target of the dispatched kernels. */
enum class Target { Default = 0, X86_64_V3 = 1, X86_64_V4 = 2 };

/** "default", "x86-64-v3" or "x86-64-v4" (bench-row provenance, test
 *  names). */
const char *name(Target t);

/** True when this build compiled `t` and the CPU can run it. */
bool runs(Target t);

/** The best target this process runs, detected once. */
Target best();

namespace detail {
/** Pinned target, or -1 for best(); see ScopedTarget. */
extern std::atomic<int> pinned;
} // namespace detail

/** The target dispatched kernels take now. */
inline Target
active()
{
    const int p = detail::pinned.load(std::memory_order_relaxed);
    return p >= 0 ? Target(p) : best();
}

/**
 * Pins every dispatched kernel, process-wide, to one target for the
 * lifetime of this object, so tests can check each target against the
 * scalar reference on one host. `t` must satisfy runs(t). Pins nest but
 * must not overlap across threads.
 */
class ScopedTarget
{
  public:
    explicit ScopedTarget(Target t);
    ~ScopedTarget();
    ScopedTarget(const ScopedTarget &) = delete;
    ScopedTarget &operator=(const ScopedTarget &) = delete;

  private:
    int prev_;
};

} // namespace asdr::isa

#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__) &&     \
    __GNUC__ >= 12
#define ASDR_ISA_HAS_X86_64_LEVELS 1
// Each level's ISA extensions added to the build's own (an arch= string
// would clash with -march=native when inlining the kernel). No tune=:
// it changes what the kernels compile to (see ROADMAP, ISA dispatch).
#define ASDR_ISA_X86_64_V3_FEATURES                                        \
    "avx,avx2,fma,bmi,bmi2,f16c,lzcnt,movbe,xsave"
#define ASDR_ISA_X86_64_V4_FEATURES                                        \
    ASDR_ISA_X86_64_V3_FEATURES ",avx512f,avx512bw,avx512cd,avx512dq,avx512vl"
#define ASDR_ISA_DISPATCH(T, call)                                         \
    do {                                                                   \
        switch (::asdr::isa::active()) {                                   \
        case ::asdr::isa::Target::X86_64_V4:                               \
            [&]() __attribute__((target(ASDR_ISA_X86_64_V4_FEATURES))) {   \
                [[maybe_unused]] constexpr ::asdr::isa::Target T =         \
                    ::asdr::isa::Target::X86_64_V4;                        \
                call;                                                      \
            }();                                                           \
            break;                                                         \
        case ::asdr::isa::Target::X86_64_V3:                               \
            [&]() __attribute__((target(ASDR_ISA_X86_64_V3_FEATURES))) {   \
                [[maybe_unused]] constexpr ::asdr::isa::Target T =         \
                    ::asdr::isa::Target::X86_64_V3;                        \
                call;                                                      \
            }();                                                           \
            break;                                                         \
        default: {                                                         \
            [[maybe_unused]] constexpr ::asdr::isa::Target T =             \
                ::asdr::isa::Target::Default;                              \
            call;                                                          \
        }                                                                  \
        }                                                                  \
    } while (0)
#else
#define ASDR_ISA_HAS_X86_64_LEVELS 0
#define ASDR_ISA_DISPATCH(T, call)                                         \
    do {                                                                   \
        [[maybe_unused]] constexpr ::asdr::isa::Target T =                 \
            ::asdr::isa::Target::Default;                                  \
        call;                                                              \
    } while (0)
#endif

#endif // ASDR_UTIL_ISA_HPP
