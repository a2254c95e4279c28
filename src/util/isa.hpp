/**
 * @file
 * Runtime ISA dispatch for the hot kernels (hash-grid encode and the
 * batched MLP forward). A dispatched function keeps ONE kernel body --
 * an always-inline function -- and calls it through ASDR_ISA_DISPATCH,
 * which inlines it into two entry points: the build's baseline ISA (the
 * "default" target) and x86-64-v3 (AVX2, FMA, BMI2). The best target
 * the CPU runs is detected once per process; a portable build thus runs
 * 8-wide lanes on any AVX2 host without -march=native.
 *
 * Contract: every target is bitwise equal to the scalar reference. The
 * build pins -ffp-contract=off, so no target fuses a*b + c into an FMA,
 * and the kernels vectorize only across independent points, so the
 * lane width never changes one point's sequence of roundings.
 *
 * Usage (the kernel returns void):
 *
 *     __attribute__((always_inline)) inline void kernel(args...) { ... }
 *     void entry(args...) { ASDR_ISA_DISPATCH(kernel(args...)); }
 *
 * On toolchains without the x86-64-v3 level (non-x86, or not GCC >= 12)
 * the macro is a plain call and only the default target exists.
 */

#ifndef ASDR_UTIL_ISA_HPP
#define ASDR_UTIL_ISA_HPP

#include <atomic>

namespace asdr::isa {

/** A compilation target of the dispatched kernels. */
enum class Target { Default = 0, X86_64_V3 = 1 };

/** "default" or "x86-64-v3" (bench-row provenance, test names). */
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
#define ASDR_ISA_HAS_X86_64_V3 1
// The v3 ISA extensions added to the build's own (an arch= string would
// clash with -march=native when inlining the kernel).
#define ASDR_ISA_DISPATCH(call)                                            \
    do {                                                                   \
        if (::asdr::isa::active() == ::asdr::isa::Target::X86_64_V3)       \
            [&]() __attribute__((target(                                   \
                "avx,avx2,fma,bmi,bmi2,f16c,lzcnt,movbe,xsave"))) {        \
                call;                                                      \
            }();                                                           \
        else                                                               \
            call;                                                          \
    } while (0)
#else
#define ASDR_ISA_HAS_X86_64_V3 0
#define ASDR_ISA_DISPATCH(call) call
#endif

#endif // ASDR_UTIL_ISA_HPP
