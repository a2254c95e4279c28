#include "util/isa.hpp"

#include "util/logging.hpp"

namespace asdr::isa {

namespace detail {
std::atomic<int> pinned{-1};
} // namespace detail

const char *
name(Target t)
{
    return t == Target::X86_64_V3 ? "x86-64-v3" : "default";
}

bool
runs(Target t)
{
    if (t == Target::Default)
        return true;
#if ASDR_ISA_HAS_X86_64_V3
    // __builtin_cpu_init makes the query safe even from a static
    // initializer that runs before libgcc's own CPU detection.
    static const bool v3 = (__builtin_cpu_init(),
                            __builtin_cpu_supports("x86-64-v3") != 0);
    return v3;
#else
    return false;
#endif
}

Target
best()
{
    static const Target t =
        runs(Target::X86_64_V3) ? Target::X86_64_V3 : Target::Default;
    return t;
}

ScopedTarget::ScopedTarget(Target t)
    : prev_(detail::pinned.load(std::memory_order_relaxed))
{
    ASDR_ASSERT(runs(t), "cannot pin ISA target ", name(t),
                ": not compiled in or not supported by this CPU");
    detail::pinned.store(int(t), std::memory_order_relaxed);
}

ScopedTarget::~ScopedTarget()
{
    detail::pinned.store(prev_, std::memory_order_relaxed);
}

} // namespace asdr::isa
