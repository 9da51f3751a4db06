#include "util/heap.hpp"

#include <mutex>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

namespace pccsim::util {

void
retainFreedHeap()
{
#if defined(__GLIBC__)
    static std::once_flag once;
    std::call_once(once, [] {
        mallopt(M_MMAP_THRESHOLD, 32 << 20);
        mallopt(M_TRIM_THRESHOLD, 256 << 20);
    });
#endif
}

} // namespace pccsim::util
