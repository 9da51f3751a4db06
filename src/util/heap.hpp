/**
 * @file
 * Host heap policy for processes that run one System after another.
 *
 * A run allocates tens of MB of per-frame metadata (PhysicalMemory and
 * its buddy allocator) and initializes all of it. glibc's default
 * thresholds give that memory back to the kernel when the run frees
 * it, unless some small block happens to sit above it in the heap, so
 * whether the next run in the same process (a sweep worker's next job,
 * a benchmark's next slice) page-faults it in again depends on heap
 * layout. Keeping freed memory mapped makes every later set-up reuse
 * it instead.
 */

#pragma once

namespace pccsim::util {

/**
 * Keep freed heap memory mapped for reuse: blocks up to 32 MiB (glibc's
 * ceiling) come from the heap, and the heap is trimmed only once more
 * than 256 MiB of it is free. Process-wide, idempotent, and a no-op
 * outside glibc.
 */
void retainFreedHeap();

} // namespace pccsim::util
