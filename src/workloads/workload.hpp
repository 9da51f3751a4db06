/**
 * @file
 * Workload interface: programs that allocate simulated memory and emit
 * a deterministic stream of memory accesses per lane (thread).
 *
 * A workload keeps its real data host-side; only the *addresses* of a
 * run are simulated, mirrored into the process heap allocated during
 * setup(). Every lane begins with an initialization phase that touches
 * its slice of the arrays sequentially — modelling program load/init
 * and establishing first-touch order (which greedy THP keys off).
 *
 * Lanes emit *batches*: a lane fills a caller-provided AccessBuffer
 * (structure-of-arrays: one address array, one kind array) and yields
 * once per full buffer or at stream events (barrier, end), instead of
 * suspending the coroutine once per access. The engine then consumes
 * the buffer in a tight loop. The op stream is identical to the old
 * one-AccessOp-per-yield protocol by construction — batching changes
 * only how many ops cross the coroutine boundary per suspend.
 */

#pragma once

#include <memory>
#include <string>
#include <vector>

#include "os/process.hpp"
#include "util/generator.hpp"
#include "util/log.hpp"
#include "util/types.hpp"

namespace pccsim::workloads {

/** One simulated operation yielded by a workload lane. */
enum class OpKind : u8
{
    Load = 0,
    Store = 1,
    /** Synchronization point: the lane must wait for all lanes. */
    Barrier = 2,
};

struct AccessOp
{
    Addr addr = 0;
    OpKind kind = OpKind::Load;
};

inline AccessOp
load(Addr addr)
{
    return {addr, OpKind::Load};
}

inline AccessOp
store(Addr addr)
{
    return {addr, OpKind::Store};
}

inline AccessOp
barrier()
{
    return {0, OpKind::Barrier};
}

/** Why a lane suspended back to the engine. */
enum class BatchEnd : u8
{
    /** Buffer filled (or flushed); consume ops and resume the lane. */
    Ops = 0,
    /** All buffered ops precede a barrier the lane must now wait at. */
    Barrier = 1,
};

/**
 * Reusable structure-of-arrays op buffer shared between one lane and
 * the engine. The lane pushes until full; the engine drains and
 * clears. Addresses and kinds live in separate contiguous arrays so
 * the consuming loop streams addresses without striding over kinds.
 */
class AccessBuffer
{
  public:
    explicit AccessBuffer(u32 capacity)
        : capacity_(capacity), addrs_(capacity), kinds_(capacity)
    {
        PCCSIM_ASSERT(capacity > 0);
    }

    /** True when the buffer is full after the push (time to yield). */
    bool
    pushLoad(Addr addr)
    {
        addrs_[size_] = addr;
        kinds_[size_] = static_cast<u8>(OpKind::Load);
        return ++size_ == capacity_;
    }

    /** True when the buffer is full after the push (time to yield). */
    bool
    pushStore(Addr addr)
    {
        addrs_[size_] = addr;
        kinds_[size_] = static_cast<u8>(OpKind::Store);
        return ++size_ == capacity_;
    }

    u32 size() const { return size_; }
    u32 capacity() const { return capacity_; }
    bool empty() const { return size_ == 0; }
    const Addr *addrs() const { return addrs_.data(); }
    const u8 *kinds() const { return kinds_.data(); }

    /** Engine side: mark the buffer consumed. */
    void clear() { size_ = 0; }

  private:
    u32 capacity_;
    u32 size_ = 0;
    std::vector<Addr> addrs_; //!< SoA: one address per op
    std::vector<u8> kinds_;   //!< SoA: OpKind per op (Load/Store only)
};

class Workload
{
  public:
    virtual ~Workload() = default;

    virtual std::string name() const = 0;

    /** Allocate simulated arrays in the process heap. Called once. */
    virtual void setup(os::Process &proc) = 0;

    /** Total simulated bytes allocated by setup(). */
    virtual u64 footprintBytes() const = 0;

    /**
     * The access stream of one lane, emitted in batches into `buf`.
     *
     * Protocol: the lane pushes ops into `buf`; when a push reports
     * the buffer full, the lane `co_yield BatchEnd::Ops`. At a
     * synchronization point it yields any buffered ops implicitly and
     * `co_yield BatchEnd::Barrier` (ops already in the buffer precede
     * the barrier). On return, any residual buffered ops are final.
     * After every yield the engine has drained and cleared `buf`.
     *
     * Lanes partition the work; lane ids are [0, num_lanes).
     * Single-threaded workloads support only num_lanes == 1.
     */
    virtual Generator<BatchEnd>
    batchLane(u32 lane, u32 num_lanes, AccessBuffer &buf) = 0;

    /**
     * The per-op view of the same stream, one AccessOp per yield.
     *
     * Drives batchLane() with a private buffer and re-emits each
     * buffered op individually, with a Barrier op at each
     * BatchEnd::Barrier. Produces exactly the op sequence batchLane()
     * pushed. The simulator never reads it; offline analyses (reuse
     * distance, hint classifiers) and the workload tests do, because
     * they inspect ops one at a time without simulating them.
     */
    Generator<AccessOp>
    lane(u32 lane, u32 num_lanes)
    {
        // The buffer must outlive every resume of the inner generator:
        // keep it on the adapter coroutine's own frame.
        AccessBuffer buf(kAdapterBatch);
        auto gen = batchLane(lane, num_lanes, buf);
        while (gen.next()) {
            const BatchEnd end = gen.value();
            for (u32 i = 0; i < buf.size(); ++i)
                co_yield AccessOp{buf.addrs()[i],
                                  static_cast<OpKind>(buf.kinds()[i])};
            buf.clear();
            if (end == BatchEnd::Barrier)
                co_yield barrier();
        }
        for (u32 i = 0; i < buf.size(); ++i)
            co_yield AccessOp{buf.addrs()[i],
                              static_cast<OpKind>(buf.kinds()[i])};
        buf.clear();
    }

    /** Largest lane count the workload can be split into. */
    virtual u32 maxLanes() const { return 1; }

  private:
    /** Buffer size for the per-op adapter; modest, it only batches
        between coroutine hops, not engine scheduling. */
    static constexpr u32 kAdapterBatch = 64;
};

using WorkloadPtr = std::unique_ptr<Workload>;

} // namespace pccsim::workloads
