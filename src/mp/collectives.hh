#pragma once

/**
 * @file
 * Software reductions and broadcasts for the message-passing machine.
 *
 * Neither simulated machine has reduction/broadcast hardware
 * (Section 4), so these operations run in software. Section 5.2
 * describes three implementations tried for Gauss, in increasing
 * order of performance:
 *
 *   - Flat: the initiator messages every other node (very slow).
 *   - Binary: a binary tree.
 *   - LopSided: the LogP-optimal skewed tree over active messages and
 *     channel-style bulk packets, which minimizes the effect of
 *     software send/receive overhead on the critical path.
 *
 * The lop-sided tree is built with the greedy LogP broadcast schedule
 * (Culler et al. [4]): every informed node keeps sending to the next
 * uninformed node; subtree shapes fall out of the overhead/latency
 * ratio.
 *
 * Bulk broadcasts are *pipelined*: interior nodes forward each packet
 * to their children as it arrives (cut-through), and the lop-sided
 * bulk tree is built with the per-packet software occupancy as the
 * LogP overhead, which makes it narrow and deep — sequential sends at
 * the root are what a bulk broadcast must avoid. broadcastInPlace()
 * returns the staging address so callers that consume the data
 * immediately (Gauss pivot rows) avoid a copy.
 */

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "mp/channel.hh"
#include "mp/cmmd.hh"

namespace wwt::mp
{

/** Which software tree the collectives use. */
enum class TreeKind : std::uint8_t { Flat, Binary, LopSided };

/** Reduction operators. */
enum class RedOp : std::uint8_t { Sum, Max, MaxLoc };

/**
 * A broadcast/reduction tree over virtual ranks 0..P-1 (rooted at
 * virtual rank 0); physical roots are handled by relabeling.
 */
class CommTree
{
  public:
    /**
     * @param nprocs tree size.
     * @param kind shape.
     * @param send_oh per-message software send overhead (LogP o).
     * @param latency network latency (LogP L).
     */
    CommTree(std::size_t nprocs, TreeKind kind, Cycle send_oh,
             Cycle latency);

    std::size_t size() const { return parent_.size(); }

    /** Virtual parent of virtual rank @p v (rank 0 returns 0). */
    std::size_t parent(std::size_t v) const { return parent_[v]; }

    /** Virtual children of @p v, in send order. */
    const std::vector<std::size_t>&
    children(std::size_t v) const
    {
        return children_[v];
    }

    /** Map a physical node to its virtual rank for root @p root. */
    std::size_t
    toVirtual(NodeId phys, NodeId root) const
    {
        return (phys + size() - root) % size();
    }

    /** Map a virtual rank back to a physical node for root @p root. */
    NodeId
    toPhysical(std::size_t virt, NodeId root) const
    {
        return static_cast<NodeId>((virt + root) % size());
    }

    /** Longest root-to-leaf path (tests/diagnostics). */
    std::size_t depth() const;

  private:
    std::vector<std::size_t> parent_;
    std::vector<std::vector<std::size_t>> children_;
};

/** Per-node collective-operation endpoint. */
class Collectives
{
  public:
    /** Maximum bulk-broadcast payload (staging buffer size). */
    static constexpr std::size_t kMaxBcastBytes = 64 * 1024;

    /** Most processors broadcastInPlace() serves: the bulk packet
     *  header carries the root in a 7-bit field. */
    static constexpr std::size_t kMaxBcastProcs = 128;

    /**
     * Throw std::invalid_argument unless broadcastInPlace() can serve
     * @p nprocs processors. Programs that use it call this before the
     * run.
     */
    static void requireBcastProcs(std::size_t nprocs);

    Collectives(sim::Processor& p, ActiveMessages& am, MpMemory& mem,
                const core::MachineConfig& cfg, std::size_t nprocs,
                TreeKind kind);

    /**
     * Combine @p v across all nodes; every node gets the result.
     * All nodes must call collectives in the same order (SPMD).
     */
    double allReduce(double v, RedOp op);

    /**
     * Max-with-location: returns the maximum @p v and the @p loc tag
     * of the node holding it (ties to the smallest loc).
     */
    std::pair<double, std::uint32_t> allReduceMaxLoc(double v,
                                                     std::uint32_t loc);

    /**
     * Broadcast @p nbytes (multiple of 4, at most kMaxBcastBytes)
     * starting at @p src on @p root.
     * @return where the payload lives on this node: @p src on the
     *         root, the staging buffer elsewhere. Valid until the
     *         next-but-one broadcast.
     */
    Addr broadcastInPlace(Addr src, std::size_t nbytes, NodeId root);

    /** Broadcast one double from @p root (active messages only). */
    double broadcastValue(double v, NodeId root);

    const CommTree& tree() const { return tree_; }
    TreeKind kind() const { return kind_; }

  private:
    struct RedSlot {
        double acc = 0;
        std::uint32_t loc = 0;
        std::uint32_t arrived = 0;
        bool resultReady = false;
        double result = 0;
        std::uint32_t resultLoc = 0;
        bool inited = false;
    };

    RedSlot& redSlot(std::uint32_t epoch, RedOp op);
    static void combine(RedSlot& s, RedOp op, double v,
                        std::uint32_t loc);

    void onUp(NodeId src, const AmArgs& args);
    void onDown(NodeId src, const AmArgs& args);
    void onBval(NodeId src, const AmArgs& args);
    void onBulk(NodeId src, const AmArgs& args);

    /** Stream @p nbytes to @p dest as bulk packets (channel costs). */
    void sendBulk(NodeId dest, NodeId root, std::uint32_t epoch8,
                  Addr src, std::size_t nbytes);

    Addr stagingSlot(std::uint32_t epoch8);

    sim::Processor& p_;
    ActiveMessages& am_;
    MpMemory& mem_;
    const core::MachineConfig& cfg_;
    std::size_t nprocs_;
    TreeKind kind_;
    CommTree tree_;

    CommTree bulkTree_; ///< shaped by per-packet occupancy

    std::uint32_t upHandler_;
    std::uint32_t downHandler_;
    std::uint32_t bvalHandler_;
    std::uint32_t bulkHandler_;

    std::uint32_t redEpoch_ = 0;
    std::uint32_t bvalEpoch_ = 0;
    std::uint64_t bcastEpoch_ = 0;
    std::unordered_map<std::uint32_t, RedSlot> redSlots_;
    std::unordered_map<std::uint32_t, RedSlot> bvalSlots_;
    std::unordered_map<std::uint32_t, std::uint64_t> bulkGot_;
    Addr staging_ = 0; ///< two slots of kMaxBcastBytes, lazily made
};

} // namespace wwt::mp
