#pragma once

/**
 * @file
 * EM3D: electromagnetic-wave propagation on a bipartite graph
 * (Section 5.3, after the Split-C version of Culler et al.).
 *
 * E nodes are updated from the weighted sum of neighboring H nodes and
 * vice versa, for a fixed number of half-step pairs. Edges are
 * generated randomly; a parameter controls how many point to remote
 * graph nodes (the paper: 1000 E + 1000 H per processor, degree 10,
 * 20% remote, 50 iterations). Remote edges target ring-neighbor
 * processors, matching the paper's observed per-processor channel
 * write counts (~2 communication partners per node).
 *
 * EM3D-MP shadows every remote source with a *ghost node* (one per
 * remote edge); before each half-step a processor sends, in one bulk
 * channel transfer per consumer, the values its neighbors' ghosts
 * need — removing all communication from the compute loop. EM3D-SM
 * has no ghosts: caching provides the copies, at the cost of the
 * 4-message invalidate/request/reply pattern per update. Its values
 * live in separate dense vectors (the paper's spatial-locality
 * optimization), and its graph build updates remote in-edge counts
 * and pointers under locks — the source of the large initialization
 * synchronization time in Table 14.
 *
 * The update rule is affine (new = 0.2 + weighted sum with contracting
 * weights) so both versions converge to the same fixed point and can
 * be cross-checked.
 */

#include <cstdint>
#include <vector>

#include "mp/mp_machine.hh"
#include "sm/sm_machine.hh"

namespace wwt::apps
{

/** EM3D workload parameters (defaults = the paper's run). */
struct Em3dParams {
    std::size_t nodesPerProc = 1000; ///< E nodes (and H nodes) per proc
    std::size_t degree = 10;         ///< out-edges per node
    unsigned pctRemote = 20;         ///< % of edges leaving the proc
    unsigned remoteSpan = 1;         ///< remote targets within +-span
    std::size_t iters = 50;
    std::uint64_t seed = 42;
    Cycle edgeCycles = 26;  ///< modeled cycles per edge visit
    Cycle nodeCycles = 10;  ///< modeled cycles per node update
    Cycle initEdgeCycles = 250; ///< graph-build cost per edge (pointer
                               ///  structures, allocation, rng)
    /**
     * Section 5.3.4 extension: replace invalidation-based sharing of
     * the value vectors with a bulk-update protocol (Falsafi et al.
     * [6]) — producers push new values straight into consumers'
     * caches after each half-step, eliminating the 4-message
     * invalidate/request/reply pattern. SM version only.
     */
    bool smBulkUpdate = false;
};

/** One directed edge of the bipartite graph. */
struct Em3dEdge {
    NodeId sp;        ///< source proc
    std::uint32_t si; ///< source node index on sp
    NodeId tp;        ///< target proc
    std::uint32_t ti; ///< target node index on tp
    double w;         ///< edge weight
};

/** The full (host-side) problem description, shared by both builds. */
struct Em3dGraph {
    std::size_t P, nNodes, degree;
    std::vector<Em3dEdge> eToH; ///< E sources feeding H sinks
    std::vector<Em3dEdge> hToE; ///< H sources feeding E sinks

    /** Generate deterministically from @p params for @p nprocs. */
    static Em3dGraph make(const Em3dParams& params, std::size_t nprocs);
};

/**
 * One direction's edge list partitioned by producer, built once on the
 * host before a run so that each processor walks only its own edges:
 * O(E) host work in all, where filtering the global list per processor
 * and partner would cost O(P^2 E). The out, local and group lists hold
 * indices into `edges`, ascending, so a walk visits edges in the
 * global order the simulated accesses follow.
 */
struct Em3dPartition {
    const std::vector<Em3dEdge>& edges;
    /** out[p]: edges with sp == p. */
    std::vector<std::vector<std::uint32_t>> out;
    /** local[p]: edges with sp == tp == p. */
    std::vector<std::vector<std::uint32_t>> local;
    /** group[p][q]: edges p streams to q (p != q). */
    std::vector<std::vector<std::vector<std::uint32_t>>> group;
    /** send[p][q]: source node index of each edge in group[p][q] --
     *  the values p gathers for q every half-step. */
    std::vector<std::vector<std::vector<std::uint32_t>>> send;
    /** ghostBase[q][p]: first ghost slot of producer p on q (MP). */
    std::vector<std::vector<std::size_t>> ghostBase;
    std::vector<std::size_t> ghostTotal; ///< remote in-edges per proc
    std::vector<std::size_t> inTotal;    ///< all in-edges per proc

    Em3dPartition(const std::vector<Em3dEdge>& edges, std::size_t nprocs);
};

/** Result of one EM3D run. */
struct Em3dResult {
    std::vector<double> eVals; ///< final E values, all procs
    std::vector<double> hVals; ///< final H values, all procs
    double checksum = 0;
};

/** Run EM3D on the message-passing machine (EM3D-MP). */
Em3dResult runEm3dMp(mp::MpMachine& m, const Em3dParams& p);

/** Run EM3D on the shared-memory machine (EM3D-SM). */
Em3dResult runEm3dSm(sm::SmMachine& m, const Em3dParams& p);

} // namespace wwt::apps
