/**
 * @file
 * Integration tests for the EM3D pair: graph generation invariants,
 * value agreement between versions, and the paper's qualitative
 * results (MP beats SM at 256 KB; bigger caches and local allocation
 * close the gap).
 */

#include <string>

#include <gtest/gtest.h>

#include "apps/em3d.hh"
#include "core/report.hh"

using namespace wwt;
using namespace wwt::apps;

namespace
{

Em3dParams
tinyParams()
{
    Em3dParams p;
    p.nodesPerProc = 64;
    p.degree = 4;
    p.pctRemote = 25;
    p.iters = 10;
    return p;
}

/** Cross traffic sparse enough that, at 8 processors, make() has to
 *  append closure edges in both directions. */
Em3dParams
sparseParams()
{
    Em3dParams p = tinyParams();
    p.nodesPerProc = 16;
    p.degree = 2;
    p.pctRemote = 5;
    return p;
}

core::MachineConfig
cfg(std::size_t nprocs)
{
    core::MachineConfig c;
    c.nprocs = nprocs;
    return c;
}

} // namespace

TEST(Em3dGraph, DeterministicAndComplete)
{
    Em3dParams p = tinyParams();
    Em3dGraph a = Em3dGraph::make(p, 4);
    Em3dGraph b = Em3dGraph::make(p, 4);
    EXPECT_EQ(a.eToH.size(), b.eToH.size());
    EXPECT_GE(a.eToH.size(), 4u * 64 * 4);
    // Every edge well-formed.
    for (const auto& e : a.hToE) {
        EXPECT_LT(e.sp, 4u);
        EXPECT_LT(e.tp, 4u);
        EXPECT_LT(e.si, 64u);
        EXPECT_LT(e.ti, 64u);
        EXPECT_GT(e.w, 0.0);
    }
}

TEST(Em3dGraph, RemoteEdgesStayInSpan)
{
    Em3dParams p = tinyParams();
    Em3dGraph g = Em3dGraph::make(p, 8);
    for (const auto& e : g.eToH) {
        std::size_t d = (e.sp + 8 - e.tp) % 8;
        d = std::min(d, 8 - d);
        EXPECT_LE(d, 1u);
    }
}

TEST(Em3dGraph, TrafficClosureHolds)
{
    // If p's H values flow to q, q's E values must flow to p (the
    // static-channel safety property).
    Em3dGraph g = Em3dGraph::make(sparseParams(), 8);
    std::vector<char> he(64, 0), eh(64, 0);
    for (const auto& e : g.hToE)
        if (e.sp != e.tp)
            he[e.sp * 8 + e.tp] = 1;
    for (const auto& e : g.eToH)
        if (e.sp != e.tp)
            eh[e.sp * 8 + e.tp] = 1;
    for (int a = 0; a < 8; ++a) {
        for (int b = 0; b < 8; ++b) {
            if (he[a * 8 + b])
                EXPECT_TRUE(eh[b * 8 + a]) << a << "->" << b;
            if (eh[a * 8 + b])
                EXPECT_TRUE(he[b * 8 + a]) << a << "->" << b;
        }
    }
}

TEST(Em3dGraph, PartitionCoversEveryEdgeOnce)
{
    // Each processor walks only its partition lists, so together they
    // must hold every edge of both directions exactly once, in global
    // order -- including the closure edges make() appends at the end.
    Em3dParams p = sparseParams();
    const std::size_t P = 8;
    Em3dGraph g = Em3dGraph::make(p, P);
    for (const auto* edges : {&g.hToE, &g.eToH}) {
        ASSERT_GT(edges->size(), P * p.nodesPerProc * p.degree)
            << "no closure edges to cover";
        Em3dPartition part(*edges, P);
        std::vector<int> inOut(edges->size(), 0);
        std::vector<int> inGroup(edges->size(), 0);
        auto walk = [&](const std::vector<std::uint32_t>& list,
                        std::vector<int>& seen, auto&& belongs) {
            for (std::size_t i = 0; i < list.size(); ++i) {
                ASSERT_LT(list[i], edges->size());
                if (i > 0) {
                    EXPECT_LT(list[i - 1], list[i]);
                }
                EXPECT_TRUE(belongs((*edges)[list[i]])) << list[i];
                seen[list[i]]++;
            }
        };
        for (NodeId sp = 0; sp < P; ++sp) {
            walk(part.out[sp], inOut,
                 [&](const Em3dEdge& e) { return e.sp == sp; });
            walk(part.local[sp], inGroup, [&](const Em3dEdge& e) {
                return e.sp == sp && e.tp == sp;
            });
            EXPECT_TRUE(part.group[sp][sp].empty());
            for (NodeId tp = 0; tp < P; ++tp) {
                const auto& group = part.group[sp][tp];
                walk(group, inGroup, [&](const Em3dEdge& e) {
                    return e.sp == sp && e.tp == tp && sp != tp;
                });
                // The half-step gather list follows the group.
                ASSERT_EQ(part.send[sp][tp].size(), group.size());
                for (std::size_t i = 0; i < group.size(); ++i)
                    EXPECT_EQ(part.send[sp][tp][i], (*edges)[group[i]].si);
            }
        }
        for (std::size_t k = 0; k < edges->size(); ++k) {
            EXPECT_EQ(inOut[k], 1) << "out lists, edge " << k;
            EXPECT_EQ(inGroup[k], 1) << "local/group lists, edge " << k;
        }
    }
}

/** EM3D at P processors: MP and SM compute the same values. */
class Em3dProcs : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(Em3dProcs, MpAndSmAgreeOnValues)
{
    // P > 96 puts CMMD senders past 0x60, where the old channel ids
    // ((sender << 8) | tag) landed on EM3D's static value streams.
    const std::size_t P = GetParam();
    Em3dParams p = tinyParams();
    p.iters = 3;
    mp::MpMachine mm(cfg(P));
    sm::SmMachine sm_(cfg(P));
    Em3dResult a = runEm3dMp(mm, p);
    Em3dResult b = runEm3dSm(sm_, p);
    ASSERT_EQ(a.eVals.size(), b.eVals.size());
    for (std::size_t i = 0; i < a.eVals.size(); ++i)
        EXPECT_NEAR(a.eVals[i], b.eVals[i], 1e-9) << "E " << i;
    for (std::size_t i = 0; i < a.hVals.size(); ++i)
        EXPECT_NEAR(a.hVals[i], b.hVals[i], 1e-9) << "H " << i;
}

INSTANTIATE_TEST_SUITE_P(
    Em3d, Em3dProcs, ::testing::Values(4, 33, 64, 97, 128),
    [](const ::testing::TestParamInfo<std::size_t>& info) {
        return "P" + std::to_string(info.param);
    });

TEST(Em3d, ValuesConvergeToFixedPoint)
{
    // The affine contraction converges: two different iteration
    // counts give (nearly) the same values. The per-step contraction
    // factor is ~0.68, so 30 iterations are within ~1e-5 of the
    // fixed point.
    Em3dParams p1 = tinyParams();
    p1.iters = 30;
    Em3dParams p2 = p1;
    p2.iters = 2 * p1.iters;
    mp::MpMachine m1(cfg(4)), m2(cfg(4));
    Em3dResult a = runEm3dMp(m1, p1);
    Em3dResult b = runEm3dMp(m2, p2);
    EXPECT_NEAR(a.checksum, b.checksum, 1e-4 * std::abs(a.checksum));
}

TEST(Em3d, SmInitUsesLocksAndBarriers)
{
    sm::SmMachine m(cfg(4));
    runEm3dSm(m, tinyParams());
    auto rep = core::collectReport(m.engine(), {"Init", "Main"});
    EXPECT_GT(rep.cycles(stats::Category::Lock, 0), 0.0);
    EXPECT_GT(rep.counts(0).lockAcquires, 0u);
    // The main loop uses barriers but no locks.
    EXPECT_EQ(rep.cycles(stats::Category::Lock, 1), 0.0);
    EXPECT_GT(rep.cycles(stats::Category::Barrier, 1), 0.0);
}

TEST(Em3d, MpCommunicatesInBulk)
{
    mp::MpMachine m(cfg(4));
    Em3dParams p = tinyParams();
    runEm3dMp(m, p);
    auto rep = core::collectReport(m.engine(), {"Init", "Main"});
    auto counts = rep.counts(1);
    // Main loop: channel writes only (ghost updates), no sends.
    EXPECT_GT(counts.channelWrites, 0u);
    // ~2 partners x 2 half-steps x iters per proc.
    double per_proc = rep.perProc(counts.channelWrites);
    EXPECT_LE(per_proc, 2.5 * 2 * p.iters);
    EXPECT_GT(counts.bytesData, 0u);
}

TEST(Em3d, MpFasterThanSmAtPaperCacheSize)
{
    // Table 12 vs 14: EM3D-MP is about 2x faster overall.
    Em3dParams p = tinyParams();
    p.nodesPerProc = 256;
    p.degree = 8;
    p.iters = 10;
    mp::MpMachine mm(cfg(4));
    sm::SmMachine sm_(cfg(4));
    runEm3dMp(mm, p);
    runEm3dSm(sm_, p);
    Cycle mp_t = mm.engine().elapsed();
    Cycle sm_t = sm_.engine().elapsed();
    EXPECT_LT(mp_t, sm_t);
}

TEST(Em3d, LocalAllocationHelpsSm)
{
    // The local-allocation win (Table 17) comes from capacity misses
    // to one's *own* graph data being serviced by a remote home under
    // round-robin gmalloc, so the per-processor working set must
    // exceed the 256 KB cache.
    Em3dParams p = tinyParams();
    p.nodesPerProc = 1000;
    p.degree = 10;
    p.pctRemote = 20;
    p.iters = 15;
    core::MachineConfig rr = cfg(4);
    core::MachineConfig local = cfg(4);
    local.allocPolicy = mem::AllocPolicy::Local;

    sm::SmMachine m1(rr), m2(local);
    runEm3dSm(m1, p);
    runEm3dSm(m2, p);
    auto rep_rr = core::collectReport(m1.engine(), {"Init", "Main"});
    auto rep_lo = core::collectReport(m2.engine(), {"Init", "Main"});
    // Remote shared misses drop sharply under local homing.
    EXPECT_LT(rep_lo.counts(1).sharedMissRemote,
              rep_rr.counts(1).sharedMissRemote / 2);
    EXPECT_LT(m2.engine().elapsed(), m1.engine().elapsed());
}
