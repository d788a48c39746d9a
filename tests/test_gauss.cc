/**
 * @file
 * Integration tests for the Gauss pair: both versions solve the
 * system (against the known solution), agree on pivots/solution, and
 * the collective ablation of Section 5.2 holds (lop-sided < binary <
 * flat for the MP version).
 */

#include <stdexcept>

#include <gtest/gtest.h>

#include "apps/gauss.hh"
#include "core/report.hh"

using namespace wwt;
using namespace wwt::apps;

namespace
{

GaussParams
tinyParams()
{
    GaussParams p;
    p.n = 64;
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

TEST(Gauss, MpSolvesSystem)
{
    mp::MpMachine m(cfg(4));
    GaussResult r = runGaussMp(m, tinyParams());
    EXPECT_LT(r.maxErr, 1e-8);
}

TEST(Gauss, SmSolvesSystem)
{
    sm::SmMachine m(cfg(4));
    GaussResult r = runGaussSm(m, tinyParams());
    EXPECT_LT(r.maxErr, 1e-8);
}

TEST(Gauss, MpAndSmComputeIdenticalSolutions)
{
    // Same matrix, same pivoting rule: the arithmetic is identical,
    // so the solutions must match bit for bit.
    mp::MpMachine mm(cfg(4));
    sm::SmMachine sm_(cfg(4));
    GaussResult a = runGaussMp(mm, tinyParams());
    GaussResult b = runGaussSm(sm_, tinyParams());
    ASSERT_EQ(a.x.size(), b.x.size());
    for (std::size_t i = 0; i < a.x.size(); ++i)
        EXPECT_EQ(a.x[i], b.x[i]) << i;
}

TEST(Gauss, WorksAcrossProcCounts)
{
    for (std::size_t P : {1u, 2u, 8u}) {
        GaussParams p;
        p.n = 32;
        mp::MpMachine m(cfg(P));
        GaussResult r = runGaussMp(m, p);
        EXPECT_LT(r.maxErr, 1e-8) << "P=" << P;
    }
    // Past 128 processors the pivot-row broadcast's 7-bit root field
    // overflows: refused before the run, not by a mid-run abort.
    GaussParams p;
    p.n = 256;
    mp::MpMachine m(cfg(256));
    EXPECT_THROW(runGaussMp(m, p), std::invalid_argument);
    EXPECT_EQ(m.engine().elapsed(), 0u);
}

TEST(Gauss, CommunicationIntensiveShape)
{
    // Section 5.2: Gauss-MP spends a large share of its time in the
    // software collectives (Lib Comp + Network Access), and Gauss-SM
    // pays in shared misses + synchronization; totals are close.
    mp::MpMachine mm(cfg(8));
    runGaussMp(mm, tinyParams());
    auto mp_rep = core::collectReport(mm.engine(), {"Init", "Solve"});

    sm::SmMachine sm_(cfg(8));
    runGaussSm(sm_, tinyParams());
    auto sm_rep = core::collectReport(sm_.engine(), {"Init", "Solve"});

    double mp_comm = mp_rep.cycles(stats::Category::LibComp, 1) +
                     mp_rep.cycles(stats::Category::LibMiss, 1) +
                     mp_rep.cycles(stats::Category::NetAccess, 1);
    EXPECT_GT(mp_comm / mp_rep.totalCycles(1), 0.2);

    double sm_sync = sm_rep.cycles(stats::Category::Reduction, 1) +
                     sm_rep.cycles(stats::Category::Barrier, 1);
    EXPECT_GT(sm_sync / sm_rep.totalCycles(1), 0.1);
    EXPECT_GT(sm_rep.cycles(stats::Category::SharedMiss, 1), 0.0);

    double ratio = mp_rep.totalCycles() / sm_rep.totalCycles();
    EXPECT_GT(ratio, 0.4);
    EXPECT_LT(ratio, 2.5);
}

TEST(Gauss, CollectiveAblationOrdering)
{
    // Paper: flat 119.3M > binary 40.9M > lop-sided 30.1M cycles for
    // the collectives; the total run time must order the same way.
    // Tree shape matters at scale; the paper measured 32 processors.
    auto elapsed = [&](mp::TreeKind k) {
        mp::MpMachine m(cfg(32), k);
        GaussParams p;
        p.n = 64;
        runGaussMp(m, p);
        return m.engine().elapsed();
    };
    Cycle flat = elapsed(mp::TreeKind::Flat);
    Cycle binary = elapsed(mp::TreeKind::Binary);
    Cycle lop = elapsed(mp::TreeKind::LopSided);
    EXPECT_LT(lop, binary);
    EXPECT_LT(binary, flat);
}

TEST(Gauss, ChannelWritesScaleWithColumns)
{
    // One pivot-row broadcast per column; interior tree nodes forward,
    // so per-processor channel writes are on the order of n.
    mp::MpMachine m(cfg(8));
    GaussParams p;
    p.n = 64;
    runGaussMp(m, p);
    auto rep = core::collectReport(m.engine());
    double cw = rep.perProc(rep.counts().channelWrites);
    EXPECT_GT(cw, 10.0);
    EXPECT_LT(cw, 4.0 * p.n);
}
