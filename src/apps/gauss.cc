#include "apps/gauss.hh"

#include <cassert>
#include <cmath>
#include <stdexcept>

#include "apps/common.hh"

namespace wwt::apps
{

namespace
{

/** Deterministic matrix entry for global row r. */
void
fillRow(std::size_t r, std::size_t n, std::uint64_t seed,
        std::vector<double>& out)
{
    Rng rng(seed * 1000003ull + r);
    out.resize(n);
    for (std::size_t j = 0; j < n; ++j)
        out[j] = 2.0 * rng.uniform() - 1.0;
}

} // namespace

double
gaussKnownX(std::size_t i)
{
    return 1.0 + 0.25 * static_cast<double>(i % 7);
}

// ---------------------------------------------------------------------
// Gauss-MP
// ---------------------------------------------------------------------

GaussResult
runGaussMp(mp::MpMachine& m, const GaussParams& p)
{
    const std::size_t P = m.nprocs();
    const std::size_t n = p.n;
    if (n % P != 0)
        throw std::invalid_argument("n % nprocs != 0");
    mp::Collectives::requireBcastProcs(P); // pivot-row broadcasts
    const std::size_t myRows = n / P;

    GaussResult res;
    res.x.assign(n, 0.0);

    m.run([&](mp::MpMachine::Node& nd) {
        NodeId me = nd.id;
        auto& mem = nd.mem;

        // ---- Initialization: fill my rows, build the RHS ----
        Addr A = mem.alloc(myRows * n * 8, kBlockBytes);
        Addr b = mem.alloc(myRows * 8, kBlockBytes);
        std::vector<double> row;
        for (std::size_t lr = 0; lr < myRows; ++lr) {
            std::size_t r = me * myRows + lr;
            fillRow(r, n, p.seed, row);
            double rhs = 0;
            for (std::size_t j = 0; j < n; ++j) {
                mem.write<double>(A + (lr * n + j) * 8, row[j]);
                rhs += row[j] * gaussKnownX(j);
            }
            nd.charge(n * 4); // generate + accumulate
            mem.write<double>(b + lr * 8, rhs);
        }
        nd.barrier();
        nd.setPhase(1);

        // ---- Forward elimination ----
        std::vector<bool> used(myRows, false);
        std::vector<std::size_t> pivotColOf(myRows, 0);
        std::vector<NodeId> pivotOwner(n, 0);
        std::vector<std::size_t> ownerRowOf(n, 0); // valid on owner

        for (std::size_t k = 0; k < n; ++k) {
            // Local pivot candidate.
            double best = -1.0;
            std::size_t bestLr = 0;
            for (std::size_t lr = 0; lr < myRows; ++lr) {
                if (used[lr])
                    continue;
                double v =
                    std::fabs(mem.read<double>(A + (lr * n + k) * 8));
                nd.charge(3);
                if (v > best) {
                    best = v;
                    bestLr = lr;
                }
            }
            // The reduction carries the global row index; the owner
            // identifies itself from the result (Section 5.2).
            auto [pv, row32] = nd.coll.allReduceMaxLoc(
                best, static_cast<std::uint32_t>(me * myRows + bestLr));
            (void)pv;
            NodeId owner = static_cast<NodeId>(row32 / myRows);
            pivotOwner[k] = owner;

            double bPiv = 0;
            Addr src = 0;
            if (owner == me) {
                used[bestLr] = true;
                pivotColOf[bestLr] = k;
                ownerRowOf[k] = bestLr;
                bPiv = mem.read<double>(b + bestLr * 8);
                src = A + (bestLr * n + k) * 8;
            }
            bPiv = nd.coll.broadcastValue(bPiv, owner);
            Addr prow =
                nd.coll.broadcastInPlace(src, (n - k) * 8, owner);

            double pk = mem.read<double>(prow);
            nd.charge(2);
            for (std::size_t lr = 0; lr < myRows; ++lr) {
                if (used[lr])
                    continue;
                double aik = mem.read<double>(A + (lr * n + k) * 8);
                double factor = aik / pk;
                nd.charge(6);
                for (std::size_t j = k; j < n; ++j) {
                    double av =
                        mem.read<double>(A + (lr * n + j) * 8);
                    double pvj = mem.read<double>(prow + (j - k) * 8);
                    mem.write<double>(A + (lr * n + j) * 8,
                                      av - factor * pvj);
                }
                nd.charge((n - k) * p.elemCycles);
                double bv = mem.read<double>(b + lr * 8);
                mem.write<double>(b + lr * 8, bv - factor * bPiv);
                nd.charge(3);
            }
        }

        // ---- Backward substitution ----
        for (std::size_t k = n; k-- > 0;) {
            double xk = 0;
            if (pivotOwner[k] == me) {
                std::size_t lr = ownerRowOf[k];
                double denom =
                    mem.read<double>(A + (lr * n + k) * 8);
                xk = mem.read<double>(b + lr * 8) / denom;
                nd.charge(10);
            }
            xk = nd.coll.broadcastValue(xk, pivotOwner[k]);
            if (me == 0)
                res.x[k] = xk;
            for (std::size_t lr = 0; lr < myRows; ++lr) {
                if (pivotColOf[lr] >= k)
                    continue;
                double aik = mem.read<double>(A + (lr * n + k) * 8);
                double bv = mem.read<double>(b + lr * 8);
                mem.write<double>(b + lr * 8, bv - aik * xk);
                nd.charge(6);
            }
        }
        nd.barrier();
    });

    for (std::size_t i = 0; i < n; ++i) {
        res.maxErr = std::max(res.maxErr,
                              std::fabs(res.x[i] - gaussKnownX(i)));
    }
    return res;
}

// ---------------------------------------------------------------------
// Gauss-SM
// ---------------------------------------------------------------------

GaussResult
runGaussSm(sm::SmMachine& m, const GaussParams& p)
{
    const std::size_t P = m.nprocs();
    const std::size_t n = p.n;
    if (n % P != 0)
        throw std::invalid_argument("n % nprocs != 0");
    const std::size_t myRows = n / P;

    GaussResult res;
    res.x.assign(n, 0.0);

    Addr A = 0, b = 0, x = 0;

    m.run([&](sm::SmMachine::Node& nd) {
        NodeId me = nd.id;

        // ---- Initialization ----
        if (me == 0) {
            A = nd.gmalloc(n * n * 8, kBlockBytes);
            b = nd.gmalloc(n * 8, kBlockBytes);
            x = nd.gmalloc(n * 8, kBlockBytes);
        }
        nd.startupBarrier();

        std::vector<double> rowv;
        for (std::size_t lr = 0; lr < myRows; ++lr) {
            std::size_t r = me * myRows + lr;
            fillRow(r, n, p.seed, rowv);
            double rhs = 0;
            for (std::size_t j = 0; j < n; ++j) {
                nd.wr<double>(A + (r * n + j) * 8, rowv[j]);
                rhs += rowv[j] * gaussKnownX(j);
            }
            nd.charge(n * 4);
            nd.wr<double>(b + r * 8, rhs);
        }
        nd.barrier();
        nd.setPhase(1);

        // ---- Forward elimination ----
        std::vector<bool> used(myRows, false);
        std::vector<std::size_t> pivotColOf(myRows, 0);
        std::vector<NodeId> pivotOwner(n, 0);
        std::vector<std::size_t> ownerRowOf(n, 0);
        auto reduction =
            stats::lumpedAttribution(stats::Category::Reduction);

        for (std::size_t k = 0; k < n; ++k) {
            // The barrier makes sure every processor's elimination
            // writes from the previous column are complete before the
            // new pivot row is read (Section 5.2); it also absorbs
            // the elimination load imbalance.
            nd.barrier();

            double best = -1.0;
            std::size_t bestLr = 0;
            for (std::size_t lr = 0; lr < myRows; ++lr) {
                if (used[lr])
                    continue;
                std::size_t r = me * myRows + lr;
                double v =
                    std::fabs(nd.rd<double>(A + (r * n + k) * 8));
                nd.charge(3);
                if (v > best) {
                    best = v;
                    bestLr = lr;
                }
            }
            // The reduction carries the global row index.
            auto [pv, row64] = nd.reduceMaxLoc(
                best, me * myRows + bestLr, reduction);
            (void)pv;
            std::size_t prow_g = static_cast<std::size_t>(row64);
            NodeId owner = static_cast<NodeId>(prow_g / myRows);
            pivotOwner[k] = owner;
            if (owner == me) {
                used[bestLr] = true;
                pivotColOf[bestLr] = k;
                ownerRowOf[k] = bestLr;
            }
            // Shared memory "broadcasts" the pivot row by letting all
            // processors read it in place.
            Addr prow = A + prow_g * n * 8;
            double bPiv = nd.rd<double>(b + prow_g * 8);
            double pk = nd.rd<double>(prow + k * 8);
            nd.charge(2);
            for (std::size_t lr = 0; lr < myRows; ++lr) {
                if (used[lr])
                    continue;
                std::size_t r = me * myRows + lr;
                double aik = nd.rd<double>(A + (r * n + k) * 8);
                double factor = aik / pk;
                nd.charge(6);
                for (std::size_t j = k; j < n; ++j) {
                    double av = nd.rd<double>(A + (r * n + j) * 8);
                    double pvj = nd.rd<double>(prow + j * 8);
                    nd.wr<double>(A + (r * n + j) * 8,
                                  av - factor * pvj);
                }
                nd.charge((n - k) * p.elemCycles);
                double bv = nd.rd<double>(b + r * 8);
                nd.wr<double>(b + r * 8, bv - factor * bPiv);
                nd.charge(3);
            }
        }

        // ---- Backward substitution ----
        for (std::size_t k = n; k-- > 0;) {
            if (pivotOwner[k] == me) {
                std::size_t r = me * myRows + ownerRowOf[k];
                double denom = nd.rd<double>(A + (r * n + k) * 8);
                double xk = nd.rd<double>(b + r * 8) / denom;
                nd.charge(10);
                nd.wr<double>(x + k * 8, xk);
            }
            nd.barrier();
            double xk = nd.rd<double>(x + k * 8);
            if (me == 0)
                res.x[k] = xk;
            for (std::size_t lr = 0; lr < myRows; ++lr) {
                if (pivotColOf[lr] >= k)
                    continue;
                std::size_t r = me * myRows + lr;
                double aik = nd.rd<double>(A + (r * n + k) * 8);
                double bv = nd.rd<double>(b + r * 8);
                nd.wr<double>(b + r * 8, bv - aik * xk);
                nd.charge(6);
            }
        }
        nd.barrier();
    });

    for (std::size_t i = 0; i < n; ++i) {
        res.maxErr = std::max(res.maxErr,
                              std::fabs(res.x[i] - gaussKnownX(i)));
    }
    return res;
}

} // namespace wwt::apps
