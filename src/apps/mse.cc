#include "apps/mse.hh"

#include <cassert>
#include <cmath>
#include <stdexcept>

#include "apps/common.hh"

namespace wwt::apps
{

namespace
{

constexpr double kEps = 0.05;

/** Geometry and schedule logic shared by both MSE versions. */
struct MseProblem {
    std::size_t N, M, NM, P, perProc;
    const MseParams& p;

    MseProblem(const MseParams& params, std::size_t nprocs)
        : N(params.bodies), M(params.elemsPerBody), NM(N * M), P(nprocs),
          perProc(N / nprocs), p(params)
    {
        if (N % nprocs != 0)
            throw std::invalid_argument("bodies % nprocs != 0");
    }

    // --- geometry (pure functions of the element index) ---
    double
    px(std::size_t e) const
    {
        double th = 6.283185307179586 *
                    (bodyOf(e) + 0.5 * elemOf(e) / M) / N;
        return std::cos(th);
    }
    double
    py(std::size_t e) const
    {
        double th = 6.283185307179586 *
                    (bodyOf(e) + 0.5 * elemOf(e) / M) / N;
        return std::sin(th);
    }
    double
    w(std::size_t e) const
    {
        return 0.5 + 0.5 * (elemOf(e) + 1.0) / M;
    }

    std::size_t bodyOf(std::size_t e) const { return e / M; }
    std::size_t elemOf(std::size_t e) const { return e % M; }
    NodeId
    procOfBody(std::size_t b) const
    {
        return static_cast<NodeId>(b / perProc);
    }
    std::size_t firstBody(NodeId q) const { return q * perProc; }

    std::size_t
    ringDist(std::size_t a, std::size_t b) const
    {
        std::size_t d = a > b ? a - b : b - a;
        return std::min(d, N - d);
    }

    /** Exchange period for a body pair at ring distance d. */
    std::size_t
    period(std::size_t d) const
    {
        if (d <= p.nearDist)
            return 1;
        if (d <= p.midDist)
            return p.midPeriod;
        return p.farPeriod;
    }

    /** Fastest exchange period between body b and any body of proc r. */
    std::size_t
    minPeriodToProc(std::size_t b, NodeId r) const
    {
        std::size_t best = p.farPeriod;
        for (std::size_t a = firstBody(r); a < firstBody(r) + perProc;
             ++a) {
            best = std::min(best, period(ringDist(a, b)));
        }
        return best;
    }

    /** Bodies of q whose values proc r refreshes at iteration t. */
    std::vector<std::size_t>
    bodiesDue(NodeId q, NodeId r, std::size_t t) const
    {
        std::vector<std::size_t> due;
        for (std::size_t b = firstBody(q); b < firstBody(q) + perProc;
             ++b) {
            if (t % minPeriodToProc(b, r) == 0)
                due.push_back(b);
        }
        return due;
    }

    /** Kernel value between a target and source element. */
    double
    kernel(double tx, double ty, double sx, double sy, double sw) const
    {
        double dx = tx - sx, dy = ty - sy;
        return sw / (kEps + dx * dx + dy * dy);
    }
};

// Element-record layout: 64 bytes, two cache blocks. Block 0 is the
// streaming half read once per interaction; block 1 holds per-target
// state touched once per target per sweep.
constexpr Addr kOffPx = 0;
constexpr Addr kOffPy = 8;
constexpr Addr kOffX = 16;
constexpr Addr kOffW = 24;
constexpr Addr kOffB = 32;
constexpr Addr kOffDiag = 40;
constexpr std::size_t kRec = 64;

/** Reply channel id for sender q. */
std::uint32_t
replyChan(NodeId q)
{
    return mp::chan::kMseReply + q;
}

} // namespace

// ---------------------------------------------------------------------
// MSE-MP
// ---------------------------------------------------------------------

MseResult
runMseMp(mp::MpMachine& m, const MseParams& p)
{
    MseProblem g(p, m.nprocs());
    mp::chan::requireIds(mp::chan::kMseReply, g.P, "MSE-MP replies");
    std::vector<double> sol(g.NM, 0.0);

    struct NodeState {
        Addr rec = 0;
        Addr staging = 0;
    };
    std::vector<NodeState> st(g.P);

    m.run([&](mp::MpMachine::Node& n) {
        NodeId me = n.id;
        auto& mem = n.mem;

        // ---- Phase 0: initialization ----
        // Geometry setup runs (replicated) on every node.
        n.charge(p.geomInitCycles);

        Addr rec = mem.alloc(g.NM * kRec, kBlockBytes);
        Addr staging = mem.alloc(g.perProc * g.M * 8, kBlockBytes);
        st[me] = {rec, staging};

        for (std::size_t e = 0; e < g.NM; ++e) {
            mem.write<double>(rec + e * kRec + kOffPx, g.px(e));
            mem.poke<double>(rec + e * kRec + kOffPy, g.py(e));
            mem.poke<double>(rec + e * kRec + kOffX, 0.0);
            mem.poke<double>(rec + e * kRec + kOffW, g.w(e));
            n.charge(3); // three more stores to the same block
        }

        std::size_t e0 = g.firstBody(me) * g.M;
        std::size_t e1 = e0 + g.perProc * g.M;

        // b-pass: compute row sums, diagonals, and the RHS for my
        // elements (solution := all-ones).
        for (std::size_t t = e0; t < e1; ++t) {
            double tx = mem.read<double>(rec + t * kRec + kOffPx);
            double ty = mem.peek<double>(rec + t * kRec + kOffPy);
            n.charge(2);
            double row = 0;
            for (std::size_t sb = 0; sb < g.N; ++sb) {
                for (std::size_t j = 0; j < g.M; ++j) {
                    std::size_t s = sb * g.M + j;
                    if (s == t)
                        continue;
                    Addr a = rec + s * kRec;
                    double sx = mem.read<double>(a + kOffPx);
                    double sy = mem.peek<double>(a + kOffPy);
                    double sw = mem.peek<double>(a + kOffW);
                    row += g.kernel(tx, ty, sx, sy, sw);
                }
                n.charge(g.M * p.interactionCycles);
            }
            double diag = 1.2 * row + 1e-3;
            mem.write<double>(rec + t * kRec + kOffB, diag + row);
            mem.poke<double>(rec + t * kRec + kOffDiag, diag);
            n.charge(2);
        }

        // Request handler: gather the due bodies' values and stream
        // them back over the requester's reply channel.
        auto handler = n.am.registerHandler(
            [&, me](NodeId src, const mp::AmArgs& args) {
                std::size_t t = args[0];
                auto due = g.bodiesDue(me, src, t);
                n.charge(8 + 2 * due.size());
                Addr out = st[me].staging;
                std::size_t k = 0;
                for (std::size_t b : due) {
                    for (std::size_t j = 0; j < g.M; ++j, ++k) {
                        std::size_t e = b * g.M + j;
                        double x = n.mem.read<double>(
                            st[me].rec + e * kRec + kOffX);
                        n.mem.write<double>(out + k * 8, x);
                    }
                }
                n.chans.write(src, replyChan(me), out, k * 8);
            });
        (void)handler; // same id on every node (SPMD registration)

        Addr replyBuf = mem.alloc(g.P * g.perProc * g.M * 8, kBlockBytes);
        n.barrier();
        n.setPhase(1);

        // ---- Phase 1: main loop ----
        std::vector<double> newX(e1 - e0);
        for (std::size_t t = 1; t <= p.iters; ++t) {
            // Refresh remote values per the schedule: arm, request,
            // serve others while waiting, integrate replies.
            std::vector<std::size_t> cnt(g.P, 0);
            for (NodeId q = 0; q < g.P; ++q) {
                if (q == me)
                    continue;
                cnt[q] = g.bodiesDue(q, me, t).size();
                if (cnt[q]) {
                    n.chans.armRecv(replyChan(q),
                                    replyBuf + q * g.perProc * g.M * 8,
                                    cnt[q] * g.M * 8);
                }
            }
            for (NodeId q = 0; q < g.P; ++q) {
                if (q != me && cnt[q]) {
                    mp::AmArgs args{static_cast<std::uint32_t>(t)};
                    n.am.request(q, handler, args, 0);
                }
            }
            for (NodeId q = 0; q < g.P; ++q) {
                if (q == me || !cnt[q])
                    continue;
                n.chans.waitRecv(replyChan(q));
                auto due = g.bodiesDue(q, me, t);
                Addr in = replyBuf + q * g.perProc * g.M * 8;
                std::size_t k = 0;
                for (std::size_t b : due) {
                    for (std::size_t j = 0; j < g.M; ++j, ++k) {
                        double x = mem.read<double>(in + k * 8);
                        mem.write<double>(
                            rec + (b * g.M + j) * kRec + kOffX, x);
                    }
                }
                n.charge(4 * due.size());
            }

            // Jacobi sweep over my elements using the local copies.
            for (std::size_t te = e0; te < e1; ++te) {
                Addr ta = rec + te * kRec;
                double tx = mem.read<double>(ta + kOffPx);
                double ty = mem.peek<double>(ta + kOffPy);
                double b = mem.read<double>(ta + kOffB);
                double diag = mem.peek<double>(ta + kOffDiag);
                n.charge(3);
                double acc = 0;
                for (std::size_t sb = 0; sb < g.N; ++sb) {
                    for (std::size_t j = 0; j < g.M; ++j) {
                        std::size_t s = sb * g.M + j;
                        if (s == te)
                            continue;
                        Addr a = rec + s * kRec;
                        double sx = mem.read<double>(a + kOffPx);
                        double sy = mem.peek<double>(a + kOffPy);
                        double sw = mem.peek<double>(a + kOffW);
                        double x = mem.peek<double>(a + kOffX);
                        acc += g.kernel(tx, ty, sx, sy, sw) * x;
                    }
                    n.charge(g.M * p.interactionCycles);
                }
                newX[te - e0] = (b - acc) / diag;
            }
            for (std::size_t te = e0; te < e1; ++te)
                mem.write<double>(rec + te * kRec + kOffX,
                                  newX[te - e0]);
        }
        n.barrier();

        // Collect the solution (untimed).
        for (std::size_t te = e0; te < e1; ++te)
            sol[te] = mem.peek<double>(rec + te * kRec + kOffX);
    });

    MseResult r;
    r.solution = std::move(sol);
    for (double x : r.solution)
        r.maxErrFromOnes = std::max(r.maxErrFromOnes, std::abs(x - 1.0));
    return r;
}

// ---------------------------------------------------------------------
// MSE-SM
// ---------------------------------------------------------------------

MseResult
runMseSm(sm::SmMachine& m, const MseParams& p)
{
    MseProblem g(p, m.nprocs());
    std::vector<double> sol(g.NM, 0.0);
    Addr gx = 0; // global solution vector (shared)

    m.run([&](sm::SmMachine::Node& n) {
        NodeId me = n.id;
        auto& mem = n.mem;

        // ---- Phase 0: initialization ----
        // Node 0 performs the serial geometry setup and creates the
        // global solution vector; the rest idle (Start-up Wait).
        if (me == 0) {
            n.charge(p.geomInitCycles);
            gx = n.gmalloc(g.NM * 8, kBlockBytes);
            for (std::size_t e = 0; e < g.NM; ++e)
                n.wr<double>(gx + e * 8, 0.0);
        }
        n.startupBarrier();

        // Every node keeps private geometry (positions, weights, RHS).
        Addr rec = n.lmalloc(g.NM * kRec, kBlockBytes);
        for (std::size_t e = 0; e < g.NM; ++e) {
            mem.write<double>(rec + e * kRec + kOffPx, g.px(e));
            mem.poke<double>(rec + e * kRec + kOffPy, g.py(e));
            mem.poke<double>(rec + e * kRec + kOffX, 0.0);
            mem.poke<double>(rec + e * kRec + kOffW, g.w(e));
            n.charge(3);
        }

        std::size_t e0 = g.firstBody(me) * g.M;
        std::size_t e1 = e0 + g.perProc * g.M;

        for (std::size_t t = e0; t < e1; ++t) {
            double tx = mem.read<double>(rec + t * kRec + kOffPx);
            double ty = mem.peek<double>(rec + t * kRec + kOffPy);
            n.charge(2);
            double row = 0;
            for (std::size_t sb = 0; sb < g.N; ++sb) {
                for (std::size_t j = 0; j < g.M; ++j) {
                    std::size_t s = sb * g.M + j;
                    if (s == t)
                        continue;
                    Addr a = rec + s * kRec;
                    double sx = mem.read<double>(a + kOffPx);
                    double sy = mem.peek<double>(a + kOffPy);
                    double sw = mem.peek<double>(a + kOffW);
                    row += g.kernel(tx, ty, sx, sy, sw);
                }
                n.charge(g.M * p.interactionCycles);
            }
            double diag = 1.2 * row + 1e-3;
            mem.write<double>(rec + t * kRec + kOffB, diag + row);
            mem.poke<double>(rec + t * kRec + kOffDiag, diag);
            n.charge(2);
        }

        // The single barrier between initialization and main loop
        // the paper describes for MSE-SM.
        n.barrier();
        n.setPhase(1);

        // ---- Phase 1: main loop ----
        // Publish period of one of my bodies: the fastest schedule of
        // any foreign processor interested in it.
        auto pubPeriod = [&](std::size_t b) {
            std::size_t best = p.farPeriod;
            for (NodeId r = 0; r < g.P; ++r) {
                if (r != me)
                    best = std::min(best, g.minPeriodToProc(b, r));
            }
            return best;
        };

        std::vector<double> newX(e1 - e0);
        for (std::size_t t = 1; t <= p.iters; ++t) {
            // Refresh the private copies of foreign values from the
            // shared solution vector, per the schedule — the SM
            // analogue of MSE-MP's request/reply exchange. The shared
            // misses this takes are the program's communication.
            for (NodeId q = 0; q < g.P; ++q) {
                if (q == me)
                    continue;
                for (std::size_t b : g.bodiesDue(q, me, t)) {
                    for (std::size_t j = 0; j < g.M; ++j) {
                        std::size_t e = b * g.M + j;
                        double x = n.rd<double>(gx + e * 8);
                        mem.write<double>(rec + e * kRec + kOffX, x);
                    }
                    n.charge(3 * g.M);
                }
            }

            for (std::size_t te = e0; te < e1; ++te) {
                Addr ta = rec + te * kRec;
                double tx = mem.read<double>(ta + kOffPx);
                double ty = mem.peek<double>(ta + kOffPy);
                double b = mem.read<double>(ta + kOffB);
                double diag = mem.peek<double>(ta + kOffDiag);
                n.charge(3);
                double acc = 0;
                for (std::size_t sb = 0; sb < g.N; ++sb) {
                    for (std::size_t j = 0; j < g.M; ++j) {
                        std::size_t s = sb * g.M + j;
                        if (s == te)
                            continue;
                        Addr a = rec + s * kRec;
                        double sx = mem.read<double>(a + kOffPx);
                        double sy = mem.peek<double>(a + kOffPy);
                        double sw = mem.peek<double>(a + kOffW);
                        double x = mem.peek<double>(a + kOffX);
                        acc += g.kernel(tx, ty, sx, sy, sw) * x;
                    }
                    n.charge(g.M * p.interactionCycles);
                }
                newX[te - e0] = (b - acc) / diag;
            }
            for (std::size_t te = e0; te < e1; ++te)
                mem.write<double>(rec + te * kRec + kOffX,
                                  newX[te - e0]);
            // Publish my bodies per the schedule.
            for (std::size_t b = g.firstBody(me);
                 b < g.firstBody(me) + g.perProc; ++b) {
                if (t % pubPeriod(b) != 0)
                    continue;
                for (std::size_t j = 0; j < g.M; ++j) {
                    std::size_t e = b * g.M + j;
                    double x =
                        mem.read<double>(rec + e * kRec + kOffX);
                    n.wr<double>(gx + e * 8, x);
                }
            }
        }
        n.barrier();

        for (std::size_t te = e0; te < e1; ++te)
            sol[te] = mem.peek<double>(rec + te * kRec + kOffX);
    });

    MseResult r;
    r.solution = std::move(sol);
    for (double x : r.solution)
        r.maxErrFromOnes = std::max(r.maxErrFromOnes, std::abs(x - 1.0));
    return r;
}

} // namespace wwt::apps
