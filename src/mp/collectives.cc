#include "mp/collectives.hh"

#include <cassert>
#include <limits>
#include <queue>
#include <stdexcept>
#include <string>

namespace wwt::mp
{

namespace
{

/** RAII guard recording a collective as an op span when tracing. */
struct OpTrace {
    OpTrace(sim::Processor& p, trace::OpKind k)
        : p_(p), kind_(k), t0_(p.now())
    {
    }
    ~OpTrace()
    {
        if (trace::Tracer* tr = p_.tracer())
            tr->op(p_.id(), kind_, t0_, p_.now());
    }
    OpTrace(const OpTrace&) = delete;
    OpTrace& operator=(const OpTrace&) = delete;

    sim::Processor& p_;
    trace::OpKind kind_;
    Cycle t0_;
};

} // namespace

// --------------------------------------------------------------------
// CommTree
// --------------------------------------------------------------------

CommTree::CommTree(std::size_t nprocs, TreeKind kind, Cycle send_oh,
                   Cycle latency)
    : parent_(nprocs, 0), children_(nprocs)
{
    if (nprocs == 0)
        throw std::invalid_argument("CommTree needs nodes");

    switch (kind) {
      case TreeKind::Flat:
        for (std::size_t v = 1; v < nprocs; ++v)
            children_[0].push_back(v);
        break;

      case TreeKind::Binary:
        for (std::size_t v = 1; v < nprocs; ++v) {
            parent_[v] = (v - 1) / 2;
            children_[parent_[v]].push_back(v);
        }
        break;

      case TreeKind::LopSided: {
        // Greedy LogP broadcast schedule: each informed node keeps
        // sending to the next uninformed rank; a message occupies the
        // sender for send_oh cycles and informs the receiver
        // send_oh + latency + send_oh cycles after the send starts.
        using Avail = std::pair<Cycle, std::size_t>; // (free time, rank)
        std::priority_queue<Avail, std::vector<Avail>,
                            std::greater<Avail>> free;
        free.emplace(0, 0);
        for (std::size_t next = 1; next < nprocs; ++next) {
            auto [t, sender] = free.top();
            free.pop();
            Cycle informed = t + send_oh + latency + send_oh;
            parent_[next] = sender;
            children_[sender].push_back(next);
            free.emplace(t + send_oh, sender);
            free.emplace(informed, next);
        }
        break;
      }
    }
}

std::size_t
CommTree::depth() const
{
    std::vector<std::size_t> d(size(), 0);
    std::size_t maxd = 0;
    // parent_[v] < v for every shape we build, so one forward pass.
    for (std::size_t v = 1; v < size(); ++v) {
        d[v] = d[parent_[v]] + 1;
        maxd = std::max(maxd, d[v]);
    }
    return maxd;
}

// --------------------------------------------------------------------
// Collectives
// --------------------------------------------------------------------

namespace
{

/** Sender-side software overhead of one active message (LogP o). */
Cycle
sendOverhead(const core::MachineConfig& cfg)
{
    return cfg.niWriteTagDest + cfg.niSendWords + cfg.amDispatch;
}

} // namespace

Collectives::Collectives(sim::Processor& p, ActiveMessages& am,
                         MpMemory& mem, const core::MachineConfig& cfg,
                         std::size_t nprocs, TreeKind kind)
    : p_(p), am_(am), mem_(mem), cfg_(cfg), nprocs_(nprocs), kind_(kind),
      tree_(nprocs, kind, sendOverhead(cfg), cfg.netLatency),
      // A bulk transfer occupies the sender for many packets, so the
      // LogP "overhead" of one bulk hop is far larger than for a
      // single packet; the greedy schedule then builds the narrow,
      // deep tree that pipelined forwarding wants.
      bulkTree_(nprocs, kind, 64 * cfg.chanSendPerPacket,
                cfg.netLatency)
{
    upHandler_ = am_.registerHandler(
        [this](NodeId src, const AmArgs& a) { onUp(src, a); });
    downHandler_ = am_.registerHandler(
        [this](NodeId src, const AmArgs& a) { onDown(src, a); });
    bvalHandler_ = am_.registerHandler(
        [this](NodeId src, const AmArgs& a) { onBval(src, a); });
    bulkHandler_ = am_.registerHandler(
        [this](NodeId src, const AmArgs& a) { onBulk(src, a); });
}

Collectives::RedSlot&
Collectives::redSlot(std::uint32_t epoch, RedOp op)
{
    RedSlot& s = redSlots_[epoch];
    if (!s.inited) {
        s.inited = true;
        s.acc = (op == RedOp::Sum)
                    ? 0.0
                    : -std::numeric_limits<double>::infinity();
        s.loc = 0xffffffffu;
    }
    return s;
}

void
Collectives::combine(RedSlot& s, RedOp op, double v, std::uint32_t loc)
{
    switch (op) {
      case RedOp::Sum:
        s.acc += v;
        break;
      case RedOp::Max:
        s.acc = std::max(s.acc, v);
        break;
      case RedOp::MaxLoc:
        if (v > s.acc || (v == s.acc && loc < s.loc)) {
            s.acc = v;
            s.loc = loc;
        }
        break;
    }
}

void
Collectives::onUp(NodeId, const AmArgs& a)
{
    std::uint32_t epoch = a[0];
    auto op = static_cast<RedOp>(a[4]);
    RedSlot& s = redSlot(epoch, op);
    combine(s, op, unpackDouble(a, 1), a[3]);
    s.arrived++;
}

void
Collectives::onDown(NodeId, const AmArgs& a)
{
    std::uint32_t epoch = a[0];
    RedSlot& s = redSlots_[epoch]; // result slots need no identity
    s.result = unpackDouble(a, 1);
    s.resultLoc = a[3];
    s.resultReady = true;
    // Forward down the (root-0) tree immediately.
    std::size_t me = p_.id();
    for (std::size_t c : tree_.children(me)) {
        AmArgs fwd = a;
        am_.request(tree_.toPhysical(c, 0), downHandler_, fwd, 8);
    }
}

std::pair<double, std::uint32_t>
Collectives::allReduceMaxLoc(double v, std::uint32_t loc)
{
    sim::AttrScope lib(p_, stats::libAttribution());
    OpTrace ot(p_, trace::OpKind::AllReduce);
    RedOp op = RedOp::MaxLoc;
    std::uint32_t e = ++redEpoch_;
    std::size_t me = p_.id(); // reductions always root at node 0
    std::size_t nkids = tree_.children(me).size();

    combine(redSlot(e, op), op, v, loc);
    am_.pollUntil(
        [this, e, op, nkids] { return redSlot(e, op).arrived == nkids; });
    p_.advance(sim::CostKind::Comp, 6); // combine bookkeeping

    if (me != 0) {
        RedSlot& s = redSlot(e, op);
        AmArgs a{};
        a[0] = e;
        packDouble(a, 1, s.acc);
        a[3] = s.loc;
        a[4] = static_cast<std::uint32_t>(op);
        am_.request(static_cast<NodeId>(tree_.parent(me)), upHandler_, a,
                    op == RedOp::MaxLoc ? 12 : 8);
        am_.pollUntil([this, e] { return redSlots_[e].resultReady; });
    } else {
        RedSlot& s = redSlot(e, op);
        s.result = s.acc;
        s.resultLoc = s.loc;
        s.resultReady = true;
        AmArgs a{};
        a[0] = e;
        packDouble(a, 1, s.result);
        a[3] = s.resultLoc;
        for (std::size_t c : tree_.children(0))
            am_.request(static_cast<NodeId>(c), downHandler_, a, 8);
    }

    RedSlot& s = redSlots_[e];
    auto result = std::make_pair(s.result, s.resultLoc);
    redSlots_.erase(e);
    return result;
}

double
Collectives::allReduce(double v, RedOp op)
{
    if (op == RedOp::MaxLoc)
        throw std::invalid_argument("use allReduceMaxLoc");
    // Reuse the MaxLoc machinery by dispatching on the op tag.
    sim::AttrScope lib(p_, stats::libAttribution());
    OpTrace ot(p_, trace::OpKind::AllReduce);
    std::uint32_t e = ++redEpoch_;
    std::size_t me = p_.id();
    std::size_t nkids = tree_.children(me).size();

    combine(redSlot(e, op), op, v, 0);
    am_.pollUntil(
        [this, e, op, nkids] { return redSlot(e, op).arrived == nkids; });
    p_.advance(sim::CostKind::Comp, 6);

    if (me != 0) {
        RedSlot& s = redSlot(e, op);
        AmArgs a{};
        a[0] = e;
        packDouble(a, 1, s.acc);
        a[4] = static_cast<std::uint32_t>(op);
        am_.request(static_cast<NodeId>(tree_.parent(me)), upHandler_, a,
                    8);
        am_.pollUntil([this, e] { return redSlots_[e].resultReady; });
    } else {
        RedSlot& s = redSlot(e, op);
        s.result = s.acc;
        s.resultReady = true;
        AmArgs a{};
        a[0] = e;
        packDouble(a, 1, s.result);
        for (std::size_t c : tree_.children(0))
            am_.request(static_cast<NodeId>(c), downHandler_, a, 8);
    }

    double result = redSlots_[e].result;
    redSlots_.erase(e);
    return result;
}

void
Collectives::onBval(NodeId, const AmArgs& a)
{
    std::uint32_t epoch = a[0];
    NodeId root = a[3];
    RedSlot& s = bvalSlots_[epoch];
    s.result = unpackDouble(a, 1);
    s.resultReady = true;
    std::size_t me_v = tree_.toVirtual(p_.id(), root);
    for (std::size_t c : tree_.children(me_v)) {
        AmArgs fwd = a;
        am_.request(tree_.toPhysical(c, root), bvalHandler_, fwd, 8);
    }
}

double
Collectives::broadcastValue(double v, NodeId root)
{
    sim::AttrScope lib(p_, stats::libAttribution());
    OpTrace ot(p_, trace::OpKind::BroadcastValue);
    std::uint32_t e = ++bvalEpoch_;
    std::size_t me_v = tree_.toVirtual(p_.id(), root);

    if (p_.id() == root) {
        AmArgs a{};
        a[0] = e;
        packDouble(a, 1, v);
        a[3] = root;
        for (std::size_t c : tree_.children(me_v))
            am_.request(tree_.toPhysical(c, root), bvalHandler_, a, 8);
        return v;
    }

    am_.pollUntil([this, e] { return bvalSlots_[e].resultReady; });
    double result = bvalSlots_[e].result;
    bvalSlots_.erase(e);
    return result;
}

Addr
Collectives::stagingSlot(std::uint32_t epoch8)
{
    if (staging_ == 0)
        staging_ = mem_.alloc(2 * kMaxBcastBytes, kBlockBytes);
    return staging_ + (epoch8 % 2) * kMaxBcastBytes;
}

// Bulk packet header word: [31:24] epoch, [23:12] packet index,
// [11:5] root node, [4:0] payload bytes (1..16).

void
Collectives::onBulk(NodeId, const AmArgs& a)
{
    std::uint32_t e8 = a[0] >> 24;
    std::uint32_t idx = (a[0] >> 12) & 0xfff;
    NodeId root = (a[0] >> 5) & 0x7f;
    std::uint32_t take = a[0] & 0x1f;

    Addr at = stagingSlot(e8) +
              static_cast<Addr>(idx) * ChannelMgr::kDataPerPacket;
    for (std::size_t w = 0; w < (take + 3) / 4; ++w)
        mem_.write<std::uint32_t>(at + w * 4, a[1 + w]);
    p_.advance(sim::CostKind::Comp, cfg_.chanRecvPerPacket);
    bulkGot_[e8] += take;

    // The channel/active-message implementation (the paper's final,
    // lop-sided variant) forwards cut-through: each packet goes down
    // the tree as it arrives. CMMD-level messages (the flat and
    // binary variants) are whole-message operations: interior nodes
    // store-and-forward in broadcastInPlace() instead.
    if (kind_ == TreeKind::LopSided) {
        std::size_t me_v = bulkTree_.toVirtual(p_.id(), root);
        for (std::size_t c : bulkTree_.children(me_v)) {
            p_.advance(sim::CostKind::Comp,
                       cfg_.chanSendPerPacket / 2);
            AmArgs fwd = a;
            am_.ni().send(bulkTree_.toPhysical(c, root), bulkHandler_,
                          fwd, take);
        }
    }
}

void
Collectives::sendBulk(NodeId dest, NodeId root, std::uint32_t epoch8,
                      Addr src, std::size_t nbytes)
{
    p_.stats().counts().channelWrites++;
    p_.advance(sim::CostKind::Comp, 10); // per-operation channel setup
    std::size_t npackets =
        (nbytes + ChannelMgr::kDataPerPacket - 1) /
        ChannelMgr::kDataPerPacket;
    std::size_t off = 0;
    for (std::size_t idx = 0; idx < npackets; ++idx) {
        std::size_t take =
            std::min(ChannelMgr::kDataPerPacket, nbytes - off);
        AmArgs a{};
        a[0] = (epoch8 << 24) |
               (static_cast<std::uint32_t>(idx) << 12) |
               (static_cast<std::uint32_t>(root) << 5) |
               static_cast<std::uint32_t>(take);
        for (std::size_t w = 0; w < (take + 3) / 4; ++w)
            a[1 + w] = mem_.read<std::uint32_t>(src + off + w * 4);
        p_.advance(sim::CostKind::Comp, cfg_.chanSendPerPacket);
        am_.ni().send(dest, bulkHandler_, a,
                      static_cast<unsigned>(take));
        off += take;
    }
}

void
Collectives::requireBcastProcs(std::size_t nprocs)
{
    if (nprocs > kMaxBcastProcs) {
        throw std::invalid_argument(
            "bulk broadcast carries its root in a 7-bit packet header "
            "field: at most " + std::to_string(kMaxBcastProcs) +
            " processors, got " + std::to_string(nprocs));
    }
}

Addr
Collectives::broadcastInPlace(Addr src, std::size_t nbytes, NodeId root)
{
    if (nbytes > kMaxBcastBytes || nbytes % 4 != 0)
        throw std::invalid_argument("broadcast payload size");
    assert(nbytes / ChannelMgr::kDataPerPacket < (1u << 12));
    assert(nprocs_ <= kMaxBcastProcs &&
           "root must fit the bulk packet header");

    sim::AttrScope lib(p_, stats::libAttribution());
    OpTrace ot(p_, trace::OpKind::Broadcast);
    std::uint32_t e8 = static_cast<std::uint32_t>(bcastEpoch_++ & 0xff);
    std::size_t me_v = bulkTree_.toVirtual(p_.id(), root);

    if (p_.id() == root) {
        for (std::size_t c : bulkTree_.children(me_v)) {
            sendBulk(bulkTree_.toPhysical(c, root), root, e8, src,
                     nbytes);
        }
        return src;
    }

    am_.pollUntil([this, e8, nbytes] { return bulkGot_[e8] >= nbytes; });
    bulkGot_.erase(e8);
    Addr stage = stagingSlot(e8);
    if (kind_ != TreeKind::LopSided) {
        // CMMD-level store-and-forward: per-hop message setup and
        // handshake software, then re-send the whole payload.
        for (std::size_t c : bulkTree_.children(me_v)) {
            p_.advance(sim::CostKind::Comp, 6 * cfg_.amDispatch);
            sendBulk(bulkTree_.toPhysical(c, root), root, e8, stage,
                     nbytes);
        }
    }
    return stage;
}

} // namespace wwt::mp
