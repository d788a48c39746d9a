#pragma once

/**
 * @file
 * CMMD-like synchronous send/receive (Section 4.1).
 *
 * High-level sends rendezvous with the matching receive: the receiver
 * arms a channel endpoint and sends a clear-to-send active message;
 * the sender waits for the clear, then streams the payload over the
 * channel. The handshake packets are the "handshake to exchange the
 * receiver's channel number" the paper describes, and their cost is
 * part of why CMMD-level trees were slower than raw active messages
 * in the Gauss broadcast experiments.
 */

#include <cassert>
#include <cstdint>
#include <unordered_map>

#include "mp/channel.hh"

namespace wwt::mp
{

/** Blocking, tag-matched message passing over channels. */
class Cmmd
{
  public:
    Cmmd(sim::Processor& p, ActiveMessages& am, ChannelMgr& chans);

    /** Tags per sender: every tag must be below this. */
    static constexpr std::uint32_t kTags = 8;

    /**
     * Throw std::invalid_argument unless the channel ids of @p nprocs
     * senders fit CMMD's range (chan::kCmmd). Call before the run.
     */
    static void
    requireSenders(std::size_t nprocs)
    {
        chan::requireIds(chan::kCmmd, nprocs * kTags, "CMMD send/recv");
    }

    /**
     * Blocking send of @p nbytes at @p src to @p dest. Matches the
     * receive with the same @p tag posted on @p dest. Tags must be
     * < kTags; transfers are word-granular.
     */
    void send(NodeId dest, std::uint32_t tag, Addr src,
              std::size_t nbytes);

    /** Blocking receive of @p nbytes into @p dst from @p src. */
    void recv(NodeId src, std::uint32_t tag, Addr dst,
              std::size_t nbytes);

    /**
     * Post an asynchronous receive: arm the endpoint and release the
     * sender, but return immediately. Complete with waitPosted().
     * Posting receives up-front lets all-pairs exchanges proceed
     * without rendezvous deadlock.
     */
    void postRecv(NodeId src, std::uint32_t tag, Addr dst,
                  std::size_t nbytes);

    /** Complete a postRecv(). */
    void waitPosted(NodeId src, std::uint32_t tag);

  private:
    /** Channel id for a (sender, tag) pair; receiver-local space. */
    static std::uint32_t
    chanFor(NodeId sender, std::uint32_t tag)
    {
        assert(tag < kTags && "CMMD tag out of range");
        return chan::kCmmd + static_cast<std::uint32_t>(sender) * kTags +
               tag;
    }

    sim::Processor& p_;
    ActiveMessages& am_;
    ChannelMgr& chans_;
    std::uint32_t clearHandler_;
    /** Clears received, keyed by (dest, tag); absolute counters. */
    std::unordered_map<std::uint64_t, std::uint64_t> clears_;
    /** Sends completed, keyed by (dest, tag); absolute counters. */
    std::unordered_map<std::uint64_t, std::uint64_t> sent_;
};

} // namespace wwt::mp
