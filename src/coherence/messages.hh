/**
 * @file
 * Coherence protocol message types.
 *
 * Messages travel between tiles over the Mesh; each carries enough
 * context for the receiving handler (requester-side MSHR, directory
 * slice, or peer cache controller) to act without global state.
 */

#ifndef SPP_COHERENCE_MESSAGES_HH
#define SPP_COHERENCE_MESSAGES_HH

#include <cstdint>

#include "common/core_set.hh"
#include "common/types.hh"
#include "mem/mesif.hh"

namespace spp {

enum class MsgType : std::uint8_t
{
    // Requester -> directory.
    reqRead,        ///< Read miss.
    reqWrite,       ///< Write miss / upgrade (set carries predicted).
    unblock,        ///< Transaction complete; directory may proceed.
    wbNotice,       ///< Eviction of an owned (M/E/F) line.
    wbAck,          ///< Home applied the writeback; buffer may drain.

    // Requester -> predicted peer (Section 4.5).
    predRead,       ///< Predicted cache-to-cache read request.
    predWrite,      ///< Predicted invalidate/ownership request.

    // Directory -> peer.
    fwdRead,        ///< Forward read to owner.
    inv,            ///< Invalidate a sharer.

    // Peer / memory -> requester.
    data,           ///< Data response (cache-to-cache or memory).
    ackInv,         ///< Invalidation acknowledgment.
    nack,           ///< Predicted request could not be satisfied.

    // Directory -> requester.
    grant,          ///< Write completion info (acks to expect, etc.).

    // Peer -> directory (prediction extension).
    dirUpdate,      ///< New sharing state after a predicted transfer.

    // Requester -> directory (prediction extension).
    predFailed,     ///< All predicted targets Nacked; service normally.

    // Broadcast protocol.
    snoopReq,       ///< Broadcast snoop request to a peer.
    snoopResp,      ///< Snoop result back to the requester.
    cancel,         ///< Owner hit: cancel the speculative mem fetch.
};

const char *toString(MsgType t);

/** One protocol message. */
struct Msg
{
    MsgType type = MsgType::reqRead;
    Addr line = 0;              ///< Line-aligned address.
    CoreId src = invalidCore;   ///< Sending tile.
    CoreId dst = invalidCore;   ///< Receiving tile.
    CoreId requester = invalidCore; ///< Original requester.
    std::uint64_t txn = 0;      ///< Requester transaction number.

    /** Predicted destinations / sharers / ack-senders, by context. */
    CoreSet set;

    bool isWrite = false;       ///< Original request wants ownership.
    bool predicted = false;     ///< Request carried a prediction.
    bool fromMemory = false;    ///< Data originated at memory.
    bool ownerAck = false;      ///< ackInv also transferred ownership.
    bool becameOwner = false;   ///< unblock: requester is now F owner.
    bool hadCopy = false;       ///< snoopResp/ackInv: peer held line;
                                ///< requests: requester held line.
    bool needData = false;      ///< grant: requester must await data.

    /** Fill state granted with a data response. */
    Mesif fillState = Mesif::invalid;

    /** Version of the line carried by data (correctness checking). */
    std::uint64_t version = 0;
};

} // namespace spp

#endif // SPP_COHERENCE_MESSAGES_HH
