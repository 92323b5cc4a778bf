#include "coherence/messages.hh"

namespace spp {

const char *
toString(MsgType t)
{
    switch (t) {
      case MsgType::reqRead:   return "reqRead";
      case MsgType::reqWrite:  return "reqWrite";
      case MsgType::unblock:   return "unblock";
      case MsgType::wbNotice:  return "wbNotice";
      case MsgType::wbAck:     return "wbAck";
      case MsgType::predRead:  return "predRead";
      case MsgType::predWrite: return "predWrite";
      case MsgType::fwdRead:   return "fwdRead";
      case MsgType::inv:       return "inv";
      case MsgType::data:      return "data";
      case MsgType::ackInv:    return "ackInv";
      case MsgType::nack:      return "nack";
      case MsgType::grant:     return "grant";
      case MsgType::dirUpdate: return "dirUpdate";
      case MsgType::predFailed: return "predFailed";
      case MsgType::snoopReq:  return "snoopReq";
      case MsgType::snoopResp: return "snoopResp";
      case MsgType::cancel:    return "cancel";
    }
    return "?";
}

} // namespace spp
