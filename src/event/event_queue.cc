#include "event/event_queue.hh"

namespace spp {

void
EventQueue::addChunk()
{
    chunks_.push_back(std::make_unique<Node[]>(chunkNodes));
    Node *chunk = chunks_.back().get();
    for (std::size_t i = 0; i + 1 < chunkNodes; ++i)
        chunk[i].next = &chunk[i + 1];
    free_ = chunk;
}

} // namespace spp
