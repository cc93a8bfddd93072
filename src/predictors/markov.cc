#include "predictors/markov.hh"

#include "util/logging.hh"

namespace gdiff {
namespace predictors {

MarkovPredictor::MarkovPredictor(size_t entries, unsigned assoc)
    : assoc_(assoc)
{
    GDIFF_ASSERT(isPowerOfTwo(entries) && entries >= assoc,
                 "Markov table size must be a power of two >= assoc");
    numSets = entries / assoc;
    ways.resize(entries);
}

size_t
MarkovPredictor::setOf(uint64_t addr) const
{
    return static_cast<size_t>(mix64(addr) & (numSets - 1));
}

bool
MarkovPredictor::predict(uint64_t &value)
{
    if (!haveLast)
        return false;
    const Way *base = &ways[setOf(lastAddr) * assoc_];
    for (unsigned i = 0; i < assoc_; ++i) {
        if (base[i].valid && base[i].tag == lastAddr) {
            value = base[i].next;
            return true;
        }
    }
    return false;
}

void
MarkovPredictor::update(uint64_t addr)
{
    ++useClock;
    if (haveLast) {
        Way *base = &ways[setOf(lastAddr) * assoc_];
        Way *slot = nullptr;
        for (unsigned i = 0; i < assoc_; ++i) {
            if (base[i].valid && base[i].tag == lastAddr) {
                slot = &base[i];
                break;
            }
        }
        if (!slot) {
            slot = &base[0];
            for (unsigned i = 0; i < assoc_; ++i) {
                if (!base[i].valid) {
                    slot = &base[i];
                    break;
                }
                if (base[i].lastUse < slot->lastUse)
                    slot = &base[i];
            }
        }
        slot->valid = true;
        slot->tag = lastAddr;
        slot->next = addr;
        slot->lastUse = useClock;
    }
    lastAddr = addr;
    haveLast = true;
}

} // namespace predictors
} // namespace gdiff
