/**
 * @file
 * First-order Markov address predictor (Joseph & Grunwald), the
 * large-table baseline of the paper's load-address study (§6).
 *
 * The table maps an address to the address that followed it last time
 * in the stream it is trained on (all load addresses, or only missing
 * loads' addresses). A prediction for the next element of the stream
 * is the successor of the most recent element. The table is 4-way
 * set-associative and *tagged*: a tag hit is the coverage gate (the
 * paper notes the Markov predictor has no confidence counters).
 *
 * predict() and update() are the whole interface: the address study
 * (sim::AddressProfileRunner) calls them once per load lane.
 */

#ifndef GDIFF_PREDICTORS_MARKOV_HH
#define GDIFF_PREDICTORS_MARKOV_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/bits.hh"

namespace gdiff {
namespace predictors {

/** First-order Markov predictor over an address stream. */
class MarkovPredictor
{
  public:
    /**
     * @param entries total table entries (power of two), e.g. the
     *        paper's 256K and 2M configurations.
     * @param assoc   set associativity (paper: 4).
     */
    explicit MarkovPredictor(size_t entries = 256 * 1024,
                             unsigned assoc = 4);

    /**
     * Predict the next stream address from the current last one.
     *
     * @param value set to the predicted next address on a tag hit.
     * @return true on a tag hit (the predictor's coverage gate).
     */
    bool predict(uint64_t &value);

    /**
     * Observe the next stream element: trains successor(last) = addr
     * and makes @p addr the new "last" element.
     */
    void update(uint64_t addr);

    /** @return total entries. */
    size_t entries() const { return numSets * assoc_; }

  private:
    struct Way
    {
        uint64_t tag = 0;
        uint64_t next = 0;
        uint64_t lastUse = 0;
        bool valid = false;
    };

    size_t setOf(uint64_t addr) const;

    size_t numSets;
    unsigned assoc_;
    std::vector<Way> ways;
    uint64_t useClock = 0;
    uint64_t lastAddr = 0;
    bool haveLast = false;
};

} // namespace predictors
} // namespace gdiff

#endif // GDIFF_PREDICTORS_MARKOV_HH
