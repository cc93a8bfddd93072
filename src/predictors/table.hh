/**
 * @file
 * PC-indexed prediction-table storage shared by the predictors.
 *
 * Two modes, selected by the entry count:
 *  - entries == 0: "unlimited" — one entry per static PC, used for the
 *    paper's idealised profile experiments. Entries live in a deque
 *    (appending never moves them) and a flat open-addressing index
 *    maps each PC to its entry;
 *  - entries == 2^k: a tagless direct-mapped table indexed by PC bits,
 *    the hardware-realistic mode. Aliasing is tracked (paper Fig. 9)
 *    by remembering the last PC that touched each entry.
 *
 * In both modes an entry never moves once allocated: a reference
 * returned by lookup() or probe() stays valid, and keeps naming the
 * same PC's state, across any number of later lookups, including
 * ones that grow the unlimited index. The batch loops of fcm.cc hold
 * several entry pointers across lookups and rely on this.
 */

#ifndef GDIFF_PREDICTORS_TABLE_HH
#define GDIFF_PREDICTORS_TABLE_HH

#include <cstdint>
#include <deque>
#include <vector>

#include "util/bits.hh"
#include "util/logging.hh"

namespace gdiff {
namespace predictors {

/**
 * PC-indexed table of Entry.
 *
 * @tparam Entry default-constructible per-PC predictor state.
 */
template <typename Entry>
class PcIndexedTable
{
  public:
    /**
     * @param entries 0 for unlimited, otherwise a power of two.
     * @param hash_index when true, limited tables index with a mixed
     *        hash of the PC instead of its low bits.
     */
    explicit PcIndexedTable(size_t entries = 0, bool hash_index = false)
        : limit(entries), hashIndex(hash_index)
    {
        if (limit != 0) {
            GDIFF_ASSERT(isPowerOfTwo(limit),
                         "table size %zu is not a power of two", limit);
            table.resize(limit);
            owners.assign(limit, 0);
        } else {
            index.resize(minIndexCells);
        }
    }

    // The unlimited index points into `slots`: a copy would alias the
    // source's entries. A move keeps them valid, since std::deque
    // hands its storage over.
    PcIndexedTable(const PcIndexedTable &) = delete;
    PcIndexedTable &operator=(const PcIndexedTable &) = delete;
    PcIndexedTable(PcIndexedTable &&) = default;
    PcIndexedTable &operator=(PcIndexedTable &&) = default;

    /**
     * Locate the entry for @p pc (allocating in unlimited mode).
     * In limited mode, notes whether a different PC owned the entry
     * (an aliasing conflict) and takes ownership.
     *
     * @return reference to the entry; it stays valid for the
     * table's lifetime (see the file comment).
     */
    Entry &
    lookup(uint64_t pc)
    {
        ++lookupCount;
        if (limit == 0)
            return findOrInsert(pc);
        size_t idx = indexOf(pc);
        if (owners[idx] != 0 && owners[idx] != pc)
            ++conflictCount;
        owners[idx] = pc;
        return table[idx];
    }

    /**
     * Read-only probe: does not allocate, does not take ownership,
     * does not count conflicts. @return nullptr if absent (unlimited
     * mode only; limited tables always have an entry).
     */
    const Entry *
    probe(uint64_t pc) const
    {
        if (limit == 0)
            return index[cellOf(pc)].entry;
        return &table[indexOf(pc)];
    }

    /**
     * Prefetch hint for the slot @p pc maps to — batch loops issue
     * this a tile ahead of lookup(). No-op in unlimited mode.
     */
    void
    prefetch(uint64_t pc) const
    {
        if (limit != 0) {
            size_t idx = indexOf(pc);
            // lookup() touches two random-indexed lines per PC: the
            // entry itself and the ownership word it read-modify-
            // writes. Warm both.
            __builtin_prefetch(&table[idx], 1);
            __builtin_prefetch(&owners[idx], 1);
        }
    }

    /** @return configured entry count (0 = unlimited). */
    size_t entries() const { return limit; }

    /** @return number of lookups that hit a different PC's entry. */
    uint64_t conflicts() const { return conflictCount; }

    /** @return total lookups. */
    uint64_t lookups() const { return lookupCount; }

    /** @return conflicts/lookups in [0,1]. */
    double
    conflictRate() const
    {
        return lookupCount == 0
                   ? 0.0
                   : static_cast<double>(conflictCount) /
                         static_cast<double>(lookupCount);
    }

  private:
    /** One unlimited-mode index cell; entry == nullptr marks it free. */
    struct Cell
    {
        uint64_t pc = 0;
        Entry *entry = nullptr;
    };

    static constexpr size_t minIndexCells = 64;

    /** @return the index of the cell holding @p pc, or of the free
     * cell that ends its probe sequence (linear probing; the index is
     * never full). */
    size_t
    cellOf(uint64_t pc) const
    {
        // Fibonacci hashing: the top bits of pc * 2^64/phi spread the
        // 4-byte-aligned, clustered PCs of a program evenly.
        const size_t cellMask = index.size() - 1;
        size_t i = static_cast<size_t>(
            (pc * 0x9e3779b97f4a7c15ull) >> indexShift);
        while (index[i].entry && index[i].pc != pc)
            i = (i + 1) & cellMask;
        return i;
    }

    Entry &
    findOrInsert(uint64_t pc)
    {
        size_t i = cellOf(pc);
        if (index[i].entry)
            return *index[i].entry;
        // Keep the load factor at or below 1/2.
        if (2 * (slots.size() + 1) > index.size()) {
            grow();
            i = cellOf(pc);
        }
        slots.emplace_back();
        index[i] = {pc, &slots.back()};
        return slots.back();
    }

    /** Double the index; entries stay where they are in `slots`. */
    void
    grow()
    {
        std::vector<Cell> old(index.size() * 2);
        old.swap(index);
        --indexShift;
        for (const Cell &c : old) {
            if (c.entry)
                index[cellOf(c.pc)] = c;
        }
    }

    size_t
    indexOf(uint64_t pc) const
    {
        uint64_t key = pc >> 2; // instruction alignment
        if (hashIndex)
            key = mix64(key);
        return static_cast<size_t>(key & (limit - 1));
    }

    size_t limit;
    bool hashIndex;
    std::vector<Entry> table;
    std::vector<uint64_t> owners;
    std::deque<Entry> slots; ///< unlimited: entries, allocation order
    std::vector<Cell> index; ///< unlimited: PC -> entry, 2^k cells
    unsigned indexShift = 64 - floorLog2(minIndexCells);
    uint64_t conflictCount = 0;
    uint64_t lookupCount = 0;
};

} // namespace predictors
} // namespace gdiff

#endif // GDIFF_PREDICTORS_TABLE_HH
