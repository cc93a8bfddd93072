/**
 * @file
 * Test helper: flatten a TraceSource into per-record form, so tests
 * can compare streams record by record. TraceSource itself is pulled
 * only one chunk at a time (fillRef()).
 */

#ifndef GDIFF_TESTS_TRACE_RECORDS_HH
#define GDIFF_TESTS_TRACE_RECORDS_HH

#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "workload/trace.hh"

namespace gdiff {
namespace workload {

/** @return the first @p limit records @p src delivers (all by default). */
inline std::vector<TraceRecord>
drainRecords(TraceSource &src,
             uint64_t limit = std::numeric_limits<uint64_t>::max())
{
    std::vector<TraceRecord> out;
    auto scratch = std::make_unique<TraceChunk>();
    while (out.size() < limit) {
        const TraceChunk *chunk = src.fillRef(*scratch);
        if (!chunk)
            break;
        for (uint32_t i = 0; i < chunk->size && out.size() < limit; ++i)
            out.push_back(chunk->record(i));
    }
    return out;
}

} // namespace workload
} // namespace gdiff

#endif // GDIFF_TESTS_TRACE_RECORDS_HH
