#include "check/shrink.hh"

#include <algorithm>
#include <memory>

#include "isa/instruction.hh"
#include "util/logging.hh"
#include "workload/trace_io.hh"

namespace gdiff {
namespace check {

std::vector<FuzzRecord>
shrinkStream(const std::vector<FuzzRecord> &stream,
             const FailPredicate &stillFails, const ShrinkConfig &cfg)
{
    if (!stillFails(stream))
        return stream;

    std::vector<FuzzRecord> cur = stream;
    uint64_t trials = 1; // the confirmation run above
    size_t n = 2;        // current chunk granularity

    while (cur.size() >= 2 && trials < cfg.maxTrials) {
        size_t chunk = (cur.size() + n - 1) / n;
        bool reduced = false;
        for (size_t start = 0;
             start < cur.size() && trials < cfg.maxTrials;
             start += chunk) {
            size_t end = std::min(start + chunk, cur.size());
            std::vector<FuzzRecord> candidate;
            candidate.reserve(cur.size() - (end - start));
            candidate.insert(candidate.end(), cur.begin(),
                             cur.begin() + start);
            candidate.insert(candidate.end(), cur.begin() + end,
                             cur.end());
            ++trials;
            if (!candidate.empty() && stillFails(candidate)) {
                cur = std::move(candidate);
                n = std::max<size_t>(2, n - 1);
                reduced = true;
                break;
            }
        }
        if (!reduced) {
            if (n >= cur.size())
                break; // already at single-record granularity
            n = std::min(cur.size(), n * 2);
        }
    }
    return cur;
}

std::string
reproArtifactName(const std::string &pairName, uint64_t seed)
{
    return formatString("gdifffuzz_%s_seed%llu.gdtr",
                        pairName.c_str(),
                        static_cast<unsigned long long>(seed));
}

void
writeReproArtifact(const std::string &path,
                   const std::vector<FuzzRecord> &stream)
{
    workload::TraceWriter writer(path);
    for (size_t i = 0; i < stream.size(); ++i) {
        workload::TraceRecord r;
        // Encode each production as "li t0, value" at the original
        // PC: producesValue() holds, so every trace consumer feeds
        // the record to the predictors exactly as fuzzed.
        r.inst.op = isa::Opcode::Li;
        r.inst.rd = isa::reg::t0;
        r.inst.imm = stream[i].value;
        r.seq = i;
        r.pc = stream[i].pc;
        r.nextPc = stream[i].pc + isa::instBytes;
        r.value = stream[i].value;
        writer.append(r);
    }
    workload::TraceIoResult res = writer.close();
    if (res.failed())
        fatal("%s", res.message.c_str());
}

bool
readReproArtifactOr(const std::string &path,
                    std::vector<FuzzRecord> &stream,
                    workload::TraceIoResult *result)
{
    workload::TraceFileReader reader;
    workload::TraceIoResult r = reader.open(path);
    std::vector<FuzzRecord> records;
    auto chunk = std::make_unique<workload::TraceChunk>();
    while (r.ok()) {
        r = reader.read(*chunk);
        if (!r.ok())
            break;
        for (uint32_t i = 0; i < chunk->size; ++i) {
            if (chunk->producesValue(i))
                records.push_back(
                    FuzzRecord{chunk->pc[i], chunk->value[i]});
        }
    }
    if (result)
        *result = r;
    if (!r.end())
        return false;
    stream = std::move(records);
    return true;
}

} // namespace check
} // namespace gdiff
