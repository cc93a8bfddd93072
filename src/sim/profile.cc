#include "sim/profile.hh"

#include <algorithm>
#include <memory>
#include <vector>

#include "obs/obs.hh"
#include "util/logging.hh"
#include "util/simd.hh"

namespace gdiff {
namespace sim {

namespace {

/**
 * First measured record index of a chunk: record j (0-based) is past
 * warmup iff executedBefore + j + 1 > warmup, i.e. j >= mstart.
 */
uint64_t
measuredStart(uint64_t executedBefore, uint64_t warmup)
{
    return warmup > executedBefore ? warmup - executedBefore : 0;
}

/**
 * First *lane* at or past the measured boundary: lanes carry their
 * chunk record index in ascending order.
 */
uint32_t
measuredLane(const uint32_t *records, uint32_t lanes, uint64_t mstart)
{
    if (mstart == 0)
        return 0;
    const uint32_t *it = std::lower_bound(
        records, records + lanes, static_cast<uint32_t>(mstart));
    return static_cast<uint32_t>(it - records);
}

} // anonymous namespace

void
ProfileConfig::validate() const
{
    if (maxInstructions == 0) {
        fatal("profile run length is 0 instructions: nothing would "
              "be measured");
    }
    if (!allowLongWarmup && warmupInstructions >= maxInstructions) {
        fatal("profile warmup (%llu) must be smaller than the "
              "measured instruction budget (%llu)",
              static_cast<unsigned long long>(warmupInstructions),
              static_cast<unsigned long long>(maxInstructions));
    }
}

// ------------------------------------------------- ValueProfileRunner

ValueProfileRunner::ValueProfileRunner(const ProfileConfig &config)
    : cfg(config)
{
    cfg.validate();
}

void
ValueProfileRunner::addPredictor(predictors::ValuePredictor &p)
{
    preds.push_back(&p);
    conf.emplace_back(cfg.confidence);
    ProfileSeries s;
    s.name = p.name();
    series.push_back(std::move(s));
}

void
ValueProfileRunner::run(workload::TraceSource &src)
{
    GDIFF_ASSERT(!preds.empty(), "no predictors registered");
    uint64_t executed = 0;
    uint64_t budget = cfg.warmupInstructions + cfg.maxInstructions;
    auto scratch = std::make_unique<workload::TraceChunk>();
    // Chunk-granularity stage split: fill (trace delivery, which is
    // functional generation on a cache miss and a cursor walk on a
    // hit) vs the batched predict/update passes. Local accumulation,
    // one registry call at the end — see obs.hh's overhead rules.
    // Histogram pointers are stable, so they are cached up front.
    const bool obsOn = GDIFF_OBS_ENABLED && obs::enabled();
    uint64_t fillNs = 0, simNs = 0, chunks = 0, tStage = 0;
    stats::Histogram *predictHist = nullptr;
    stats::Histogram *updateHist = nullptr;
    if (obsOn) {
        obs::Registry &reg = obs::Registry::local();
        predictHist = reg.histogram("predict.batch_us");
        updateHist = reg.histogram("update.batch_us");
        reg.addCount(simd::activeName(), 1);
    }

    constexpr uint32_t cap = workload::TraceChunk::capacity;
    std::vector<uint64_t> pcs(cap);
    std::vector<int64_t> values(cap);
    std::vector<uint32_t> records(cap);
    std::vector<uint8_t> correct(cap);
    std::vector<uint8_t> confident(cap);
    predictors::PredictionBatch batch;

    while (executed < budget) {
        if (obsOn)
            tStage = obs::nowNs();
        const workload::TraceChunk *chunk = src.fillRef(*scratch);
        if (obsOn) {
            uint64_t t = obs::nowNs();
            fillNs += t - tStage;
            tStage = t;
            ++chunks;
        }
        if (!chunk)
            break;
        uint32_t n = static_cast<uint32_t>(
            std::min<uint64_t>(chunk->size, budget - executed));
        const uint32_t lanes = predictors::gatherValueLanes(
            *chunk, n, pcs.data(), values.data(), records.data());
        const uint64_t mstart =
            measuredStart(executed, cfg.warmupInstructions);
        const uint32_t mlane =
            mstart >= n ? lanes
                        : measuredLane(records.data(), lanes, mstart);
        executed += n;

        for (size_t i = 0; i < preds.size(); ++i) {
            uint64_t tP = obsOn ? obs::nowNs() : 0;
            preds[i]->predictUpdateBatch(pcs.data(), values.data(),
                                         lanes, batch);
            if (obsOn) {
                uint64_t t = obs::nowNs();
                predictHist->record((t - tP) / 1000);
                tP = t;
            }
            for (uint32_t l = 0; l < lanes; ++l) {
                correct[l] = batch.predicted[l] &&
                             batch.value[l] == values[l];
            }
            conf[i].evaluateBatch(pcs.data(), batch.predicted.data(),
                                  correct.data(), lanes,
                                  confident.data());
            // Ratio sums are order-independent, so the per-chunk
            // aggregation below is identical to the scalar
            // record-at-a-time record() calls.
            uint64_t nCorrect = 0, nConf = 0, nConfCorrect = 0;
            for (uint32_t l = mlane; l < lanes; ++l) {
                nCorrect += correct[l];
                if (confident[l]) {
                    ++nConf;
                    nConfCorrect += correct[l];
                }
            }
            series[i].accuracyAll.addBatch(nCorrect, lanes - mlane);
            series[i].coverage.addBatch(nConf, lanes - mlane);
            series[i].accuracyGated.addBatch(nConfCorrect, nConf);
            if (obsOn)
                updateHist->record((obs::nowNs() - tP) / 1000);
        }
        if (obsOn)
            simNs += obs::nowNs() - tStage;
    }
    measured = executed > cfg.warmupInstructions
                   ? executed - cfg.warmupInstructions
                   : 0;
    if (obsOn) {
        obs::Registry &reg = obs::Registry::local();
        reg.addTimer("profile.fill", fillNs, chunks);
        reg.addTimer("profile.sim", simNs, chunks);
    }
}

// ----------------------------------------------- AddressProfileRunner

AddressProfileRunner::AddressProfileRunner(const ProfileConfig &config)
    : cfg(config), dcache(mem::CacheConfig::paperDCache())
{
    cfg.validate();
}

void
AddressProfileRunner::addPredictor(predictors::ValuePredictor &p)
{
    preds.push_back(&p);
    conf.emplace_back(cfg.confidence);
    AddressSeries s;
    s.name = p.name();
    series.push_back(std::move(s));
}

void
AddressProfileRunner::setMarkov(predictors::MarkovPredictor &all,
                                predictors::MarkovPredictor &misses)
{
    GDIFF_ASSERT(markovAll == nullptr, "Markov already registered");
    markovAll = &all;
    markovMiss = &misses;
    AddressSeries s;
    s.name = "markov";
    series.push_back(std::move(s));
}

void
AddressProfileRunner::run(workload::TraceSource &src)
{
    GDIFF_ASSERT(!preds.empty() || markovAll,
                 "no predictors registered");
    uint64_t executed = 0;
    uint64_t budget = cfg.warmupInstructions + cfg.maxInstructions;
    auto scratch = std::make_unique<workload::TraceChunk>();
    const bool obsOn = GDIFF_OBS_ENABLED && obs::enabled();
    uint64_t fillNs = 0, simNs = 0, chunks = 0, tStage = 0;
    stats::Histogram *predictHist = nullptr;
    stats::Histogram *updateHist = nullptr;
    if (obsOn) {
        obs::Registry &reg = obs::Registry::local();
        predictHist = reg.histogram("predict.batch_us");
        updateHist = reg.histogram("update.batch_us");
        reg.addCount(simd::activeName(), 1);
    }

    constexpr uint32_t cap = workload::TraceChunk::capacity;
    std::vector<uint64_t> pcs(cap);
    std::vector<int64_t> actuals(cap);
    std::vector<uint64_t> addrs(cap);
    std::vector<uint32_t> records(cap);
    std::vector<uint8_t> miss(cap);
    std::vector<uint8_t> correct(cap);
    std::vector<uint8_t> confident(cap);
    predictors::PredictionBatch batch;

    while (executed < budget) {
        if (obsOn)
            tStage = obs::nowNs();
        const workload::TraceChunk *chunk = src.fillRef(*scratch);
        if (obsOn) {
            uint64_t t = obs::nowNs();
            fillNs += t - tStage;
            tStage = t;
            ++chunks;
        }
        if (!chunk)
            break;
        uint32_t n = static_cast<uint32_t>(
            std::min<uint64_t>(chunk->size, budget - executed));

        // Pass 1 — memory model in architectural order: stores keep
        // the D-cache honest but are not predicted; loads become
        // dense lanes carrying their miss classification.
        uint32_t lanes = 0;
        for (uint32_t j = 0; j < n; ++j) {
            uint64_t effAddr = chunk->effAddr[j];
            if (chunk->isStore(j)) {
                dcache.access(effAddr);
                continue;
            }
            if (!chunk->isLoad(j))
                continue;
            pcs[lanes] = chunk->pc[j];
            addrs[lanes] = effAddr;
            actuals[lanes] = static_cast<int64_t>(effAddr);
            records[lanes] = j;
            miss[lanes] = !dcache.access(effAddr);
            ++lanes;
        }
        const uint64_t mstart =
            measuredStart(executed, cfg.warmupInstructions);
        const uint32_t mlane =
            mstart >= n ? lanes
                        : measuredLane(records.data(), lanes, mstart);
        executed += n;

        // Pass 2 — PC-indexed predictors over the load-address lanes.
        for (size_t i = 0; i < preds.size(); ++i) {
            uint64_t tP = obsOn ? obs::nowNs() : 0;
            preds[i]->predictUpdateBatch(pcs.data(), actuals.data(),
                                         lanes, batch);
            if (obsOn) {
                uint64_t t = obs::nowNs();
                predictHist->record((t - tP) / 1000);
                tP = t;
            }
            for (uint32_t l = 0; l < lanes; ++l) {
                correct[l] = batch.predicted[l] &&
                             batch.value[l] == actuals[l];
            }
            conf[i].evaluateBatch(pcs.data(), batch.predicted.data(),
                                  correct.data(), lanes,
                                  confident.data());
            uint64_t covAll = 0, accAll = 0, totMiss = 0, covMiss = 0,
                     accMiss = 0;
            for (uint32_t l = mlane; l < lanes; ++l) {
                if (confident[l]) {
                    ++covAll;
                    accAll += correct[l];
                }
                if (miss[l]) {
                    ++totMiss;
                    if (confident[l]) {
                        ++covMiss;
                        accMiss += correct[l];
                    }
                }
            }
            series[i].coverageAll.addBatch(covAll, lanes - mlane);
            series[i].accuracyAll.addBatch(accAll, covAll);
            series[i].coverageMiss.addBatch(covMiss, totMiss);
            series[i].accuracyMiss.addBatch(accMiss, covMiss);
            if (obsOn)
                updateHist->record((obs::nowNs() - tP) / 1000);
        }

        // Pass 3 — the Markov pair, one loop over the load lanes:
        // markovAll predicts and trains on every load address,
        // markovMiss on the missing loads' addresses only.
        if (markovAll) {
            AddressSeries &ms = series.back();
            uint64_t cov = 0, acc = 0, mcov = 0, macc = 0, mtot = 0;
            for (uint32_t l = 0; l < lanes; ++l) {
                const uint64_t addr = addrs[l];
                const bool measured = l >= mlane;
                uint64_t guess = 0;
                if (markovAll->predict(guess) && measured) {
                    ++cov;
                    acc += guess == addr;
                }
                markovAll->update(addr);
                if (!miss[l])
                    continue;
                if (markovMiss->predict(guess) && measured) {
                    ++mcov;
                    macc += guess == addr;
                }
                markovMiss->update(addr);
                mtot += measured;
            }
            ms.coverageAll.addBatch(cov, lanes - mlane);
            ms.accuracyAll.addBatch(acc, cov);
            ms.coverageMiss.addBatch(mcov, mtot);
            ms.accuracyMiss.addBatch(macc, mcov);
        }
        if (obsOn)
            simNs += obs::nowNs() - tStage;
    }
    if (obsOn) {
        obs::Registry &reg = obs::Registry::local();
        reg.addTimer("profile.fill", fillNs, chunks);
        reg.addTimer("profile.sim", simNs, chunks);
    }
}

double
AddressProfileRunner::dcacheMissRate() const
{
    return dcache.missRate();
}

} // namespace sim
} // namespace gdiff
