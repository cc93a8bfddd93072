/**
 * @file
 * Property-based tests: invariants that must hold across whole
 * parameter sweeps, checked with TEST_P / INSTANTIATE_TEST_SUITE_P
 * and randomised reference models.
 */

#include <gtest/gtest.h>

#include <deque>
#include <tuple>

#include "core/gdiff.hh"
#include "isa/program_builder.hh"
#include "mem/cache.hh"
#include "util/random.hh"
#include "util/ring_history.hh"
#include "workload/executor.hh"

namespace gdiff {
namespace {

// ------------------------------------------------ gdiff order property

/** Params: (gdiff order, correlation distance). */
class GdiffOrderProperty
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned>>
{
};

/**
 * Invariant: a pure global-stride correlation at distance d is
 * predicted near-perfectly iff d < order (entry d of the visible
 * window exists), and never when d >= order.
 */
TEST_P(GdiffOrderProperty, DistanceVisibilityBoundary)
{
    auto [order, distance] = GetParam();
    core::GDiffConfig cfg;
    cfg.order = order;
    cfg.tableEntries = 0;
    core::GDiffPredictor p(cfg);

    Xorshift64Star rng(order * 131 + distance);
    unsigned correct = 0, trials = 0;
    for (int i = 0; i < 60; ++i) {
        int64_t base = static_cast<int64_t>(rng.next() >> 16);
        // the correlated producer
        p.update(0x400000, base);
        // (distance - 1) uncorrelated producers in between
        for (unsigned k = 1; k < distance; ++k) {
            p.update(0x401000 + k * 4,
                     static_cast<int64_t>(rng.next() >> 16));
        }
        int64_t guess;
        if (i > 4) {
            ++trials;
            if (p.predict(0x402000, guess) && guess == base + 13)
                ++correct;
        }
        p.update(0x402000, base + 13);
    }

    if (distance - 1 < order) {
        // base sits at window index (distance - 1): predictable
        EXPECT_GE(correct, trials - 2)
            << "order=" << order << " distance=" << distance;
    } else {
        EXPECT_LE(correct, 2u)
            << "order=" << order << " distance=" << distance;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GdiffOrderProperty,
    ::testing::Combine(::testing::Values(2u, 4u, 8u, 16u, 32u),
                       ::testing::Values(1u, 2u, 4u, 8u, 16u, 32u)),
    [](const auto &info) {
        return "order" + std::to_string(std::get<0>(info.param)) +
               "_dist" + std::to_string(std::get<1>(info.param));
    });

// ------------------------------------------------ delay window property

class GvqDelayProperty : public ::testing::TestWithParam<unsigned>
{
};

/** Invariant: the delayed window is exactly the undelayed window
 * shifted by T pushes. */
TEST_P(GvqDelayProperty, WindowIsShiftedHistory)
{
    unsigned delay = GetParam();
    core::GlobalValueQueue delayed(8, delay);
    std::deque<int64_t> reference; // newest at front

    Xorshift64Star rng(delay + 5);
    for (int i = 0; i < 100; ++i) {
        int64_t v = static_cast<int64_t>(rng.next() >> 8);
        delayed.push(v);
        reference.push_front(v);

        core::ValueWindow w;
        delayed.visibleWindow(w);
        size_t expect_count =
            reference.size() > delay
                ? std::min<size_t>(8, reference.size() - delay)
                : 0;
        ASSERT_EQ(w.count, expect_count);
        for (unsigned k = 0; k < w.count; ++k)
            EXPECT_EQ(w.values[k], reference[delay + k]);
    }
}

INSTANTIATE_TEST_SUITE_P(Sweep, GvqDelayProperty,
                         ::testing::Values(0u, 1u, 2u, 4u, 8u, 16u));

// ----------------------------------------------------- cache properties

class CacheGeometryProperty
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned>>
{
};

/**
 * Invariants for any geometry: (1) a working set exactly the cache
 * size, revisited, hits every time; (2) LRU-streaming a working set
 * twice the cache size never hits on revisits.
 */
TEST_P(CacheGeometryProperty, ResidencyBoundary)
{
    auto [size_kb, assoc] = GetParam();
    mem::CacheConfig cfg;
    cfg.sizeBytes = size_kb * 1024;
    cfg.assoc = assoc;
    cfg.lineBytes = 64;
    mem::Cache fits(cfg);
    mem::Cache thrashes(cfg);

    uint64_t lines = cfg.sizeBytes / cfg.lineBytes;
    // (1) resident working set
    for (int pass = 0; pass < 3; ++pass)
        for (uint64_t i = 0; i < lines; ++i)
            fits.access(i * 64);
    EXPECT_EQ(fits.misses(), lines);

    // (2) double-size streaming under LRU
    for (int pass = 0; pass < 3; ++pass)
        for (uint64_t i = 0; i < 2 * lines; ++i)
            thrashes.access(i * 64);
    EXPECT_EQ(thrashes.misses(), thrashes.accesses());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CacheGeometryProperty,
    ::testing::Combine(::testing::Values(4u, 16u, 64u),
                       ::testing::Values(1u, 2u, 4u, 8u)),
    [](const auto &info) {
        return std::to_string(std::get<0>(info.param)) + "kb_a" +
               std::to_string(std::get<1>(info.param));
    });

// ----------------------------------------- ring history reference model

TEST(RingHistoryProperty, MatchesDequeModelUnderRandomOps)
{
    Xorshift64Star rng(404);
    for (unsigned cap : {1u, 2u, 3u, 7u, 16u}) {
        RingHistory<int64_t> ring(cap);
        std::deque<int64_t> model; // newest at front
        for (int step = 0; step < 2000; ++step) {
            uint64_t op = rng.below(10);
            if (op < 6) {
                int64_t v = static_cast<int64_t>(rng.next() >> 40);
                ring.push(v);
                model.push_front(v);
                if (model.size() > cap)
                    model.pop_back();
            } else if (op < 8 && !model.empty()) {
                size_t k = static_cast<size_t>(
                    rng.below(model.size()));
                int64_t v = static_cast<int64_t>(rng.next() >> 40);
                EXPECT_TRUE(ring.replace(k, v));
                model[k] = v;
            } else {
                size_t k = static_cast<size_t>(rng.below(cap + 2));
                int64_t expect =
                    k < model.size() ? model[k] : 0;
                EXPECT_EQ(ring[k], expect);
            }
            ASSERT_EQ(ring.size(), model.size());
        }
    }
}

// ---------------------------------------- executor differential fuzzing

/**
 * Randomised differential test: straight-line ALU programs executed
 * by the Executor must match an independent reference interpreter.
 */
TEST(ExecutorProperty, RandomAluProgramsMatchReference)
{
    using namespace isa;
    Xorshift64Star rng(777);

    for (int trial = 0; trial < 50; ++trial) {
        ProgramBuilder b("fuzz");
        std::vector<Instruction> emitted;
        // seed registers 16..23 with random values via li
        std::array<int64_t, numRegs> ref{};
        for (Reg r = 16; r < 24; ++r) {
            int64_t v = static_cast<int64_t>(rng.next());
            b.li(r, v);
            ref[r] = v;
        }
        auto rnd_reg = [&]() {
            return static_cast<Reg>(8 + rng.below(16)); // r8..r23
        };
        for (int i = 0; i < 40; ++i) {
            Reg rd = rnd_reg(), rs1 = rnd_reg(), rs2 = rnd_reg();
            uint64_t a = static_cast<uint64_t>(ref[rs1]);
            uint64_t c = static_cast<uint64_t>(ref[rs2]);
            switch (rng.below(7)) {
              case 0:
                b.add(rd, rs1, rs2);
                ref[rd] = static_cast<int64_t>(a + c);
                break;
              case 1:
                b.sub(rd, rs1, rs2);
                ref[rd] = static_cast<int64_t>(a - c);
                break;
              case 2:
                b.mul(rd, rs1, rs2);
                ref[rd] = static_cast<int64_t>(a * c);
                break;
              case 3:
                b.xor_(rd, rs1, rs2);
                ref[rd] = static_cast<int64_t>(a ^ c);
                break;
              case 4:
                b.and_(rd, rs1, rs2);
                ref[rd] = static_cast<int64_t>(a & c);
                break;
              case 5:
                b.or_(rd, rs1, rs2);
                ref[rd] = static_cast<int64_t>(a | c);
                break;
              default:
                b.srl(rd, rs1, rs2);
                ref[rd] = static_cast<int64_t>(a >> (c & 63));
                break;
            }
        }
        b.halt();
        workload::Executor exec(b.build());
        workload::TraceRecord r;
        while (exec.next(r)) {
        }
        for (unsigned reg = 0; reg < numRegs; ++reg) {
            EXPECT_EQ(exec.reg(static_cast<isa::Reg>(reg)), ref[reg])
                << "trial " << trial << " register " << reg;
        }
    }
}

} // namespace
} // namespace gdiff
