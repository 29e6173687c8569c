// Tests for the SSN study helpers: switching sweeps, decap sweeps and the
// worst-pattern search (run on reduced settings for speed).
#include <gtest/gtest.h>

#include "si/ssn.hpp"
#include "tests/test_util.hpp"

using namespace pgsi;
using pgsi::test::coarse_ssn;

TEST(Ssn, SwitchingSweepMonotonePlaneNoise) {
    const auto rows =
        sweep_switching_drivers({1, 4, 16}, coarse_ssn(), 50e-12, 4e-9);
    ASSERT_EQ(rows.size(), 3u);
    EXPECT_EQ(rows[0].n_switching, 1);
    EXPECT_GT(rows[1].peak_plane_noise, rows[0].peak_plane_noise);
    EXPECT_GT(rows[2].peak_plane_noise, rows[1].peak_plane_noise);
}

TEST(Ssn, DecapSweepReducesNoise) {
    Decap proto;
    proto.c = 100e-9;
    proto.esr = 30e-3;
    proto.esl = 1e-9;
    const auto rows = sweep_decap_count(4, proto, coarse_ssn(), 50e-12, 4e-9);
    ASSERT_GE(rows.size(), 3u);
    EXPECT_EQ(rows.front().n_decaps, 0u);
    EXPECT_EQ(rows.back().n_decaps, 4u);
    EXPECT_LT(rows.back().peak_plane_noise, rows.front().peak_plane_noise);
}

TEST(Ssn, WorstPatternGrowsMonotonically) {
    auto plane = std::make_shared<PlaneModel>(make_ssn_eval_board(0), coarse_ssn());
    const Source input = Source::pulse(0, 1, 1e-9, 1e-9, 1e-9, 4e-9);
    const SwitchingPatternResult res =
        find_worst_switching_pattern(plane, 3, input, 50e-12, 4e-9);
    ASSERT_EQ(res.pattern.size(), 3u);
    // Distinct sites, monotone worst-case noise.
    EXPECT_NE(res.pattern[0], res.pattern[1]);
    EXPECT_NE(res.pattern[1], res.pattern[2]);
    EXPECT_GE(res.noise_after[1], res.noise_after[0] * 0.999);
    EXPECT_GE(res.noise_after[2], res.noise_after[1] * 0.999);
}

TEST(Ssn, WorstPatternValidation) {
    auto plane = std::make_shared<PlaneModel>(make_ssn_eval_board(0), coarse_ssn());
    const Source input = Source::pulse(0, 1, 1e-9, 1e-9, 1e-9, 4e-9);
    EXPECT_THROW(find_worst_switching_pattern(plane, 0, input, 50e-12, 2e-9),
                 InvalidArgument);
    EXPECT_THROW(find_worst_switching_pattern(plane, 99, input, 50e-12, 2e-9),
                 InvalidArgument);
}
