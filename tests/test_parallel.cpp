// Unit tests for the shared thread pool (pgsi::par).
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "common/parallel.hpp"

using namespace pgsi;

namespace {

// Restore the automatic thread count after each test so ordering does not
// leak configuration between suites.
class ParallelTest : public ::testing::Test {
protected:
    ~ParallelTest() override { par::set_thread_count(0); }
};

} // namespace

TEST_F(ParallelTest, CoversEveryIndexExactlyOnce) {
    for (std::size_t threads : {1u, 2u, 8u}) {
        par::set_thread_count(threads);
        std::vector<std::atomic<int>> hits(1000);
        par::parallel_for(hits.size(), [&](std::size_t i) {
            hits[i].fetch_add(1, std::memory_order_relaxed);
        });
        for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
    }
}

TEST_F(ParallelTest, ChunkedRangesPartitionTheIterationSpace) {
    par::set_thread_count(4);
    std::vector<std::atomic<int>> hits(777);
    par::parallel_for_chunked(hits.size(), 13,
                              [&](std::size_t b, std::size_t e) {
                                  EXPECT_LT(b, e);
                                  EXPECT_LE(e, hits.size());
                                  EXPECT_LE(e - b, 13u);
                                  for (std::size_t i = b; i < e; ++i)
                                      hits[i].fetch_add(1,
                                                        std::memory_order_relaxed);
                              });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST_F(ParallelTest, EmptyAndSingleElementRanges) {
    par::set_thread_count(4);
    int calls = 0;
    par::parallel_for(0, [&](std::size_t) { ++calls; });
    EXPECT_EQ(calls, 0);
    par::parallel_for(1, [&](std::size_t i) {
        EXPECT_EQ(i, 0u);
        ++calls;
    });
    EXPECT_EQ(calls, 1);
}

TEST_F(ParallelTest, NestedSubmitRunsInlineWithoutDeadlock) {
    par::set_thread_count(4);
    std::vector<std::atomic<int>> hits(64 * 32);
    par::parallel_for(64, [&](std::size_t outer) {
        EXPECT_TRUE(par::in_parallel_region());
        // A nested parallel_for must execute inline on this worker.
        par::parallel_for(32, [&](std::size_t inner) {
            hits[outer * 32 + inner].fetch_add(1, std::memory_order_relaxed);
        });
    });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
    EXPECT_FALSE(par::in_parallel_region());
}

TEST_F(ParallelTest, ExceptionPropagatesToCaller) {
    par::set_thread_count(4);
    EXPECT_THROW(par::parallel_for(100,
                                   [&](std::size_t i) {
                                       if (i == 57)
                                           throw std::runtime_error("body failed");
                                   }),
                 std::runtime_error);
    // The pool must stay usable after a failed region.
    std::atomic<int> count{0};
    par::parallel_for(100, [&](std::size_t) {
        count.fetch_add(1, std::memory_order_relaxed);
    });
    EXPECT_EQ(count.load(), 100);
}

// The caller retires each job once its own chunk loop returns and waits
// only for the workers that joined it; a worker that wakes after that must
// skip the job rather than touch the caller's finished one. Tens of
// thousands of back-to-back dispatches of near-empty bodies make late wakers
// the common case. Mixed in: caller-only ranges (n <= grain, never published
// to the workers), one throwing body and one mid-stream reconfiguration.
TEST_F(ParallelTest, BackToBackDispatchesKeepCoverageAndErrors) {
    par::set_thread_count(4);
    constexpr std::size_t kDispatches = 20000;
    for (std::size_t d = 0; d < kDispatches; ++d) {
        if (d == kDispatches / 2) par::set_thread_count(3);
        if (d == kDispatches / 4) {
            EXPECT_THROW(par::parallel_for(64,
                                           [](std::size_t i) {
                                               if (i == 40)
                                                   throw std::runtime_error(
                                                       "body failed");
                                           }),
                         std::runtime_error);
            continue;
        }
        const std::size_t n = 1 + d % 37;
        std::vector<std::atomic<int>> hits(n);
        const auto touch = [&](std::size_t b, std::size_t e) {
            for (std::size_t i = b; i < e; ++i)
                hits[i].fetch_add(1, std::memory_order_relaxed);
        };
        par::parallel_for_chunked(n, d % 3 == 0 ? n : 1, touch);
        for (std::size_t i = 0; i < n; ++i)
            ASSERT_EQ(hits[i].load(), 1)
                << "dispatch " << d << ", index " << i;
    }
    EXPECT_EQ(par::thread_count(), 3u);
}

TEST_F(ParallelTest, SetThreadCountReconfigures) {
    par::set_thread_count(2);
    EXPECT_EQ(par::thread_count(), 2u);
    par::set_thread_count(8);
    EXPECT_EQ(par::thread_count(), 8u);
    par::set_thread_count(0);
    EXPECT_GE(par::thread_count(), 1u);
}

TEST(ParallelEnv, ParseThreadCount) {
    EXPECT_EQ(par::parse_thread_count(nullptr, 7), 7u);
    EXPECT_EQ(par::parse_thread_count("", 7), 7u);
    EXPECT_EQ(par::parse_thread_count("8", 7), 8u);
    EXPECT_EQ(par::parse_thread_count("1", 7), 1u);
    EXPECT_EQ(par::parse_thread_count("abc", 7), 7u);
    EXPECT_EQ(par::parse_thread_count("4x", 7), 7u);
    EXPECT_EQ(par::parse_thread_count("0", 7), 7u);
    EXPECT_EQ(par::parse_thread_count("-3", 7), 7u);
    EXPECT_EQ(par::parse_thread_count("99999", 7), 1024u); // clamped
}
