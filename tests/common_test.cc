#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/cancel.h"
#include "common/percentile.h"
#include "common/regression.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/table.h"
#include "common/thread_pool.h"
#include "common/units.h"

namespace harmony {
namespace {

TEST(Units, Constructors) {
  EXPECT_EQ(GiB(1), 1024LL * 1024 * 1024);
  EXPECT_EQ(MiB(2), 2LL * 1024 * 1024);
  EXPECT_EQ(KiB(3), 3LL * 1024);
  EXPECT_EQ(GiB(11.0), 11LL * 1024 * 1024 * 1024);
  EXPECT_DOUBLE_EQ(GiBps(16.0), 16.0 * 1024 * 1024 * 1024);
}

TEST(Units, FormatBytes) {
  EXPECT_EQ(FormatBytes(512), "512 B");
  EXPECT_EQ(FormatBytes(GiB(11)), "11.00 GiB");
  EXPECT_EQ(FormatBytes(MiB(1.5)), "1.50 MiB");
  EXPECT_EQ(FormatBytes(KiB(4)), "4.00 KiB");
}

TEST(Units, FormatTime) {
  EXPECT_EQ(FormatTime(1.5), "1.500 s");
  EXPECT_EQ(FormatTime(0.012), "12.000 ms");
  EXPECT_EQ(FormatTime(42e-6), "42.000 us");
}

TEST(Status, OkAndErrors) {
  EXPECT_TRUE(Status::Ok().ok());
  const Status s = Status::InvalidArgument("bad");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.ToString(), "INVALID_ARGUMENT: bad");
  EXPECT_EQ(Status::OutOfMemory("x").code(), StatusCode::kOutOfMemory);
}

TEST(Result, ValueAndStatus) {
  Result<int> ok(42);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 42);
  EXPECT_TRUE(ok.status().ok());

  Result<int> err(Status::NotFound("nope"));
  ASSERT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kNotFound);
}

TEST(Rng, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += a.NextU64() == b.NextU64();
  EXPECT_LT(equal, 2);
}

TEST(Rng, BoundedInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
    const int64_t v = rng.NextInt(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(9);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.NextDouble();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, GaussianMoments) {
  Rng rng(11);
  double sum = 0, sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.NextGaussian();
    sum += g;
    sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(Rng, SplitIndependence) {
  Rng parent(5);
  Rng c1 = parent.Split(1);
  Rng c2 = parent.Split(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += c1.NextU64() == c2.NextU64();
  EXPECT_LT(equal, 2);
}

TEST(Percentile, NearestRank) {
  std::vector<double> ten;
  for (int i = 1; i <= 10; ++i) ten.push_back(i);
  EXPECT_EQ(NearestRankPercentile(ten, 0.99), 10.0);  // the max, not the 9th
  EXPECT_EQ(NearestRankPercentile(ten, 0.50), 5.0);
  EXPECT_EQ(NearestRankPercentile(ten, 0.0), 1.0);
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  EXPECT_EQ(NearestRankPercentile(hundred, 0.50), 50.0);
  EXPECT_EQ(NearestRankPercentile(hundred, 0.99), 99.0);
  EXPECT_EQ(NearestRankPercentile({}, 0.99), 0.0);
}

TEST(Regression, ExactLinearFit) {
  const std::vector<double> x = {1, 2, 4, 8, 16};
  std::vector<double> y;
  for (double xi : x) y.push_back(3.0 + 2.0 * xi);
  const auto fit = LinearRegression::Fit(x, y);
  EXPECT_NEAR(fit.slope(), 2.0, 1e-9);
  EXPECT_NEAR(fit.intercept(), 3.0, 1e-9);
  EXPECT_NEAR(fit.r_squared(), 1.0, 1e-9);
  EXPECT_NEAR(fit.Predict(32), 67.0, 1e-9);
}

TEST(Regression, SinglePointIsConstant) {
  const auto fit = LinearRegression::Fit({4}, {7});
  EXPECT_DOUBLE_EQ(fit.Predict(100), 7.0);
}

TEST(Regression, ClampsNegativePredictions) {
  const auto fit = LinearRegression::Fit({1, 2}, {1.0, 2.0});
  EXPECT_DOUBLE_EQ(fit.Predict(-10), 0.0);
}

TEST(Regression, NoisyFitHasReasonableR2) {
  Rng rng(3);
  std::vector<double> x, y;
  for (int i = 1; i <= 32; ++i) {
    x.push_back(i);
    y.push_back(5.0 * i + 10 + rng.NextGaussian() * 0.5);
  }
  const auto fit = LinearRegression::Fit(x, y);
  EXPECT_GT(fit.r_squared(), 0.99);
  EXPECT_NEAR(fit.slope(), 5.0, 0.1);
}

TEST(ThreadPool, TaskExceptionPropagatesToSubmitter) {
  common::ThreadPool pool(2);
  auto bad = pool.Submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(bad.get(), std::runtime_error);
  // The worker survives the throw; later tasks run normally.
  auto good = pool.Submit([]() { return 41 + 1; });
  EXPECT_EQ(good.get(), 42);
}

TEST(ThreadPool, SubmitAfterShutdownReturnsShutdownError) {
  common::ThreadPool pool(1);
  pool.Shutdown();
  auto rejected = pool.Submit([]() { return 1; });
  EXPECT_THROW(rejected.get(), common::ThreadPool::ShutdownError);
}

TEST(ThreadPool, ShutdownDrainsQueuedTasksAndIsIdempotent) {
  common::ThreadPool pool(1);
  std::atomic<int> ran{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 16; ++i) {
    futures.push_back(pool.Submit([&ran]() {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      ran.fetch_add(1);
    }));
  }
  pool.Shutdown();
  EXPECT_EQ(ran.load(), 16);  // nothing already queued was dropped
  for (auto& f : futures) EXPECT_NO_THROW(f.get());
  pool.Shutdown();  // second call is a no-op, not a crash
}

TEST(ThreadPool, ConcurrentShutdownCallersAllBlockUntilDrained) {
  common::ThreadPool pool(2);
  std::atomic<int> ran{0};
  for (int i = 0; i < 8; ++i) {
    pool.Submit([&ran]() {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      ran.fetch_add(1);
    });
  }
  std::vector<std::thread> callers;
  for (int i = 0; i < 4; ++i) {
    callers.emplace_back([&pool, &ran]() {
      pool.Shutdown();
      // Any caller that returns must observe the fully drained queue.
      EXPECT_EQ(ran.load(), 8);
    });
  }
  for (std::thread& t : callers) t.join();
}

TEST(ThreadPool, RunsEverySubmittedTask) {
  common::ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4);
  std::vector<std::future<int>> futures;
  futures.reserve(100);
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.Submit([i]() { return i * i; }));
  }
  int sum = 0;
  for (auto& f : futures) sum += f.get();
  int expected = 0;
  for (int i = 0; i < 100; ++i) expected += i * i;
  EXPECT_EQ(sum, expected);
}

TEST(ThreadPool, ShutdownDrainsPendingTasks) {
  std::atomic<int> ran{0};
  {
    common::ThreadPool pool(2);
    for (int i = 0; i < 64; ++i) {
      pool.Submit([&ran]() { ran.fetch_add(1, std::memory_order_relaxed); });
    }
    // Destructor must satisfy every future before joining.
  }
  EXPECT_EQ(ran.load(), 64);
}

TEST(ThreadPool, ZeroSelectsHardwareConcurrency) {
  common::ThreadPool pool(0);
  EXPECT_GE(pool.num_threads(), 1);
  EXPECT_EQ(pool.Submit([]() { return 42; }).get(), 42);
}

TEST(ThreadPool, SerialRunsInOrderWithWorkerZero) {
  common::ThreadPool pool(4);
  std::vector<int> order;
  pool.Run(5, 1, [&](int run, int worker) {
    EXPECT_EQ(worker, 0);
    order.push_back(run);
  });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ThreadPool, WorkerIndexStaysInRange) {
  common::ThreadPool pool(8);
  std::vector<std::atomic<int>> hits(4);
  pool.Run(64, 4, [&](int, int worker) {
    ASSERT_GE(worker, 0);
    ASSERT_LT(worker, 4);
    hits[worker].fetch_add(1, std::memory_order_relaxed);
  });
  int total = 0;
  for (auto& h : hits) total += h.load();
  EXPECT_EQ(total, 64);
}

TEST(ThreadPool, RunFromInsideBusyPoolCompletes) {
  // Both workers sit inside tasks that each fan out over the same pool, so
  // every helper those Runs queue waits behind a busy worker. Run must not
  // wait for them: each caller finishes its runs alone. A Run that waited
  // for every queued helper hangs here (the ctest TIMEOUT fails it).
  constexpr int kRuns = 64;
  common::ThreadPool pool(2);
  std::atomic<int> entered{0};
  auto task = [&pool, &entered]() {
    entered.fetch_add(1);
    while (entered.load() < 2) std::this_thread::yield();
    std::vector<std::atomic<int>> hits(kRuns);
    pool.Run(kRuns, 3, [&hits](int run, int worker) {
      EXPECT_GE(worker, 0);
      EXPECT_LT(worker, 3);
      hits[run].fetch_add(1, std::memory_order_relaxed);
    });
    int exactly_once = 0;
    for (auto& h : hits) exactly_once += h.load() == 1;
    return exactly_once;
  };
  auto a = pool.Submit(task);
  auto b = pool.Submit(task);
  EXPECT_EQ(a.get(), kRuns);
  EXPECT_EQ(b.get(), kRuns);
}

TEST(ThreadPool, LateHelperNeverTouchesFinishedBatch) {
  // Even batches finish before most of their helpers are dequeued: a late
  // helper that reached the finished batch, or fn's captures in this frame,
  // is a stack-use-after-return under ASan and a race under TSan. In odd
  // batches helpers hold each run three times as long as the caller, so
  // the caller often closes the batch while helpers are still inside runs;
  // a Run that did not wait for them races with the check below.
  common::ThreadPool pool(2);
  for (int i = 0; i < 4000; ++i) {
    int hits[4] = {0, 0, 0, 0};
    const int hold_us = i % 2 == 1 ? 10 : 0;
    pool.Run(4, 3, [&hits, hold_us](int run, int worker) {
      const auto until = std::chrono::steady_clock::now() +
                         std::chrono::microseconds(hold_us * (worker ? 3 : 1));
      while (std::chrono::steady_clock::now() < until) {
      }
      ++hits[run];
    });
    for (int h : hits) ASSERT_EQ(h, 1) << "batch " << i;
  }
}

TEST(CancelToken, CancelReportsFirstTripperExactlyOnce) {
  // The first-tripper contract: exactly one caller — across any number of
  // threads — learns it tripped the token. The executor's watchdog leans on
  // this to tell "I am cancelling a wedged run" from "someone already
  // cancelled gracefully" and to report kInternal vs kCancelled accordingly.
  common::CancelToken token;
  EXPECT_TRUE(token.Cancel());
  EXPECT_FALSE(token.Cancel());
  EXPECT_FALSE(token.Cancel());
  EXPECT_TRUE(token.Cancelled());

  common::CancelToken contended;
  std::atomic<int> trippers{0};
  std::vector<std::thread> callers;
  for (int i = 0; i < 8; ++i) {
    callers.emplace_back([&]() {
      if (contended.Cancel()) ++trippers;
    });
  }
  for (std::thread& t : callers) t.join();
  EXPECT_EQ(trippers.load(), 1);
}

TEST(CancelToken, ExplicitCancelAndDeadline) {
  common::CancelToken token;
  EXPECT_FALSE(token.Cancelled());
  token.Cancel();
  EXPECT_TRUE(token.Cancelled());
  EXPECT_FALSE(token.DeadlinePassed());

  common::CancelToken deadline;
  deadline.SetDeadlineAfter(std::chrono::hours(1));
  EXPECT_FALSE(deadline.Cancelled());
  deadline.SetDeadlineAfter(std::chrono::nanoseconds(-1));  // already passed
  EXPECT_TRUE(deadline.Cancelled());
  EXPECT_TRUE(deadline.DeadlinePassed());
}

TEST(Table, AsciiAndCsv) {
  Table t({"model", "time"});
  t.AddRow({"GPT2", Table::Cell(1.5)});
  t.AddRow({"BERT96", Table::Cell(int64_t{42})});
  EXPECT_EQ(t.num_rows(), 2);
  std::ostringstream ascii, csv;
  t.PrintAscii(&ascii);
  t.PrintCsv(&csv);
  EXPECT_NE(ascii.str().find("GPT2"), std::string::npos);
  EXPECT_EQ(csv.str(), "model,time\nGPT2,1.50\nBERT96,42\n");
}

}  // namespace
}  // namespace harmony
