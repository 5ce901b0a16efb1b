// The sweep engine's contract: same config, any thread count, identical
// results.  Trials are isolated SimContexts with derived seeds, so a
// run_sweep on a wide pool must be byte-for-byte the serial helpers of
// experiment.hpp, which stay as the reference.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "scenarios/experiment.hpp"
#include "scenarios/live_testbed.hpp"
#include "sim/task_pool.hpp"

namespace tracemod::scenarios {
namespace {

using sim::TaskPool;

/// Exact equality on purpose: the determinism claim is bit-identity, so
/// EXPECT_NEAR would hide exactly the bugs this test exists to catch.
void expect_identical(const BenchmarkOutcome& a, const BenchmarkOutcome& b) {
  EXPECT_EQ(a.ok, b.ok);
  EXPECT_EQ(std::memcmp(&a.elapsed_s, &b.elapsed_s, sizeof(double)), 0);
  EXPECT_EQ(a.andrew.total_s, b.andrew.total_s);
  EXPECT_EQ(a.andrew.scandir_s, b.andrew.scandir_s);
  EXPECT_EQ(a.andrew.rpc_calls, b.andrew.rpc_calls);
  EXPECT_EQ(a.andrew.rpc_retransmissions, b.andrew.rpc_retransmissions);
}

void expect_identical(const core::ReplayTrace& a, const core::ReplayTrace& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto& ta = a.tuples()[i];
    const auto& tb = b.tuples()[i];
    EXPECT_EQ(ta.d, tb.d);
    EXPECT_EQ(ta.latency_s, tb.latency_s);
    EXPECT_EQ(ta.per_byte_bottleneck, tb.per_byte_bottleneck);
    EXPECT_EQ(ta.per_byte_residual, tb.per_byte_residual);
    EXPECT_EQ(ta.loss, tb.loss);
  }
}

ExperimentConfig small_config() {
  ExperimentConfig cfg;
  cfg.trials = 2;
  cfg.compensation_vb = measure_compensation_vb();
  return cfg;
}

TEST(TaskPool, RunsEveryTaskExactlyOnce) {
  TaskPool pool(8);
  EXPECT_EQ(pool.thread_count(), 8u);
  std::atomic<int> hits{0};
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 200; ++i) tasks.push_back([&] { ++hits; });
  pool.run_all(std::move(tasks));
  EXPECT_EQ(hits.load(), 200);
}

TEST(TaskPool, ReusableAcrossBatches) {
  TaskPool pool(3);
  std::atomic<int> hits{0};
  for (int batch = 0; batch < 5; ++batch) {
    std::vector<std::function<void()>> tasks(10, [&] { ++hits; });
    pool.run_all(std::move(tasks));
  }
  EXPECT_EQ(hits.load(), 50);
}

TEST(TaskPool, FirstExceptionPropagates) {
  TaskPool pool(4);
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 16; ++i) {
    tasks.push_back([i] {
      if (i % 4 == 0) throw std::runtime_error("trial failed");
    });
  }
  EXPECT_THROW(pool.run_all(std::move(tasks)), std::runtime_error);
  // The pool survives a throwing batch.
  std::atomic<int> hits{0};
  pool.run_all({[&] { ++hits; }});
  EXPECT_EQ(hits.load(), 1);
}

TEST(TaskPool, SoleExceptionIsRethrownUnchanged) {
  TaskPool pool(4);
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 8; ++i) {
    tasks.push_back([i] {
      if (i == 3) throw std::invalid_argument("only failure");
    });
  }
  // A single failing task's exception must keep its type and message, not
  // get wrapped in a combined error.
  EXPECT_THROW(pool.run_all(std::move(tasks)), std::invalid_argument);
}

TEST(TaskPool, EveryExceptionIsCollectedIntoTheCombinedError) {
  TaskPool pool(4);
  std::atomic<int> ran{0};
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 16; ++i) {
    tasks.push_back([i, &ran] {
      ++ran;
      if (i % 4 == 0) throw std::runtime_error("trial failed");
    });
  }
  try {
    pool.run_all(std::move(tasks));
    FAIL() << "run_all swallowed 4 exceptions";
  } catch (const std::runtime_error& e) {
    // Sibling failures are not swallowed after the first: the combined
    // error names the full count.  (Which failure's message is quoted
    // depends on scheduling, so only the count is asserted.)
    EXPECT_NE(std::string(e.what()).find("4 of 16 tasks failed"),
              std::string::npos)
        << e.what();
  }
  // Every task still ran despite the failures.
  EXPECT_EQ(ran.load(), 16);
}

/// One run_sweep on an 8-thread pool: the engine under test.
SweepResult parallel_sweep(const std::vector<Scenario>& scenarios,
                           const std::vector<BenchmarkKind>& kinds,
                           const ExperimentConfig& cfg) {
  TaskPool pool(8);
  return run_sweep(&pool, scenarios, kinds, cfg);
}

TEST(SweepEngine, LiveTrialsMatchSerialBitForBit) {
  const auto cfg = small_config();
  const auto scenario = wean();
  const auto serial = run_live_trials(scenario, BenchmarkKind::kFtpRecv, cfg);

  const auto sweep = parallel_sweep({scenario}, {BenchmarkKind::kFtpRecv}, cfg);
  const auto& parallel = sweep.cells.at(0).live;

  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    expect_identical(serial[i], parallel[i]);
  }
}

TEST(SweepEngine, ReplayTracesMatchSerialBitForBit) {
  const auto cfg = small_config();
  const auto scenario = porter();
  const auto serial = collect_replay_traces(scenario, cfg);

  const auto sweep = parallel_sweep({scenario}, {BenchmarkKind::kWeb}, cfg);
  const auto& parallel = sweep.cells.at(0).traces;

  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    expect_identical(serial[i], parallel[i]);
  }
}

TEST(SweepEngine, FullExperimentMatchesSerialPipeline) {
  const auto cfg = small_config();
  const auto scenario = wean();

  const auto serial_live =
      run_live_trials(scenario, BenchmarkKind::kWeb, cfg);
  const auto serial_traces = collect_replay_traces(scenario, cfg);
  const auto serial_mod =
      run_modulated_trials(serial_traces, BenchmarkKind::kWeb, cfg);

  const auto sweep = parallel_sweep({scenario}, {BenchmarkKind::kWeb}, cfg);
  ASSERT_EQ(sweep.cells.size(), 1u);
  const CellResult& c = sweep.cells[0];

  ASSERT_EQ(c.live.size(), serial_live.size());
  ASSERT_EQ(c.traces.size(), serial_traces.size());
  ASSERT_EQ(c.modulated.size(), serial_mod.size());
  for (std::size_t i = 0; i < serial_live.size(); ++i) {
    expect_identical(serial_live[i], c.live[i]);
    expect_identical(serial_traces[i], c.traces[i]);
    expect_identical(serial_mod[i], c.modulated[i]);
  }
}

TEST(SweepEngine, EthernetTrialsMatchSerialBitForBit) {
  const auto cfg = small_config();
  const auto serial = run_ethernet_trials(BenchmarkKind::kFtpSend, cfg);
  // No scenario rows: the sweep is the Ethernet baseline alone.
  const auto sweep = parallel_sweep({}, {BenchmarkKind::kFtpSend}, cfg);
  EXPECT_TRUE(sweep.cells.empty());
  ASSERT_EQ(sweep.ethernet.size(), 1u);
  const auto& parallel = sweep.ethernet[0];
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    expect_identical(serial[i], parallel[i]);
  }
}

TEST(SweepEngine, ConcurrentLiveTestbedsHaveIndependentPacketIds) {
  // Two worlds, one per thread: each must stamp the same dense id
  // sequence it would alone, regardless of interleaving.
  auto drive = [](std::uint64_t seed) {
    LiveTestbed bed(wean(), seed);
    for (int i = 0; i < 25; ++i) {
      bed.mobile().node().send(net::make_udp_packet(
          net::IpAddress{}, bed.server_addr(), 1000, 2000, 256));
      bed.loop().run_for(sim::milliseconds(20));
    }
    return bed.context().packet_ids_issued();
  };

  TaskPool pool(2);
  std::uint64_t issued_a = 0, issued_b = 0;
  pool.run_all({
      [&] { issued_a = drive(1); },
      [&] { issued_b = drive(1); },
  });
  EXPECT_GE(issued_a, 25u);
  // Identical seed, identical world: had the counters been shared, the
  // two runs would have split one id space instead of each owning it.
  EXPECT_EQ(issued_a, issued_b);

  EXPECT_EQ(drive(1), issued_a);
}

}  // namespace
}  // namespace tracemod::scenarios
