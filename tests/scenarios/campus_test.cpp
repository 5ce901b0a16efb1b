// The campus-at-scale contracts (ISSUE 6 / DESIGN.md section 11):
//   - a giant spatial cell reproduces the seed scenarios byte-for-byte;
//   - serial and parallel sharded runs produce the same digest;
//   - repeat runs with one seed are deterministic, different seeds differ,
//     and three configurations keep digests recorded before the
//     association poll was rewritten;
//   - a supervised campus run reaches its virtual horizon.
#include "scenarios/campus.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "scenarios/live_testbed.hpp"
#include "scenarios/scenario.hpp"
#include "trace/trace_io.hpp"

namespace tracemod::scenarios {
namespace {

/// Runs a collection traversal and returns the serialized trace bytes --
/// the strongest equivalence handle the repo has.
std::string trace_bytes(const Scenario& scenario, std::uint64_t seed) {
  LiveTestbed testbed(scenario, seed);
  const trace::CollectedTrace trace = testbed.collect_trace();
  std::ostringstream out;
  trace::write_trace(out, trace);
  return out.str();
}

TEST(ShardedEquivalence, GiantCellReproducesSeedScenariosByteForByte) {
  // One cell big enough for all geometry must be indistinguishable from
  // the flat seed medium: same candidate order, same busy arithmetic,
  // same rng draws, so the collected traces serialize identically.
  for (Scenario scenario : {porter(), flagstaff(), wean()}) {
    SCOPED_TRACE(scenario.name);
    const std::string flat = trace_bytes(scenario, 7);
    scenario.channel.spatial.cell_size = 1e6;
    const std::string giant = trace_bytes(scenario, 7);
    EXPECT_EQ(flat, giant);
  }
}

TEST(ShardedEquivalence, CampusWalkScenarioRunsTheCollectionPipeline) {
  // The campus_walk Scenario exercises the sharded medium through the
  // same LiveTestbed/collection path as the paper's four.
  const Scenario scenario = campus_walk();
  ASSERT_TRUE(scenario.channel.spatial.sharded());
  LiveTestbed testbed(scenario, 11);
  const trace::CollectedTrace trace = testbed.collect_trace();
  EXPECT_GT(trace.records.size(), 100u);
  // And it stays deterministic under a fixed seed.
  EXPECT_EQ(trace_bytes(scenario, 11), trace_bytes(scenario, 11));
}

CampusConfig small_campus(unsigned threads) {
  CampusConfig cfg;
  cfg.hosts = 400;
  cfg.horizon = sim::seconds(10);
  cfg.seed = 1234;
  cfg.threads = threads;
  return cfg;
}

TEST(Campus, SerialAndParallelRunsShareOneDigest) {
  const CampusResult serial = run_campus(small_campus(0));
  const CampusResult parallel = run_campus(small_campus(4));
  ASSERT_TRUE(serial.ok);
  ASSERT_TRUE(parallel.ok);
  EXPECT_EQ(serial.digest, parallel.digest);
  EXPECT_EQ(serial.events, parallel.events);
  EXPECT_EQ(serial.frames_delivered, parallel.frames_delivered);
  EXPECT_EQ(serial.handoffs, parallel.handoffs);
  EXPECT_EQ(serial.echoes_received, parallel.echoes_received);
}

TEST(Campus, DigestsMatchValuesRecordedAtTheParent) {
  // The other Campus.* contracts compare runs with each other, so a change
  // that moved every campus result would pass them.  These values were
  // recorded before the association poll was rewritten; they pin both
  // media (the flat one scans every WavePoint) and both scan paths.
  for (unsigned threads : {0u, 4u}) {
    SCOPED_TRACE(threads);
    const CampusResult r = run_campus(small_campus(threads));
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(r.digest, 0xe2ad05b770239237ull);
  }
  CampusConfig cfg;
  cfg.hosts = 1000;
  cfg.horizon = sim::seconds(10);
  cfg.seed = 42;
  EXPECT_EQ(run_campus(cfg).digest, 0x99a9724fe18e75efull);
  cfg.cell_size_m = 0.0;
  EXPECT_EQ(run_campus(cfg).digest, 0x5dada974e6096806ull);
  // At 10k hosts the event heap holds ~13k keys and the carrier-sense
  // grid is wide: the size where their layout matters.
  cfg.hosts = 10000;
  cfg.cell_size_m = CampusConfig{}.cell_size_m;
  EXPECT_EQ(run_campus(cfg).digest, 0x5d575bcb44ba0ab3ull);
}

TEST(Campus, RepeatRunsAreDeterministicAndSeedsMatter) {
  const CampusResult a = run_campus(small_campus(0));
  const CampusResult b = run_campus(small_campus(0));
  EXPECT_EQ(a.digest, b.digest);

  CampusConfig other = small_campus(0);
  other.seed = 99;
  const CampusResult c = run_campus(other);
  EXPECT_NE(a.digest, c.digest);
}

TEST(Campus, SupervisedRunReachesTheHorizon) {
  CampusConfig cfg = small_campus(0);
  cfg.hosts = 200;
  const CampusResult r = run_campus(cfg);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.status, RunStatus::kCompleted);
  EXPECT_NEAR(r.virtual_s, 10.0, 1e-6);
  EXPECT_EQ(r.hosts, 200u);
  EXPECT_GT(r.wavepoints, 0u);
  EXPECT_GT(r.events, 0u);
  EXPECT_GT(r.uplink_sent, 0u);
  EXPECT_GT(r.echoes_received, 0u);
  // Sharded: the WavePoint grid occupies many cells.
  EXPECT_GT(r.occupied_cells, 1u);
}

TEST(Campus, HostsRoamInsideTheQuad) {
  CampusConfig cfg = small_campus(0);
  cfg.hosts = 50;
  CampusWorld world(cfg);
  const double side = world.side_m();
  ASSERT_GT(side, 0.0);
  // Group members ride at small rigid offsets from an in-quad leader, so
  // allow the ring radius beyond the walls.
  const double slack = 5.0;
  for (std::size_t h = 0; h < world.hosts(); ++h) {
    for (double t : {0.0, 5.0, 9.0}) {
      const wireless::Vec2 p =
          world.host_position(h, sim::kEpoch + sim::from_seconds(t));
      EXPECT_GE(p.x, -slack);
      EXPECT_LE(p.x, side + slack);
      EXPECT_GE(p.y, -slack);
      EXPECT_LE(p.y, side + slack);
    }
  }
}

}  // namespace
}  // namespace tracemod::scenarios
