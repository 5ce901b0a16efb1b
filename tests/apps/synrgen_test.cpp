#include "apps/synrgen.hpp"

#include <gtest/gtest.h>

#include "../transport/testbed.hpp"

namespace tracemod::apps {
namespace {

using tracemod::testing::EthernetPair;

TEST(SynRGen, CreatesWorkingFilesAndCycles) {
  EthernetPair net;
  NfsServer server(net.server, 2049);
  SynRGenUser user(net.client, {net.server_addr, 2049}, "u0", 11);
  user.start();
  net.loop.run_for(sim::seconds(60));
  user.stop();

  EXPECT_TRUE(server.exists("home/u0/f0"));
  EXPECT_TRUE(server.exists("home/u0/f9"));
  EXPECT_GT(user.stats().cycles, 10u);
  EXPECT_GT(user.stats().edits + user.stats().compiles, 10u);
  EXPECT_GT(user.nfs().stats().calls, 100u);
}

TEST(SynRGen, StopHaltsTraffic) {
  EthernetPair net;
  NfsServer server(net.server, 2049);
  SynRGenUser user(net.client, {net.server_addr, 2049}, "u0", 11);
  user.start();
  net.loop.run_for(sim::seconds(20));
  user.stop();
  const auto calls = user.nfs().stats().calls;
  net.loop.run_for(sim::seconds(20));
  EXPECT_EQ(user.nfs().stats().calls, calls);
}

TEST(SynRGen, MultipleUsersShareOneServer) {
  EthernetPair net;
  NfsServer server(net.server, 2049);
  std::vector<std::unique_ptr<SynRGenUser>> users;
  for (int i = 0; i < 5; ++i) {
    users.push_back(std::make_unique<SynRGenUser>(
        net.client, net::Endpoint{net.server_addr, 2049},
        std::string("u") + std::to_string(i), 100 + i));
    users.back()->start();
  }
  net.loop.run_for(sim::seconds(30));
  for (auto& u : users) {
    u->stop();
    EXPECT_GT(u->stats().cycles, 3u);
  }
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(server.exists("home/u" + std::to_string(i) + "/f0"));
  }
}

TEST(SynRGen, SeedsDiversifyBehaviour) {
  EthernetPair net;
  NfsServer server(net.server, 2049);
  SynRGenUser a(net.client, {net.server_addr, 2049}, "a", 1);
  SynRGenUser b(net.client, {net.server_addr, 2049}, "b", 2);
  a.start();
  b.start();
  net.loop.run_for(sim::seconds(120));
  a.stop();
  b.stop();
  EXPECT_NE(a.nfs().stats().calls, b.nfs().stats().calls);
}

}  // namespace
}  // namespace tracemod::apps
