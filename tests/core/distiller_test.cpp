#include "core/distiller.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "core/stream_distiller.hpp"
#include "sim/random.hpp"

namespace tracemod::core {
namespace {

constexpr double kS1 = 60.0;    // small echo, IP bytes
constexpr double kS2 = 1052.0;  // large echo, IP bytes

/// Builds a ping-workload trace whose round-trips follow the paper's model
/// exactly for the given ground-truth parameters.
struct TraceBuilder {
  trace::CollectedTrace trace;
  std::uint16_t seq = 0;

  void add_group(double at_s, double f, double vb, double vr,
                 bool drop_reply1 = false, bool drop_reply2 = false,
                 bool drop_reply3 = false) {
    const double v = vb + vr;
    const double t1 = 2 * (f + kS1 * v);
    const double t2 = 2 * (f + kS2 * v);
    const double t3 = t2 + kS2 * vb;
    add_packet(at_s, kS1, t1, drop_reply1);
    add_packet(at_s + 0.001, kS2, t2, drop_reply2);
    add_packet(at_s + 0.002, kS2, t3, drop_reply3);
  }

  void add_packet(double at_s, double bytes, double rtt_s, bool drop_reply) {
    trace::PacketRecord echo;
    echo.at = sim::kEpoch + sim::from_seconds(at_s);
    echo.dir = trace::PacketDirection::kOutgoing;
    echo.protocol = net::Protocol::kIcmp;
    echo.icmp_kind = trace::IcmpKind::kEcho;
    echo.icmp_seq = seq;
    echo.ip_bytes = static_cast<std::uint32_t>(bytes);
    trace.records.emplace_back(echo);
    if (!drop_reply) {
      trace::PacketRecord reply = echo;
      reply.dir = trace::PacketDirection::kIncoming;
      reply.icmp_kind = trace::IcmpKind::kEchoReply;
      reply.echo_origin = echo.at;
      reply.at = echo.at + sim::from_seconds(rtt_s);
      trace.records.emplace_back(reply);
    }
    ++seq;
  }
};

TEST(Distiller, RecoversExactParametersFromCleanTrace) {
  TraceBuilder b;
  const double f = 0.0025, vb = 5e-6, vr = 1e-6;
  for (int s = 0; s < 30; ++s) b.add_group(s, f, vb, vr);

  Distiller d;
  const ReplayTrace out = d.distill(b.trace);
  ASSERT_GT(out.size(), 20u);
  EXPECT_EQ(d.stats().groups_total, 30u);
  EXPECT_EQ(d.stats().groups_corrected, 0u);
  for (const auto& t : out.tuples()) {
    EXPECT_NEAR(t.latency_s, f, 1e-9);
    EXPECT_NEAR(t.per_byte_bottleneck, vb, 1e-12);
    EXPECT_NEAR(t.per_byte_residual, vr, 1e-12);
    EXPECT_DOUBLE_EQ(t.loss, 0.0);
  }
}

TEST(Distiller, TracksAStepChangeWithinTheWindow) {
  TraceBuilder b;
  for (int s = 0; s < 20; ++s) b.add_group(s, 0.002, 4e-6, 1e-6);
  for (int s = 20; s < 40; ++s) b.add_group(s, 0.010, 10e-6, 2e-6);

  Distiller d;
  const ReplayTrace out = d.distill(b.trace);
  ASSERT_GT(out.size(), 30u);
  // Early tuples at the old value, late tuples at the new one; the 5 s
  // window smears only the transition region.
  EXPECT_NEAR(out.tuples()[5].latency_s, 0.002, 1e-6);
  EXPECT_NEAR(out.tuples()[32].latency_s, 0.010, 1e-6);
  EXPECT_NEAR(out.tuples()[5].per_byte_bottleneck, 4e-6, 1e-9);
  EXPECT_NEAR(out.tuples()[32].per_byte_bottleneck, 10e-6, 1e-9);
}

TEST(Distiller, NegativeParameterTakesCorrectionPath) {
  TraceBuilder b;
  for (int s = 0; s < 10; ++s) b.add_group(s, 0.002, 4e-6, 1e-6);
  // A group whose small echo got stuck behind a media-access delay: its
  // raw solution has negative V (t1 > t2's implied line).
  {
    const double v = 5e-6;
    const double t1 = 2 * (0.002 + kS1 * v) + 0.080;  // +80 ms spike
    const double t2 = 2 * (0.002 + kS2 * v);
    const double t3 = t2 + kS2 * 4e-6;
    b.add_packet(10.0, kS1, t1, false);
    b.add_packet(10.001, kS2, t2, false);
    b.add_packet(10.002, kS2, t3, false);
  }
  for (int s = 11; s < 20; ++s) b.add_group(s, 0.002, 4e-6, 1e-6);

  Distiller d;
  const ReplayTrace out = d.distill(b.trace);
  EXPECT_EQ(d.stats().groups_corrected, 1u);
  // The spike lands in F (divided by the window average), Vb/Vr stay.
  double max_latency = 0;
  for (const auto& t : out.tuples()) {
    max_latency = std::max(max_latency, t.latency_s);
    EXPECT_NEAR(t.per_byte_bottleneck, 4e-6, 1e-9);
  }
  EXPECT_GT(max_latency, 0.005);
}

TEST(Distiller, CorrectionDoesNotCascade) {
  // After a corrected group, the baseline must still be the last *good*
  // estimate: a second spike is corrected relative to 2 ms, not to the
  // previous corrected value.
  TraceBuilder b;
  for (int s = 0; s < 6; ++s) b.add_group(s, 0.002, 4e-6, 1e-6);
  for (int s = 6; s < 8; ++s) {
    const double v = 5e-6;
    b.add_packet(s, kS1, 2 * (0.002 + kS1 * v) + 0.050, false);
    b.add_packet(s + 0.001, kS2, 2 * (0.002 + kS2 * v), false);
    b.add_packet(s + 0.002, kS2, 2 * (0.002 + kS2 * v) + kS2 * 4e-6, false);
  }
  Distiller d;
  d.distill(b.trace);
  ASSERT_EQ(d.stats().groups_corrected, 2u);
  const auto& estimates = d.estimates();
  // Both corrected estimates sit near baseline + spike/2 (~27 ms), not
  // baseline + spike (~52 ms) as cascading would produce.
  const auto& e6 = estimates[6];
  const auto& e7 = estimates[7];
  ASSERT_TRUE(e6.corrected);
  ASSERT_TRUE(e7.corrected);
  EXPECT_NEAR(e6.latency_s, e7.latency_s, 1e-6);
  EXPECT_LT(e7.latency_s, 0.040);
}

TEST(Distiller, SkipsGroupsBeforeFirstGoodEstimate) {
  TraceBuilder b;
  // Only pathological groups: t3 < t2 (negative Vb) with no prior good.
  for (int s = 0; s < 5; ++s) {
    b.add_packet(s, kS1, 0.004, false);
    b.add_packet(s + 0.001, kS2, 0.014, false);
    b.add_packet(s + 0.002, kS2, 0.013, false);  // t3 < t2
  }
  Distiller d;
  const ReplayTrace out = d.distill(b.trace);
  EXPECT_EQ(d.stats().groups_skipped, 5u);
  EXPECT_TRUE(out.empty());
}

TEST(Distiller, IncompleteGroupsAreIgnoredForDelay) {
  TraceBuilder b;
  for (int s = 0; s < 10; ++s) {
    b.add_group(s, 0.002, 4e-6, 1e-6, /*drop1=*/false, /*drop2=*/s % 3 == 0);
  }
  Distiller d;
  const ReplayTrace out = d.distill(b.trace);
  EXPECT_EQ(d.stats().groups_total, 6u);  // 4 of 10 lost a reply
  EXPECT_FALSE(out.empty());
}

TEST(Distiller, LossFromSequenceGaps) {
  TraceBuilder b;
  // Drop the third reply of every other group: 1 of every 6 replies
  // missing, while half the groups stay complete for delay estimation.
  for (int s = 0; s < 40; ++s) {
    b.add_group(s, 0.002, 4e-6, 1e-6, false, false, s % 2 == 0);
  }
  Distiller d;
  const ReplayTrace out = d.distill(b.trace);
  ASSERT_FALSE(out.empty());
  // b/a = 5/6 => L = 1 - sqrt(5/6) ~ 0.0871.
  const double expected = 1.0 - std::sqrt(5.0 / 6.0);
  // Interior tuples (edge windows see partial data).
  for (std::size_t i = 5; i + 5 < out.size(); ++i) {
    EXPECT_NEAR(out.tuples()[i].loss, expected, 0.03);
  }
}

TEST(Distiller, TotalOutageFillsForwardAndCapsLoss) {
  TraceBuilder b;
  for (int s = 0; s < 10; ++s) b.add_group(s, 0.002, 4e-6, 1e-6);
  for (int s = 10; s < 20; ++s) {
    b.add_group(s, 0.002, 4e-6, 1e-6, true, true, true);  // blackout
  }
  for (int s = 20; s < 30; ++s) b.add_group(s, 0.002, 4e-6, 1e-6);
  Distiller d(DistillConfig{});
  const ReplayTrace out = d.distill(b.trace);
  ASSERT_GT(out.size(), 25u);
  double worst = 0;
  for (const auto& t : out.tuples()) {
    worst = std::max(worst, t.loss);
    // Delay parameters exist everywhere (forward fill).
    EXPECT_GT(t.per_byte_bottleneck, 0.0);
    EXPECT_LE(t.loss, d.config().max_loss);
  }
  EXPECT_GT(worst, 0.8);
  EXPECT_GT(d.stats().windows_empty, 0u);
}

TEST(Distiller, EmptyTraceYieldsEmptyReplay) {
  Distiller d;
  EXPECT_TRUE(d.distill(trace::CollectedTrace{}).empty());
}

TEST(Distiller, TupleDurationsEqualStep) {
  TraceBuilder b;
  for (int s = 0; s < 10; ++s) b.add_group(s, 0.002, 4e-6, 1e-6);
  DistillConfig cfg;
  cfg.step = sim::milliseconds(500);
  Distiller d(cfg);
  const ReplayTrace out = d.distill(b.trace);
  for (const auto& t : out.tuples()) EXPECT_EQ(t.d, sim::milliseconds(500));
}

TEST(Distiller, RejectsANonPositiveWindowOrStep) {
  for (const auto& [window, step] :
       {std::pair{sim::seconds(5), sim::Duration{0}},
        std::pair{sim::seconds(5), sim::seconds(-1)},
        std::pair{sim::Duration{0}, sim::seconds(1)},
        std::pair{sim::seconds(-5), sim::seconds(1)}}) {
    DistillConfig cfg;
    cfg.window = window;
    cfg.step = step;
    EXPECT_THROW(Distiller{cfg}, std::invalid_argument);
    StreamDistillConfig scfg;
    scfg.distill = cfg;
    EXPECT_THROW(StreamDistiller{scfg}, std::invalid_argument);
  }
  DistillConfig one_ns;
  one_ns.window = sim::Duration{1};
  one_ns.step = sim::Duration{1};
  EXPECT_NO_THROW(Distiller{one_ns});
}

// ---- reconstruction: replies by sequence number ---------------------------

std::vector<EchoSent> probe_sends(std::uint16_t first_seq, int groups) {
  std::vector<EchoSent> sent;
  for (int g = 0; g < groups; ++g) {
    for (const std::uint32_t bytes : {60u, 1052u, 1052u}) {
      sent.push_back(EchoSent{
          static_cast<std::uint16_t>(first_seq + sent.size()), bytes});
    }
  }
  return sent;
}

EchoReply reply_to(std::uint16_t seq, double at_s, double rtt_s) {
  return EchoReply{sim::kEpoch + sim::from_seconds(at_s),
                   sim::from_seconds(rtt_s), seq};
}

TEST(Distiller, ReconstructionTakesTheLastReplyForASequenceNumber) {
  const std::vector<EchoSent> sent = probe_sends(0, 1);
  const std::vector<EchoReply> replies = {
      reply_to(0, 1.0, 0.001), reply_to(1, 1.1, 0.010),
      reply_to(2, 1.2, 0.015), reply_to(1, 1.3, 0.020)};  // seq 1 again
  const auto groups = reconstruct_echo_groups(sent, replies);
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_DOUBLE_EQ(groups[0].t2_s, 0.020);
  EXPECT_EQ(groups[0].at, replies[2].at);
}

TEST(Distiller, ReconstructionIgnoresAReplyNoSentEchoUses) {
  // Sequence numbers wrap: the sends run 65534, 65535, 0, 1, 2, 3.  A stray
  // reply below the first send (key 65533 from 65534) and one just past
  // the last (key 6) must not disturb the lookups, nor be looked up.
  const std::vector<EchoSent> sent = probe_sends(65534, 2);
  std::vector<EchoReply> replies;
  for (const EchoSent& e : sent) {
    replies.push_back(reply_to(e.icmp_seq, 1.0, e.ip_bytes * 1e-5));
  }
  const auto clean = reconstruct_echo_groups(sent, replies);
  ASSERT_EQ(clean.size(), 2u);

  replies.insert(replies.begin() + 2, reply_to(65531, 1.5, 0.5));
  replies.push_back(reply_to(4, 1.6, 0.7));
  const auto with_strays = reconstruct_echo_groups(sent, replies);
  ASSERT_EQ(with_strays.size(), clean.size());
  for (std::size_t i = 0; i < clean.size(); ++i) {
    EXPECT_EQ(with_strays[i].at, clean[i].at);
    EXPECT_EQ(with_strays[i].t1_s, clean[i].t1_s);
    EXPECT_EQ(with_strays[i].t2_s, clean[i].t2_s);
    EXPECT_EQ(with_strays[i].t3_s, clean[i].t3_s);
  }
}

// ---- bit-identity with the per-step scans the linear stages replace -------

/// The per-step stage 4 the one-pass assemble_replay replaced: every step
/// scans every estimate in index order, and calls
/// window_loss_over_replies over every reply.
ReplayTrace scan_per_step(const DistillConfig& cfg,
                          const std::vector<Distiller::Estimate>& estimates,
                          const std::vector<EchoReply>& replies,
                          std::uint64_t echoes_sent, sim::TimePoint t0,
                          sim::TimePoint t_end, Distiller::Stats* stats) {
  struct WindowResult {
    bool have_delay = false;
    double f = 0, vb = 0, vr = 0;
  };
  std::vector<WindowResult> wins;
  std::vector<double> losses;
  double prev_loss = 0.0;
  for (sim::TimePoint step_start = t0; step_start < t_end;
       step_start += cfg.step) {
    const sim::TimePoint mid = step_start + cfg.step / 2;
    const sim::TimePoint w_begin = mid - cfg.window / 2;
    const sim::TimePoint w_end = mid + cfg.window / 2;
    WindowResult w;
    double f_sum = 0, vb_sum = 0, vr_sum = 0;
    std::size_t n = 0;
    for (const Distiller::Estimate& e : estimates) {
      if (e.at >= w_begin && e.at < w_end) {
        f_sum += e.latency_s;
        vb_sum += e.per_byte_bottleneck;
        vr_sum += e.per_byte_residual;
        ++n;
      }
    }
    if (n > 0) {
      w.have_delay = true;
      w.f = f_sum / static_cast<double>(n);
      w.vb = vb_sum / static_cast<double>(n);
      w.vr = vr_sum / static_cast<double>(n);
    } else {
      ++stats->windows_empty;
    }
    wins.push_back(w);
    prev_loss = window_loss_over_replies(replies, echoes_sent, w_begin, w_end,
                                         prev_loss, cfg.max_loss);
    losses.push_back(prev_loss);
  }
  for (std::size_t i = 1; i < wins.size(); ++i) {
    if (!wins[i].have_delay && wins[i - 1].have_delay) wins[i] = wins[i - 1];
  }
  for (std::size_t i = wins.size(); i-- > 1;) {
    if (!wins[i - 1].have_delay && wins[i].have_delay) wins[i - 1] = wins[i];
  }
  std::vector<QualityTuple> tuples;
  for (std::size_t i = 0; i < wins.size(); ++i) {
    if (!wins[i].have_delay) continue;
    tuples.push_back(
        QualityTuple{cfg.step, wins[i].f, wins[i].vb, wins[i].vr, losses[i]});
  }
  return ReplayTrace(std::move(tuples));
}

/// The lattice path Distiller::distill takes; `max_steps` false builds the
/// lattice the way the streaming scan does, without knowing the step count.
ReplayTrace one_pass(const DistillConfig& cfg,
                     const std::vector<Distiller::Estimate>& estimates,
                     const std::vector<EchoReply>& replies,
                     std::uint64_t echoes_sent, sim::TimePoint t0,
                     sim::TimePoint t_end, bool max_steps,
                     Distiller::Stats* stats) {
  const std::size_t steps = step_count(t0, t_end, cfg.step);
  LatticeBuilder builder =
      max_steps ? LatticeBuilder(t0, cfg, static_cast<std::int64_t>(steps))
                : LatticeBuilder(t0, cfg);
  for (const EchoReply& r : replies) builder.add_reply(r.at, r.icmp_seq);
  const LossLattice loss = std::move(builder).finalize(steps, echoes_sent);
  std::size_t step = 0;
  return assemble_replay(
      cfg, estimates, t0, t_end,
      [&](sim::TimePoint, sim::TimePoint, double prev) {
        return loss.loss(step++, prev, cfg.max_loss);
      },
      stats);
}

void expect_bit_identical(const ReplayTrace& want, const ReplayTrace& got) {
  ASSERT_EQ(want.size(), got.size());
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  for (std::size_t i = 0; i < want.size(); ++i) {
    const QualityTuple& w = want.tuples()[i];
    const QualityTuple& g = got.tuples()[i];
    EXPECT_EQ(w.d, g.d) << "tuple " << i;
    EXPECT_EQ(bits(w.latency_s), bits(g.latency_s)) << "tuple " << i;
    EXPECT_EQ(bits(w.per_byte_bottleneck), bits(g.per_byte_bottleneck))
        << "tuple " << i;
    EXPECT_EQ(bits(w.per_byte_residual), bits(g.per_byte_residual))
        << "tuple " << i;
    EXPECT_EQ(bits(w.loss), bits(g.loss)) << "tuple " << i;
  }
}

struct Periods {
  sim::Duration window, step;
};

class OnePassStages : public ::testing::TestWithParam<Periods> {};

TEST_P(OnePassStages, AreBitIdenticalToPerStepScans) {
  const auto [window, step] = GetParam();
  DistillConfig cfg;
  cfg.window = window;
  cfg.step = step;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    sim::Rng rng(seed);
    const sim::TimePoint t0 =
        sim::kEpoch + sim::seconds(100) + sim::Duration{rng.uniform_int(0, 999)};
    // Not a whole number of steps, so the last step runs past t_end.
    const sim::TimePoint t_end = t0 + step * rng.uniform_int(20, 60) +
                                 sim::Duration{rng.uniform_int(1, 999'999)};
    const sim::Duration span = t_end - t0;
    // Step j's window begins at t0 + j*step + step/2 - window/2.
    const auto w_begin = [&](std::int64_t j) {
      return t0 + step * j + step / 2 - window / 2;
    };
    const auto w_end = [&](std::int64_t j) {
      return t0 + step * j + step / 2 + window / 2;
    };
    // Leave the windows of the first steps and of a middle stretch empty.
    const std::int64_t steps = static_cast<std::int64_t>(
        step_count(t0, t_end, step));
    const std::int64_t gap = steps / 2;
    const auto in_gap = [&](sim::TimePoint t) {
      return t < w_end(2) || (t >= w_begin(gap) && t < w_end(gap + 3));
    };
    // Any time from well before t0 to well after t_end, in random order.
    const auto any_time = [&] {
      return t0 - window * 2 +
             sim::Duration{rng.uniform_int(0, (span + window * 4).count())};
    };

    std::vector<Distiller::Estimate> estimates;
    while (estimates.size() < 300) {
      sim::TimePoint at = any_time();
      if (estimates.size() % 5 == 0) {  // exactly on a window edge
        const std::int64_t j = rng.uniform_int(-2, steps + 2);
        at = rng.chance(0.5) ? w_begin(j) : w_end(j);
      }
      if (in_gap(at)) continue;
      estimates.push_back(Distiller::Estimate{
          at, rng.uniform(0.0, 0.1), rng.uniform(0.0, 1e-5),
          rng.uniform(0.0, 1e-6), false});
    }
    // A ping's replies: echo k is sent k/450 of the way from t0 - 2 window
    // to t_end + 2 window, about one in seven replies is lost, arrival
    // jitter reorders neighbours, and some replies are moved onto a nearby
    // window edge.  The list is then shuffled: nothing may rely on order.
    constexpr std::int64_t kEchoes = 450;
    const sim::Duration echo_gap = (span + window * 4) / kEchoes;
    const auto sent_at = [&](std::int64_t seq) {
      return t0 - window * 2 + echo_gap * seq;
    };
    std::vector<EchoReply> replies;
    for (std::int64_t seq = 0; seq < kEchoes; ++seq) {
      if (rng.chance(0.15)) continue;
      sim::TimePoint at = sent_at(seq) + sim::Duration{rng.uniform_int(
                                             0, (echo_gap * 3).count())};
      if (seq % 7 == 0) {  // onto a window edge, when one is that close
        const std::int64_t jb = (at - w_begin(0)) / step;
        const std::int64_t je = (at - w_end(0)) / step;
        for (const sim::TimePoint edge :
             {w_begin(jb - 1), w_begin(jb), w_begin(jb + 1), w_end(je - 1),
              w_end(je), w_end(je + 1)}) {
          if (edge - at < echo_gap && at - edge < echo_gap) at = edge;
        }
      }
      replies.push_back(EchoReply{at, sim::milliseconds(5),
                                  static_cast<std::uint16_t>(seq)});
    }
    // Two replies timed far outside every window, with the sequence
    // numbers of echoes 30% and 70% into the trace: the last reply before
    // each of the first windows, and the first after each of the last.
    const auto seq_of = [&](sim::TimePoint at) {
      return static_cast<std::uint16_t>((at - sent_at(0)) / echo_gap);
    };
    replies.push_back(EchoReply{t0 - sim::seconds(50), sim::milliseconds(5),
                                seq_of(t0 + span * 3 / 10)});
    replies.push_back(EchoReply{t_end + sim::seconds(50),
                                sim::milliseconds(5),
                                seq_of(t0 + span * 7 / 10)});
    for (std::size_t i = replies.size(); i-- > 1;) {
      std::swap(replies[i], replies[static_cast<std::size_t>(
                                rng.uniform_int(0, static_cast<std::int64_t>(i)))]);
    }
    const std::uint64_t echoes_sent = kEchoes;

    Distiller::Stats want_stats, got_stats, streamed_stats;
    const ReplayTrace want = scan_per_step(cfg, estimates, replies,
                                           echoes_sent, t0, t_end,
                                           &want_stats);
    ASSERT_GT(want_stats.windows_empty, 3u);  // both gaps are present
    ASSERT_GT(want.mean_loss(), 0.0);         // gaps measured, not carried
    expect_bit_identical(want, one_pass(cfg, estimates, replies, echoes_sent,
                                        t0, t_end, true, &got_stats));
    EXPECT_EQ(got_stats.windows_empty, want_stats.windows_empty);
    expect_bit_identical(want, one_pass(cfg, estimates, replies, echoes_sent,
                                        t0, t_end, false, &streamed_stats));
    EXPECT_EQ(streamed_stats.windows_empty, want_stats.windows_empty);
  }
}

INSTANTIATE_TEST_SUITE_P(
    WindowAndStep, OnePassStages,
    ::testing::Values(
        Periods{sim::seconds(5), sim::seconds(1)},
        Periods{sim::milliseconds(2500), sim::milliseconds(300)},
        Periods{sim::milliseconds(500), sim::seconds(2)},
        Periods{sim::seconds(5) + sim::Duration{1},
                sim::seconds(1) + sim::Duration{1}}));

TEST(Distiller, DistillMatchesThePerStepScansOnARandomTrace) {
  // End to end through Distiller::distill: its projection, reconstruction
  // and lattice wiring against the per-step reference on the same echoes.
  sim::Rng rng(77);
  TraceBuilder b;
  for (int s = 0; s < 90; ++s) {
    const bool outage = s >= 40 && s < 50;
    b.add_group(s + rng.uniform(0.0, 0.5), rng.uniform(0.001, 0.02),
                rng.uniform(1e-6, 8e-6), rng.uniform(0.0, 2e-6),
                outage || rng.chance(0.05), outage || rng.chance(0.05),
                outage || rng.chance(0.05));
  }
  Distiller d;
  const ReplayTrace got = d.distill(b.trace);

  std::vector<EchoSent> sent;
  std::vector<EchoReply> replies;
  for (const trace::PacketRecord& p : b.trace.echoes_sent()) {
    sent.push_back(EchoSent{p.icmp_seq, p.ip_bytes});
  }
  for (const trace::PacketRecord& p : b.trace.echo_replies()) {
    replies.push_back(EchoReply{p.at, p.rtt(), p.icmp_seq});
  }
  Distiller::Stats stats;
  const auto estimates =
      estimate_delay_parameters(reconstruct_echo_groups(sent, replies),
                                &stats);
  const ReplayTrace want = scan_per_step(
      DistillConfig{}, estimates, replies, sent.size(),
      trace::record_time(b.trace.records.front()),
      trace::record_time(b.trace.records.back()), &stats);
  ASSERT_GT(stats.windows_empty, 0u);
  expect_bit_identical(want, got);
  EXPECT_EQ(d.stats().windows_empty, stats.windows_empty);
  EXPECT_EQ(d.stats().groups_total, stats.groups_total);
}

// ---- property sweep: exact recovery over a parameter grid -----------------

struct DistillParams {
  double f, vb, vr;
};

class DistillerRecovery : public ::testing::TestWithParam<DistillParams> {};

TEST_P(DistillerRecovery, RoundTripsGroundTruth) {
  const auto [f, vb, vr] = GetParam();
  TraceBuilder b;
  for (int s = 0; s < 20; ++s) b.add_group(s, f, vb, vr);
  Distiller d;
  const ReplayTrace out = d.distill(b.trace);
  ASSERT_FALSE(out.empty());
  EXPECT_NEAR(out.mean_latency_s(), f, 1e-9 + f * 1e-6);
  EXPECT_NEAR(out.mean_bottleneck_per_byte(), vb, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    ParameterGrid, DistillerRecovery,
    ::testing::Values(
        DistillParams{0.0005, 1e-6, 0.0},     // fast LAN
        DistillParams{0.0030, 5e-6, 0.5e-6},  // WaveLAN-ish
        DistillParams{0.0100, 40e-6, 4e-6},   // slow modem-ish
        DistillParams{0.0800, 5e-6, 1e-6},    // satellite-ish latency
        DistillParams{0.0000, 8e-6, 0.0},     // zero latency edge
        DistillParams{0.0030, 5e-6, 20e-6})); // residual dominates

}  // namespace
}  // namespace tracemod::core
