// Microbenchmarks (google-benchmark) for the core machinery: distillation
// throughput, modulation-layer per-packet cost, event-loop dispatch,
// trace-format round-trips, and the CRC32C every framed format checks.  These bound the overhead the methodology adds
// to an experiment, the paper's "cheap to compute" model constraint
// (Section 3.2.1).
#include <benchmark/benchmark.h>

#include <cstring>
#include <sstream>
#include <vector>

#include "core/distiller.hpp"
#include "core/emulator.hpp"
#include "scenarios/live_testbed.hpp"
#include "sim/crc32c.hpp"
#include "trace/ping.hpp"
#include "trace/trace_io.hpp"
#include "version.hpp"

#include "build_guard.hpp"

using namespace tracemod;

namespace {

/// A synthetic collected trace with n complete ping groups.
trace::CollectedTrace synthetic_collected(std::size_t groups) {
  trace::CollectedTrace out;
  sim::TimePoint t = sim::kEpoch;
  std::uint16_t seq = 0;
  for (std::size_t g = 0; g < groups; ++g) {
    const double rtts[3] = {0.0009, 0.0150, 0.0217};
    const std::uint32_t sizes[3] = {60, 1052, 1052};
    for (int i = 0; i < 3; ++i) {
      trace::PacketRecord echo;
      echo.at = t;
      echo.dir = trace::PacketDirection::kOutgoing;
      echo.protocol = net::Protocol::kIcmp;
      echo.icmp_kind = trace::IcmpKind::kEcho;
      echo.icmp_seq = seq;
      echo.ip_bytes = sizes[i];
      out.records.emplace_back(echo);

      trace::PacketRecord reply = echo;
      reply.dir = trace::PacketDirection::kIncoming;
      reply.icmp_kind = trace::IcmpKind::kEchoReply;
      reply.echo_origin = t;
      reply.at = t + sim::from_seconds(rtts[i]);
      out.records.emplace_back(reply);
      ++seq;
    }
    t += sim::seconds(1);
  }
  return out;
}

void BM_DistillTrace(benchmark::State& state) {
  const auto collected = synthetic_collected(
      static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    core::Distiller distiller;
    benchmark::DoNotOptimize(distiller.distill(collected));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DistillTrace)->Arg(60)->Arg(600)->Arg(3600);

void BM_ModulatedPingRoundTrips(benchmark::State& state) {
  // Per-iteration cost of pushing a packet exchange through the full
  // modulated stack (both directions of the modulation layer).
  for (auto _ : state) {
    state.PauseTiming();
    core::Emulator emulator(
        core::ReplayTrace::wavelan_like(sim::seconds(3600)),
        core::EmulatorConfig{});
    int replies = 0;
    emulator.mobile().icmp().set_reply_callback(
        [&](const net::Packet&) { ++replies; });
    state.ResumeTiming();
    for (int i = 0; i < 1000; ++i) {
      emulator.mobile().icmp().send_echo(
          emulator.config().server_addr, 1, static_cast<std::uint16_t>(i),
          64, emulator.loop().now());
      emulator.run_for(sim::milliseconds(40));
    }
    benchmark::DoNotOptimize(replies);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_ModulatedPingRoundTrips)->Unit(benchmark::kMillisecond);

void BM_EventLoopDispatch(benchmark::State& state) {
  for (auto _ : state) {
    sim::EventLoop loop;
    std::uint64_t sum = 0;
    for (int i = 0; i < 10000; ++i) {
      loop.schedule(sim::microseconds(i), [&sum, i] { sum += i; });
    }
    loop.run();
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_EventLoopDispatch)->Unit(benchmark::kMillisecond);

void BM_TraceFormatRoundTrip(benchmark::State& state) {
  const auto collected = synthetic_collected(600);
  for (auto _ : state) {
    std::stringstream ss;
    trace::write_trace(ss, collected);
    benchmark::DoNotOptimize(trace::read_trace(ss));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(collected.records.size()));
}
BENCHMARK(BM_TraceFormatRoundTrip)->Unit(benchmark::kMillisecond);

void BM_Crc32c(benchmark::State& state,
               std::uint32_t (*crc)(const void*, std::size_t,
                                    std::uint32_t)) {
  // The dispatched entry point against the portable table path, in one
  // run: CI gates their ratio, which runner speed cancels out of.
  std::vector<unsigned char> buf(static_cast<std::size_t>(state.range(0)));
  for (std::size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<unsigned char>(i * 131 + 7);
  }
  std::uint32_t sum = 0;
  for (auto _ : state) {
    sum = crc(buf.data(), buf.size(), sum);
    benchmark::DoNotOptimize(sum);
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK_CAPTURE(BM_Crc32c, dispatched, &sim::crc32c)
    ->Arg(64)->Arg(4096)->Arg(65536);
BENCHMARK_CAPTURE(BM_Crc32c, table, &sim::detail::crc32c_table)
    ->Arg(64)->Arg(4096)->Arg(65536);

void BM_LiveWirelessSecond(benchmark::State& state) {
  // Wall-clock cost of simulating one second of a busy live scenario.
  for (auto _ : state) {
    state.PauseTiming();
    scenarios::LiveTestbed bed(scenarios::chatterbox(), 99);
    trace::PingWorkload ping(bed.mobile(), bed.server_addr(),
                             bed.mobile_clock());
    ping.start();
    state.ResumeTiming();
    bed.loop().run_until(bed.loop().now() + sim::seconds(1));
  }
}
BENCHMARK(BM_LiveWirelessSecond)->Unit(benchmark::kMillisecond);

}  // namespace

// BENCHMARK_MAIN(), plus a default JSON export: unless the caller already
// chose a --benchmark_out, results also land in BENCH_core.json so CI can
// archive the perf trajectory without wrapping the invocation.
int main(int argc, char** argv) {
  tracemod::bench::require_release_build(argc, argv);
  benchmark::AddCustomContext("tracemod_build_type",
                              tracemod::bench::build_type());
  benchmark::AddCustomContext("tracemod_tool_version", tracemod::kToolVersion);
  std::vector<char*> args;
  args.reserve(static_cast<std::size_t>(argc) + 2);
  bool has_out = false;
  for (int i = 0; i < argc; ++i) {
    // --allow-debug belongs to the build guard; google-benchmark would
    // reject it as unrecognized.
    if (i > 0 && std::strcmp(argv[i], "--allow-debug") == 0) continue;
    if (std::strncmp(argv[i], "--benchmark_out=", 16) == 0) has_out = true;
    args.push_back(argv[i]);
  }
  static char out_flag[] = "--benchmark_out=BENCH_core.json";
  static char fmt_flag[] = "--benchmark_out_format=json";
  if (!has_out) {
    args.push_back(out_flag);
    args.push_back(fmt_flag);
  }
  int count = static_cast<int>(args.size());
  benchmark::Initialize(&count, args.data());
  if (benchmark::ReportUnrecognizedArguments(count, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
