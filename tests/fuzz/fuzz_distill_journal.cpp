// libFuzzer harness for the readers of the journal and snapshot formats
// built on the shared record codec (sim/io/codec.hpp): the TMDJ
// checkpoint journal, the TMSJ sweep journal and the TMST status snapshot.
// Every input goes through all three, since a mutation that breaks one
// format's framing is exactly the damage the others must also survive.
// Each reader's contract is total: any input -- torn frames, lying length
// prefixes, giant counts -- must decode what checksums and reject the
// rest.  A crash, hang, throw, or allocation blow-up is a bug (a damaged
// checkpoint must cost a re-distillation, a damaged sweep journal a full
// re-run, a damaged snapshot a "corrupt" verdict -- never the run).
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string_view>

#include "core/stream_distiller.hpp"
#include "scenarios/supervisor.hpp"
#include "sim/status/status.hpp"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const auto* chars = reinterpret_cast<const char*>(data);
  tracemod::core::probe_checkpoint_journal(chars, size);

  // Accept whatever fingerprint the header claims, so mutations reach the
  // frame walk instead of stopping at the config gate.
  std::uint32_t fingerprint = 0;
  if (size >= 10) std::memcpy(&fingerprint, data + 6, sizeof(fingerprint));
  tracemod::scenarios::decode_sweep_journal(std::string_view(chars, size),
                                            fingerprint);

  tracemod::sim::status::decode_status(data, size);
  return 0;
}
