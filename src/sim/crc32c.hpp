// CRC32C (Castagnoli polynomial 0x1EDC6F41, reflected 0x82F63B78).
//
// The checksum shared by every crash-safe on-disk format in the repo: the
// CRC frame of the record codec (sim/io/codec.hpp) that carries trace
// format v2 records, the TMSJ sweep journal and the TMDJ distill
// checkpoints; the TMST status snapshot (sim/status/status.hpp); and the
// config fingerprints of both journals.  CRC32C is the standard choice
// for storage framing (iSCSI, ext4, Btrfs): it catches all burst errors up
// to 32 bits and has good Hamming distance at trace-record payload sizes.
// Table-driven software implementation; no hardware dependencies, identical
// output on every platform.
//
// Lives in sim/ (the base library) so every layer can frame its files
// with it.
#pragma once

#include <cstddef>
#include <cstdint>

namespace tracemod::sim {

/// CRC32C of the buffer, continuing from `seed` (pass the previous return
/// value to checksum discontiguous spans as one message).  The empty-buffer
/// CRC of seed 0 is 0.
std::uint32_t crc32c(const void* data, std::size_t size,
                     std::uint32_t seed = 0);

}  // namespace tracemod::sim
