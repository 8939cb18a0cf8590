#pragma once
// CRC-16-CCITT (polynomial 0x1021, init 0xFFFF), the 16-bit CRC the
// paper's link layer appends to each code block (§6).

#include <cstdint>

#include "util/bitvec.h"

namespace spinal::util {

/// CRC-16-CCITT over a bit string (processed in vector order).
std::uint16_t crc16(const BitVec& bits) noexcept;

/// CRC-16-CCITT over raw bytes.
std::uint16_t crc16_bytes(const std::uint8_t* data, std::size_t len) noexcept;

/// Returns @p payload with its 16-bit CRC appended (LSB-first bits).
BitVec crc16_append(const BitVec& payload);

/// Checks a block produced by crc16_append(); true when the trailing 16
/// bits match the CRC of the leading bits. Blocks shorter than 16 bits
/// fail the check; a 16-bit block is an empty payload plus its CRC.
/// Allocates nothing.
bool crc16_check(const BitVec& block) noexcept;

/// CRC-32 (IEEE 802.3, reflected 0xEDB88320) over a bit string. Used
/// where a 16-bit check's 2^-16 false-accept rate is too high (e.g.
/// validating thousands of speculative layer decodes in Strider's SIC).
std::uint32_t crc32(const BitVec& bits) noexcept;

/// Returns @p payload with its 32-bit CRC appended (LSB-first bits).
BitVec crc32_append(const BitVec& payload);

/// Checks a block produced by crc32_append().
bool crc32_check(const BitVec& block) noexcept;

}  // namespace spinal::util
