#include "util/crc.h"

namespace spinal::util {
namespace {

constexpr std::uint16_t kPoly = 0x1021;
constexpr std::uint16_t kInit = 0xFFFF;

std::uint16_t step_bit(std::uint16_t crc, bool bit) noexcept {
  const bool msb = (crc >> 15) & 1u;
  crc = static_cast<std::uint16_t>(crc << 1);
  if (msb != bit) crc ^= kPoly;
  return crc;
}

/// CRC-16 over the first @p n bits of @p bits.
std::uint16_t crc16_prefix(const BitVec& bits, std::size_t n) noexcept {
  std::uint16_t crc = kInit;
  for (std::size_t i = 0; i < n; ++i) crc = step_bit(crc, bits.get(i));
  return crc;
}

/// CRC-32 over the first @p n bits of @p bits.
std::uint32_t crc32_prefix(const BitVec& bits, std::size_t n) noexcept {
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < n; ++i) {
    crc ^= bits.get(i) ? 1u : 0u;
    crc = (crc >> 1) ^ (0xEDB88320u & (~(crc & 1u) + 1u));
  }
  return ~crc;
}

}  // namespace

std::uint16_t crc16(const BitVec& bits) noexcept { return crc16_prefix(bits, bits.size()); }

std::uint16_t crc16_bytes(const std::uint8_t* data, std::size_t len) noexcept {
  std::uint16_t crc = kInit;
  for (std::size_t i = 0; i < len; ++i)
    for (int b = 7; b >= 0; --b) crc = step_bit(crc, (data[i] >> b) & 1u);
  return crc;
}

std::uint32_t crc32(const BitVec& bits) noexcept { return crc32_prefix(bits, bits.size()); }

BitVec crc32_append(const BitVec& payload) {
  BitVec out = payload;
  out.append_bits(32, crc32(payload));
  return out;
}

bool crc32_check(const BitVec& block) noexcept {
  if (block.size() < 32) return false;
  const std::size_t n = block.size() - 32;
  return crc32_prefix(block, n) == block.get_bits(n, 32);
}

BitVec crc16_append(const BitVec& payload) {
  BitVec out = payload;
  out.append_bits(16, crc16(payload));
  return out;
}

bool crc16_check(const BitVec& block) noexcept {
  if (block.size() < 16) return false;  // empty payload + CRC is legal
  const std::size_t n = block.size() - 16;
  return crc16_prefix(block, n) == block.get_bits(n, 16);
}

}  // namespace spinal::util
