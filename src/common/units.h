// Unit conventions used throughout mecsched.
//
// All physical quantities are carried as `double` in SI base units:
//   data sizes      -> bytes
//   time            -> seconds
//   energy          -> joules
//   CPU frequency   -> hertz (cycles per second)
//   link rate       -> bits per second
//   power           -> watts
//
// This header centralises the conversion constants so that no magic
// multipliers appear at call sites. The paper quotes sizes in "kb" (read as
// kilobytes, decimal), rates in Mbps and frequencies in GHz.
#pragma once

namespace mecsched::units {

// --- data size (bytes) ---
inline constexpr double kKiloByte = 1e3;
inline constexpr double kMegaByte = 1e6;
inline constexpr double kGigaByte = 1e9;

constexpr double kilobytes(double kb) { return kb * kKiloByte; }

// --- link rate (bits per second) ---
inline constexpr double kKbps = 1e3;
inline constexpr double kMbps = 1e6;
inline constexpr double kGbps = 1e9;

constexpr double mbps(double v) { return v * kMbps; }
constexpr double gbps(double v) { return v * kGbps; }

// --- frequency (hertz) ---
inline constexpr double kMHz = 1e6;
inline constexpr double kGHz = 1e9;

constexpr double gigahertz(double v) { return v * kGHz; }

// --- time (seconds) ---
inline constexpr double kMilliSecond = 1e-3;

constexpr double milliseconds(double v) { return v * kMilliSecond; }

// Bits in a byte; transmission times divide a byte count by a bit rate.
inline constexpr double kBitsPerByte = 8.0;

// Time (s) to push `bytes` through a link of `bits_per_second`.
constexpr double transfer_seconds(double bytes, double bits_per_second) {
  return bytes * kBitsPerByte / bits_per_second;
}

}  // namespace mecsched::units
