// Recorded outputs the correctness gate compares against. They are pure
// functions of CrossLight's analytic and functional models (no seed
// enters them), so any change here is a change in what the program
// computes and must be explained where it is made.
#pragma once

#include <cstddef>
#include <cstdint>

namespace pb::expected {

// dse-sweep: Fig. 6 grid x 4 variants x {4, 8, 12, 16} bits over Table I.
inline constexpr std::size_t kDseGridCandidates = 2880;
inline constexpr std::size_t kDseEvaluations = 7648;
inline constexpr std::size_t kDseAreaFiltered = 968;
inline constexpr std::size_t kDsePoints = 1912;
inline constexpr std::size_t kDsePareto = 41;
inline constexpr std::uint64_t kDseDigest = 0x37eb0304be18270aULL;

// thermal-accuracy: trained proxy MLP, 128 test samples, hostile thermal.
inline constexpr double kThermalAccuracy = 5.0 / 128.0;
inline constexpr std::uint64_t kThermalLogitsDigest = 0xf4a00eb72126ba28ULL;

}  // namespace pb::expected
