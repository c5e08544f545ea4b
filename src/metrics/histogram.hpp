// Log-bucketed latency histogram with percentile queries.
//
// Average latency (Eq. 4.2) hides tail behaviour; the histogram exposes the
// p50/p95/p99 latencies the congestion-control literature cares about,
// without storing per-packet samples.
#pragma once

#include <array>
#include <cstdint>

#include "util/types.hpp"

namespace prdrb {

class LatencyHistogram {
 public:
  /// Buckets are half-decades from 100 ns up to ~1000 s; samples outside
  /// the range clamp into the edge buckets.
  static constexpr double kMinLatency = 100e-9;
  static constexpr int kBucketsPerDecade = 8;
  static constexpr int kNumBuckets = 10 * kBucketsPerDecade;

  void record(SimTime latency);

  std::uint64_t count() const { return count_; }

  /// Smallest latency L such that at least `p` (in [0,1]) of the samples
  /// are <= L; returns the bucket's upper bound. Defined for every input:
  /// 0 when empty, p clamped into [0,1] (p == 1.0 is the last occupied
  /// bucket, p <= 0 the first occupied bucket).
  SimTime percentile(double p) const;

  SimTime p50() const { return percentile(0.50); }
  SimTime p95() const { return percentile(0.95); }
  SimTime p99() const { return percentile(0.99); }

  void reset();

 private:
  static int bucket_of(SimTime latency);
  static SimTime bucket_upper(int bucket);

  std::array<std::uint64_t, kNumBuckets> buckets_{};
  std::uint64_t count_ = 0;
};

}  // namespace prdrb
