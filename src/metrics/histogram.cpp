#include "metrics/histogram.hpp"

#include <algorithm>
#include <cmath>

namespace prdrb {

int LatencyHistogram::bucket_of(SimTime latency) {
  if (latency <= kMinLatency) return 0;
  const double decades = std::log10(latency / kMinLatency);
  const int b = static_cast<int>(decades * kBucketsPerDecade);
  return std::clamp(b, 0, kNumBuckets - 1);
}

SimTime LatencyHistogram::bucket_upper(int bucket) {
  return kMinLatency *
         std::pow(10.0, static_cast<double>(bucket + 1) / kBucketsPerDecade);
}

void LatencyHistogram::record(SimTime latency) {
  ++buckets_[static_cast<std::size_t>(bucket_of(latency))];
  ++count_;
}

SimTime LatencyHistogram::percentile(double p) const {
  if (count_ == 0) return 0;
  // Clamp so p == 1.0 (and any out-of-range request) resolves to the last
  // occupied bucket instead of walking past the array, and p <= 0 resolves
  // to the first occupied bucket rather than an empty leading bucket.
  p = std::clamp(p, 0.0, 1.0);
  const double target = p * static_cast<double>(count_);
  double cumulative = 0;
  for (int b = 0; b < kNumBuckets; ++b) {
    cumulative += static_cast<double>(buckets_[static_cast<std::size_t>(b)]);
    if (cumulative > 0 && cumulative >= target) return bucket_upper(b);
  }
  return bucket_upper(kNumBuckets - 1);
}

void LatencyHistogram::reset() {
  buckets_.fill(0);
  count_ = 0;
}

}  // namespace prdrb
