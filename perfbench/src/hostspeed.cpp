#include "hostspeed.h"

#include <algorithm>
#include <cstdio>

namespace perfbench {

namespace {

// The data fits a core's L2 cache (under 1 MB). Every pass runs the same
// kernel over the same keys kWarmRuns times untimed, then kTimedRuns times
// timed: a kernel run right after other code (the program's, or a sleep)
// took up to twice as long as one after a few runs of itself, so a pass
// times the kernel in a state the program cannot change.
constexpr std::size_t kTreeKeys = 4096;
constexpr std::size_t kHashKeys = 8192;
constexpr std::size_t kVarintBytes = 1 << 15;
// Work per kernel run; kTimedRuns of them take about kReferencePassMs at
// the reference speed.
constexpr int kWarmRuns = 4;
constexpr int kTimedRuns = 2;
constexpr std::size_t kTreeLookups = 192;
constexpr std::size_t kHashProbes = 768;
constexpr std::size_t kVarintsDecoded = 3072;
constexpr std::size_t kSortedStrings = 48;

std::uint64_t mix(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  return x ^ (x >> 33);
}

std::string key(std::uint64_t i) {
  char buf[32];
  const std::uint64_t h = mix(i + 1);
  std::snprintf(buf, sizeof buf, "/r%llx/%llu", static_cast<unsigned long long>(h >> 20),
                static_cast<unsigned long long>(i));
  return buf;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

}  // namespace

HostSpeed::HostSpeed() {
  for (std::size_t i = 0; i < kTreeKeys; ++i) {
    tree_.emplace(key(i), static_cast<std::uint32_t>(i));
  }
  probes_.reserve(kTreeLookups);
  for (std::size_t i = 0; i < kTreeLookups; ++i) {
    probes_.push_back(key(mix(i * 7 + 3) % kTreeKeys));
  }
  hash_.reserve(kHashKeys);
  for (std::size_t i = 0; i < kHashKeys; ++i) {
    hash_.emplace(mix(i), static_cast<std::uint32_t>(i));
  }
  varints_.reserve(kVarintBytes + 16);
  for (std::uint64_t i = 0; varints_.size() < kVarintBytes; ++i) {  // 1 to 10 bytes each
    std::uint64_t v = mix(i) >> (mix(i + 99) % 57);
    do {
      varints_.push_back(static_cast<std::uint8_t>((v & 0x7f) | (v > 0x7f ? 0x80 : 0)));
      v >>= 7;
    } while (v);
  }
  last_ = Clock::now();
}

double HostSpeed::onePass() {
  for (int i = 0; i < kWarmRuns; ++i) kernel();
  const auto start = Clock::now();
  for (int i = 0; i < kTimedRuns; ++i) kernel();
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

void HostSpeed::kernel() {
  std::uint64_t acc = sink_;
  for (std::size_t i = 0; i < kTreeLookups; ++i) {
    const auto it = tree_.find(probes_[i]);
    acc += it == tree_.end() ? 1 : it->second;
  }
  for (std::size_t i = 0; i < kHashProbes; ++i) {
    const auto it = hash_.find(mix(i % (2 * kHashKeys)));
    acc += it == hash_.end() ? 3 : it->second;
  }
  std::size_t pos = 0;
  for (std::size_t i = 0; i < kVarintsDecoded && pos < varints_.size(); ++i) {
    std::uint64_t v = 0;
    int shift = 0;
    while (pos < varints_.size()) {
      const std::uint8_t b = varints_[pos++];
      v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
      shift += 7;
      if (!(b & 0x80)) break;
    }
    acc ^= v + i;
  }
  std::vector<std::string> strings;
  strings.reserve(kSortedStrings);
  for (std::size_t i = 0; i < kSortedStrings; ++i) strings.push_back(key(i));
  std::sort(strings.begin(), strings.end());
  acc += strings.front().size();
  sink_ = acc;
}

void HostSpeed::calibrate(std::size_t passes) {
  reference_s_ += std::chrono::duration<double>(Clock::now() - last_).count() * scale_;
  for (std::size_t k = 0; k < passes; ++k) {
    const double ms = onePass();
    all_ms_.push_back(ms);
    window_.push_back(ms);
    if (window_.size() > kWindow) window_.pop_front();
  }
  scale_ = kReferencePassMs / median({window_.begin(), window_.end()});
  last_ = Clock::now();
}

double HostSpeed::referenceSeconds() const {
  return reference_s_ + std::chrono::duration<double>(Clock::now() - last_).count() * scale_;
}

HostSpeed& hostSpeed() {
  static HostSpeed speed;
  return speed;
}

}  // namespace perfbench
