#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <unordered_map>

#include "bench.h"
#include "src/support/rng.h"

namespace perfbench {
namespace {

constexpr uint64_t kReferenceSeed = 0x5eed0f4057ULL;
constexpr int kNames = 500;
constexpr int kKeys = 4000;
constexpr int kValues = 4000;

}  // namespace

HostReference::HostReference() {
  support::Rng rng(kReferenceSeed);
  keys_.resize(kKeys);
  for (uint64_t& k : keys_) {
    k = rng.Next();
  }
  values_.resize(kValues);
  for (double& v : values_) {
    v = rng.NextDouble();
  }
}

double HostReference::ProbeMs() {
  const int64_t t0 = NowNs();
  uint64_t check = 0;
  {
    std::map<std::string, uint64_t> names;
    char buf[48];
    for (int i = 0; i < kNames; ++i) {
      std::snprintf(buf, sizeof(buf), "window/main/tab%d/item%d", i % 17, i);
      names.emplace(buf, static_cast<uint64_t>(i));
    }
    for (int i = 0; i < kNames; i += 3) {
      std::snprintf(buf, sizeof(buf), "window/main/tab%d/item%d", i % 17, i);
      check += names.find(buf)->second;
    }
  }
  {
    std::unordered_map<uint64_t, uint64_t> table;
    for (uint64_t k : keys_) {
      table[k] = k >> 7;
    }
    for (size_t i = 0; i < keys_.size(); i += 2) {
      check += table.at(keys_[i]);
    }
  }
  {
    std::vector<double> sorted = values_;
    std::sort(sorted.begin(), sorted.end());
    check += static_cast<uint64_t>(sorted[sorted.size() / 2] * 1e6);
  }
  const int64_t t1 = NowNs();
  if (checksum_ == 0) {
    checksum_ = check;
  } else if (check != checksum_) {
    consistent_ = false;
  }
  return static_cast<double>(t1 - t0) / 1e6;
}

double HostReference::MedianMs(int probes) {
  std::vector<double> ms;
  for (int i = 0; i < probes; ++i) {
    ms.push_back(ProbeMs());
  }
  return Median(std::move(ms));
}

}  // namespace perfbench
