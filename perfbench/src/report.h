// Shared pieces of the perfbench driver: run options, clocks, robust
// statistics, the per-unit timing table, digests and the result record
// that main.cc prints as the final JSON line.
#pragma once

#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

// Quantile of a piece's timed passes that the reported timings use. Every
// piece does identical work in every pass, so machine noise only ever adds
// time; on a shared machine it comes in phases of seconds to minutes that
// slow whole passes by a third or more, which a per-piece median over a
// run does not remove and the per-piece minimum largely does.
inline constexpr double kTimingQuantile = 0.0;

// Seed whose simulated digests are stored in expected/<workload>.json.
inline constexpr std::uint64_t kDefaultSeed = 1;

struct RunOptions {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10;
  bool trace = false;
  std::string spec_path;      // workloads/<workload>.json
  std::string expected_path;  // expected/<workload>.json
  bool update_expected = false;  // rewrite expected_path from this run
  // Self-test: mutate one knob of one unit and run only that unit; the
  // digest check must count it as failed.
  bool self_test = false;
};

std::string read_file(const std::string& path);  // throws if unreadable

double host_now_s();  // steady clock, seconds
double cpu_now_s();   // process user+sys CPU seconds (all threads)

// Host wall and process CPU time, read together.
struct Clocks {
  double wall_s = 0;
  double cpu_s = 0;
  static Clocks now() { return {host_now_s(), cpu_now_s()}; }
  Clocks operator-(const Clocks& o) const {
    return {wall_s - o.wall_s, cpu_s - o.cpu_s};
  }
  Clocks& operator+=(const Clocks& o) {
    wall_s += o.wall_s;
    cpu_s += o.cpu_s;
    return *this;
  }
};
double peak_rss_mib();  // peak resident set of this process

double median(std::vector<double> v);
// Nearest-rank quantile, q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> v, double q);

// Host timings of each timed piece of a pass (a set-up step, a slice of a
// simulated run, a codec op) across the passes of a run. A workload total
// is the sum over pieces of one quantile of each piece's samples.
class UnitTimes {
 public:
  void add(const std::string& piece, double seconds) {
    samples_[piece].push_back(seconds);
  }
  // Sum over pieces of each piece's nearest-rank `q` quantile (0 = minimum).
  double sum_of(double q) const;

 private:
  std::map<std::string, std::vector<double>> samples_;
};

// FNV-1a over the exact bytes of simulated outputs.
class Digest {
 public:
  template <typename T>
  Digest& add(const T& v) {
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &v, sizeof(T));
    for (const unsigned char b : bytes) {
      h_ ^= b;
      h_ *= 0x100000001b3ull;
    }
    return *this;
  }
  std::string hex() const;

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
};

// Loop control shared by the workloads: at least `min_passes` timed
// passes, then more until `seconds` of measuring have elapsed, never
// starting a pass that would end past the hard cap.
class PassClock {
 public:
  PassClock(double seconds, int min_passes)
      : seconds_(seconds), min_passes_(min_passes), start_(host_now_s()) {}
  bool another(int passes_done, double last_pass_s) const;

 private:
  double seconds_;
  int min_passes_;
  double start_;
};

}  // namespace perfbench
