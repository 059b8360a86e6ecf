// ecf_perfbench: runs one benchmark workload in this process, single-
// threaded, and prints its run metadata, progress lines, and as the last
// line one JSON object {"correct", "attempted", "failed", "metrics"}.
//
//   ecf_perfbench --workload paper-repro --seed 1 --seconds 10 --trace 0
//       --spec perfbench/workloads/paper-repro.json
//       --expected perfbench/expected/paper-repro.json
//
// --update-expected rewrites the expected digests from this build (default
// seed only); --self-test checks that a changed knob is caught. perfbench/
// run.py builds this binary and is the usual entry point.
#include <cmath>
#include <cstdio>
#include <exception>
#include <stdexcept>
#include <string>
#include <thread>

#include "gf/gf_kernels.h"
#include "report.h"
#include "util/json.h"
#include "workloads.h"

using namespace perfbench;

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME --spec FILE [--expected FILE] "
               "[--seed N] [--seconds S] [--trace 0|1] [--git-sha SHA] "
               "[--update-expected] [--self-test]\n",
               argv0);
  return 2;
}

double load_average_1m() {
  double load = -1;
  if (FILE* f = std::fopen("/proc/loadavg", "r")) {
    if (std::fscanf(f, "%lf", &load) != 1) load = -1;
    std::fclose(f);
  }
  return load;
}

void print_result(const RunResult& res) {
  ecf::util::Json metrics = ecf::util::Json::object();
  for (const Metric& m : res.metrics) {
    ecf::util::Json v = ecf::util::Json::object();
    v.set("value", std::isfinite(m.value) ? m.value : 0.0);
    v.set("unit", m.unit);
    metrics.set(m.name, v);
  }
  ecf::util::Json doc = ecf::util::Json::object();
  doc.set("correct", res.failed == 0);
  doc.set("attempted", res.attempted);
  doc.set("failed", res.failed);
  doc.set("metrics", metrics);
  std::printf("%s\n", doc.dump().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions opt;
  std::string git_sha = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument("missing value for " + arg);
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        opt.workload = value();
      } else if (arg == "--spec") {
        opt.spec_path = value();
      } else if (arg == "--expected") {
        opt.expected_path = value();
      } else if (arg == "--seed") {
        opt.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        opt.seconds = std::stod(value());
      } else if (arg == "--trace") {
        opt.trace = value() != "0";
      } else if (arg == "--git-sha") {
        git_sha = value();
      } else if (arg == "--update-expected") {
        opt.update_expected = true;
      } else if (arg == "--self-test") {
        opt.self_test = true;
      } else {
        return usage(argv[0]);
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return usage(argv[0]);
    }
  }
  if (opt.workload.empty() || opt.spec_path.empty()) return usage(argv[0]);
  const bool codec = opt.workload == "codec";
  if ((opt.update_expected || opt.self_test) &&
      (codec || opt.seed != kDefaultSeed)) {
    std::fprintf(stderr, "digests exist for simulated workloads at seed %llu "
                 "only\n", static_cast<unsigned long long>(kDefaultSeed));
    return 2;
  }

#ifdef ECF_DCHECKS_ENABLED
  const char* dchecks = "on";
#else
  const char* dchecks = "off";
#endif
  std::printf("meta workload=%s seed=%llu seconds=%g trace=%d git_sha=%s "
              "build_type=%s dchecks=%s gf_kernel=%s nproc=%u loadavg_1m=%.2f\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0, git_sha.c_str(),
              PERFBENCH_BUILD_TYPE, dchecks, ecf::gf::kernels().name,
              std::thread::hardware_concurrency(), load_average_1m());
  std::fflush(stdout);

  RunResult res;
  try {
    res = codec ? run_codec_workload(opt) : run_sim_workload(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  std::printf("ops_attempted=%llu ops_failed=%llu\n",
              static_cast<unsigned long long>(res.attempted),
              static_cast<unsigned long long>(res.failed));
  if (opt.self_test) {
    // Every run of the mutated unit must have been counted as failed.
    const bool caught = res.attempted > 0 && res.failed == res.attempted;
    std::printf("self-test %s\n", caught ? "passed" : "FAILED");
    return caught ? 0 : 1;
  }
  if (opt.update_expected) return 0;
  print_result(res);
  return 0;
}
