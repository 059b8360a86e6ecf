// The perfbench workloads. Each runs single-threaded in the calling
// thread, checks its outputs, and returns the end-to-end metrics
// (opt.trace == false) or the per-layer metrics (opt.trace == true).
#pragma once

#include "report.h"

namespace perfbench {

// paper-repro, scale-1m, dirty-qos: ecfault profiles from opt.spec_path.
RunResult run_sim_workload(const RunOptions& opt);

// codec: real-byte encode / decode / repair through ec::ErasureCode.
RunResult run_codec_workload(const RunOptions& opt);

}  // namespace perfbench
