// The codec workload: real bytes through ec::ErasureCode, no simulator.
//
// workloads/codec.json names the code families (registry profiles) and
// how many of each op one pass runs. A pass builds every code, allocates
// and fills its stripe from the workload seed (set-up), then interleaves
// the ops round by round: full-stripe encode, RS decode of three
// erasures, and single-chunk repair through each family's own entry point
// (ClayCode::repair_one, LrcCode::decode of one chunk,
// HitchhikerCode::repair_one). Only the codec call is timed; every output
// is byte-compared with the original stripe.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>

#include "ec/clay.h"
#include "ec/code.h"
#include "ec/hitchhiker.h"
#include "ec/registry.h"
#include "gf/gf_kernels.h"
#include "util/json.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace ecf;

enum class Op { kEncode, kDecode3, kRepair1 };
const char* to_string(Op op) {
  switch (op) {
    case Op::kEncode: return "encode";
    case Op::kDecode3: return "decode";
    case Op::kRepair1: return "repair";
  }
  return "?";
}

struct FamilySpec {
  std::string name;
  util::Json profile;
  int ops[3] = {};  // per pass, indexed by Op
};

// One op of a pass, fixed for the whole run so every pass does the same
// work: which family, what kind, and which chunks it erases.
struct OpSpec {
  std::size_t family = 0;
  Op op = Op::kEncode;
  std::vector<std::size_t> erased;  // sorted
  std::string key;                  // "<family>.<op>#<round>"
};

struct Family {
  std::unique_ptr<ec::ErasureCode> code;
  std::size_t chunk = 0;
  std::vector<ec::Buffer> stripe;  // data from the seed; parity encoded after set-up
  std::vector<ec::Buffer> work;    // an op's copy of the stripe, reused
};

// The family's stripe copied into its reused work buffers.
std::vector<ec::Buffer>& working_copy(Family& f) {
  f.work.resize(f.stripe.size());
  for (std::size_t c = 0; c < f.stripe.size(); ++c) {
    f.work[c].assign(f.stripe[c].begin(), f.stripe[c].end());
  }
  return f.work;
}

struct CodecSpec {
  std::size_t chunk_bytes = 0;
  std::vector<FamilySpec> families;
};

CodecSpec load_spec(const std::string& path) {
  const util::Json doc = util::Json::parse(read_file(path));
  CodecSpec spec;
  spec.chunk_bytes = doc.at("chunk_bytes").as_uint();
  for (const util::Json& f : doc.at("families").as_array()) {
    FamilySpec fs;
    fs.name = f.at("name").as_string();
    fs.profile = f.at("profile");
    fs.ops[static_cast<int>(Op::kEncode)] =
        static_cast<int>(f.get_or("encode", std::int64_t{0}));
    fs.ops[static_cast<int>(Op::kDecode3)] =
        static_cast<int>(f.get_or("decode3", std::int64_t{0}));
    fs.ops[static_cast<int>(Op::kRepair1)] =
        static_cast<int>(f.get_or("repair1", std::int64_t{0}));
    spec.families.push_back(std::move(fs));
  }
  return spec;
}

// `count` distinct chunk ids in [lo, hi), sorted.
std::vector<std::size_t> pick(util::Rng& rng, std::size_t count,
                              std::size_t lo, std::size_t hi) {
  std::vector<std::size_t> out;
  while (out.size() < count) {
    const auto c = lo + static_cast<std::size_t>(rng.uniform(hi - lo));
    if (std::find(out.begin(), out.end(), c) == out.end()) out.push_back(c);
  }
  std::sort(out.begin(), out.end());
  return out;
}

// The op list of one pass: rounds interleave the families so a burst of
// machine noise spreads over all op kinds.
std::vector<OpSpec> plan_ops(const CodecSpec& spec,
                             const std::vector<Family>& fams,
                             std::uint64_t seed) {
  util::Rng rng(seed ^ 0xC0DEC);
  int rounds = 0;
  for (const FamilySpec& f : spec.families) {
    for (const int n : f.ops) rounds = std::max(rounds, n);
  }
  std::vector<OpSpec> ops;
  for (int r = 0; r < rounds; ++r) {
    for (std::size_t fi = 0; fi < spec.families.size(); ++fi) {
      const ec::ErasureCode& code = *fams[fi].code;
      for (const Op op : {Op::kEncode, Op::kDecode3, Op::kRepair1}) {
        if (r >= spec.families[fi].ops[static_cast<int>(op)]) continue;
        OpSpec o;
        o.family = fi;
        o.op = op;
        // Erasure shapes are fixed and only the positions come from the
        // seed, so every seed asks for the same amount of GF work: decode
        // loses two data chunks and one parity; repair rebuilds one chunk,
        // a data chunk for the LRC local path and Hitchhiker's
        // bandwidth-saving path (Clay repairs any chunk alike).
        if (op == Op::kDecode3) {
          o.erased = pick(rng, 2, 0, code.k());
          o.erased.push_back(pick(rng, 1, code.k(), code.n()).front());
        }
        if (op == Op::kRepair1) {
          const bool any = dynamic_cast<const ec::ClayCode*>(&code) != nullptr;
          o.erased = pick(rng, 1, 0, any ? code.n() : code.k());
        }
        o.key = spec.families[fi].name + "." + to_string(op) + "#" +
                std::to_string(r);
        ops.push_back(std::move(o));
      }
    }
  }
  return ops;
}

std::vector<Family> build_families(const CodecSpec& spec, std::uint64_t seed) {
  std::vector<Family> fams;
  for (std::size_t fi = 0; fi < spec.families.size(); ++fi) {
    Family f;
    f.code = ec::make_code(spec.families[fi].profile);
    const std::size_t alpha = f.code->alpha();
    f.chunk = (spec.chunk_bytes + alpha - 1) / alpha * alpha;
    f.stripe.assign(f.code->n(), ec::Buffer(f.chunk));
    util::Rng rng(seed * 0x9E3779B97F4A7C15ull + fi);
    for (std::size_t c = 0; c < f.code->k(); ++c) {
      ec::Buffer& b = f.stripe[c];
      for (std::size_t i = 0; i + 8 <= b.size(); i += 8) {
        const std::uint64_t v = rng.next();
        std::memcpy(b.data() + i, &v, 8);
      }
    }
    fams.push_back(std::move(f));
  }
  return fams;
}

struct OpOutcome {
  Clocks time;  // of the codec call alone
  bool ok = false;
};

template <typename F>
void timed_call(OpOutcome& out, F&& call) {
  const Clocks start = Clocks::now();
  call();
  out.time = Clocks::now() - start;
}

OpOutcome run_op(Family& f, const OpSpec& o) {
  const ec::ErasureCode& code = *f.code;
  OpOutcome out;
  if (o.op == Op::kEncode) {
    std::vector<ec::Buffer>& chunks = working_copy(f);
    for (std::size_t c = code.k(); c < code.n(); ++c) {
      std::fill(chunks[c].begin(), chunks[c].end(), ec::Byte{0});
    }
    timed_call(out, [&] { code.encode(chunks); });
    out.ok = chunks == f.stripe;
    return out;
  }
  const std::size_t failed = o.erased.front();
  const auto* clay = dynamic_cast<const ec::ClayCode*>(&code);
  const auto* hh = dynamic_cast<const ec::HitchhikerCode*>(&code);
  if (o.op == Op::kRepair1 && clay != nullptr) {
    const std::size_t sub = f.chunk / code.alpha();
    const std::vector<std::size_t> planes = clay->repair_planes(failed);
    std::vector<std::vector<ec::Buffer>> helper_planes;
    for (std::size_t h = 0; h < code.n(); ++h) {
      if (h == failed) continue;
      std::vector<ec::Buffer> supplied;
      for (const std::size_t z : planes) {
        supplied.emplace_back(f.stripe[h].begin() + z * sub,
                              f.stripe[h].begin() + (z + 1) * sub);
      }
      helper_planes.push_back(std::move(supplied));
    }
    ec::Buffer rebuilt;
    timed_call(out, [&] {
      rebuilt = clay->repair_one(failed, helper_planes, f.chunk);
    });
    out.ok = rebuilt == f.stripe[failed];
    return out;
  }
  if (o.op == Op::kRepair1 && hh != nullptr) {
    const std::size_t half = f.chunk / 2;
    std::vector<ec::Buffer> halves;
    for (const ec::HitchhikerCode::HalfRef& r : hh->repair_reads(failed)) {
      const auto begin = f.stripe[r.chunk].begin() +
          (r.half == ec::HitchhikerCode::SubChunk::kA ? 0 : half);
      halves.emplace_back(begin, begin + half);
    }
    ec::Buffer rebuilt;
    timed_call(out, [&] { rebuilt = hh->repair_one(failed, halves, f.chunk); });
    out.ok = rebuilt == f.stripe[failed];
    return out;
  }
  // RS three-erasure decode, and LRC single-chunk (local) repair.
  std::vector<ec::Buffer>& chunks = working_copy(f);
  for (const std::size_t e : o.erased) {
    std::fill(chunks[e].begin(), chunks[e].end(), ec::Byte{0});
  }
  bool decoded = false;
  timed_call(out, [&] { decoded = code.decode(chunks, o.erased); });
  out.ok = decoded && chunks == f.stripe;
  return out;
}

// Bytes an op produces or rebuilds, for GB/s.
double op_bytes(const Family& f, Op op) {
  switch (op) {
    case Op::kEncode:
      return static_cast<double>(f.chunk * f.code->k());
    case Op::kDecode3:
      return static_cast<double>(f.chunk * 3);
    case Op::kRepair1:
      return static_cast<double>(f.chunk);
  }
  return 0;
}

// Dispatched GF multiply-accumulate over one chunk, GB/s (median batch).
double gf_mul_acc_gbps(std::size_t len) {
  const gf::Kernels& k = gf::kernels();
  std::vector<gf::Byte> src(len), dst(len);
  for (std::size_t i = 0; i < len; ++i) {
    src[i] = static_cast<gf::Byte>(i * 131 + 7);
    dst[i] = static_cast<gf::Byte>(i * 17 + 3);
  }
  constexpr int kBatches = 9;
  constexpr int kPerBatch = 32;
  std::vector<double> rates;
  for (int b = 0; b < kBatches; ++b) {
    const double t0 = host_now_s();
    for (int i = 0; i < kPerBatch; ++i) {
      k.mul_acc(static_cast<gf::Byte>(0x3c + i), src.data(), dst.data(), len);
    }
    const double dt = host_now_s() - t0;
    rates.push_back(1e-9 * static_cast<double>(len) * kPerBatch / dt);
  }
  volatile gf::Byte sink = dst[len / 2];
  (void)sink;
  return median(rates);
}

}  // namespace

RunResult run_codec_workload(const RunOptions& opt) {
  const CodecSpec spec = load_spec(opt.spec_path);
  RunResult res;
  UnitTimes wall, cpu, setup, traced_wall;
  // Traced passes keep every op's latency, by op kind, and its GB/s, by
  // family and op kind.
  std::map<std::string, std::vector<double>> latency, gbps;
  std::vector<OpSpec> ops;

  // One pass into `times`: &wall, &traced_wall, or null for the untimed
  // warm-up.
  auto pass = [&](UnitTimes* times) {
    const bool traced = times == &traced_wall;
    const Clocks start = Clocks::now();
    std::vector<Family> fams = build_families(spec, opt.seed);
    const Clocks set_up = Clocks::now() - start;
    // The stripe's parity, untimed: the reference the ops are checked
    // against (decode and repair outputs must reproduce it byte for byte).
    for (Family& f : fams) f.code->encode(f.stripe);
    if (ops.empty()) ops = plan_ops(spec, fams, opt.seed);
    if (times != nullptr) times->add("setup", set_up.wall_s);
    if (times == &wall) {
      cpu.add("setup", set_up.cpu_s);
      setup.add("setup", set_up.wall_s);
    }
    for (const OpSpec& o : ops) {
      const OpOutcome out = run_op(fams[o.family], o);
      ++res.attempted;
      if (!out.ok) {
        ++res.failed;
        std::printf("FAILED %s\n", o.key.c_str());
      }
      if (times == nullptr) continue;
      times->add(o.key, out.time.wall_s);
      if (times == &wall) cpu.add(o.key, out.time.cpu_s);
      if (traced) {
        latency[to_string(o.op)].push_back(out.time.wall_s);
        gbps[spec.families[o.family].name + "." + to_string(o.op)].push_back(
            1e-9 * op_bytes(fams[o.family], o.op) / out.time.wall_s);
      }
    }
  };

  pass(nullptr);  // warm-up
  PassClock clock(opt.seconds, opt.trace ? 4 : 3);
  int passes = 0;
  double last_pass_s = 0;
  while (clock.another(passes, last_pass_s)) {
    const double t0 = host_now_s();
    const bool traced = opt.trace && passes % 2 == 1;
    pass(traced ? &traced_wall : &wall);
    ++passes;
    last_pass_s = host_now_s() - t0;
    std::printf("pass %d%s wall_s=%.4f\n", passes, traced ? " traced" : "",
                last_pass_s);
  }
  std::printf("passes=%d ops_per_pass=%zu\n", passes, ops.size());

  for (const double q : {0.0, 0.25, 0.5}) {
    std::printf("q%02d wall_s=%.6f cpu_s=%.6f setup_s=%.6f\n",
                static_cast<int>(100 * q), wall.sum_of(q), cpu.sum_of(q),
                setup.sum_of(q));
  }
  if (!opt.trace) {
    res.add("wall_s", wall.sum_of(kTimingQuantile), "s");
    res.add("cpu_s", cpu.sum_of(kTimingQuantile), "s");
    res.add("setup_s", setup.sum_of(kTimingQuantile), "s");
    res.add("peak_rss_mib", peak_rss_mib(), "MiB");
    return res;
  }
  res.add("trace.overhead_s",
          traced_wall.sum_of(kTimingQuantile) - wall.sum_of(kTimingQuantile),
          "s");
  res.add("gf.mul_acc_gbps", gf_mul_acc_gbps(spec.chunk_bytes), "GB/s");
  const std::pair<const char*, const char*> kRates[] = {
      {"ec.rs.encode_gbps", "rs.encode"},
      {"ec.clay.encode_gbps", "clay.encode"},
      {"ec.rs.decode3_gbps", "rs.decode"},
      {"ec.clay.repair1_gbps", "clay.repair"},
      {"ec.lrc.repair1_gbps", "lrc.repair"},
      {"ec.hitchhiker.repair1_gbps", "hitchhiker.repair"}};
  for (const auto& [metric, key] : kRates) {
    res.add(metric, median(gbps[key]), "GB/s");
  }
  for (const Op op : {Op::kEncode, Op::kDecode3, Op::kRepair1}) {
    const std::vector<double>& lat = latency[to_string(op)];
    const std::string base = std::string("ec.") + to_string(op);
    res.add(base + ".p50_us", 1e6 * quantile(lat, 0.50), "us");
    res.add(base + ".p99_us", 1e6 * quantile(lat, 0.99), "us");
    res.add(base + ".samples", static_cast<double>(lat.size()), "count");
  }
  return res;
}

}  // namespace perfbench
