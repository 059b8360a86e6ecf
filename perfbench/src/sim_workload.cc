// Simulated workloads: paper-repro, scale-1m and dirty-qos.
//
// A workload file (workloads/<name>.json) holds a base ecfault profile, a
// map of code profiles and a list of units; each unit is a profile patch
// run once per code and per seeded run. The warm-up pass runs every unit
// through Coordinator::run_experiment. Timed passes run the same steps
// through run_unit(), which times set-up, slices of the event run and the
// rest of the unit apart and, on traced passes, observes the engine and
// the log sink; its digests must equal the Coordinator's, so the copy
// cannot drift from the product path unnoticed.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>
#include <stdexcept>

#include "cluster/cluster.h"
#include "ecfault/coordinator.h"
#include "ecfault/fault_injector.h"
#include "ecfault/logger.h"
#include "ecfault/msgbus.h"
#include "ecfault/profile.h"
#include "ecfault/timeline.h"
#include "ecfault/worker.h"
#include "nvmeof/fabric.h"
#include "sim/engine.h"
#include "sim/hardware_profiles.h"
#include "sim/resources.h"
#include "util/histogram.h"
#include "util/json.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace ecf;

// Cluster seed of the unit at `position` in the expanded unit list. Every
// unit gets its own seed, so a workload averages over as many independent
// placements, fault victims and client streams as it has units (units
// sharing seeds would share victims and move together from one workload
// seed to the next).
std::uint64_t unit_seed(std::uint64_t workload_seed, std::size_t position) {
  return util::Rng(workload_seed).child(position).next();
}

// Fabric replay batch: commands issued per engine event.
constexpr std::uint64_t kReplayBatch = 64;

// Tags whose per-event host cost the traced run reports. Keep-alive,
// reconnect and iostat events never fire in these workloads (no link-down
// window, no iostat sampler), so they have no cost to report.
constexpr sim::EventTag kReportedTags[] = {
    sim::EventTag::kRecovery, sim::EventTag::kClient,
    sim::EventTag::kHeartbeat, sim::EventTag::kMonitor,
    sim::EventTag::kFault};

struct Unit {
  std::string name;  // "<unit>/<code>#<run>"
  bool wa_only = false;  // Table 3: place the workload, report WA, no fault
  ecfault::ExperimentProfile profile;
};

util::Json merge(const util::Json& base, const util::Json& patch) {
  util::Json out = base;
  for (const auto& [key, value] : patch.members()) {
    if (out.has(key) && out.at(key).is_object() && value.is_object()) {
      out.set(key, merge(out.at(key), value));
    } else {
      out.set(key, value);
    }
  }
  return out;
}

// Protocol timers are part of a workload's description but not of the
// ecfault profile schema; the profile parser ignores the extra block and
// the benchmark applies it here.
void apply_protocol(const util::Json& doc, cluster::ProtocolConfig& p) {
  for (const auto& [key, value] : doc.members()) {
    const double v = value.as_double();
    if (key == "down_out_interval_s") {
      p.down_out_interval_s = v;
    } else if (key == "heartbeat_grace_s") {
      p.heartbeat_grace_s = v;
    } else if (key == "recovery_bw_fraction") {
      p.recovery_bw_fraction = v;
    } else if (key == "osd_recovery_sleep_s") {
      p.osd_recovery_sleep_s = v;
    } else if (key == "osd_recovery_max_active") {
      p.osd_recovery_max_active = static_cast<int>(v);
    } else if (key == "osd_max_backfills") {
      p.osd_max_backfills = static_cast<int>(v);
    } else {
      throw std::invalid_argument("unknown protocol key: " + key);
    }
  }
}

std::vector<Unit> load_units(const util::Json& spec, std::uint64_t seed) {
  const util::Json& codes = spec.at("codes");
  std::vector<Unit> units;
  for (const util::Json& u : spec.at("units").as_array()) {
    const std::string name = u.at("name").as_string();
    const bool wa_only = u.get_or("kind", std::string("recovery")) == "wa";
    const util::Json patch = u.has("profile") ? u.at("profile")
                                              : util::Json::object();
    for (const util::Json& code : u.at("codes").as_array()) {
      util::Json ec = util::Json::object();
      ec.set("ec_profile", codes.at(code.as_string()));
      util::Json cl = util::Json::object();
      cl.set("cluster", ec);
      const util::Json doc = merge(merge(spec.at("base"), patch), cl);
      ecfault::ExperimentProfile p = ecfault::ExperimentProfile::from_json(doc);
      if (doc.has("protocol")) {
        apply_protocol(doc.at("protocol"), p.cluster.protocol);
      }
      const int runs = wa_only ? 1 : p.runs;
      for (int r = 0; r < runs; ++r) {
        Unit unit;
        unit.name = name + "/" + code.as_string() + "#" + std::to_string(r);
        unit.wa_only = wa_only;
        unit.profile = p;
        unit.profile.runs = 1;
        unit.profile.cluster.seed = unit_seed(seed, units.size());
        units.push_back(std::move(unit));
      }
    }
  }
  return units;
}

std::map<std::string, std::string> load_expected(const std::string& path) {
  std::map<std::string, std::string> out;
  const util::Json doc = util::Json::parse(read_file(path));
  for (const auto& [unit, digest] : doc.members()) {
    out[unit] = digest.as_string();
  }
  return out;
}

void write_expected(const std::string& path,
                    const std::vector<Unit>& units,
                    const std::map<std::string, std::string>& digests) {
  util::Json doc = util::Json::object();
  for (const Unit& u : units) doc.set(u.name, digests.at(u.name));
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << doc.dump(2) << "\n";
}

void add_histogram(Digest& d, const util::LatencyHistogram& h) {
  d.add(h.count()).add(h.sum()).add(h.max());
}

// Simulated outputs of one experiment: timeline marks, event counts,
// repair work, client histograms, WA and log volume.
std::string digest_of(const ecfault::ExperimentResult& r) {
  const cluster::RecoveryReport& rep = r.report;
  Digest d;
  d.add(rep.complete)
      .add(rep.failure_time.count())
      .add(rep.detection_time.count())
      .add(rep.recovery_start_time.count())
      .add(rep.recovery_end_time.count())
      .add(rep.engine_stats.executed)
      .add(rep.engine_stats.peak_queue_depth)
      .add(rep.bytes_read_for_recovery)
      .add(rep.bytes_written_for_recovery)
      .add(rep.bytes_on_wire_for_recovery)
      .add(rep.objects_repaired)
      .add(rep.repairs_wasted)
      .add(rep.epochs_published)
      .add(rep.client_ops)
      .add(rep.degraded_reads)
      .add(rep.fabric_transport_wait_s.count())
      .add(rep.fabric_retries)
      .add(r.timeline.recovery_start)
      .add(r.timeline.recovery_end)
      .add(r.timeline.events.size())
      .add(r.actual_wa)
      .add(r.stored_bytes)
      .add(r.log_records_published);
  add_histogram(d, rep.client_clean_read_lat);
  add_histogram(d, rep.client_degraded_read_lat);
  add_histogram(d, rep.client_write_lat);
  return d.hex();
}

// Per-layer observations of one traced unit.
struct Trace {
  double tag_ns[sim::kNumEventTags] = {};
  std::uint64_t tag_events[sim::kNumEventTags] = {};
  double log_ns = 0;
  std::uint64_t log_records = 0;
};

// Post-event hook state: host time since the previous event is charged to
// the tag whose executed count moved.
struct HookState {
  const sim::Engine* engine = nullptr;
  Trace* trace = nullptr;
  std::uint64_t seen[sim::kNumEventTags] = {};
  double last_s = 0;
};

// What one unit measured besides its digest.
struct UnitRun {
  std::string digest;
  bool complete = false;
  Clocks build;             // Cluster constructor + create_pool
  Clocks placement;         // apply_workload
  std::vector<Clocks> run;  // the event run, one entry per slice
  ecfault::ExperimentResult result;
  nvmeof::Fabric::Totals fabric;
  double backpressure_wait_s = 0;
  double meta_hit_rate = 0;  // mean BlueStore meta-cache hit rate
};

void collect_cluster(const cluster::Cluster& cl, UnitRun& out) {
  out.fabric = cl.fabric().totals();
  const int osds = cl.config().num_osds();
  double hit = 0;
  for (cluster::OsdId o = 0; o < osds; ++o) {
    out.backpressure_wait_s += cl.fabric_stats(o).backpressure_wait_s;
    hit += cl.store(o).meta_hit_rate();
  }
  out.meta_hit_rate = osds > 0 ? hit / osds : 0;
}

// The transport model a profile selects, as Coordinator::run_experiment
// installs it.
sim::FabricParams fabric_params(const ecfault::ExperimentProfile& profile) {
  if (profile.fabric == "tcp") return sim::tcp_fabric();
  if (profile.fabric == "rdma") return sim::rdma_fabric();
  return profile.cluster.hw.fabric;
}

// Table 3 unit: cluster set-up and the WA measurement, no fault.
UnitRun run_wa_unit(const Unit& unit) {
  UnitRun out;
  const Clocks t0 = Clocks::now();
  cluster::Cluster cl(unit.profile.cluster);
  cl.create_pool();
  const Clocks t1 = Clocks::now();
  cl.apply_workload();
  out.build = t1 - t0;
  out.placement = Clocks::now() - t1;
  out.result.actual_wa = cl.actual_wa();
  out.result.stored_bytes = cl.total_stored_bytes();
  out.result.meta_bytes = cl.total_meta_bytes();
  out.result.report.complete = true;
  collect_cluster(cl, out);
  out.complete = true;
  out.digest = digest_of(out.result);
  return out;
}

// The steps of Coordinator::run_experiment, with set-up timed apart from
// the run, the run timed in slices of `slice_sim_s` simulated seconds (0 =
// one slice), and optional tracing hooks. Slicing only pauses the engine
// between events; the digest check proves the run is unchanged.
UnitRun run_unit(const Unit& unit, double slice_sim_s, Trace* trace) {
  if (unit.wa_only) return run_wa_unit(unit);
  const ecfault::ExperimentProfile& profile = unit.profile;
  UnitRun out;
  const Clocks t0 = Clocks::now();
  ecfault::MsgBus bus;
  ecfault::LoggerFleet loggers(&bus);
  cluster::ClusterConfig cfg = profile.cluster;
  cfg.hw.fabric = fabric_params(profile);
  cluster::LogSinkFn sink = loggers.sink();
  if (trace != nullptr) {
    sink = [inner = std::move(sink), trace](const cluster::LogRecord& rec) {
      const double s = host_now_s();
      inner(rec);
      trace->log_ns += 1e9 * (host_now_s() - s);
      ++trace->log_records;
    };
  }
  cluster::Cluster cl(cfg, sink);
  cl.create_pool();
  const Clocks t1 = Clocks::now();
  cl.apply_workload();
  out.build = t1 - t0;
  out.placement = Clocks::now() - t1;

  cl.start_client_load();
  cl.start_scrub();
  std::vector<ecfault::Worker> workers;
  workers.reserve(static_cast<std::size_t>(profile.cluster.num_hosts));
  for (cluster::HostId h = 0; h < profile.cluster.num_hosts; ++h) {
    workers.emplace_back(&cl, h, &bus);
  }
  ecfault::FaultInjector injector(cl);
  const ecfault::InjectionPlan plan = injector.plan(profile.fault);
  const double fraction = profile.fault.corrupt_fraction;
  cl.engine().schedule(profile.fault.inject_at_s, [&cl, &workers, plan,
                                                   fraction] {
    switch (plan.level) {
      case ecfault::FaultLevel::kNode:
        for (const cluster::HostId h : plan.node_victims) {
          workers[static_cast<std::size_t>(h)].apply_node_fault();
        }
        break;
      case ecfault::FaultLevel::kDevice:
        for (const cluster::OsdId o : plan.device_victims) {
          workers[static_cast<std::size_t>(cl.host_of(o))].apply_device_fault(o);
        }
        break;
      case ecfault::FaultLevel::kCorruption:
        for (const cluster::OsdId o : plan.device_victims) {
          (void)workers[static_cast<std::size_t>(cl.host_of(o))]
              .apply_corruption_fault(o, fraction);
        }
        break;
    }
  }, sim::EventTag::kFault);
  for (const ecfault::NetworkFaultSpec& nspec : profile.network_faults) {
    const std::vector<cluster::HostId> victims = injector.plan_network(nspec);
    cl.engine().schedule(nspec.inject_at_s, [&workers, nspec, victims] {
      for (const cluster::HostId h : victims) {
        ecfault::Worker& w = workers[static_cast<std::size_t>(h)];
        switch (nspec.kind) {
          case ecfault::NetFaultKind::kLinkLatency:
            w.apply_link_latency(nspec.latency_s, nspec.jitter_s);
            break;
          case ecfault::NetFaultKind::kBandwidthCap:
            w.apply_bandwidth_cap(nspec.bandwidth_bytes_per_s);
            break;
          case ecfault::NetFaultKind::kPacketLoss:
            w.apply_packet_loss(nspec.loss_rate);
            break;
          case ecfault::NetFaultKind::kLinkFlap:
            w.apply_link_flap(nspec.down_for_s);
            break;
          case ecfault::NetFaultKind::kPartition:
            w.apply_partition(nspec.down_for_s);
            break;
        }
      }
    }, sim::EventTag::kFault);
  }

  HookState hook;
  if (trace != nullptr) {
    hook.engine = &cl.engine();
    hook.trace = trace;
    std::copy(std::begin(cl.engine().stats().executed_by_tag),
              std::end(cl.engine().stats().executed_by_tag), hook.seen);
    cl.engine().set_post_event_hook([h = &hook] {
      const double now = host_now_s();
      const std::uint64_t* by_tag = h->engine->stats().executed_by_tag;
      for (std::size_t t = 0; t < sim::kNumEventTags; ++t) {
        if (by_tag[t] != h->seen[t]) {
          h->seen[t] = by_tag[t];
          h->trace->tag_ns[t] += 1e9 * (now - h->last_s);
          ++h->trace->tag_events[t];
          break;
        }
      }
      h->last_s = now;
    });
    hook.last_s = host_now_s();
  }
  const double slice = slice_sim_s > 0
                            ? slice_sim_s
                            : std::numeric_limits<double>::infinity();
  for (double horizon = slice; !cl.engine().empty(); horizon += slice) {
    const Clocks s0 = Clocks::now();
    cl.engine().run_until(horizon);
    out.run.push_back(Clocks::now() - s0);
  }
  ecfault::ExperimentResult& result = out.result;
  result.report = cl.run_to_recovery();
  cl.engine().set_post_event_hook(nullptr);
  result.timeline = ecfault::analyze_timeline(loggers.merged());
  result.injected = plan;
  result.actual_wa = cl.actual_wa();
  result.stored_bytes = cl.total_stored_bytes();
  result.meta_bytes = cl.total_meta_bytes();
  result.log_records_published = bus.total_published();
  result.code_name = cl.code().name();
  collect_cluster(cl, out);
  out.complete = result.report.complete;
  out.digest = digest_of(result);
  return out;
}

// Host ns per Fabric::read/write on a standalone fabric with the given
// transport profile: `commands` I/Os of 64 KiB, alternating read and
// write over 4 hosts x 2 devices, issued in batches of kReplayBatch from engine
// events 1 ms of simulated time apart so queue pairs see completions.
double fabric_ns_per_io(const sim::FabricParams& params,
                        std::uint64_t commands) {
  if (commands == 0) return 0;
  constexpr int kHosts = 4;
  constexpr int kDevices = 2;
  sim::Engine engine;
  nvmeof::Fabric fabric(&engine, params, 0xFAB);
  const sim::HardwareProfile hw = sim::aws_m5_like();
  std::vector<std::unique_ptr<sim::Disk>> disks;
  std::vector<nvmeof::ConnectionId> conns;
  for (int h = 0; h < kHosts; ++h) {
    fabric.add_host("host" + std::to_string(h));
    for (int d = 0; d < kDevices; ++d) {
      disks.push_back(std::make_unique<sim::Disk>(hw.disk));
      conns.push_back(fabric.connect(
          h, nvmeof::make_nqn(static_cast<std::size_t>(h),
                              static_cast<std::size_t>(d)),
          disks.back().get(), 0));
    }
  }
  struct Replay {
    nvmeof::Fabric* fabric;
    sim::Engine* engine;
    const std::vector<nvmeof::ConnectionId>* conns;
    std::uint64_t remaining;
    std::uint64_t issued = 0;
    double host_s = 0;
    void step() {
      const std::uint64_t n = std::min(kReplayBatch, remaining);
      const double t0 = host_now_s();
      for (std::uint64_t i = 0; i < n; ++i, ++issued) {
        const nvmeof::ConnectionId c = (*conns)[issued % conns->size()];
        if (issued % 2 == 0) {
          (void)fabric->read(c, 64 * 1024, 1, 0);
        } else {
          (void)fabric->write(c, 64 * 1024, 1, 0);
        }
      }
      host_s += host_now_s() - t0;
      remaining -= n;
      if (remaining > 0) engine->schedule(1e-3, [this] { step(); });
    }
  };
  Replay replay{&fabric, &engine, &conns, commands};
  engine.schedule(0, [&replay] { replay.step(); });
  engine.run();
  return 1e9 * replay.host_s / static_cast<double>(commands);
}

// Sums over the units of one pass.
struct PassTotals {
  std::uint64_t events = 0;
  std::uint64_t peak_queue_depth = 0;
  std::uint64_t objects_repaired = 0;
  std::uint64_t repairs_wasted = 0;
  std::uint64_t bytes_on_wire = 0;
  std::uint64_t client_ops = 0;
  std::uint64_t degraded_reads = 0;
  std::uint64_t commands = 0;
  std::uint64_t retries = 0;
  double transport_wait_s = 0;
  double backpressure_wait_s = 0;
  double recovery_sim_s = 0;
  double hit_rate_sum = 0;
  std::size_t units = 0;
  util::LatencyHistogram client_lat;

  void add(const UnitRun& u) {
    const cluster::RecoveryReport& rep = u.result.report;
    events += rep.engine_stats.executed;
    peak_queue_depth = std::max(peak_queue_depth,
                                rep.engine_stats.peak_queue_depth);
    objects_repaired += rep.objects_repaired;
    repairs_wasted += rep.repairs_wasted;
    bytes_on_wire += rep.bytes_on_wire_for_recovery;
    client_ops += rep.client_ops;
    degraded_reads += rep.degraded_reads;
    commands += u.fabric.commands;
    retries += u.fabric.retries;
    transport_wait_s += u.fabric.transport_wait_s;
    backpressure_wait_s += u.backpressure_wait_s;
    if (rep.complete && rep.total() > 0) recovery_sim_s += rep.total();
    hit_rate_sum += u.meta_hit_rate;
    ++units;
    client_lat.merge(rep.client_latency_all());
  }
};

}  // namespace

RunResult run_sim_workload(const RunOptions& opt) {
  const util::Json spec = util::Json::parse(read_file(opt.spec_path));
  std::vector<Unit> units = load_units(spec, opt.seed);
  // Long event runs are timed in slices of simulated time so each timed
  // piece stays short (tens of ms) and its minimum over passes settles.
  const double slice_sim_s = spec.get_or("slice_sim_s", 0.0);
  if (units.empty()) throw std::runtime_error("workload has no units");
  const bool default_seed = opt.seed == kDefaultSeed;
  std::map<std::string, std::string> expected;
  if (default_seed && !opt.update_expected) {
    expected = load_expected(opt.expected_path);
  }
  if (opt.self_test) {
    // Change one knob of one unit; its stored digest must stop matching.
    const std::string target = units.front().name;
    units.resize(1);
    const std::int32_t pg = units[0].profile.cluster.pool.pg_num;
    units[0].profile.cluster.pool.pg_num = pg > 1 ? pg / 2 : 2;
    std::printf("self-test: %s pg_num %d -> %d\n", target.c_str(), pg,
                units[0].profile.cluster.pool.pg_num);
  }

  RunResult res;
  // A unit run passes when recovery completed and its digest matches the
  // stored one (default seed) or the warm-up pass's (any other seed).
  std::map<std::string, std::string> reference;
  auto check = [&](const Unit& u, const UnitRun& run, const char* pass) {
    ++res.attempted;
    const auto it = expected.find(u.name);
    const std::string& want =
        it != expected.end() ? it->second : reference[u.name];
    if (!run.complete || run.digest != want) {
      ++res.failed;
      std::printf("FAILED %s pass=%s complete=%d digest=%s want=%s\n",
                  u.name.c_str(), pass, run.complete ? 1 : 0,
                  run.digest.c_str(), want.c_str());
    }
  };

  // Warm-up: the product path, untimed.
  for (const Unit& u : units) {
    UnitRun run;
    if (u.wa_only) {
      run = run_wa_unit(u);
    } else {
      run.result = ecfault::Coordinator::run_experiment(u.profile);
      run.complete = run.result.report.complete;
      run.digest = digest_of(run.result);
    }
    reference[u.name] = run.digest;
    const cluster::RecoveryReport& rep = run.result.report;
    std::printf("unit %s digest=%s events=%llu recovery_sim_s=%.3f "
                "objects_repaired=%llu client_ops=%llu\n",
                u.name.c_str(), run.digest.c_str(),
                static_cast<unsigned long long>(rep.engine_stats.executed),
                rep.complete ? rep.total() : -1.0,
                static_cast<unsigned long long>(rep.objects_repaired),
                static_cast<unsigned long long>(rep.client_ops));
    if (!opt.update_expected) check(u, run, "warmup");
  }
  if (opt.update_expected) {
    write_expected(opt.expected_path, units, reference);
    std::printf("wrote %zu digests to %s\n", units.size(),
                opt.expected_path.c_str());
  }
  if (opt.self_test || opt.update_expected) return res;

  // Timed passes. An untraced run times every pass; a traced run
  // alternates untraced and traced passes so the tracing overhead is
  // measured in the same process.
  UnitTimes wall, cpu, setup, run_time, build, placement, traced_wall;
  std::vector<Trace> traces;
  PassTotals totals, traced_totals;  // of the last pass of each kind
  PassClock clock(opt.seconds, opt.trace ? 4 : 3);
  int passes = 0;
  double last_pass_s = 0;
  while (clock.another(passes, last_pass_s)) {
    const double pass_start = host_now_s();
    const bool traced = opt.trace && passes % 2 == 1;
    Trace trace;
    PassTotals pass_totals;
    for (const Unit& u : units) {
      const Clocks start = Clocks::now();
      const UnitRun run = run_unit(u, slice_sim_s, traced ? &trace : nullptr);
      const Clocks total = Clocks::now() - start;
      check(u, run, traced ? "traced" : "timed");
      pass_totals.add(run);
      // Timed pieces: set-up, each run slice, and the rest of the unit.
      Clocks set_up = run.build;
      set_up += run.placement;
      Clocks rest = total - set_up;
      std::vector<std::pair<std::string, Clocks>> pieces = {
          {u.name + "/setup", set_up}};
      for (std::size_t i = 0; i < run.run.size(); ++i) {
        pieces.emplace_back(u.name + "/run" + std::to_string(i), run.run[i]);
        rest = rest - run.run[i];
        if (!traced) run_time.add(pieces.back().first, run.run[i].wall_s);
      }
      pieces.emplace_back(u.name + "/rest", rest);
      for (const auto& [piece, clocks] : pieces) {
        (traced ? traced_wall : wall).add(piece, clocks.wall_s);
        if (!traced) cpu.add(piece, clocks.cpu_s);
      }
      if (traced) continue;
      setup.add(u.name, set_up.wall_s);
      build.add(u.name, run.build.wall_s);
      placement.add(u.name, run.placement.wall_s);
    }
    if (traced) {
      traces.push_back(trace);
      traced_totals = pass_totals;
    } else {
      totals = pass_totals;
    }
    ++passes;
    last_pass_s = host_now_s() - pass_start;
    std::printf("pass %d%s wall_s=%.4f\n", passes, traced ? " traced" : "",
                last_pass_s);
  }
  std::printf("passes=%d units=%zu\n", passes, units.size());

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

  // --- per-layer metrics (traced run) ---------------------------------------
  const PassTotals& t = traced_totals;
  res.add("trace.overhead_s",
          traced_wall.sum_of(kTimingQuantile) - wall.sum_of(kTimingQuantile),
          "s");
  res.add("sim.events", static_cast<double>(t.events), "count");
  res.add("sim.peak_queue_depth", static_cast<double>(t.peak_queue_depth),
          "count");
  const double run_s = run_time.sum_of(kTimingQuantile);
  res.add("sim.events_per_host_s",
          run_s > 0 ? static_cast<double>(totals.events) / run_s : 0, "1/s");
  for (const sim::EventTag tag : kReportedTags) {
    const auto i = static_cast<std::size_t>(tag);
    std::vector<double> per_pass;
    for (const Trace& tr : traces) {
      if (tr.tag_events[i] > 0) {
        per_pass.push_back(tr.tag_ns[i] / static_cast<double>(tr.tag_events[i]));
      }
    }
    res.add(std::string("sim.ns_per_event.") + sim::to_string(tag),
            median(per_pass), "ns");
  }

  res.add("nvmeof.commands", static_cast<double>(t.commands), "count");
  res.add("nvmeof.retries", static_cast<double>(t.retries), "count");
  res.add("nvmeof.retry_ratio",
          t.commands > 0 ? static_cast<double>(t.retries) /
                               static_cast<double>(t.commands)
                         : 0,
          "ratio");
  res.add("nvmeof.transport_wait_sim_s", t.transport_wait_s, "sim_s");
  res.add("nvmeof.backpressure_wait_sim_s", t.backpressure_wait_s, "sim_s");
  res.add("nvmeof.ns_per_io",
          fabric_ns_per_io(fabric_params(units.front().profile), t.commands),
          "ns");

  res.add("cluster.build_s", build.sum_of(kTimingQuantile), "s");
  res.add("cluster.placement_s", placement.sum_of(kTimingQuantile), "s");
  res.add("cluster.objects_repaired", static_cast<double>(t.objects_repaired),
          "count");
  res.add("cluster.repairs_wasted", static_cast<double>(t.repairs_wasted),
          "count");
  res.add("cluster.events_per_repaired_object",
          t.objects_repaired > 0 ? static_cast<double>(t.events) /
                                       static_cast<double>(t.objects_repaired)
                                 : 0,
          "count");
  res.add("cluster.bytes_on_wire", static_cast<double>(t.bytes_on_wire),
          "bytes");
  res.add("cluster.client_ops", static_cast<double>(t.client_ops), "count");
  res.add("cluster.degraded_reads", static_cast<double>(t.degraded_reads),
          "count");
  res.add("cluster.cache_hit_rate",
          t.units > 0 ? t.hit_rate_sum / static_cast<double>(t.units) : 0,
          "ratio");
  res.add("cluster.recovery_sim_s", t.recovery_sim_s, "sim_s");
  res.add("cluster.client_p99_sim_ms", 1e3 * t.client_lat.percentile(0.99),
          "sim_ms");

  std::vector<double> log_ns;
  for (const Trace& tr : traces) {
    if (tr.log_records > 0) {
      log_ns.push_back(tr.log_ns / static_cast<double>(tr.log_records));
    }
  }
  res.add("ecfault.log_records",
          static_cast<double>(traces.back().log_records), "count");
  res.add("ecfault.log_ns_per_record", median(log_ns), "ns");
  return res;
}

}  // namespace perfbench
