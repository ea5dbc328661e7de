/// Scenario benchmark binary. Dispatches one scenario instance of one named
/// workload, single-threaded, through campaign::CampaignRunner::execute —
/// the per-run entry point run_campaign parallelises — and measures it
/// from outside the program:
///
///   scenario_bench --workload fleet-churn --seed 42 --instance 0
///                  --mode untraced|traced --out-dir <dir>
///
/// untraced: end-to-end numbers. The roster provider only notes when it is
///   first called (the end of set-up) and the SchedulerFactory::make
///   wrapper only notes start and end (training). Set-up is also measured
///   on its own, by dispatches whose roster provider stops the run at that
///   call.
/// traced: per-layer numbers. The roster's schedulers are wrapped in a
///   forwarding decorator that times decide and counts reset; afterwards
///   the fleet membership (or the static cluster) is replayed and the same
///   partition_node_env / NfvEnvironment constructor calls are re-issued
///   and timed one by one.
///
/// Both modes check every model evaluation (one operation) and return a
/// digest of the simulated output, so the two modes — and two commits —
/// can be shown to simulate the identical thing. The last line of stdout
/// is one JSON object; run.py repeats processes, aggregates them and turns
/// them into the benchmark's metrics.

#include <sys/resource.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "campaign/runner.hpp"
#include "common/config.hpp"
#include "common/fs_util.hpp"
#include "common/json.hpp"
#include "common/string_util.hpp"
#include "core/environment.hpp"
#include "core/scheduler.hpp"
#include "orchestrator/fleet.hpp"
#include "orchestrator/timeline_io.hpp"
#include "scenario/experiment.hpp"
#include "scenario/presets.hpp"
#include "telemetry/metrics.hpp"

using namespace greennfv;

namespace {

using Clock = std::chrono::steady_clock;
namespace mc = telemetry::metrics;

double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// Seed stride between the scenario instances of one workload. Instance 0
/// runs at the benchmark seed itself, so `--seed 42` reproduces
/// `run_scenario seed=42`. Scenario seeds are parsed as signed 64-bit
/// values, so instance seeds must stay below 2^63.
constexpr std::uint64_t kInstanceSeedStride = 1000003;
constexpr std::uint64_t kMaxSeed = std::uint64_t{1} << 62;
/// Mirrors the per-epoch stride on the node evaluation seed in
/// orchestrator/fleet.cpp (file-local there), so the replay constructs
/// each environment from exactly the seed run_model used.
constexpr std::uint64_t kEpochSeedStride = 0x9E3779B97F4A7C15ull;
/// Set-up-only dispatches per process; set-up is tens of milliseconds at
/// most, so repetitions cost little and steady the median. The first
/// kSetupWarmup are not recorded: within a fresh process set-up runs 2-3x
/// slower at first (lazy statics, allocator growth), and mixing those
/// samples in moves the median from run to run.
constexpr int kSetupWarmup = 6;
constexpr int kSetupReps = 12;

/// A workload: a named preset plus key overrides (exactly what
/// `run_scenario scenario=<preset> <key>=<value>... models=<models>` runs),
/// evaluated at `instances` scenario seeds, one process each.
struct Workload {
  std::string name;
  std::string preset;
  std::vector<std::pair<std::string, std::string>> overrides;
  std::string models;
  int instances = 1;
};

/// fleet-learned trains one model per (node, chain count) the churn
/// produces, and that count swings from 2 to 5 between seeds at the
/// preset's 10-window horizon. A 60-window horizon brings nearly every
/// shape in, 100 episodes keep each model cheap, and 12 instances average
/// out the rest, so the wall time measures the code, not the seed.
/// fleet-churn and cluster-steady do the same work at every seed.
const std::vector<Workload>& workloads() {
  static const std::vector<Workload> table = {
      {"fleet-churn",
       "mega-fleet",
       {{"nodes", "1000"}, {"fleet.arrival_rate", "250"},
        {"fleet.horizon", "60"}},
       "Baseline,Heuristics",
       1},
      {"cluster-steady",
       "heterogeneous-cluster",
       {{"nodes", "200"},
        {"chains", "400"},
        {"flows", "800"},
        {"offered_gbps", "2000"},
        {"eval_windows", "600"}},
       "Baseline,Heuristics,EE-Pstate",
       1},
      {"fleet-learned",
       "fleet-smoke",
       {{"episodes", "100"}, {"candidates", "1"}, {"fleet.horizon", "60"}},
       "GreenNFV-EE",
       12},
  };
  return table;
}

const Workload& find_workload(const std::string& name) {
  for (const Workload& w : workloads())
    if (w.name == name) return w;
  std::string known;
  for (const Workload& w : workloads()) known += " " + w.name;
  throw std::invalid_argument("unknown workload '" + name + "' (known:" +
                              known + ")");
}

scenario::ScenarioSpec make_spec(const Workload& w, std::uint64_t seed) {
  Config config;
  config.set("scenario", w.preset);
  for (const auto& [key, value] : w.overrides) config.set(key, value);
  config.set("seed", std::to_string(seed));
  return scenario::resolve(config);
}

std::size_t roster_size(const Workload& w) {
  return split(w.models, ',').size();
}

/// Windows every model evaluation must report.
int expected_windows(const scenario::ScenarioSpec& spec) {
  if (spec.fleet.enabled && spec.fleet.horizon_windows > 0)
    return spec.fleet.horizon_windows;
  return spec.eval_windows;
}

/// Benchmark-side spans (traced mode only), kept in memory and written as
/// one JSON document when the run ends. Each span names its parent.
class SpanLog {
 public:
  int begin(std::string name, int parent) {
    spans_.push_back({std::move(name), parent, Clock::now(), {}});
    return static_cast<int>(spans_.size()) - 1;
  }
  void end(int id) {
    spans_[static_cast<std::size_t>(id)].end = Clock::now();
  }
  /// Records an already-finished interval.
  void add(std::string name, int parent, Clock::time_point start,
           Clock::time_point end) {
    spans_.push_back({std::move(name), parent, start, end});
  }

  void write(const std::string& path, Clock::time_point origin) const {
    Json events = Json::array();
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Entry& s = spans_[i];
      Json event = Json::object();
      event.set("name", s.name);
      event.set("id", static_cast<double>(i));
      event.set("parent", static_cast<double>(s.parent));
      event.set("start_us", seconds_between(origin, s.start) * 1e6);
      event.set("dur_us", seconds_between(s.start, s.end) * 1e6);
      events.push_back(std::move(event));
    }
    Json doc = Json::object();
    doc.set("spans", std::move(events));
    write_file_atomic(path, doc.dump(0) + "\n");
  }

 private:
  struct Entry {
    std::string name;
    int parent;
    Clock::time_point start;
    Clock::time_point end;
  };
  std::vector<Entry> spans_;
};

/// What one dispatch records from outside the program.
struct DispatchProbe {
  Clock::time_point roster_called{};
  bool roster_seen = false;
  double make_s = 0.0;
  std::uint64_t make_calls = 0;
  // Traced mode only (filled by TimedScheduler).
  double decide_s = 0.0;
  std::uint64_t decide_calls = 0;
  std::uint64_t resets = 0;
  SpanLog* spans = nullptr;
  int span = -1;
};

/// Forwarding scheduler: times decide and counts reset, nothing else.
class TimedScheduler final : public core::Scheduler {
 public:
  TimedScheduler(std::unique_ptr<core::Scheduler> inner,
                 DispatchProbe& probe)
      : inner_(std::move(inner)), probe_(probe) {}

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] std::vector<nfvsim::ChainKnobs> decide(
      const std::vector<core::ChainObservation>& obs,
      const std::vector<nfvsim::ChainKnobs>& current) override {
    const auto start = Clock::now();
    std::vector<nfvsim::ChainKnobs> knobs = inner_->decide(obs, current);
    probe_.decide_s += seconds_between(start, Clock::now());
    ++probe_.decide_calls;
    return knobs;
  }
  [[nodiscard]] bool wants_cat() const override {
    return inner_->wants_cat();
  }
  [[nodiscard]] nfvsim::SchedMode sched_mode() const override {
    return inner_->sched_mode();
  }
  void reset() override {
    ++probe_.resets;
    inner_->reset();
  }

 private:
  std::unique_ptr<core::Scheduler> inner_;
  DispatchProbe& probe_;
};

/// Thrown by the roster provider of a set-up-only dispatch.
struct StopAtRoster {};

campaign::CampaignRunner::RosterProvider roster_provider(
    const Workload& w, DispatchProbe& probe, bool traced, bool setup_only) {
  return [&w, &probe, traced, setup_only](const scenario::ScenarioSpec& spec) {
    if (!probe.roster_seen) {
      probe.roster_called = Clock::now();
      probe.roster_seen = true;
    }
    if (setup_only) throw StopAtRoster{};
    std::vector<scenario::SchedulerFactory> roster =
        scenario::filter_roster(scenario::default_roster(spec), w.models);
    for (scenario::SchedulerFactory& entry : roster) {
      entry.make = [inner = std::move(entry.make), &probe, traced,
                    name = entry.name](const core::EnvConfig& env,
                                       std::uint64_t seed)
          -> std::unique_ptr<core::Scheduler> {
        const auto start = Clock::now();
        std::unique_ptr<core::Scheduler> made = inner(env, seed);
        const auto end = Clock::now();
        probe.make_s += seconds_between(start, end);
        ++probe.make_calls;
        if (!traced) return made;
        probe.spans->add("core/scheduler_make:" + name, probe.span, start,
                         end);
        return std::make_unique<TimedScheduler>(std::move(made), probe);
      };
    }
    return roster;
  };
}

campaign::RunSpec run_spec(const scenario::ScenarioSpec& spec) {
  campaign::RunSpec run;
  run.run_id = format("%s__s%llu", spec.name.c_str(),
                      static_cast<unsigned long long>(spec.seed));
  run.cell_id = spec.name;
  run.scenario_name = spec.name;
  run.seed = spec.seed;
  run.scenario = spec;
  return run;
}

/// The counters a dispatch's digest and per-layer table read, as deltas
/// across the dispatch.
const std::vector<std::string>& delta_counters() {
  static const std::vector<std::string> names = {
      "fleet.arrivals",          "fleet.departures",
      "fleet.rejected",          "fleet.migrations.applied",
      "fleet.wakeups",           "fleet.node_windows",
      "fleet.env_rebuilds",      "fleet.phase.run_model_ns",
      "rl.train_steps",          "rl.phase.train_step_ns",
      "rl.phase.actor_ns",       "rl.phase.critic_ns",
      "rl.phase.targets_ns",     "rl.gemm_calls",
      "rl.replay_samples",
  };
  return names;
}

struct Dispatch {
  DispatchProbe probe;
  double wall_s = 0.0;
  double setup_s = 0.0;
  campaign::RunResult result;
  std::map<std::string, double> delta;
};

/// One full dispatch through CampaignRunner::execute.
Dispatch dispatch(const Workload& w, const campaign::RunSpec& run,
                  bool traced, SpanLog* spans) {
  Dispatch d;
  d.probe.spans = spans;
  const auto provider = roster_provider(w, d.probe, traced, false);
  const mc::Snapshot before = mc::snapshot();
  if (traced)
    d.probe.span = spans->begin("campaign/execute:" + run.run_id, -1);
  const auto start = Clock::now();
  d.result = campaign::CampaignRunner::execute(run, provider);
  const auto end = Clock::now();
  if (traced) {
    spans->end(d.probe.span);
    spans->add("bench/setup", d.probe.span, start, d.probe.roster_called);
  }
  const mc::Snapshot after = mc::snapshot();
  d.wall_s = seconds_between(start, end);
  d.setup_s = seconds_between(start, d.probe.roster_called);
  for (const std::string& name : delta_counters())
    d.delta[name] = after.value(name) - before.value(name);
  return d;
}

/// Set-up time of one dispatch stopped at its first roster call.
double setup_only(const Workload& w, const campaign::RunSpec& run) {
  DispatchProbe probe;
  const auto provider = roster_provider(w, probe, false, true);
  const auto start = Clock::now();
  try {
    (void)campaign::CampaignRunner::execute(run, provider);
  } catch (const StopAtRoster&) {
  }
  if (!probe.roster_seen)
    throw std::runtime_error("set-up dispatch never called the roster");
  return seconds_between(start, probe.roster_called);
}

/// Why one model evaluation (one operation) is wrong, or empty when it
/// passes every check.
std::string check_model(const core::EvalResult& r, int windows,
                        double window_s) {
  for (const double v : {r.mean_gbps, r.mean_energy_j, r.mean_power_w,
                         r.mean_efficiency, r.sla_satisfaction,
                         r.drop_fraction}) {
    if (!std::isfinite(v)) return "non-finite result";
  }
  if (r.drop_fraction < 0.0 || r.drop_fraction > 1.0)
    return "drop fraction outside [0, 1]";
  if (r.sla_satisfaction < 0.0 || r.sla_satisfaction > 1.0)
    return "SLA satisfaction outside [0, 1]";
  if (r.mean_energy_j <= 0.0) return "energy <= 0";
  if (r.windows != windows)
    return format("windows %d != horizon %d", r.windows, windows);
  const double power = r.mean_energy_j / window_s;
  if (std::abs(r.mean_power_w - power) > 1e-9 * std::abs(power))
    return "power != energy / window_s";
  return {};
}

/// Operation tally plus the digest of the simulated output.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  std::string digest;

  void fail(const std::string& why, std::uint64_t n = 1) {
    failed += n;
    if (failures.size() < 16) failures.push_back(why);
  }
};

/// Checks one finished dispatch and writes its digest: each model's
/// simulated means at full precision, then the fleet-history counts.
void check_dispatch(const Workload& w, const scenario::ScenarioSpec& spec,
                    const Dispatch& d, Outcome& out) {
  const std::size_t models = roster_size(w);
  out.attempted += models;
  const std::vector<scenario::ModelReport>& reports = d.result.report.models;
  if (reports.size() != models) {
    out.fail(format("%zu model report(s), expected %zu", reports.size(),
                    models),
             models);
  }
  out.digest += format("instance %s seed=%llu\n", spec.name.c_str(),
                       static_cast<unsigned long long>(spec.seed));
  for (const scenario::ModelReport& model : reports) {
    const core::EvalResult& r = model.result;
    const std::string why =
        check_model(r, expected_windows(spec), spec.window_s);
    if (!why.empty()) out.fail(r.scheduler + ": " + why);
    out.digest += format(
        "model %s gbps=%.17g energy_j=%.17g power_w=%.17g efficiency=%.17g"
        " sla=%.17g drop=%.17g windows=%d\n",
        r.scheduler.c_str(), r.mean_gbps, r.mean_energy_j, r.mean_power_w,
        r.mean_efficiency, r.sla_satisfaction, r.drop_fraction, r.windows);
  }
  if (spec.fleet.enabled) {
    out.digest += "fleet";
    for (const char* name :
         {"fleet.arrivals", "fleet.departures", "fleet.rejected",
          "fleet.migrations.applied", "fleet.wakeups", "fleet.node_windows",
          "fleet.env_rebuilds"}) {
      out.digest += format(" %s=%.17g", name, d.delta.at(name));
    }
    out.digest += "\n";
  }
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Measured node-windows of a static-cluster dispatch: every node hosting
/// chains steps eval_windows per model.
double static_node_windows(const Workload& w,
                           const scenario::ScenarioSpec& spec) {
  const scenario::ExperimentRunner runner(spec);
  return static_cast<double>(runner.node_envs().size()) *
         spec.eval_windows * static_cast<double>(roster_size(w));
}

struct Args {
  std::string workload;
  std::uint64_t seed = 42;
  int instance = 0;
  std::string mode = "untraced";
  std::string out_dir = ".";
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc)
      throw std::invalid_argument("missing value after " + key);
    const std::string value = argv[++i];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::stoull(value);
      if (args.seed > kMaxSeed)
        throw std::invalid_argument("--seed must be at most 2^62");
    } else if (key == "--instance") {
      args.instance = std::stoi(value);
    } else if (key == "--mode") {
      args.mode = value;
    } else if (key == "--out-dir") {
      args.out_dir = value;
    } else {
      throw std::invalid_argument("unknown argument " + key);
    }
  }
  if (args.mode != "untraced" && args.mode != "traced")
    throw std::invalid_argument("--mode must be untraced or traced");
  return args;
}

Json header(const Args& args, const Workload& w) {
  Json doc = Json::object();
  doc.set("mode", args.mode);
  doc.set("workload", w.name);
  doc.set("seed", static_cast<double>(args.seed));
  doc.set("instance", args.instance);
  doc.set("instances", w.instances);
  doc.set("build_type", SCENARIO_BENCH_BUILD_TYPE);
  doc.set("native_kernels", SCENARIO_BENCH_NATIVE_KERNELS);
  doc.set("tracing", SCENARIO_BENCH_TRACING);
  return doc;
}

void finish(Json& doc, const Outcome& outcome) {
  doc.set("attempted", static_cast<double>(outcome.attempted));
  doc.set("failed", static_cast<double>(outcome.failed));
  Json failures = Json::array();
  for (const std::string& why : outcome.failures) failures.push_back(why);
  doc.set("failures", std::move(failures));
  doc.set("digest", outcome.digest);
}

/// End-to-end mode: set-up-only dispatches, then one full dispatch.
Json run_untraced(const Args& args, const Workload& w,
                  const scenario::ScenarioSpec& spec) {
  const campaign::RunSpec run = run_spec(spec);
  Json setup = Json::array();
  for (int rep = 0; rep < kSetupWarmup; ++rep) (void)setup_only(w, run);
  for (int rep = 0; rep < kSetupReps; ++rep)
    setup.push_back(setup_only(w, run));

  Json doc = header(args, w);
  Outcome outcome;
  try {
    const Dispatch d = dispatch(w, run, false, nullptr);
    check_dispatch(w, spec, d, outcome);
    doc.set("wall_s", d.wall_s);
    doc.set("train_s", d.probe.make_s);
    doc.set("eval_s", d.wall_s - d.setup_s - d.probe.make_s);
    doc.set("node_windows", spec.fleet.enabled
                                ? d.delta.at("fleet.node_windows")
                                : static_node_windows(w, spec));
    doc.set("train_steps", d.delta.at("rl.train_steps"));
  } catch (const std::exception& e) {
    outcome.attempted += roster_size(w);
    outcome.fail(std::string("dispatch threw: ") + e.what(), roster_size(w));
  }
  doc.set("setup_s", std::move(setup));
  doc.set("peak_rss_mb", peak_rss_mb());
  finish(doc, outcome);
  return doc;
}

/// The calls run_model (fleet) or ExperimentRunner (static cluster) makes
/// into the partition and environment layers, re-issued and timed.
struct Replay {
  double orchestrator_build_s = 0.0;
  double runner_build_s = 0.0;
  std::uint64_t partition_calls = 0;
  double partition_s = 0.0;
  std::uint64_t env_build_calls = 0;
  double env_build_s = 0.0;
  /// Destroying the environment, which run_model pays on each rebuild.
  double env_teardown_s = 0.0;
  std::uint64_t node_windows = 0;
};

Replay replay_fleet(const scenario::ScenarioSpec& spec, std::size_t models) {
  if (spec.num_nodes == 1) {
    throw std::invalid_argument(
        "the replay mirrors the multi-node fleet path only");
  }
  Replay out;
  const auto build_start = Clock::now();
  const orchestrator::FleetOrchestrator fleet(spec);
  out.orchestrator_build_s = seconds_between(build_start, Clock::now());
  const orchestrator::FleetTimeline& timeline = fleet.timeline();
  std::vector<std::vector<std::string>> comps;
  comps.reserve(timeline.chains.size());
  for (const orchestrator::ChainInstance& chain : timeline.chains)
    comps.push_back(chain.nfs);

  struct NodeState {
    std::vector<int> chains;
    bool built = false;
    int epochs = 0;
  };
  for (std::size_t m = 0; m < models; ++m) {
    std::vector<NodeState> nodes(static_cast<std::size_t>(spec.num_nodes));
    orchestrator::MembershipReplay replay(timeline, spec.num_nodes);
    for (int w = 0; w < fleet.horizon(); ++w) {
      for (const int n : replay.advance()) {
        NodeState& node = nodes[static_cast<std::size_t>(n)];
        const std::vector<int>& members = replay.members(n);
        if (node.chains == members && (node.built || members.empty()))
          continue;
        node.built = false;
        node.chains = members;
        if (members.empty()) continue;

        const auto t0 = Clock::now();
        const core::EnvConfig config = scenario::partition_node_env(
            spec, comps, timeline.flows, members, n);
        const auto t1 = Clock::now();
        const std::uint64_t env_seed =
            scenario::node_eval_seed(spec, static_cast<std::size_t>(n)) +
            kEpochSeedStride * static_cast<std::uint64_t>(node.epochs);
        ++node.epochs;
        const auto t2 = Clock::now();
        auto env = std::make_unique<core::NfvEnvironment>(config, env_seed);
        const auto t3 = Clock::now();
        env.reset();
        const auto t4 = Clock::now();
        node.built = true;
        ++out.partition_calls;
        out.partition_s += seconds_between(t0, t1);
        ++out.env_build_calls;
        out.env_build_s += seconds_between(t2, t3);
        out.env_teardown_s += seconds_between(t3, t4);
      }
      out.node_windows += replay.occupied().size();
    }
  }
  return out;
}

Replay replay_static(const scenario::ScenarioSpec& spec, std::size_t models) {
  Replay out;
  const auto build_start = Clock::now();
  const scenario::ExperimentRunner runner(spec);
  out.runner_build_s = seconds_between(build_start, Clock::now());
  const std::vector<core::EnvConfig>& envs = runner.node_envs();
  for (std::size_t m = 0; m < models; ++m) {
    for (std::size_t n = 0; n < envs.size(); ++n) {
      const auto t0 = Clock::now();
      auto env = std::make_unique<core::NfvEnvironment>(
          envs[n], scenario::node_eval_seed(spec, n));
      const auto t1 = Clock::now();
      env.reset();
      ++out.env_build_calls;
      out.env_build_s += seconds_between(t0, t1);
      out.env_teardown_s += seconds_between(t1, Clock::now());
    }
  }
  out.node_windows = static_cast<std::uint64_t>(envs.size()) *
                     static_cast<std::uint64_t>(spec.eval_windows) * models;
  return out;
}

std::size_t series_points(const telemetry::Recorder& series) {
  std::size_t points = 0;
  for (const std::string& name : series.series_names())
    points += series.series(name).size();
  return points;
}

/// Per-layer mode: one decorated dispatch, then the replay. Reports this
/// instance's raw per-layer totals; run.py sums instances and derives the
/// ratios.
Json run_traced(const Args& args, const Workload& w,
                const scenario::ScenarioSpec& spec) {
  SpanLog spans;
  const auto origin = Clock::now();
  const std::size_t models = roster_size(w);
  Json doc = header(args, w);
  Outcome outcome;
  Dispatch d;
  try {
    d = dispatch(w, run_spec(spec), true, &spans);
  } catch (const std::exception& e) {
    outcome.attempted += models;
    outcome.fail(std::string("dispatch threw: ") + e.what(), models);
    finish(doc, outcome);
    return doc;
  }
  check_dispatch(w, spec, d, outcome);

  const int replay_span = spans.begin("bench/replay:" + spec.name, -1);
  const Replay replay = spec.fleet.enabled ? replay_fleet(spec, models)
                                           : replay_static(spec, models);
  spans.end(replay_span);
  spans.write(format("%s/spans-%s-s%llu-i%d.json", args.out_dir.c_str(),
                     w.name.c_str(),
                     static_cast<unsigned long long>(args.seed),
                     args.instance),
              origin);

  // The replay must mirror the dispatch it times, or its numbers describe
  // some other run.
  Json checks = Json::array();
  double node_windows = static_cast<double>(replay.node_windows);
  double run_model_s = 0.0;
  double eval_s = d.wall_s - d.setup_s;
  if (spec.fleet.enabled) {
    const double rebuilds = d.delta.at("fleet.env_rebuilds");
    node_windows = d.delta.at("fleet.node_windows");
    if (static_cast<double>(replay.node_windows) != node_windows) {
      checks.push_back(format("replay node-windows %llu != fleet.node_windows"
                              " %.0f",
                              static_cast<unsigned long long>(
                                  replay.node_windows),
                              node_windows));
    }
    if (static_cast<double>(d.probe.resets) != rebuilds) {
      checks.push_back(format("decorator resets %llu != fleet.env_rebuilds"
                              " %.0f",
                              static_cast<unsigned long long>(d.probe.resets),
                              rebuilds));
    }
    if (static_cast<double>(replay.partition_calls) != rebuilds) {
      checks.push_back(format("partition calls %llu != fleet.env_rebuilds"
                              " %.0f",
                              static_cast<unsigned long long>(
                                  replay.partition_calls),
                              rebuilds));
    }
    run_model_s = d.delta.at("fleet.phase.run_model_ns") * 1e-9;
    eval_s = run_model_s;
  }

  Json layers = Json::object();
  layers.set("orchestrator.build_s", replay.orchestrator_build_s);
  layers.set("orchestrator.run_model_s", run_model_s);
  layers.set("orchestrator.node_windows", node_windows);
  layers.set("orchestrator.env_rebuilds",
             spec.fleet.enabled ? d.delta.at("fleet.env_rebuilds") : 0.0);
  layers.set("scenario.partition_calls",
             static_cast<double>(replay.partition_calls));
  layers.set("scenario.partition_s", replay.partition_s);
  layers.set("scenario.runner_build_s", replay.runner_build_s);
  layers.set("core.env_build_calls",
             static_cast<double>(replay.env_build_calls));
  layers.set("core.env_build_s", replay.env_build_s);
  layers.set("core.env_teardown_s", replay.env_teardown_s);
  layers.set("core.decide_calls", static_cast<double>(d.probe.decide_calls));
  layers.set("core.decide_s", d.probe.decide_s);
  layers.set("core.scheduler_make_calls",
             static_cast<double>(d.probe.make_calls));
  layers.set("core.scheduler_make_s", d.probe.make_s);
  layers.set("core.scheduler_resets", static_cast<double>(d.probe.resets));
  // What the dispatch spent outside its measured children: stepping the
  // environments (nfvsim, hwmodel) plus controller and recorder upkeep.
  layers.set("core.window_step_s",
             eval_s - d.probe.make_s - d.probe.decide_s - replay.partition_s -
                 replay.env_build_s - replay.env_teardown_s);
  layers.set("rl.train_steps", d.delta.at("rl.train_steps"));
  layers.set("rl.train_step_s", d.delta.at("rl.phase.train_step_ns") * 1e-9);
  layers.set("rl.actor_s", d.delta.at("rl.phase.actor_ns") * 1e-9);
  layers.set("rl.critic_s", d.delta.at("rl.phase.critic_ns") * 1e-9);
  layers.set("rl.targets_s", d.delta.at("rl.phase.targets_ns") * 1e-9);
  layers.set("rl.gemm_calls", d.delta.at("rl.gemm_calls"));
  layers.set("rl.replay_samples", d.delta.at("rl.replay_samples"));
  layers.set("telemetry.series_points",
             static_cast<double>(series_points(d.result.report.series)));

  doc.set("wall_s", d.wall_s);
  doc.set("layers", std::move(layers));
  doc.set("cross_check_failures", std::move(checks));
  finish(doc, outcome);
  return doc;
}

int run(int argc, char** argv) {
  if (std::strcmp(SCENARIO_BENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr,
                 "scenario_bench: refusing to measure a %s build; configure"
                 " with -DCMAKE_BUILD_TYPE=Release\n",
                 SCENARIO_BENCH_BUILD_TYPE);
    return 2;
  }
  const Args args = parse_args(argc, argv);
  const Workload& w = find_workload(args.workload);
  if (args.instance < 0 || args.instance >= w.instances) {
    throw std::invalid_argument(format("--instance must be in [0, %d)",
                                       w.instances));
  }
  const scenario::ScenarioSpec spec = make_spec(
      w, args.seed +
             kInstanceSeedStride * static_cast<std::uint64_t>(args.instance));
  // Counters are on in both modes: fleet node-windows and the training
  // step count come from them. The library's span tracer stays off.
  mc::set_enabled(true);
  const Json doc = args.mode == "traced" ? run_traced(args, w, spec)
                                         : run_untraced(args, w, spec);
  std::printf("%s\n", doc.dump(0).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "scenario_bench: %s\n", e.what());
    return 2;
  }
}
