// perfbench: one instance of the end-to-end benchmark of concurrent shared
// execution. perfbench/run.py runs several instances, each in its own
// process, and turns their raw output into the benchmark's metrics.
//
//   perfbench --workload <ssb-mix|q1-fanout-spill|star-disk> --seed <n>
//             --seconds <s> --trace <0|1> --oracle <file>
//             [--compute-oracle 1] [--solo 1] [--work-dir <dir>]
//
// One instance generates the data, builds the engine, warms it up, and
// measures one window of --seconds. Load is a closed loop driven from this
// process: 4 client threads each submit a batch of 4 plans and collect all
// four before the next batch, so 16 queries are in flight. Every plan
// comes from a schedule that is a pure function of --seed; the engine sees
// only the generated plans.
//
// --compute-oracle 1 evaluates the checked plans with ReferenceExecutor
// (between data generation and engine construction, outside the timed
// set-up) and writes the expected rows to --oracle; otherwise they are
// read from it. Every completed query of a checked plan is compared with
// them after the window.
//
// --trace 1 turns the engine's trace recorder on and adds the raw inputs
// of the per-layer metrics, all taken from outside the engine: spans
// around public calls, MetricsRegistry::Snapshot() deltas, each query's
// QueryExplain, and the engine's own spl.park / bufferpool.miss_stall
// spans folded into wait times. --solo 1 then runs each distinct plan
// alone in query-centric mode.
//
// The last stdout line is one JSON object with the instance's raw
// measurements.

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/stopwatch.h"
#include "common/trace.h"
#include "core/sharing_engine.h"
#include "exec/explain.h"
#include "oracle.h"
#include "workload/ssb.h"
#include "workload/tpch.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using namespace sharing;
using Clock = std::chrono::steady_clock;

constexpr int kClients = 4;
constexpr int kBatch = 4;
/// Data generation seed: fixed, so --seed varies the plan schedule only.
constexpr uint64_t kDataSeed = 42;
/// Schedule streams: window clients use 0..kClients-1; warm-up clients and
/// the solo sample use streams the window never does.
constexpr uint64_t kWarmupStream = 1000;
constexpr uint64_t kSoloStream = 2000;
/// Warm-up batches per client: the adaptive cost model starts the window
/// with history for most SSB signatures.
constexpr int kWarmupBatches = 2;

enum class Kind { kSsbMix, kQ1FanoutSpill, kStarDisk };

struct WorkloadSpec {
  Kind kind;
  const char* name;
  const char* data;
  double scale_factor;
  /// Memory-resident pools are sized to the data (lineorder + dimensions,
  /// or lineitem, plus a small margin) so peak RSS measures the engine.
  std::size_t pool_frames;
  bool disk_resident;
  EngineMode mode;
  int distinct_plans;
  /// Distinct plans run alone in query-centric mode for exec.solo_ms_mean.
  int solo_plans;
};

const WorkloadSpec kWorkloads[] = {
    {Kind::kSsbMix, "ssb-mix", "ssb", 0.1, 12288, false,
     EngineMode::kSpAdaptive, 13, 13},
    {Kind::kQ1FanoutSpill, "q1-fanout-spill", "tpch-lineitem", 0.1, 12288,
     false, EngineMode::kSpPull, 1, 1},
    {Kind::kStarDisk, "star-disk", "ssb", 0.1, 1024, true, EngineMode::kGqp,
     1024, 4},
};

// ---------------------------------------------------------------------------
// Seeded plan schedule
// ---------------------------------------------------------------------------

/// The splitmix64 output function: a bijective 64-bit mix.
uint64_t Mix(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

class SplitMix64 {
 public:
  explicit SplitMix64(uint64_t seed) : state_(seed) {}
  uint64_t Next() { return Mix(state_ += 0x9e3779b97f4a7c15ULL); }
  uint64_t Below(uint64_t n) { return Next() % n; }

 private:
  uint64_t state_;
};

/// One client's plan sequence, a pure function of (workload, seed, stream).
/// Small plan sets are dealt from a deck reshuffled every round, so each
/// plan is drawn uniformly and every window carries the same mix: the seed
/// reorders the mix instead of changing it. Large sets draw uniformly with
/// replacement.
class Schedule {
 public:
  Schedule(const WorkloadSpec& spec, uint64_t seed, uint64_t stream)
      : n_(spec.distinct_plans),
        rng_(Mix(Mix(seed) + stream)) {}

  int Next() {
    if (n_ > 16) return static_cast<int>(rng_.Below(n_));
    if (pos_ == deck_.size()) {
      deck_.resize(n_);
      for (int i = 0; i < n_; ++i) deck_[i] = i;
      for (int i = n_ - 1; i > 0; --i) {
        std::swap(deck_[i], deck_[rng_.Below(i + 1)]);
      }
      pos_ = 0;
    }
    return deck_[pos_++];
  }

 private:
  int n_;
  SplitMix64 rng_;
  std::vector<int> deck_;
  std::size_t pos_ = 0;
};

std::vector<PlanNodeRef> MakePlans(const WorkloadSpec& spec) {
  static constexpr int kSsbQueries[13][2] = {
      {1, 1}, {1, 2}, {1, 3}, {2, 1}, {2, 2}, {2, 3}, {3, 1},
      {3, 2}, {3, 3}, {3, 4}, {4, 1}, {4, 2}, {4, 3}};
  std::vector<PlanNodeRef> plans;
  for (int i = 0; i < spec.distinct_plans; ++i) {
    switch (spec.kind) {
      case Kind::kSsbMix: {
        auto plan = ssb::MakeQuery(kSsbQueries[i][0], kSsbQueries[i][1]);
        SHARING_CHECK(plan.ok()) << plan.status().ToString();
        plans.push_back(plan.value());
        break;
      }
      case Kind::kQ1FanoutSpill:
        plans.push_back(tpch::MakeQ1Plan(90));
        break;
      case Kind::kStarDisk: {
        ssb::StarTemplateParams params;
        params.selectivity = 0.01;
        params.num_variants = spec.distinct_plans;
        params.variant = i;
        plans.push_back(ssb::ParameterizedStarPlan(params));
        break;
      }
    }
  }
  return plans;
}

// ---------------------------------------------------------------------------
// Set-up: data, engine, warm-up
// ---------------------------------------------------------------------------

struct Instance {
  std::unique_ptr<Database> db;
  // Declared after `db`: the engine drains before the database goes.
  std::unique_ptr<SharingEngine> engine;
};

struct SetupTimes {
  double generate_s = 0;
  double engine_init_s = 0;
  double warmup_s = 0;
  /// Oracle computation between generation and engine construction;
  /// not part of the set-up time.
  double oracle_s = 0;
};

EngineConfig MakeConfig(const WorkloadSpec& spec, bool trace,
                        const std::string& spill_path) {
  EngineConfig config;
  config.mode = spec.mode;
  config.trace_enabled = trace;
  switch (spec.kind) {
    case Kind::kSsbMix:
      break;
    case Kind::kQ1FanoutSpill:
      config.sp_memory_budget = 64;
      config.sp_spill_path = spill_path;
      break;
    case Kind::kStarDisk:
      config.fact_table = "lineorder";
      config.cjoin_levels = ssb::PipelineLevels();
      config.cjoin.max_queries = 64;
      break;
  }
  return config;
}

/// The paper's §4.3 setting: SP on the table scan only, so identical Q1
/// instances fan out one scan stream through the Shared Pages List.
void ApplyStageModes(const WorkloadSpec& spec, SharingEngine* engine) {
  if (spec.kind != Kind::kQ1FanoutSpill) return;
  engine->qpipe()->SetSpModeAllStages(SpMode::kOff);
  engine->qpipe()->scan_stage()->SetSpMode(SpMode::kPull);
}

struct QueryOutcome {
  int plan = 0;
  bool ok = false;
  int64_t submit_us = 0;
  double latency_ms = 0;
  std::shared_ptr<const QueryExplain> explain;
  /// Kept only for plans the oracle checks.
  std::unique_ptr<ResultSet> result;
};

struct LoopResult {
  std::vector<QueryOutcome> outcomes;
  int64_t attempted = 0;
  double wall_s = 0;
  double cpu_s = 0;
};

/// Runs the closed loop: each client submits batches of kBatch plans from
/// its own schedule until `seconds` have passed (or `batches` batches when
/// batches > 0), collecting every query of a batch before the next one.
LoopResult RunLoop(SharingEngine* engine, const std::vector<PlanNodeRef>& plans,
                   const WorkloadSpec& spec, uint64_t seed,
                   uint64_t stream_base, double seconds, int batches,
                   const ResultOracle* oracle) {
  std::vector<std::vector<QueryOutcome>> per_client(kClients);
  std::atomic<int64_t> attempted{0};
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::microseconds(static_cast<int64_t>(seconds * 1e6));
  CpuTimer cpu;
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Schedule schedule(spec, seed, stream_base + c);
      auto& out = per_client[c];
      for (int b = 0; batches > 0 ? b < batches : Clock::now() < end; ++b) {
        QueryHandle handles[kBatch];
        Clock::time_point submitted[kBatch];
        int plan_of[kBatch];
        for (int k = 0; k < kBatch; ++k) {
          plan_of[k] = schedule.Next();
          submitted[k] = Clock::now();
          handles[k] = engine->Submit(plans[plan_of[k]]);
          QueryOutcome outcome;
          outcome.plan = plan_of[k];
          outcome.submit_us =
              std::chrono::duration_cast<std::chrono::microseconds>(
                  Clock::now() - submitted[k])
                  .count();
          out.push_back(std::move(outcome));
        }
        attempted.fetch_add(kBatch, std::memory_order_relaxed);
        for (int k = 0; k < kBatch; ++k) {
          auto result = handles[k].Collect();
          QueryOutcome& outcome = out[out.size() - kBatch + k];
          outcome.latency_ms =
              std::chrono::duration<double, std::milli>(Clock::now() -
                                                        submitted[k])
                  .count();
          outcome.ok = result.ok();
          if (!result.ok()) continue;
          outcome.explain = result.value().explain();
          if (oracle != nullptr && oracle->Has(plan_of[k])) {
            outcome.result =
                std::make_unique<ResultSet>(std::move(result.value()));
          }
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  LoopResult loop;
  loop.wall_s = std::chrono::duration<double>(Clock::now() - start).count();
  loop.cpu_s = cpu.ElapsedSeconds();
  loop.attempted = attempted.load();
  for (auto& v : per_client) {
    for (auto& o : v) loop.outcomes.push_back(std::move(o));
  }
  return loop;
}

/// Plans the oracle checks: every plan of a small set; for the star
/// workload, the distinct variants of each client's first window batch
/// (a seeded sample that the window is certain to run).
std::vector<int> OraclePlans(const WorkloadSpec& spec, uint64_t seed) {
  std::set<int> chosen;
  if (spec.distinct_plans <= 16) {
    for (int i = 0; i < spec.distinct_plans; ++i) chosen.insert(i);
  } else {
    for (int c = 0; c < kClients; ++c) {
      Schedule schedule(spec, seed, c);
      for (int k = 0; k < kBatch; ++k) chosen.insert(schedule.Next());
    }
  }
  return {chosen.begin(), chosen.end()};
}

/// Builds one instance: generates the data, constructs the engine and
/// warms it up, timing each step. When `oracle` is set, its expected rows
/// are computed between generation and engine construction, untimed and
/// without the disk latency model (the rows do not depend on it).
Instance SetUp(const WorkloadSpec& spec, const std::vector<PlanNodeRef>& plans,
               uint64_t seed, bool trace, const std::string& spill_path,
               ResultOracle* oracle, SetupTimes* times) {
  Instance inst;
  Stopwatch generate;
  DatabaseOptions options;
  options.buffer_pool_frames = spec.pool_frames;
  inst.db = std::make_unique<Database>(options);
  if (spec.kind == Kind::kQ1FanoutSpill) {
    auto table = tpch::GenerateLineitem(inst.db->catalog(),
                                        inst.db->buffer_pool(),
                                        spec.scale_factor, kDataSeed);
    SHARING_CHECK(table.ok()) << table.status().ToString();
  } else {
    SHARING_CHECK_OK(ssb::GenerateAll(inst.db->catalog(),
                                      inst.db->buffer_pool(),
                                      spec.scale_factor, kDataSeed));
  }
  times->generate_s = generate.ElapsedSeconds();

  if (oracle != nullptr) {
    Stopwatch watch;
    for (int plan : OraclePlans(spec, seed)) {
      SHARING_CHECK_OK(
          oracle->Compute(inst.db->catalog(), plan, *plans[plan]));
    }
    times->oracle_s = watch.ElapsedSeconds();
  }

  Stopwatch init;
  if (spec.disk_resident) {
    inst.db->SetDiskResident(/*read_latency_micros=*/55,
                             /*bandwidth_mib=*/15000);
  }
  inst.engine = std::make_unique<SharingEngine>(
      inst.db.get(), MakeConfig(spec, trace, spill_path));
  ApplyStageModes(spec, inst.engine.get());
  times->engine_init_s = init.ElapsedSeconds();

  // Warm-up from streams the window never uses.
  Stopwatch warmup;
  LoopResult warm = RunLoop(inst.engine.get(), plans, spec, seed,
                            kWarmupStream, 0, kWarmupBatches, nullptr);
  for (const auto& o : warm.outcomes) {
    SHARING_CHECK(o.ok) << spec.name << ": warm-up query failed";
  }
  times->warmup_s = warmup.ElapsedSeconds();
  return inst;
}

// ---------------------------------------------------------------------------
// Measurement
// ---------------------------------------------------------------------------

/// The engine registry, plus the counters of the process-global one
/// (components built without an explicit registry count there).
MetricsSnapshot Snapshot(Database* db) {
  MetricsSnapshot snap = db->metrics()->Snapshot();
  for (const auto& [name, value] :
       MetricsRegistry::Global().SnapshotTyped().counters) {
    snap[name] += value;
  }
  return snap;
}

int64_t Get(const MetricsSnapshot& snap, const std::string& name) {
  auto it = snap.find(name);
  return it == snap.end() ? 0 : it->second;
}

/// VmHWM: the process's peak resident set size so far.
double PeakRssMib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;
    }
  }
  return 0;
}

/// Samples a traced window from outside the engine. Every 5 ms it reads
/// the SP retention gauges, whose registry high-water marks span the
/// engine's whole life, warm-up included. Every 100 ms it exports the
/// trace and sums the durations of the engine's own spl.park and
/// bufferpool.miss_stall spans that ended since the previous export.
class WindowSampler {
 public:
  explicit WindowSampler(MetricsRegistry* metrics)
      : retained_(metrics->GetGauge(metrics::kSpPagesRetained)),
        spill_bytes_(metrics->GetGauge(metrics::kSpSpillBytes)),
        thread_([this] { Loop(); }) {}

  ~WindowSampler() { Stop(); }

  SHARING_DISALLOW_COPY_AND_MOVE(WindowSampler);

  void Stop() {
    if (!thread_.joinable()) return;
    stop_.store(true);
    thread_.join();
    Fold(Trace::NowMicros() + 1);
  }

  int64_t retained_hwm() const { return retained_hwm_; }
  int64_t spill_bytes_hwm() const { return spill_bytes_hwm_; }
  /// Summed span micros by name.
  const std::map<std::string, int64_t>& span_micros() const { return spans_; }

 private:
  void Loop() {
    for (int tick = 1; !stop_.load(); ++tick) {
      retained_hwm_ = std::max(retained_hwm_, retained_->Get());
      spill_bytes_hwm_ = std::max(spill_bytes_hwm_, spill_bytes_->Get());
      if (tick % 20 == 0) Fold(Trace::NowMicros());
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }

  /// Adds spans that ended in [since_, cutoff) and advances since_.
  void Fold(int64_t cutoff) {
    const std::string json = Trace::ExportChromeJson(since_);
    std::size_t pos = 0;
    while ((pos = json.find("{\"name\":\"", pos)) != std::string::npos) {
      pos += 9;
      const std::size_t name_end = json.find('"', pos);
      const std::string name = json.substr(pos, name_end - pos);
      const std::size_t next = json.find("{\"name\":\"", name_end);
      if (name == "spl.park" || name == "bufferpool.miss_stall") {
        const std::size_t ts = json.find("\"ts\":", name_end);
        const std::size_t dur = json.find("\"dur\":", name_end);
        if (ts < next && dur < next) {
          const int64_t start = std::atoll(json.c_str() + ts + 5);
          const int64_t micros = std::atoll(json.c_str() + dur + 6);
          if (start + micros >= since_ && start + micros < cutoff) {
            spans_[name] += micros;
          }
        }
      }
      pos = name_end;
    }
    since_ = cutoff;
  }

  Gauge* retained_;
  Gauge* spill_bytes_;
  std::atomic<bool> stop_{false};
  int64_t retained_hwm_ = 0;
  int64_t spill_bytes_hwm_ = 0;
  int64_t since_ = Trace::NowMicros();
  std::map<std::string, int64_t> spans_;
  std::thread thread_;
};

/// exec.solo_ms_mean: distinct plans (a seeded sample for large sets) run
/// one at a time in query-centric mode on the same data.
double SoloMsMean(Instance* inst, const std::vector<PlanNodeRef>& plans,
                  const WorkloadSpec& spec, uint64_t seed) {
  inst->engine->SetMode(EngineMode::kQueryCentric);
  Schedule schedule(spec, seed, kSoloStream);
  double total_ms = 0;
  for (int i = 0; i < spec.solo_plans; ++i) {
    const int plan = spec.distinct_plans > 16 ? schedule.Next() : i;
    Stopwatch wall;
    auto result = inst->engine->Execute(plans[plan]);
    SHARING_CHECK(result.ok()) << result.status().ToString();
    total_ms += wall.ElapsedSeconds() * 1e3;
  }
  return total_ms / spec.solo_plans;
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

/// A flat JSON object writer for the instance record. Keys and strings are
/// benchmark-chosen identifiers and metric names, which need no escaping.
class JsonObject {
 public:
  JsonObject& Num(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(value) ? value : 0);
    return Raw(key, buf);
  }
  JsonObject& Str(const std::string& key, const std::string& value) {
    return Raw(key, "\"" + value + "\"");
  }
  JsonObject& Nums(const std::string& key, const std::vector<double>& values) {
    std::string out = "[";
    char buf[64];
    for (std::size_t i = 0; i < values.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%s%.9g", i > 0 ? "," : "", values[i]);
      out += buf;
    }
    return Raw(key, out + "]");
  }
  template <typename Map>
  JsonObject& NumMap(const std::string& key, const Map& map) {
    JsonObject object;
    for (const auto& [name, value] : map) {
      object.Num(name, static_cast<double>(value));
    }
    return Raw(key, object.str());
  }
  JsonObject& Raw(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "\"" : ", \"") + key + "\": " + json;
    return *this;
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

std::string Compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

/// The raw inputs of the per-layer metrics, from the traced window.
void AddLayerInputs(const LoopResult& loop, const MetricsSnapshot& delta,
                    const MetricsSnapshot& after, const WindowSampler& sampler,
                    JsonObject* out) {
  std::vector<double> submit_us, run_packet_us;
  std::map<std::string, double> run_us, decided_by;
  double records = 0, satellites = 0;
  for (const auto& o : loop.outcomes) {
    submit_us.push_back(static_cast<double>(o.submit_us));
    if (o.explain == nullptr) continue;
    for (const auto& rec : o.explain->stages) {
      std::string stage = rec.stage;
      std::transform(stage.begin(), stage.end(), stage.begin(),
                     [](unsigned char ch) { return std::tolower(ch); });
      run_us[stage] += static_cast<double>(rec.run_micros);
      decided_by[rec.decided_by] += 1;
      records += 1;
      if (rec.role == QueryExplain::StageRecord::Role::kSatellite) {
        satellites += 1;
      } else if (rec.run_micros > 0) {
        run_packet_us.push_back(static_cast<double>(rec.run_micros));
      }
    }
  }
  std::map<std::string, int64_t> p99;
  for (const char* h :
       {metrics::kIoDispatchWaitFaultback, metrics::kIoDispatchWaitSpill}) {
    p99[h] = Get(after, std::string(h) + ".p99");
  }
  out->Nums("submit_us", submit_us)
      .Nums("run_packet_us", run_packet_us)
      .NumMap("run_us_by_stage", run_us)
      .NumMap("decided_by", decided_by)
      .Num("stage_records", records)
      .Num("satellite_records", satellites)
      .NumMap("counters", delta)
      .NumMap("histogram_p99", p99)
      .NumMap("span_us", sampler.span_micros())
      .Num("retained_hwm", static_cast<double>(sampler.retained_hwm()))
      .Num("spill_bytes_hwm", static_cast<double>(sampler.spill_bytes_hwm()));
}

struct Args {
  std::string workload;
  uint64_t seed = 7;
  double seconds = 5;
  bool trace = false;
  std::string oracle_path;
  bool compute_oracle = false;
  bool solo = false;
  std::string work_dir = ".";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::atof(value);
    } else if (key == "--trace") {
      args->trace = std::atoi(value) != 0;
    } else if (key == "--oracle") {
      args->oracle_path = value;
    } else if (key == "--compute-oracle") {
      args->compute_oracle = std::atoi(value) != 0;
    } else if (key == "--solo") {
      args->solo = std::atoi(value) != 0;
    } else if (key == "--work-dir") {
      args->work_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0 &&
         !args->oracle_path.empty();
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> --oracle <file> [--compute-oracle 1] "
                 "[--solo 1] [--work-dir <dir>]\n");
    return 2;
  }
  const WorkloadSpec* spec = nullptr;
  for (const auto& w : kWorkloads) {
    if (args.workload == w.name) spec = &w;
  }
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  std::filesystem::create_directories(args.work_dir);
  const std::string spill_path = args.work_dir + "/spill-" +
                                 std::to_string(::getpid()) + ".bin";
  const std::vector<PlanNodeRef> plans = MakePlans(*spec);

  ResultOracle oracle;
  if (!args.compute_oracle) {
    Status st = oracle.Load(args.oracle_path);
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
  }
  SetupTimes setup;
  Instance inst = SetUp(*spec, plans, args.seed, args.trace, spill_path,
                        args.compute_oracle ? &oracle : nullptr, &setup);
  if (args.compute_oracle) SHARING_CHECK_OK(oracle.Save(args.oracle_path));

  std::unique_ptr<WindowSampler> sampler;
  if (args.trace) sampler = std::make_unique<WindowSampler>(inst.db->metrics());
  const MetricsSnapshot before = Snapshot(inst.db.get());
  LoopResult loop = RunLoop(inst.engine.get(), plans, *spec, args.seed, 0,
                            args.seconds, 0, &oracle);
  const MetricsSnapshot after = Snapshot(inst.db.get());
  if (sampler != nullptr) sampler->Stop();
  const double peak_rss_mib = PeakRssMib();

  int64_t completed = 0, failed = 0, checked = 0, wrong = 0;
  std::vector<double> latencies_ms;
  for (auto& o : loop.outcomes) {
    if (!o.ok) {
      ++failed;
      continue;
    }
    ++completed;
    latencies_ms.push_back(o.latency_ms);
    if (o.result != nullptr) {
      ++checked;
      if (!oracle.Matches(o.plan, *o.result)) ++wrong;
    }
  }

  JsonObject out;
  out.Str("workload", spec->name)
      .Num("seed", static_cast<double>(args.seed))
      .Num("seconds", args.seconds)
      .Num("trace", args.trace ? 1 : 0)
      .Num("generate_s", setup.generate_s)
      .Num("engine_init_s", setup.engine_init_s)
      .Num("warmup_s", setup.warmup_s)
      .Num("oracle_s", setup.oracle_s)
      .Num("oracle_plans", static_cast<double>(oracle.size()))
      .Num("wall_s", loop.wall_s)
      .Num("cpu_s", loop.cpu_s)
      .Num("attempted", static_cast<double>(loop.attempted))
      .Num("completed", static_cast<double>(completed))
      .Num("failed", static_cast<double>(failed))
      .Num("wrong", static_cast<double>(wrong))
      .Num("checked", static_cast<double>(checked))
      .Num("peak_rss_mib", peak_rss_mib)
      .Nums("latencies_ms", latencies_ms);
  if (args.trace) {
    AddLayerInputs(loop, MetricsRegistry::Delta(before, after), after,
                   *sampler, &out);
  }
  if (args.solo) {
    Trace::Disable();
    out.Num("solo_ms_mean", SoloMsMean(&inst, plans, *spec, args.seed));
  }
  out.Raw("fingerprint",
          JsonObject()
              .Num("nproc", std::thread::hardware_concurrency())
              .Str("compiler", Compiler())
              .Str("build_type", PERFBENCH_BUILD_TYPE)
              .Str("data", spec->data)
              .Num("scale_factor", spec->scale_factor)
              .Num("pool_frames", static_cast<double>(spec->pool_frames))
              .Str("residency", spec->disk_resident ? "disk" : "memory")
              .Str("engine_mode", std::string(EngineModeToString(spec->mode)))
              .Num("clients", kClients)
              .Num("batch", kBatch)
              .Num("in_flight", kClients * kBatch)
              .str());
  std::printf("%s\n", out.str().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
