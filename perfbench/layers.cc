// perfbench_layers — the benchmark's traced pass.
//
// Replays one workload's command list in-process: every call into a layer's
// public API (apps, ir, vm, ddg, crash, epvf, fi, store, serve, support) is
// made from this file and wrapped in a span named after the layer call. Spans
// go into the obs trace buffers (obs::trace_detail::Record, so the library's
// own spans stay off and the layers run exactly as in an untraced process);
// a span's parent is the span that encloses it on the same thread.
//
// The plan is run three times (spans off, on, off), each in a fresh work
// directory; the wall-time ratio of the spans-on pass to the faster
// spans-off pass is the tracing overhead.
//
// usage: perfbench_layers --plan FILE --epvf EXE --work DIR --out FILE
//                         --spans FILE
//
// Plan lines (arguments as the CLI takes them):
//   analyze <target> [--scale N]          analysis layers on one target
//   inject <target> [inject flags]        analysis + campaign layers
//   store <target> [--scale N]            RunAnalysisCached miss, then hit
//   store-campaign <target> [flags]       RunCampaignCached miss/hit, shard merge
//   serve <analyze|inject> <target> [...] one request to a private daemon
//   spawn                                 support::Subprocess of `epvf list`
//
// A line may start with the word "probe": it exercises a layer the workload's
// own commands do not reach. Its root span is perfbench.probe instead of
// perfbench.command and its counts carry a "probe." prefix.
//
// Outputs: --out gets one JSON object (pass wall times and counts); --spans
// gets every span with its parent and self time; <work>/on/out-<i>.txt holds
// plan line i's analyze report or daemon stdout, which the caller checks
// against its references.
#include <malloc.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "apps/app.h"
#include "crash/crash_model.h"
#include "crash/propagation.h"
#include "ddg/ace.h"
#include "ddg/builder.h"
#include "epvf/analysis.h"
#include "epvf/report.h"
#include "fi/campaign.h"
#include "fi/injector.h"
#include "fi/memory_scenario.h"
#include "fi/planner.h"
#include "ir/parser.h"
#include "ir/verifier.h"
#include "obs/trace.h"
#include "serve/client.h"
#include "serve/render.h"
#include "serve/wire.h"
#include "store/cache.h"
#include "support/rng.h"
#include "support/subprocess.h"
#include "vm/compile.h"
#include "vm/interpreter.h"

namespace fs = std::filesystem;
using namespace epvf;

namespace {

constexpr const char* kCategory = "perfbench";
/// Single injections timed per inject line, at each of the two entry points.
constexpr int kInjectSamples = 64;

bool g_spans = false;  // set per pass; read by every Span

/// One layer call. Records into the obs trace buffers when spans are on and
/// costs one branch when they are off.
class Span {
 public:
  explicit Span(const char* name) : name_(name) {
    if (g_spans) start_ns_ = obs::trace_detail::NowNs();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() {
    if (g_spans) obs::trace_detail::Record(kCategory, name_, start_ns_, obs::trace_detail::NowNs());
  }

 private:
  const char* name_;
  std::uint64_t start_ns_ = 0;
};

/// Counts the pass records beside its spans (node counts, run tallies, ...);
/// those of probe lines are kept apart under a "probe." prefix.
std::map<std::string, double> g_counts;
const char* g_count_prefix = "";
void Count(const std::string& name, double value) { g_counts[g_count_prefix + name] += value; }

struct Command {
  std::vector<std::string> words;  // e.g. {"inject", "mm", "--plan", "stratified"}
  std::map<std::string, std::string> flags;
  std::string verb;
  std::string target;
  bool probe = false;  // a line the workload's own commands do not contain

  [[nodiscard]] std::string Flag(const std::string& name, const std::string& fallback) const {
    const auto it = flags.find(name);
    return it == flags.end() ? fallback : it->second;
  }
  [[nodiscard]] long long Int(const std::string& name, long long fallback) const {
    const auto it = flags.find(name);
    return it == flags.end() ? fallback : std::stoll(it->second);
  }
};

/// Splits one plan line; `--name value` pairs become flags, except the
/// value-less --no-cache.
Command ParseCommand(const std::string& line) {
  Command cmd;
  std::istringstream in(line);
  for (std::string word; in >> word;) cmd.words.push_back(word);
  if (!cmd.words.empty() && cmd.words[0] == "probe") {
    cmd.probe = true;
    cmd.words.erase(cmd.words.begin());
  }
  if (cmd.words.empty()) throw std::runtime_error("empty plan line");
  cmd.verb = cmd.words[0];
  std::size_t i = 1;
  if (cmd.verb == "serve") i = 2;  // serve <analyze|inject> <target> ...
  if (i < cmd.words.size() && cmd.words[i].rfind("--", 0) != 0) cmd.target = cmd.words[i++];
  for (; i < cmd.words.size(); ++i) {
    const std::string& word = cmd.words[i];
    if (word.rfind("--", 0) != 0) throw std::runtime_error("stray plan word: " + word);
    if (word == "--no-cache") continue;
    if (i + 1 >= cmd.words.size()) throw std::runtime_error("flag without value: " + word);
    cmd.flags[word.substr(2)] = cmd.words[++i];
  }
  return cmd;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void WriteFile(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::trunc);
  out << text;
  if (!out) throw std::runtime_error("cannot write " + path);
}

/// Heap bytes in use. Its growth across a call is the memory the call's
/// results keep; RSS shows the same growth only once the arena stops
/// recycling freed blocks, so RSS deltas read 0 in a warm process.
double HeapInUseMiB() {
  const struct mallinfo2 info = ::mallinfo2();
  return static_cast<double>(info.uordblks + info.hblkhd) / (1024.0 * 1024.0);
}

std::uint64_t DirBytes(const std::string& dir) {
  std::uint64_t bytes = 0;
  std::error_code ec;
  for (const auto& entry : fs::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) bytes += entry.file_size(ec);
  }
  return bytes;
}

class NullSink final : public vm::TraceSink {
 public:
  void OnInstruction(const vm::DynContext&) override {}
};

/// A target's module and analysis, built once per pass and shared by every
/// plan line naming the same target.
struct Target {
  std::string name;
  int scale = 1;
  ir::Module module;
  std::optional<core::Analysis> analysis;
};

class Pass {
 public:
  Pass(std::string epvf, std::string work) : epvf_(std::move(epvf)), work_(std::move(work)) {}

  void Run(const std::vector<Command>& plan) {
    for (std::size_t i = 0; i < plan.size(); ++i) {
      const Command& cmd = plan[i];
      g_count_prefix = cmd.probe ? "probe." : "";
      const Span span(cmd.probe ? "perfbench.probe" : "perfbench.command");
      if (cmd.verb == "analyze") {
        WriteFile(OutPath(i), Analyze(cmd));
      } else if (cmd.verb == "inject") {
        Inject(cmd);
      } else if (cmd.verb == "store") {
        StoreAnalysis(cmd);
      } else if (cmd.verb == "store-campaign") {
        StoreCampaign(cmd);
      } else if (cmd.verb == "serve") {
        WriteFile(OutPath(i), ServeRequest(cmd));
      } else if (cmd.verb == "spawn") {
        SpawnList();
      } else {
        throw std::runtime_error("unknown plan verb: " + cmd.verb);
      }
    }
    g_count_prefix = "";
    StopDaemon();
    Count("store.bytes_written",
          static_cast<double>(DirBytes(work_ + "/store-cache") + DirBytes(work_ + "/serve-cache")));
  }

  ~Pass() { StopDaemon(); }
  Pass(const Pass&) = delete;
  Pass& operator=(const Pass&) = delete;

 private:
  [[nodiscard]] std::string OutPath(std::size_t i) const {
    return work_ + "/out-" + std::to_string(i) + ".txt";
  }

  /// Loads (once) and analyzes (once) the command's target: the analysis
  /// layers, each timed on its own, then the whole pipeline as the CLI runs it.
  Target& Load(const Command& cmd) {
    const int scale = static_cast<int>(cmd.Int("scale", 1));
    const std::string key = cmd.target + "@" + std::to_string(scale);
    auto found = targets_.find(key);
    if (found != targets_.end()) return *found->second;
    auto target = std::make_unique<Target>();
    target->name = cmd.target;
    target->scale = scale;
    if (cmd.target.find('.') != std::string::npos || cmd.target.find('/') != std::string::npos) {
      const std::string text = ReadFile(cmd.target);
      const Span span("ir.parse");
      target->module = ir::ParseModuleOrThrow(text);
    } else {
      const Span span("apps.build");
      apps::AppConfig config;
      config.scale = scale;
      target->module = apps::BuildApp(cmd.target, config).module;
    }
    {
      const Span span("ir.verify");
      ir::VerifyModuleOrThrow(target->module);
    }
    const ir::Module& module = target->module;
    std::shared_ptr<const vm::bc::Program> program;
    {
      const Span span("vm.compile");
      program = vm::bc::Compile(module);
    }
    // The golden run's configuration (map history on), once with a sink
    // that does nothing and once building the DDG: the difference is the
    // graph builder's cost.
    vm::ExecOptions golden_exec;
    golden_exec.record_map_history = true;
    std::uint64_t instructions = 0;
    {
      NullSink sink;
      vm::Interpreter interp(module, golden_exec);
      const Span span("vm.traced_run");
      instructions = interp.Run("main", &sink).instructions_executed;
    }
    Count("vm.traced_instructions", static_cast<double>(instructions));
    {
      vm::ExecOptions exec;
      exec.bytecode = program;
      vm::Interpreter interp(module, exec);
      const Span span("vm.untraced_run");
      Count("vm.untraced_instructions", static_cast<double>(interp.Run().instructions_executed));
    }
    {
      vm::Interpreter interp(module, golden_exec);
      ddg::Graph graph;
      {
        ddg::GraphBuilder builder(module);
        const Span span("ddg.graph_run");
        (void)interp.Run("main", &builder);
        graph = builder.Take();
      }
      Count("ddg.nodes", static_cast<double>(graph.NumNodes()));
      ddg::AceResult ace;
      {
        const Span span("ddg.ace");
        ace = ddg::ComputeAce(graph);
      }
      const Span span("crash.propagate");
      const crash::CrashModel model(interp.memory());
      (void)crash::PropagateCrashRanges(graph, ace, model);
    }
    {
      const Span span("epvf.run");
      target->analysis.emplace(core::Analysis::Run(module));
    }
    {
      const Span span("epvf.rate_estimate");
      (void)target->analysis->CrashRateEstimate();
    }
    Target& ref = *target;
    targets_.emplace(key, std::move(target));
    return ref;
  }

  std::string Analyze(const Command& cmd) {
    const Target& target = Load(cmd);
    std::ostringstream report;
    const Span span("epvf.report");
    serve::RenderAnalyzeReport(core::StatsFromAnalysis(*target.analysis), report);
    return report.str();
  }

  /// The campaign options `epvf inject` derives from its default flags.
  static fi::CampaignOptions CampaignFor(const Command& cmd) {
    fi::CampaignOptions campaign;
    campaign.num_runs = static_cast<int>(cmd.Int("runs", 500));
    campaign.seed = static_cast<std::uint64_t>(cmd.Int("seed", 42));
    const bool memory = cmd.Flag("scenario", "register") == "memory";
    campaign.injector.scenario = memory ? fi::Scenario::kMemory : fi::Scenario::kRegister;
    campaign.injector.jitter_pages = static_cast<std::uint32_t>(cmd.Int("jitter", memory ? 0 : 2));
    return campaign;
  }

  void Inject(const Command& cmd) {
    Target& target = Load(cmd);
    const core::Analysis& a = *target.analysis;
    const fi::CampaignOptions campaign = CampaignFor(cmd);
    const bool memory = campaign.injector.scenario == fi::Scenario::kMemory;

    std::shared_ptr<const fi::MemoryScenario> scenario;
    std::vector<fi::FaultSite> sites;
    if (memory) {
      {
        const Span span("fi.memory_sites");
        scenario = std::make_shared<const fi::MemoryScenario>(a.graph());
      }
      sites = scenario->FaultSites();
    } else {
      const Span span("fi.sites");
      sites = fi::EnumerateFaultSites(a.graph());
    }
    SampleInjections(target, campaign, scenario, sites);

    if (cmd.Flag("plan", "uniform") == "stratified") {
      Stratified(target, cmd, campaign, scenario);
      return;
    }
    fi::CampaignStats stats;
    {
      const Span span("fi.campaign");
      stats = fi::RunCampaign(target.module, a.graph(), a.golden(), campaign);
    }
    const fi::CampaignPerf& perf = stats.perf;
    Count("fi.campaign_runs", static_cast<double>(stats.Total()));
    Count("fi.resumed_runs", static_cast<double>(perf.checkpointed_runs));
    Count("fi.static_masked_runs", static_cast<double>(perf.statically_masked_runs));
    Count("fi.skipped_instructions", static_cast<double>(perf.skipped_instructions));
    Count("fi.campaign_instructions",
          static_cast<double>(stats.Total()) * static_cast<double>(a.TraceLength()));
  }

  /// Single injections timed one by one: from instruction 0 at the command's
  /// jitter, then from the auto checkpoints at zero jitter.
  void SampleInjections(const Target& target, const fi::CampaignOptions& campaign,
                        const std::shared_ptr<const fi::MemoryScenario>& scenario,
                        const std::vector<fi::FaultSite>& sites) {
    if (sites.empty()) return;
    const core::Analysis& a = *target.analysis;
    Rng rng(campaign.seed);
    std::vector<std::pair<fi::FaultSite, std::uint8_t>> draws;
    for (int i = 0; i < kInjectSamples; ++i) {
      const fi::FaultSite& site = sites[rng.Next() % sites.size()];
      const std::uint8_t width = site.width == 0 ? 1 : site.width;
      draws.emplace_back(site, static_cast<std::uint8_t>(rng.Next() % width));
    }

    fi::Injector full(target.module, a.golden(), campaign.injector);
    if (scenario) full.AttachMemoryScenario(scenario);
    for (const auto& [site, bit] : draws) {
      const Span span("fi.inject_full");
      (void)full.Inject(site, bit);
    }

    fi::InjectorOptions resume_options = campaign.injector;
    resume_options.jitter_pages = 0;
    fi::Injector resume(target.module, a.golden(), resume_options);
    if (scenario) resume.AttachMemoryScenario(scenario);
    BuildAutoCheckpoints(resume, a.TraceLength());
    for (const auto& [site, bit] : draws) {
      const Span span("fi.inject_resume");
      const fi::Injector::InjectionResult result = resume.Inject(site, bit);
      Count("fi.sample_resumed", result.resumed_from > 0 ? 1 : 0);
      Count("fi.sample_runs", 1);
    }
  }

  static void BuildAutoCheckpoints(fi::Injector& injector, std::uint64_t trace_length) {
    const std::vector<std::uint64_t> at =
        fi::CheckpointSites(trace_length, fi::ResolveCheckpointInterval(0, trace_length));
    const double before = HeapInUseMiB();
    {
      const Span span("fi.checkpoint_build");
      Count("fi.checkpoints", static_cast<double>(injector.BuildCheckpoints(at)));
    }
    Count("fi.checkpoint_rss_mb", HeapInUseMiB() - before);
  }

  /// The planner loop of `inject --plan stratified`, round by round.
  void Stratified(const Target& target, const Command& cmd, const fi::CampaignOptions& campaign,
                  const std::shared_ptr<const fi::MemoryScenario>& scenario) {
    const core::Analysis& a = *target.analysis;
    fi::StratifiedOptions plan;
    plan.ci_target = std::stod(cmd.Flag("ci-target", "0.05"));
    plan.max_runs = static_cast<std::uint32_t>(cmd.Int("max-runs", 0));
    fi::Injector injector(target.module, a.golden(), campaign.injector);
    if (scenario) injector.AttachMemoryScenario(scenario);
    std::optional<fi::CampaignPlanner> planner;
    {
      const Span span("fi.plan_setup");
      planner.emplace(a.graph(), a.ace(), a.crash_bits(), injector, campaign.seed, plan);
    }
    if (campaign.injector.jitter_pages == 0) BuildAutoCheckpoints(injector, a.TraceLength());
    while (!planner->Done()) {
      const Span round("fi.plan_round");
      std::vector<fi::PlannedInjection> queue;
      {
        const Span span("fi.plan_begin");
        queue = planner->BeginRound();
      }
      fi::ExecuteResult result;
      {
        const Span span("fi.plan_execute");
        result = fi::ExecutePlannedRuns(injector, queue, fi::ExecuteOptions{});
      }
      const Span span("fi.plan_commit");
      planner->CommitRound(result.records);
    }
    Count("fi.plan_rounds", planner->RoundsCommitted());
    Count("fi.plan_runs", static_cast<double>(planner->TotalRuns()));
  }

  store::ArtifactCache& StoreCache() {
    if (!store_cache_) store_cache_ = std::make_unique<store::ArtifactCache>(work_ + "/store-cache");
    return *store_cache_;
  }

  store::AnalysisKey KeyFor(const Target& target) {
    store::AnalysisKey key;
    key.app = target.name;
    key.config = "scale=" + std::to_string(target.scale);
    key.module_fingerprint = store::ModuleFingerprint(target.module);
    return key;
  }

  void StoreAnalysis(const Command& cmd) {
    const Target& target = Load(cmd);
    store::ArtifactCache& cache = StoreCache();
    const store::AnalysisKey key = KeyFor(target);
    {
      const Span span("store.analysis_miss");
      (void)store::RunAnalysisCached(target.module, key.options, key, cache);
    }
    const Span span("store.analysis_hit");
    (void)store::RunAnalysisCached(target.module, key.options, key, cache);
  }

  void StoreCampaign(const Command& cmd) {
    const Target& target = Load(cmd);
    const core::Analysis& a = *target.analysis;
    store::ArtifactCache& cache = StoreCache();
    const store::AnalysisKey akey = KeyFor(target);
    fi::CampaignOptions campaign = CampaignFor(cmd);
    const store::CampaignKey key{akey, campaign};
    {
      const Span span("store.campaign_miss");
      (void)store::RunCampaignCached(target.module, a.graph(), a.golden(), campaign, key, cache);
    }
    {
      const Span span("store.campaign_hit");
      (void)store::RunCampaignCached(target.module, a.graph(), a.golden(), campaign, key, cache);
    }
    // A two-shard run of a second seed, then the merge `epvf campaign` does.
    campaign.seed += 1;
    const store::CampaignKey shard_key{akey, campaign};
    for (int shard = 0; shard < 2; ++shard) {
      fi::CampaignOptions slice = campaign;
      slice.shard_index = shard;
      slice.shard_count = 2;
      const Span span("store.shard");
      (void)store::RunCampaignShard(target.module, a.graph(), a.golden(), slice, shard_key, cache);
    }
    const Span span("store.merge");
    (void)store::MergeShardedCampaign(target.module, a.graph(), a.golden(), campaign, shard_key,
                                      cache, 2);
  }

  /// Starts the private daemon (socket relative to the working directory,
  /// which the caller sets to this pass's work root) and waits until it
  /// accepts connections.
  void StartDaemon() {
    if (daemon_) return;
    socket_ = work_ + "/serve.sock";
    SubprocessOptions options;
    options.argv = {epvf_, "serve", socket_, "--cache-dir", work_ + "/serve-cache"};
    options.stderr_path = work_ + "/serve.log";
    const Span span("serve.start");
    daemon_ = Subprocess::Spawn(options);
    if (!daemon_) throw std::runtime_error("cannot spawn the serve daemon");
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (!serve::ServeClient::Connect(socket_).has_value()) {
      if (daemon_->Poll().has_value() || std::chrono::steady_clock::now() > deadline) {
        throw std::runtime_error("serve daemon did not come up (see " + work_ + "/serve.log)");
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }

  /// Shuts the daemon down, then reads the store counters it and its
  /// campaign workers persisted into the daemon's cache directory.
  void StopDaemon() {
    if (!daemon_) return;
    if (std::optional<serve::ServeClient> client = serve::ServeClient::Connect(socket_)) {
      (void)client->Shutdown();
    }
    if (!daemon_->PollWithDeadline(30).has_value()) daemon_->Kill();
    (void)daemon_->Wait();
    daemon_.reset();
    const store::ArtifactCache cache(work_ + "/serve-cache");
    const store::CacheCounters counters = cache.Stats().lifetime;
    Count("store.serve_hits", static_cast<double>(counters.hits));
    Count("store.serve_lookups", static_cast<double>(counters.hits + counters.misses));
  }

  /// One --connect request spoken frame by frame, so the admission ack and
  /// the terminal frame are timed separately. Returns the relayed stdout.
  std::string ServeRequest(const Command& cmd) {
    StartDaemon();
    serve::RunRequest request;
    request.args.assign(cmd.words.begin() + 1, cmd.words.end());
    const bool analyze = cmd.words.at(1) == "analyze";

    // A fresh connection per request, as `--connect` opens one. The
    // connect is ServeClient::Connect's socket+connect, done here so the
    // frames can be read one at a time.
    int fd = -1;
    {
      const Span span("serve.connect");
      fd = ConnectRaw(socket_);
    }
    struct Closer {
      int fd;
      ~Closer() { ::close(fd); }
    } closer{fd};

    const Span rtt(analyze ? "serve.analyze_rtt" : "serve.inject_rtt");
    std::optional<Span> ack(std::in_place, "serve.ack");
    if (!serve::WriteFrame(fd, serve::FrameType::kRun, serve::EncodeRunRequest(request))) {
      throw std::runtime_error("daemon request write failed");
    }
    std::string out;
    while (true) {
      serve::Frame frame;
      if (serve::ReadFrame(fd, &frame) != serve::ReadStatus::kOk) {
        throw std::runtime_error("daemon connection broke");
      }
      switch (frame.type) {
        case serve::FrameType::kAck:
          ack.reset();
          break;
        case serve::FrameType::kStdout:
          out += frame.payload;
          break;
        case serve::FrameType::kDone:
          if (serve::DecodeU64(frame.payload).value_or(1) != 0) {
            throw std::runtime_error("daemon job exited nonzero");
          }
          return out;
        case serve::FrameType::kError: {
          const std::optional<serve::ErrorReply> error = serve::DecodeErrorReply(frame.payload);
          if (error && error->code == serve::ErrorCode::kBusy) Count("serve.busy", 1);
          throw std::runtime_error("daemon error: " + (error ? error->message : "undecodable"));
        }
        default:
          break;  // stderr and progress frames
      }
    }
  }

  static int ConnectRaw(const std::string& path) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof addr.sun_path) throw std::runtime_error("socket path too long");
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) throw std::runtime_error("socket() failed");
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
      ::close(fd);
      throw std::runtime_error("connect() failed");
    }
    return fd;
  }

  /// Process start-up cost: spawn → exit of the cheapest CLI command.
  void SpawnList() {
    SubprocessOptions options;
    options.argv = {epvf_, "list"};
    options.stdout_path = work_ + "/list.txt";
    const Span span("support.spawn");
    std::optional<Subprocess> child = Subprocess::Spawn(options);
    if (!child || !child->Wait().Success()) throw std::runtime_error("`epvf list` failed");
  }

  std::string epvf_;
  std::string work_;
  std::map<std::string, std::unique_ptr<Target>> targets_;
  std::unique_ptr<store::ArtifactCache> store_cache_;
  std::optional<Subprocess> daemon_;
  std::string socket_;
};

double RunPass(const std::vector<Command>& plan, const std::string& epvf, const std::string& work,
               bool spans) {
  fs::remove_all(work);
  fs::create_directories(work);
  g_spans = spans;
  const auto start = std::chrono::steady_clock::now();
  {
    Pass pass(epvf, work);
    pass.Run(plan);
  }
  g_spans = false;
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

struct SpanRecord {
  std::string name;
  std::int64_t parent = -1;
  std::uint64_t start_ns = 0;
  std::uint64_t dur_ns = 0;
  std::uint64_t self_ns = 0;
  std::uint32_t tid = 0;
};

/// The pass's spans with parents and self times: a span's parent is the
/// innermost earlier span on the same thread whose interval contains it.
std::vector<SpanRecord> CollectSpans() {
  std::vector<SpanRecord> spans;
  for (const obs::TraceEvent& e : obs::CollectTraceEvents()) {
    if (std::strcmp(e.category, kCategory) != 0) continue;
    spans.push_back({e.name, -1, e.start_ns, e.dur_ns, e.dur_ns, e.tid});
  }
  // CollectTraceEvents orders by start; an enclosing span starting at the
  // same instant as its child must come first, so order ties by length.
  std::stable_sort(spans.begin(), spans.end(), [](const SpanRecord& a, const SpanRecord& b) {
    return a.start_ns != b.start_ns ? a.start_ns < b.start_ns : a.dur_ns > b.dur_ns;
  });
  std::map<std::uint32_t, std::vector<std::size_t>> open;  // per-thread stack
  for (std::size_t i = 0; i < spans.size(); ++i) {
    std::vector<std::size_t>& stack = open[spans[i].tid];
    while (!stack.empty() &&
           spans[stack.back()].start_ns + spans[stack.back()].dur_ns < spans[i].start_ns +
                                                                           spans[i].dur_ns) {
      stack.pop_back();
    }
    if (!stack.empty()) {
      spans[i].parent = static_cast<std::int64_t>(stack.back());
      SpanRecord& parent = spans[stack.back()];
      parent.self_ns -= std::min(parent.self_ns, spans[i].dur_ns);
    }
    stack.push_back(i);
  }
  return spans;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out + "\"";
}

void WriteOutputs(const std::vector<SpanRecord>& spans, double wall_off, double wall_on,
                  const std::string& out_path, const std::string& spans_path) {
  std::ostringstream dump;
  dump << "{\"spans\":[";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    char line[256];
    std::snprintf(line, sizeof line,
                  "%s\n{\"id\":%zu,\"parent\":%lld,\"name\":%s,\"start_us\":%.3f,"
                  "\"dur_us\":%.3f,\"self_us\":%.3f,\"tid\":%u}",
                  i == 0 ? "" : ",", i, static_cast<long long>(s.parent),
                  JsonString(s.name).c_str(), static_cast<double>(s.start_ns) / 1e3,
                  static_cast<double>(s.dur_ns) / 1e3, static_cast<double>(s.self_ns) / 1e3,
                  s.tid);
    dump << line;
  }
  dump << "\n]}\n";
  WriteFile(spans_path, dump.str());

  std::ostringstream out;
  out.precision(17);
  out << "{\"wall_off_s\":" << wall_off << ",\"wall_on_s\":" << wall_on << ",\"counts\":{";
  bool first = true;
  for (const auto& [name, value] : g_counts) {
    out << (first ? "" : ",") << "\n" << JsonString(name) << ":" << value;
    first = false;
  }
  out << "}}\n";
  WriteFile(out_path, out.str());
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) args[argv[i]] = argv[i + 1];
  for (const char* required : {"--plan", "--epvf", "--work", "--out", "--spans"}) {
    if (args.count(required) == 0) {
      std::fprintf(stderr, "perfbench_layers: missing %s\n", required);
      return 2;
    }
  }
  try {
    std::vector<Command> plan;
    std::istringstream lines(ReadFile(args["--plan"]));
    for (std::string line; std::getline(lines, line);) {
      if (!line.empty()) plan.push_back(ParseCommand(line));
    }
    // Spans off, on, off: the first pass also warms the allocator and the
    // page cache, so the spans-on pass is compared with the faster of the
    // two spans-off passes around it.
    const std::string& work = args["--work"];
    const double cold_off = RunPass(plan, args["--epvf"], work + "/off", false);
    g_counts.clear();
    const double wall_on = RunPass(plan, args["--epvf"], work + "/on", true);
    const std::map<std::string, double> counts = g_counts;
    const double wall_off = std::min(cold_off, RunPass(plan, args["--epvf"], work + "/off", false));
    g_counts = counts;
    if (obs::DroppedTraceEvents() != 0) {
      std::fprintf(stderr, "perfbench_layers: %llu spans dropped from the trace ring\n",
                   static_cast<unsigned long long>(obs::DroppedTraceEvents()));
      return 1;
    }
    WriteOutputs(CollectSpans(), wall_off, wall_on, args["--out"], args["--spans"]);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_layers: %s\n", e.what());
    return 1;
  }
  return 0;
}
