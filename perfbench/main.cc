// Host-time benchmark over both sides of the paper's split (see README.md).
//
//   dvm_perfbench --workload <client_apps|fleet_churn|flashcrowd>
//                 --seed N --seconds S --trace 0|1 [--trace-out FILE]
//   dvm_perfbench --print-manifest      (regenerates manifest.h)
//
// Every run executes a fixed number of whole cycles over inputs generated
// from --seed; --seconds only scales that cycle count through a per-workload
// constant, so two runs with equal arguments do identical work. The program
// under test is driven through its public entry points only (DvmServer,
// DvmProxy::HandleRequest, DvmClient::RunApp, ProxyCluster,
// ReplicationCoordinator, ClientPool, EventQueue); per-layer time is taken
// from outside by wrapping the calls into each layer. The last stdout line is
// the JSON result; progress and the error rate go to stderr.
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/harness.h"
#include "perfbench/manifest.h"
#include "src/bytecode/serializer.h"
#include "src/dvm/admission.h"
#include "src/dvm/client_pool.h"
#include "src/dvm/dvm.h"
#include "src/dvm/redirect_client.h"
#include "src/dvm/replication.h"
#include "src/proxy/proxy.h"
#include "src/rewrite/filter.h"
#include "src/runtime/syslib.h"
#include "src/services/monitor_service.h"
#include "src/services/reflect_service.h"
#include "src/services/security_service.h"
#include "src/services/verify_service.h"
#include "src/simnet/sim.h"
#include "src/support/hash.h"
#include "src/support/rng.h"
#include "src/support/trace.h"
#include "src/verifier/certificate.h"
#include "src/verifier/verifier.h"
#include "src/workloads/applets.h"
#include "src/workloads/apps.h"
#include "src/workloads/arrivals.h"

using namespace dvm;
using perfbench::Metric;
using perfbench::NowNs;
using perfbench::Scoped;
using perfbench::SpanTracer;

namespace {

// ---------------------------------------------------------------------------
// Fixed work. Cycles per run = round(seconds * cycles_per_second), at least 1.
// The rates are constants (sized so the timed part of a run lasts about
// `seconds` on a 4-core x86-64 VM); they are never derived from the clock at
// run time.

constexpr int kApplets = 6;               // fleet_churn population (23 classes)
// The applet population's contents are fixed; the run seed orders and mixes
// the requests. Seeded contents made the per-run cost depend on which class
// sizes the seed drew, a spread wider than the metric bounds.
constexpr uint64_t kPopulationSeed = 1;
constexpr size_t kReplicas = 3;           // fleet_churn
constexpr int kChurnOpsPerCycle = 100;    // fleet_churn: 1 epoch commit + 99 requests
constexpr double kZipfExponent = 1.0;     // fleet_churn request popularity
constexpr SimTime kOpGap = kMillisecond;  // fleet_churn virtual time between ops
constexpr uint64_t kCrowdClients = 100'000;  // flashcrowd clients per policy
constexpr size_t kCrowdReplicas = 4;
constexpr uint64_t kEventsPerOp = 4096;  // flashcrowd: events per timed slice

// setup_s is the median of `setup_repeats` set-ups: as many as fit in a few
// seconds, so a cheap set-up is not at the mercy of one slow moment.
struct WorkloadSpec {
  const char* name;
  double cycles_per_second;
  int setup_repeats;
};
constexpr WorkloadSpec kWorkloads[] = {
    {"client_apps", 2.4, 3},
    {"fleet_churn", 2.5, 5},
    {"flashcrowd", 6.5, 25},
};

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (name == w.name) {
      return &w;
    }
  }
  return nullptr;
}

int SetupRepeats(const std::string& workload) { return FindWorkload(workload)->setup_repeats; }

struct Options {
  std::string workload;
  uint64_t seed = kDefaultSeed;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
  bool print_manifest = false;
};

// 0 for an unknown workload.
int CyclesFor(const Options& opt) {
  const WorkloadSpec* w = FindWorkload(opt.workload);
  if (w == nullptr) {
    return 0;
  }
  return static_cast<int>(std::max(1L, std::lround(opt.seconds * w->cycles_per_second)));
}

// The single span tracer wrappers report to. Null outside traced cycles, so
// setup and warm-up never record.
SpanTracer* g_tracer = nullptr;

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::exit(1);
}

uint64_t Fold(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; i++) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 0x100000001b3ULL;
  }
  return h;
}
constexpr uint64_t kFoldBasis = 0xcbf29ce484222325ULL;

uint64_t HashBytes(const Bytes& b) { return Fnv1a(b.data(), b.size()); }

// The permissive organization policy of the end-to-end experiments (Fig. 6):
// every class is parsed and every instruction examined, every access allowed.
SecurityPolicy PermissivePolicy() {
  auto policy = ParseSecurityPolicy(R"(
    <policy version="1">
      <domain sid="user" code="app/*"/>
      <domain sid="user" code="ui/*"/>
      <domain sid="user" code="applet/*"/>
      <allow sid="user" operation="*" target="*"/>
      <hook class="java/io/File" method="open" operation="file.open" target-arg="0"/>
      <hook class="java/lang/System" method="getProperty" operation="property.get"/>
    </policy>)");
  if (!policy.ok()) {
    Die("policy parse failed");
  }
  return std::move(policy).value();
}

// ---------------------------------------------------------------------------
// Layer wrappers (installed only in the traced run's setup).

class TimedFilter : public CodeFilter {
 public:
  TimedFilter(std::unique_ptr<CodeFilter> inner, const char* span)
      : inner_(std::move(inner)), span_(span) {}
  std::string name() const override { return inner_->name(); }
  Result<FilterOutcome> Apply(ClassFile& cls, const FilterContext& ctx) override {
    Scoped s(g_tracer, span_);
    return inner_->Apply(cls, ctx);
  }

 private:
  std::unique_ptr<CodeFilter> inner_;
  const char* span_;
};

class TimedProvider : public ClassProvider {
 public:
  explicit TimedProvider(ClassProvider* inner) : inner_(inner) {}
  Result<Bytes> FetchClass(const std::string& class_name) override {
    Scoped s(g_tracer, "proxy.origin_fetch");
    return inner_->FetchClass(class_name);
  }

 private:
  ClassProvider* inner_;
};

// The production static-service stack (Figure 2 order, as DvmServer builds
// it), optionally wrapped for timing.
void AddServiceFilters(DvmProxy& proxy, const SecurityPolicy* policy, bool timed) {
  auto add = [&](std::unique_ptr<CodeFilter> f, const char* span) {
    if (timed) {
      proxy.AddFilter(std::make_unique<TimedFilter>(std::move(f), span));
    } else {
      proxy.AddFilter(std::move(f));
    }
  };
  add(std::make_unique<ReflectionFilter>(), "services.reflect_filter");
  add(std::make_unique<VerificationFilter>(), "services.verify_filter");
  add(std::make_unique<SecurityFilter>(policy), "services.security_filter");
  add(std::make_unique<AuditFilter>(), "services.audit_filter");
}

// ---------------------------------------------------------------------------
// Op log and end-to-end metrics.

// Every op carries a key naming the work it did (a class, an app, or its
// position in a cycle whose op sequence never changes); each key recurs once
// per cycle with identical work.
struct OpLog {
  std::vector<double> us;
  std::vector<uint32_t> keys;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t cycle_start = 0;

  void NewCycle() { cycle_start = attempted; }
  uint32_t Position() const { return static_cast<uint32_t>(attempted - cycle_start); }
  void Record(double op_us, bool ok, uint32_t key) {
    us.push_back(op_us);
    keys.push_back(key);
    attempted++;
    failed += ok ? 0 : 1;
  }
  // Marks the last `n` ops failed (a cycle-level output check failed).
  void FailLast(uint64_t n, uint64_t already_failed) { failed += n - already_failed; }
  double MeanUs() const {
    double sum = 0;
    for (double v : us) sum += v;
    return us.empty() ? 0.0 : sum / static_cast<double>(us.size());
  }
};

// Times one op; with a tracer active the op is also the root span.
class OpClock {
 public:
  void Start(const char* root, uint64_t op) {
    if (g_tracer != nullptr) {
      g_tracer->SetOp(op);
      g_tracer->Open(root);
    }
    start_ = NowNs();
  }
  double StopUs() {
    uint64_t end = NowNs();
    if (g_tracer != nullptr) {
      g_tracer->Close();
    }
    return static_cast<double>(end - start_) / 1e3;
  }

 private:
  uint64_t start_ = 0;
};

// Since a key's work is identical in every cycle, the spread of its times
// across cycles is the host's (neighbours on a shared machine slow this code
// by up to 1.5x for seconds at a time, see README.md). The op metrics use
// each key's fastest cycle: latency quantiles over keys, and throughput =
// keys / summed fastest times, i.e. one cycle at the best speed each op
// reached in this run.
std::vector<Metric> EndToEndMetrics(const OpLog& log, double setup_s) {
  std::map<uint32_t, double> best;
  for (size_t i = 0; i < log.us.size(); i++) {
    auto [it, inserted] = best.emplace(log.keys[i], log.us[i]);
    if (!inserted) {
      it->second = std::min(it->second, log.us[i]);
    }
  }
  std::vector<double> fastest;
  double cycle_s = 0;
  for (const auto& [key, us] : best) {
    fastest.push_back(us);
    cycle_s += us / 1e6;
  }
  std::fprintf(stderr, "perfbench: %zu op keys, %" PRIu64 " ops\n", fastest.size(), log.attempted);
  return {
      {"setup_s", setup_s, "s"},
      {"peak_rss_mb", perfbench::PeakRssMb(), "MB"},
      {"ops_per_s", cycle_s > 0 ? static_cast<double>(fastest.size()) / cycle_s : 0.0, "1/s"},
      {"op_p50_us", perfbench::Quantile(fastest, 0.50), "us"},
      {"op_p90_us", perfbench::Quantile(fastest, 0.90), "us"},
  };
}

// Cycle-level digest check: equal across the cycles of a run and, when a
// stored value is given, equal to it.
class CycleCheck {
 public:
  explicit CycleCheck(std::optional<uint64_t> manifest) : manifest_(manifest) {}
  bool Accept(uint64_t digest) {
    if (!first_.has_value()) {
      first_ = digest;
    }
    bool ok = digest == *first_ && (!manifest_.has_value() || digest == *manifest_);
    if (!ok) {
      std::fprintf(stderr, "perfbench: cycle digest %016" PRIx64 " (first %016" PRIx64 ")\n",
                   digest, *first_);
    }
    return ok;
  }
  uint64_t first() const { return first_.value_or(0); }

 private:
  std::optional<uint64_t> manifest_;
  std::optional<uint64_t> first_;
};

// Per-class artifact references (rewritten bytes + certificate hash). In
// manifest mode `observed` collects the table instead of checking it.
struct ArtifactCheck {
  std::map<std::string, uint64_t> expected;
  std::map<std::string, uint64_t>* observed = nullptr;
  bool Accept(const std::string& name, uint64_t hash) {
    if (observed != nullptr) {
      (*observed)[name] = hash;
      return true;
    }
    auto it = expected.find(name);
    if (it != expected.end() && it->second == hash) {
      return true;
    }
    std::fprintf(stderr, "perfbench: artifact for %s does not match the manifest\n",
                 name.c_str());
    return false;
  }
};

template <size_t N>
ArtifactCheck ArtifactsFrom(const ArtifactReference (&refs)[N]) {
  ArtifactCheck check;
  for (const ArtifactReference& ref : refs) {
    check.expected[ref.name] = ref.hash;
  }
  return check;
}

// Runs `setup` `repeats` times (destroying the previous state first) and
// returns the last state with the median setup time.
template <typename State, typename Setup>
std::unique_ptr<State> RepeatedSetup(Setup setup, int repeats, double* median_s) {
  std::vector<double> times;
  std::unique_ptr<State> state;
  for (int i = 0; i < repeats; i++) {
    state.reset();
    uint64_t t0 = NowNs();
    state = setup();
    times.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }
  *median_s = perfbench::Median(times);
  return state;
}

// Result of one workload run.
struct RunResult {
  OpLog log;
  double setup_s = 0;
  std::vector<Metric> layers;  // traced run only
};

// Common tail of a traced run: coverage and overhead against the untraced
// `base` ops, both halves' ops counted, spans written out.
void FinishTraced(const Options& opt, const OpLog& base, const SpanTracer& tracer,
                  RunResult* r) {
  r->layers.push_back({"trace.coverage", tracer.Coverage(), "ratio"});
  r->layers.push_back({"trace.overhead", r->log.MeanUs() / base.MeanUs() - 1.0, "ratio"});
  r->log.attempted += base.attempted;
  r->log.failed += base.failed;
  if (!opt.trace_out.empty() && !tracer.WriteTsv(opt.trace_out)) {
    Die("cannot write " + opt.trace_out);
  }
}

// ---------------------------------------------------------------------------
// Applet population for fleet_churn, plus a stage-replay kit that times the
// proxy's inner stages on the same classes.

struct Population {
  std::vector<AppBundle> applets;
  MapClassProvider origin;           // applet classes only
  std::vector<std::string> classes;  // canonical (generation) order
};

std::unique_ptr<Population> BuildPopulation() {
  auto pop = std::make_unique<Population>();
  pop->applets = BuildAppletPopulation(kApplets, kPopulationSeed);
  for (const AppBundle& applet : pop->applets) {
    applet.InstallInto(&pop->origin);
    for (const std::string& name : applet.ClassNames()) {
      pop->classes.push_back(name);
    }
  }
  return pop;
}

uint64_t ArtifactHash(const Bytes& data, const Bytes& certificate) {
  return Fold(Fold(kFoldBasis, HashBytes(data)), HashBytes(certificate));
}

// Replays the rewrite path's stages outside the op, on the same inputs, so
// the stages the proxy runs internally (parse, pipeline, emit, verification,
// certificate emission and validation) get their own timings and counts.
class StageReplay {
 public:
  explicit StageReplay(const Population& pop, const SecurityPolicy* policy)
      : library_(BuildSystemLibrary()), pipeline_(&env_) {
    for (const ClassFile& cls : library_) {
      library_env_.Add(&cls);
      env_.Add(&cls);
    }
    for (const AppBundle& applet : pop.applets) {
      for (const ClassFile& cls : applet.classes) {
        env_.Add(&cls);
      }
    }
    pipeline_.Add(std::make_unique<ReflectionFilter>());
    pipeline_.Add(std::make_unique<VerificationFilter>());
    pipeline_.Add(std::make_unique<SecurityFilter>(policy));
    pipeline_.Add(std::make_unique<AuditFilter>());
  }

  // One rewritten class: origin bytes in, proxy artifact out.
  bool Rewrite(const Bytes& origin, const Bytes& artifact) {
    bytes_in += origin.size();
    bytes_out += artifact.size();
    Result<ClassFile> parsed = Error{ErrorCode::kParseError, "unset"};
    {
      Scoped s(&tracer, "bytecode.parse");
      parsed = ReadClassFile(origin);
    }
    if (!parsed.ok()) {
      return false;
    }
    {
      Scoped s(&tracer, "rewrite.pipeline");
      Result<PipelineResult> run = pipeline_.Run(parsed.value());
      if (!run.ok()) {
        return false;
      }
      checks_performed += run->checks_performed;
    }
    Result<ClassFile> main = ReadClassFile(artifact);
    if (!main.ok()) {
      return false;
    }
    {
      Scoped s(&tracer, "bytecode.emit");
      if (!WriteClassFile(main.value()).ok()) {
        return false;
      }
    }
    MapClassEnv artifact_env;
    artifact_env.Add(&main.value());
    ChainedClassEnv cert_env(&artifact_env, &library_env_);
    {
      Scoped s(&tracer, "verifier.verify");
      Result<VerifiedClass> verified = VerifyClass(main.value(), cert_env);
      if (verified.ok()) {
        phase3_checks += verified->stats.phase3_checks;
      }
    }
    {
      Scoped s(&tracer, "verifier.cert_emit");
      ClassCertificate cert;
      if (VerifyClass(main.value(), cert_env, &cert).ok()) {
        SerializeCertificate(cert);
      }
    }
    return true;
  }

  // One pushed artifact: the peers' one-pass certificate check.
  bool Validate(const CommitRecord& record) {
    if (record.certificate.empty()) {
      return true;  // certificate-less artifacts install without a proof check
    }
    Result<ClassFile> main = ReadClassFile(record.main_class);
    Result<ClassCertificate> cert = ParseCertificate(record.certificate);
    if (!main.ok() || !cert.ok()) {
      return false;
    }
    MapClassEnv artifact_env;
    artifact_env.Add(&main.value());
    ChainedClassEnv cert_env(&artifact_env, &library_env_);
    Scoped s(&tracer, "verifier.cert_validate");
    ValidateStats stats;
    return ValidateCertificate(main.value(), cert_env, cert.value(), &stats).ok();
  }

  void AddLayers(std::vector<Metric>* out, double cycles) const {
    out->push_back({"bytecode.parse_us", tracer.MeanUs("bytecode.parse"), "us"});
    out->push_back({"bytecode.emit_us", tracer.MeanUs("bytecode.emit"), "us"});
    out->push_back({"bytecode.bytes_in", static_cast<double>(bytes_in) / cycles, "bytes"});
    out->push_back({"bytecode.bytes_out", static_cast<double>(bytes_out) / cycles, "bytes"});
    out->push_back({"rewrite.pipeline_us", tracer.MeanUs("rewrite.pipeline"), "us"});
    out->push_back({"rewrite.checks_performed", static_cast<double>(checks_performed) / cycles,
                    "count"});
    out->push_back({"verifier.verify_us", tracer.MeanUs("verifier.verify"), "us"});
    out->push_back({"verifier.phase3_checks", static_cast<double>(phase3_checks) / cycles,
                    "count"});
    out->push_back({"verifier.cert_emit_us", tracer.MeanUs("verifier.cert_emit"), "us"});
    out->push_back(
        {"verifier.cert_validate_us", tracer.MeanUs("verifier.cert_validate"), "us"});
  }

  SpanTracer tracer;
  uint64_t bytes_in = 0;
  uint64_t bytes_out = 0;
  uint64_t checks_performed = 0;
  uint64_t phase3_checks = 0;

 private:
  std::vector<ClassFile> library_;
  MapClassEnv library_env_;
  MapClassEnv env_;
  FilterPipeline pipeline_;
};

// ---------------------------------------------------------------------------
// client_apps: the five Fig. 5 apps (work_scale 1) against a warmed server,
// round-robin in a seeded order. op = one fresh DvmClient running one app to
// completion; guest output and virtual clock are checked against references
// produced by the reference (non-quickening) engine (manifest.h).

// Dynamic service stubs wrapped in the traced run (syslib.h keys).
struct NativeKey {
  const char* cls;
  const char* method;
  const char* desc;
};
const NativeKey kServiceNatives[] = {
    {kRtVerifierClass, "CheckClass", "(Ljava/lang/String;)V"},
    {kRtVerifierClass, "CheckField", "(Ljava/lang/String;Ljava/lang/String;Ljava/lang/String;)V"},
    {kRtVerifierClass, "CheckMethod",
     "(Ljava/lang/String;Ljava/lang/String;Ljava/lang/String;)V"},
    {kRtVerifierClass, "CheckAssignable", "(Ljava/lang/String;Ljava/lang/String;)V"},
    {kRtEnforcerClass, "checkPermission", "(Ljava/lang/String;Ljava/lang/String;)V"},
    {kRtAuditorClass, "enter", "(Ljava/lang/String;)V"},
    {kRtAuditorClass, "exit", "(Ljava/lang/String;)V"},
};

struct ClientAppsState {
  std::vector<AppBundle> apps;
  MapClassProvider origin;
  std::unique_ptr<DvmServer> server;
  std::vector<std::vector<std::string>> load_order;  // per app, from warm-up
};

struct AppRun {
  bool ok = false;
  uint64_t output_digest = 0;
  uint64_t virtual_nanos = 0;
  RuntimeCounters counters;
};

// Guest output plus the architectural counters both engines must agree on
// (the quickened/reference differential's observables besides the clock).
uint64_t OutputDigest(Machine& machine) {
  uint64_t h = kFoldBasis;
  for (const std::string& line : machine.printed()) {
    h = Fold(h, Fnv1a(line));
  }
  const RuntimeCounters& k = machine.counters();
  for (uint64_t v : {k.instructions, k.method_invocations, k.native_calls, k.allocations,
                     k.allocated_bytes, k.gc_runs, k.classes_loaded, k.exceptions_thrown}) {
    h = Fold(h, v);
  }
  return h;
}

std::unique_ptr<ClientAppsState> SetupClientApps() {
  auto s = std::make_unique<ClientAppsState>();
  s->apps = BuildFig5Apps(1);
  for (const AppBundle& app : s->apps) {
    app.InstallInto(&s->origin);
  }
  DvmServerConfig config;
  config.policy = PermissivePolicy();
  s->server = std::make_unique<DvmServer>(config, &s->origin);
  // Warm-up: one run per app fills the rewrite cache (every timed fetch is a
  // hit) and records the order the app loads its classes in.
  for (const AppBundle& app : s->apps) {
    DvmClient client(s->server.get(), DvmMachineConfig(), MakeEthernet10Mb());
    std::vector<std::string> loaded;
    client.machine().on_class_loaded = [&loaded](RuntimeClass& cls) { loaded.push_back(cls.name); };
    auto out = client.RunApp(app.main_class);
    if (!out.ok() || out->threw) {
      Die("client_apps warm-up run failed for " + app.name);
    }
    s->load_order.push_back(std::move(loaded));
  }
  return s;
}

// Runs app `index` on a fresh client. Traced: client construction, class
// loading and execution are child spans, service natives aggregate-only
// grandchildren.
AppRun RunOneApp(ClientAppsState& s, size_t index, bool quicken) {
  AppRun run;
  MachineConfig config = DvmMachineConfig();
  config.quicken = quicken;
  std::optional<DvmClient> client;
  {
    Scoped init(g_tracer, "dvm.client_init");
    client.emplace(s.server.get(), config, MakeEthernet10Mb());
    if (g_tracer != nullptr) {
      NativeRegistry& natives = client->machine().natives();
      for (const NativeKey& key : kServiceNatives) {
        const NativeFn* inner = natives.Find(key.cls, key.method, key.desc);
        if (inner == nullptr) {
          Die(std::string("native not registered: ") + key.cls + "." + key.method);
        }
        natives.Register(key.cls, key.method, key.desc,
                         [fn = *inner](Machine& m, std::vector<Value>& args) -> Result<Value> {
                           Scoped s(g_tracer, "services.native", /*store=*/false);
                           return fn(m, args);
                         });
      }
    }
  }
  if (g_tracer != nullptr) {
    Scoped load(g_tracer, "runtime.load");
    for (const std::string& name : s.load_order[index]) {
      if (!client->machine().EnsureLoaded(name).ok()) {
        return run;
      }
    }
  }
  Result<CallOutcome> out = Error{ErrorCode::kInternal, "unset"};
  {
    Scoped exec(g_tracer, "runtime.run");
    out = client->RunApp(s.apps[index].main_class);
  }
  run.ok = out.ok() && !out->threw;
  run.output_digest = OutputDigest(client->machine());
  run.virtual_nanos = client->machine().virtual_nanos();
  run.counters = client->machine().counters();
  return run;
}

bool MatchesReference(const AppBundle& app, const AppRun& run) {
  for (const AppReference& ref : kAppReferences) {
    if (app.name == ref.name) {
      return run.ok && run.output_digest == ref.output_digest &&
             run.virtual_nanos == ref.virtual_nanos;
    }
  }
  return false;
}

void ClientAppsCycles(ClientAppsState& s, uint64_t seed, int cycles, OpLog& log,
                      RuntimeCounters* totals) {
  std::vector<size_t> order(s.apps.size());
  for (size_t i = 0; i < order.size(); i++) order[i] = i;
  Rng rng(seed ^ 0xa99500d5ULL);
  for (size_t i = order.size(); i > 1; i--) {
    std::swap(order[i - 1], order[rng.Next() % i]);
  }
  for (int c = 0; c < cycles; c++) {
    for (size_t index : order) {
      OpClock clock;
      clock.Start("dvm.client_app", log.attempted);
      AppRun run = RunOneApp(s, index, /*quicken=*/true);
      double us = clock.StopUs();
      bool ok = MatchesReference(s.apps[index], run);
      if (!ok) {
        std::fprintf(stderr, "perfbench: %s output %016" PRIx64 " clock %" PRIu64
                             " does not match the reference\n",
                     s.apps[index].name.c_str(), run.output_digest, run.virtual_nanos);
      }
      log.Record(us, ok, static_cast<uint32_t>(index));
      if (totals != nullptr) {
        const RuntimeCounters& k = run.counters;
        totals->instructions += k.instructions;
        totals->method_invocations += k.method_invocations;
        totals->native_calls += k.native_calls;
        totals->allocations += k.allocations;
        totals->gc_runs += k.gc_runs;
        totals->tier_compiles += k.tier_compiles;
        totals->osr_entries += k.osr_entries;
        totals->tier_deopts += k.tier_deopts;
        totals->dynamic_verify_checks += k.dynamic_verify_checks;
        totals->security_checks += k.security_checks;
        totals->audit_events += k.audit_events;
      }
    }
  }
}

RunResult RunClientApps(const Options& opt, int cycles) {
  RunResult r;
  if (!opt.trace) {
    auto s = RepeatedSetup<ClientAppsState>(SetupClientApps, SetupRepeats(opt.workload),
                                            &r.setup_s);
    ClientAppsCycles(*s, opt.seed, cycles, r.log, nullptr);
    return r;
  }
  int half = std::max(1, cycles / 2);
  auto s = SetupClientApps();
  OpLog base;
  ClientAppsCycles(*s, opt.seed, half, base, nullptr);
  SpanTracer tracer;
  RuntimeCounters k;
  g_tracer = &tracer;
  ClientAppsCycles(*s, opt.seed, half, r.log, &k);
  g_tracer = nullptr;
  double n = half;
  const SpanTracer::Aggregate& run = tracer.Get("runtime.run");
  const SpanTracer::Aggregate& native = tracer.Get("services.native");
  auto count = [&](const char* name, uint64_t v) {
    r.layers.push_back({name, static_cast<double>(v) / n, "count"});
  };
  r.layers.push_back({"runtime.load_us", tracer.MeanUs("runtime.load"), "us"});
  r.layers.push_back({"runtime.run_us", tracer.MeanUs("runtime.run"), "us"});
  r.layers.push_back(
      {"runtime.ns_per_instr",
       k.instructions == 0 ? 0.0
                           : static_cast<double>(run.total_ns - native.total_ns) /
                                 static_cast<double>(k.instructions),
       "ns"});
  r.layers.push_back({"services.native_us",
                      static_cast<double>(native.total_ns) / 1e3 /
                          static_cast<double>(r.log.attempted),
                      "us"});
  r.layers.push_back({"dvm.client_init_us", tracer.MeanUs("dvm.client_init"), "us"});
  count("runtime.instructions", k.instructions);
  count("runtime.method_invocations", k.method_invocations);
  count("runtime.native_calls", k.native_calls);
  count("runtime.allocations", k.allocations);
  count("runtime.gc_runs", k.gc_runs);
  count("runtime.tier_compiles", k.tier_compiles);
  count("runtime.osr_entries", k.osr_entries);
  count("runtime.tier_deopts", k.tier_deopts);
  count("runtime.dynamic_verify_checks", k.dynamic_verify_checks);
  count("runtime.security_checks", k.security_checks);
  count("runtime.audit_events", k.audit_events);
  FinishTraced(opt, base, tracer, &r);
  return r;
}

// ---------------------------------------------------------------------------
// fleet_churn: a 3-replica ProxyCluster with 2PC replication, fed a seeded
// Zipf request stream over the applet population (artifacts checked against
// the manifest). Each request goes to the replica RankReplicas ranks first; a
// miss is followed by ReplicateArtifact (peers validate the certificate in
// one pass). Each cycle opens with a CommitPolicyEpoch that invalidates the
// whole fleet, then replays the same stream, so every cycle has the same
// hit/miss pattern.

struct FleetState {
  std::unique_ptr<Population> pop;
  SecurityPolicy policy = PermissivePolicy();
  std::vector<ClassFile> library;
  MapClassEnv library_env;
  MapClassProvider library_origin;
  std::unique_ptr<ChainedClassProvider> origin;
  std::unique_ptr<TimedProvider> timed_origin;
  std::unique_ptr<ProxyCluster> cluster;
  std::vector<uint32_t> stream;  // class indices, kChurnOpsPerCycle - 1 requests
  SimTime now = 0;
  ArtifactCheck* artifacts = nullptr;  // null during warm-up
};

// The request multiset is Zipf-shaped over the population in its canonical
// order (class k is requested about length/(k+1)^s/H times, largest-remainder
// rounded) and the seed shuffles it. Fixing the multiset keeps every seed's
// cycle at the same work (the same classes miss, the same hits); sized so
// every class is requested at least once. First requests (the misses after
// the epoch commit) then move ahead of the repeats, keeping each group's
// shuffled order: interleaved, the seed decided how many hits ran right
// after a miss on a cold CPU cache, which moved op_p50_us by 1.5x between
// seeds.
std::vector<uint32_t> ZipfStream(uint64_t seed, size_t classes, size_t length) {
  std::vector<double> expected(classes);
  double total = 0;
  for (size_t k = 0; k < classes; k++) {
    expected[k] = 1.0 / std::pow(static_cast<double>(k + 1), kZipfExponent);
    total += expected[k];
  }
  std::vector<size_t> count(classes);
  size_t assigned = 0;
  for (size_t k = 0; k < classes; k++) {
    expected[k] *= static_cast<double>(length) / total;
    count[k] = static_cast<size_t>(expected[k]);
    assigned += count[k];
  }
  std::vector<size_t> by_remainder(classes);
  for (size_t k = 0; k < classes; k++) by_remainder[k] = k;
  std::stable_sort(by_remainder.begin(), by_remainder.end(), [&](size_t a, size_t b) {
    return expected[a] - count[a] > expected[b] - count[b];
  });
  for (size_t i = 0; assigned < length; i++, assigned++) {
    count[by_remainder[i]]++;
  }
  std::vector<uint32_t> stream;
  for (size_t k = 0; k < classes; k++) {
    if (count[k] == 0) {
      Die("fleet_churn stream leaves a class unrequested");
    }
    stream.insert(stream.end(), count[k], static_cast<uint32_t>(k));
  }
  Rng rng(seed ^ 0x2f1e7c0ddULL);
  for (size_t i = stream.size(); i > 1; i--) {
    std::swap(stream[i - 1], stream[rng.Next() % i]);
  }
  std::vector<bool> seen(classes, false);
  std::vector<uint32_t> firsts, repeats;
  for (uint32_t k : stream) {
    (seen[k] ? repeats : firsts).push_back(k);
    seen[k] = true;
  }
  firsts.insert(firsts.end(), repeats.begin(), repeats.end());
  return firsts;
}

// HandleRequest span totals split by outcome (traced run only).
struct HandleSplit {
  uint64_t hit_ns = 0;
  uint64_t hits = 0;
  uint64_t miss_self_ns = 0;  // miss span minus origin fetch and filter spans
  uint64_t misses = 0;
};

struct FleetOp {
  bool ok = false;
  bool hit = false;
  uint64_t hash = 0;
};

// One request op (or, when class_index < 0, one epoch commit).
FleetOp FleetStep(FleetState& s, int64_t class_index, OpLog& log, StageReplay* replay,
                  HandleSplit* split) {
  ReplicationCoordinator& repl = *s.cluster->replication();
  FleetOp op;
  OpClock clock;
  if (class_index < 0) {
    clock.Start("dvm.epoch_op", log.attempted);
    RoundResult round;
    {
      Scoped span(g_tracer, "dvm.epoch_commit");
      round = repl.CommitPolicyEpoch(s.now);
    }
    double us = clock.StopUs();
    s.now = std::max(s.now, round.completed_at) + kOpGap;
    op.ok = round.committed;
    log.Record(us, op.ok, log.Position());
    return op;
  }
  const std::string& name = s.pop->classes[static_cast<size_t>(class_index)];
  clock.Start("dvm.fleet_request", log.attempted);
  size_t target = s.cluster->RankReplicas(name).front();
  DvmProxy& proxy = s.cluster->replica(target);
  std::optional<Result<ProxyResponse>> response;
  uint64_t handle_ns = 0, handle_self_ns = 0;
  {
    if (g_tracer != nullptr) g_tracer->Open("proxy.handle_request");
    response.emplace(proxy.HandleRequest(name));
    if (g_tracer != nullptr) handle_ns = g_tracer->Close(&handle_self_ns);
  }
  RoundResult round;
  bool miss = response->ok() && !response->value().cache_hit;
  if (miss) {
    Scoped span(g_tracer, "dvm.replicate");
    round = repl.ReplicateArtifact(target, name, "", s.now);
  }
  double us = clock.StopUs();
  s.now = std::max(s.now, round.completed_at) + kOpGap;

  op.ok = response->ok();
  if (op.ok) {
    const ProxyResponse& resp = response->value();
    op.hit = resp.cache_hit;
    if (g_tracer != nullptr && op.hit) {
      split->hit_ns += handle_ns;
      split->hits++;
    } else if (g_tracer != nullptr) {
      split->miss_self_ns += handle_self_ns;
      split->misses++;
    }
    const std::string key = DvmProxy::RewriteCacheKey(name, "");
    std::optional<CachedClass> cached = proxy.cache().Peek(key);
    op.ok = cached.has_value() && cached->main_class == resp.data;
    if (op.ok) {
      op.hash = ArtifactHash(cached->main_class, cached->certificate);
      op.ok = s.artifacts == nullptr || s.artifacts->Accept(name, op.hash);
    }
    if (op.ok && miss) {
      // Replication must commit and leave byte-identical artifacts (and
      // certificates) on every peer.
      op.ok = round.committed;
      for (size_t i = 0; op.ok && i < s.cluster->size(); i++) {
        std::optional<CachedClass> peer = s.cluster->replica(i).cache().Peek(key);
        op.ok = peer.has_value() && peer->main_class == cached->main_class &&
                peer->certificate == cached->certificate;
      }
      if (op.ok && replay != nullptr) {
        const CommitRecord& record = repl.cluster_log().records().back();
        Result<Bytes> origin = s.pop->origin.FetchClass(name);
        op.ok = record.class_name == name && origin.ok() &&
                replay->Rewrite(origin.value(), resp.data) && replay->Validate(record);
      }
    }
  }
  log.Record(us, op.ok, log.Position());
  return op;
}

std::unique_ptr<FleetState> SetupFleet(uint64_t seed, bool timed) {
  auto s = std::make_unique<FleetState>();
  s->pop = BuildPopulation();
  s->library = BuildSystemLibrary();
  for (const ClassFile& cls : s->library) {
    s->library_env.Add(&cls);
    s->library_origin.AddClassFile(cls);
  }
  s->origin = std::make_unique<ChainedClassProvider>(&s->library_origin, &s->pop->origin);
  ClassProvider* origin = s->origin.get();
  if (timed) {
    s->timed_origin = std::make_unique<TimedProvider>(origin);
    origin = s->timed_origin.get();
  }
  s->cluster = std::make_unique<ProxyCluster>(kReplicas, ProxyConfig{}, &s->library_env, origin);
  for (size_t i = 0; i < kReplicas; i++) {
    AddServiceFilters(s->cluster->replica(i), &s->policy, timed);
  }
  s->cluster->EnableReplication();
  s->stream = ZipfStream(seed, s->pop->classes.size(), kChurnOpsPerCycle - 1);
  // Warm-up: every class once on the replica that owns it, so each replica
  // has parsed its whole shard and the verifier sees the same environment in
  // every timed cycle whatever the stream; then a fleet-wide invalidation.
  for (const std::string& name : s->pop->classes) {
    if (!s->cluster->replica(s->cluster->RankReplicas(name).front()).HandleRequest(name).ok()) {
      Die("fleet_churn warm-up request failed for " + name);
    }
  }
  RoundResult round = s->cluster->replication()->CommitPolicyEpoch(s->now);
  if (!round.committed) {
    Die("fleet_churn warm-up epoch did not commit");
  }
  s->now = round.completed_at + kOpGap;
  return s;
}

void FleetCycles(FleetState& s, int cycles, CycleCheck& check, OpLog& log, StageReplay* replay,
                 HandleSplit* split) {
  for (int c = 0; c < cycles; c++) {
    uint64_t failed0 = log.failed;
    log.NewCycle();
    FleetOp epoch = FleetStep(s, -1, log, replay, split);
    uint64_t digest = Fold(kFoldBasis, epoch.ok ? 1 : 0);
    for (uint32_t index : s.stream) {
      FleetOp op = FleetStep(s, index, log, replay, split);
      digest = Fold(Fold(Fold(digest, index), op.hit ? 1 : 0), op.hash);
    }
    if (!check.Accept(digest)) {
      log.FailLast(kChurnOpsPerCycle, log.failed - failed0);
    }
  }
}

RunResult RunFleetChurn(const Options& opt, int cycles) {
  RunResult r;
  CycleCheck check(std::nullopt);
  ArtifactCheck artifacts = ArtifactsFrom(kFleetArtifacts);
  HandleSplit split;
  if (!opt.trace) {
    auto s = RepeatedSetup<FleetState>([&] { return SetupFleet(opt.seed, false); },
                                       SetupRepeats(opt.workload), &r.setup_s);
    s->artifacts = &artifacts;
    FleetCycles(*s, cycles, check, r.log, nullptr, &split);
    return r;
  }
  int half = std::max(1, cycles / 4);
  OpLog base;
  {
    auto s = SetupFleet(opt.seed, false);
    s->artifacts = &artifacts;
    FleetCycles(*s, half, check, base, nullptr, &split);
  }
  auto s = SetupFleet(opt.seed, true);
  s->artifacts = &artifacts;
  StageReplay replay(*s->pop, &s->policy);
  ProxyCluster* cluster = s->cluster.get();
  const StatsRegistry& repl = cluster->replication()->stats();
  auto stat = [&](const std::string& name) {
    if (name.rfind("repl.", 0) == 0) {
      return repl.Value(name);
    }
    uint64_t total = 0;
    for (size_t i = 0; i < cluster->size(); i++) {
      total += cluster->replica(i).stats().Value(name);
    }
    return total;
  };
  const char* kPerCycleCounts[] = {"proxy.cert_emit_checks", "proxy.cert_validations",
                                   "proxy.cert_validate_checks", "proxy.cert_rejects",
                                   "repl.commits", "repl.aborts"};
  std::map<std::string, uint64_t> before;
  for (const char* name : kPerCycleCounts) before[name] = stat(name);
  for (const char* name : {"proxy.cert_emits", "proxy.rewrites"}) before[name] = stat(name);
  SpanTracer tracer;
  g_tracer = &tracer;
  FleetCycles(*s, half, check, r.log, &replay, &split);
  g_tracer = nullptr;
  auto delta = [&](const char* name) { return static_cast<double>(stat(name) - before[name]); };
  auto per_call_us = [](uint64_t ns, uint64_t calls) {
    return calls == 0 ? 0.0 : static_cast<double>(ns) / 1e3 / static_cast<double>(calls);
  };
  double n = half;
  double requests = n * (kChurnOpsPerCycle - 1);
  for (const char* name : {"proxy.origin_fetch", "services.reflect_filter",
                           "services.verify_filter", "services.security_filter",
                           "services.audit_filter", "dvm.replicate", "dvm.epoch_commit"}) {
    r.layers.push_back({std::string(name) + "_us", tracer.MeanUs(name), "us"});
  }
  replay.AddLayers(&r.layers, n);
  r.layers.push_back({"proxy.hit_us", per_call_us(split.hit_ns, split.hits), "us"});
  r.layers.push_back({"proxy.miss_self_us", per_call_us(split.miss_self_ns, split.misses), "us"});
  r.layers.push_back({"proxy.hit_ratio", static_cast<double>(split.hits) / requests, "ratio"});
  double rewrites = delta("proxy.rewrites");
  r.layers.push_back(
      {"proxy.cert_yield", rewrites == 0 ? 0.0 : delta("proxy.cert_emits") / rewrites, "ratio"});
  for (const char* name : kPerCycleCounts) {
    r.layers.push_back({name, delta(name) / n, "count"});
  }
  FinishTraced(opt, base, tracer, &r);
  return r;
}

// ---------------------------------------------------------------------------
// flashcrowd: the bench_flashcrowd scenario at 10^5 clients. One calibration
// exchange through a real DvmProxy sets the cost model; then heavy-tailed
// open-loop arrivals run in virtual time under the no-shed, shed and
// shed-tight policies. Host time is a closed batch loop over the event core:
// op = one slice of kEventsPerOp events (the last slice of a policy may be
// shorter). Sheds are deterministic scenario outcomes, not failed ops.

struct Calibration {
  uint64_t hit_cpu_nanos = 0;
  uint64_t response_bytes = 0;
  double miss_us = 0;
};

struct CrowdState {
  Calibration cal;
  std::vector<ServiceClass> traffic;
  std::vector<SimTime> arrival;
};

// The viral applet is fixed (like the applet population); the run seed drives
// arrivals and the traffic mix.
Calibration Calibrate() {
  auto applets = BuildAppletPopulation(1, kPopulationSeed);
  MapClassProvider origin;
  InstallSystemLibrary(origin);
  applets[0].InstallInto(&origin);
  std::vector<ClassFile> library = BuildSystemLibrary();
  MapClassEnv env;
  for (const auto& cls : library) {
    env.Add(&cls);
  }
  DvmProxy proxy({}, &env, &origin);
  proxy.AddFilter(std::make_unique<VerificationFilter>());
  std::string viral = applets[0].ClassNames().front();
  uint64_t t0 = NowNs();
  auto miss = proxy.HandleRequest(viral);
  uint64_t t1 = NowNs();
  auto hit = proxy.HandleRequest(viral);
  if (!miss.ok() || !hit.ok() || !hit->cache_hit) {
    Die("flashcrowd calibration request failed");
  }
  return Calibration{hit->cpu_nanos, hit->data.size(), static_cast<double>(t1 - t0) / 1e3};
}

std::unique_ptr<CrowdState> SetupCrowd(uint64_t seed) {
  auto s = std::make_unique<CrowdState>();
  s->cal = Calibrate();
  ArrivalConfig arrival_config;
  arrival_config.seed = seed;
  arrival_config.base_per_second = 2000.0;
  arrival_config.surge_at = 2 * kSecond;
  arrival_config.surge_duration = 10 * kSecond;
  arrival_config.surge_factor = 400.0;
  ArrivalGenerator arrivals(arrival_config);
  Rng mix(seed ^ 0x5eedf00dULL);
  s->traffic.reserve(kCrowdClients);
  s->arrival.reserve(kCrowdClients);
  for (uint64_t id = 0; id < kCrowdClients; id++) {
    double roll = mix.NextDouble();
    s->traffic.push_back(roll < 0.60   ? ServiceClass::kVerification
                         : roll < 0.85 ? ServiceClass::kMonitoring
                                       : ServiceClass::kProfiling);
    s->arrival.push_back(arrivals.Next());
  }
  return s;
}

struct CrowdCounts {
  uint64_t events = 0;
  uint64_t pool_capacity = 0;
  uint64_t issued = 0;
  uint64_t shed_attempts = 0;
  uint64_t unsheddable_sheds = 0;
};

// Runs one policy; returns its deterministic table block, and false in *ok
// when a fail-closed invariant broke.
std::string CrowdPolicy(const CrowdState& s, uint64_t seed, const std::string& policy,
                        OpLog& log, CrowdCounts* counts, bool* ok) {
  EventQueue queue;
  std::vector<CpuServer> replicas(kCrowdReplicas);
  std::vector<AdmissionController> admission;
  if (policy != "no-shed") {
    AdmissionConfig config;
    config.tokens_per_second = 1e9 / static_cast<double>(s.cal.hit_cpu_nanos);
    config.burst = 400.0;
    config.queue_capacity = policy == "shed-tight" ? 256 : 1024;
    for (size_t i = 0; i < kCrowdReplicas; i++) {
      admission.emplace_back(config);
    }
  }
  ClientPoolConfig pool_config;
  pool_config.service_cpu_nanos = s.cal.hit_cpu_nanos;
  pool_config.response_bytes = s.cal.response_bytes;
  StatsRegistry stats;
  ClientPool pool(pool_config, &queue, &replicas, policy == "no-shed" ? nullptr : &admission,
                  &stats);
  BoundedSpanRing span_ring(1024);
  pool.EnableTracing(&span_ring, TraceSampler(seed, 512));
  for (uint64_t id = 0; id < kCrowdClients; id++) {
    pool.Start(static_cast<uint32_t>(id), s.traffic[id], s.arrival[id]);
  }
  queue.set_max_events(kCrowdClients * (ClientPoolConfig{}.retry_budget + 2) + 1024);

  bool more = true;
  while (more) {
    OpClock clock;
    clock.Start("flashcrowd.slice", log.attempted);
    uint64_t ran = 0;
    {
      Scoped span(g_tracer, "simnet.events");
      while (ran < kEventsPerOp && (more = queue.RunNext())) {
        ran++;
      }
    }
    double us = clock.StopUs();
    if (ran > 0) {
      log.Record(us, true, log.Position());
    }
  }

  std::string table;
  char line[256];
  for (ServiceClass service : {ServiceClass::kVerification, ServiceClass::kMonitoring,
                               ServiceClass::kProfiling}) {
    Histogram::Snapshot lat = pool.Latency(service);
    std::snprintf(line, sizeof(line),
                  "%s %s started=%" PRIu64 " ok=%" PRIu64 " failed=%" PRIu64 " n=%" PRIu64
                  " p50=%.0f p99=%.0f\n",
                  policy.c_str(), ServiceClassName(service), pool.started(service),
                  pool.succeeded(service), pool.failed(service), lat.count,
                  lat.count ? lat.Percentile(50) : 0.0, lat.count ? lat.Percentile(99) : 0.0);
    table += line;
  }
  uint64_t shed_total = 0, unsheddable = 0;
  for (auto& controller : admission) {
    shed_total += controller.shed_total();
    unsheddable += controller.shed_for(ShedTier::kUnsheddable);
  }
  std::snprintf(line, sizeof(line),
                "%s sheds=%" PRIu64 " events=%" PRIu64 " end=%" PRIu64 " spans=%" PRIu64
                "/%zu/%" PRIu64 "\n",
                policy.c_str(), shed_total, queue.events_run(), static_cast<uint64_t>(queue.now()),
                pool.spans_sampled(), span_ring.size(), span_ring.dropped());
  table += line;
  if (policy != "no-shed") {
    *ok = *ok && unsheddable == 0 &&
          pool.succeeded(ServiceClass::kVerification) ==
              pool.started(ServiceClass::kVerification) &&
          pool.failed(ServiceClass::kVerification) == 0;
  }
  counts->events += queue.events_run();
  counts->pool_capacity = std::max<uint64_t>(counts->pool_capacity, queue.pool_capacity());
  counts->issued += pool.issued();
  counts->shed_attempts += pool.shed_attempts();
  counts->unsheddable_sheds += unsheddable;
  return table;
}

void CrowdCycles(const CrowdState& s, uint64_t seed, int cycles, CycleCheck& check, OpLog& log,
                 CrowdCounts* counts) {
  for (int c = 0; c < cycles; c++) {
    uint64_t attempted0 = log.attempted;
    uint64_t failed0 = log.failed;
    log.NewCycle();
    bool ok = true;
    std::string table;
    for (const char* policy : {"no-shed", "shed", "shed-tight"}) {
      table += CrowdPolicy(s, seed, policy, log, counts, &ok);
    }
    if (!check.Accept(Fnv1a(table)) || !ok) {
      log.FailLast(log.attempted - attempted0, log.failed - failed0);
    }
  }
}

RunResult RunFlashcrowd(const Options& opt, int cycles) {
  RunResult r;
  CycleCheck check(opt.seed == kDefaultSeed ? std::optional<uint64_t>(kFlashcrowdDigest)
                                            : std::nullopt);
  CrowdCounts counts;
  if (!opt.trace) {
    auto s = RepeatedSetup<CrowdState>([&] { return SetupCrowd(opt.seed); },
                                       SetupRepeats(opt.workload), &r.setup_s);
    CrowdCycles(*s, opt.seed, cycles, check, r.log, &counts);
    return r;
  }
  int half = std::max(1, cycles / 2);
  auto s = SetupCrowd(opt.seed);
  OpLog base;
  CrowdCycles(*s, opt.seed, half, check, base, &counts);
  counts = CrowdCounts{};
  SpanTracer tracer;
  g_tracer = &tracer;
  CrowdCycles(*s, opt.seed, half, check, r.log, &counts);
  g_tracer = nullptr;
  double n = half;
  auto per_cycle = [&](uint64_t v) { return static_cast<double>(v) / n; };
  double events_ns = static_cast<double>(tracer.Get("simnet.events").total_ns);
  r.layers.push_back({"simnet.event_ns",
                      counts.events == 0 ? 0.0 : events_ns / static_cast<double>(counts.events),
                      "ns"});
  r.layers.push_back({"simnet.events_run", per_cycle(counts.events), "count"});
  r.layers.push_back({"simnet.pool_capacity", static_cast<double>(counts.pool_capacity), "count"});
  r.layers.push_back({"dvm.pool_issued", per_cycle(counts.issued), "count"});
  r.layers.push_back({"dvm.shed_attempts", per_cycle(counts.shed_attempts), "count"});
  r.layers.push_back({"dvm.unsheddable_sheds", per_cycle(counts.unsheddable_sheds), "count"});
  r.layers.push_back({"proxy.calibration_miss_us", s->cal.miss_us, "us"});
  FinishTraced(opt, base, tracer, &r);
  return r;
}

// ---------------------------------------------------------------------------
// Manifest: stored references for the output checks. App references come
// from the reference engine (quicken = false), so they do not depend on the
// quickened/tiered path the benchmark times.

int PrintManifest() {
  const uint64_t seed = kDefaultSeed;
  OpLog scratch;
  std::map<std::string, uint64_t> fleet_table;
  ArtifactCheck fleet_check;
  fleet_check.observed = &fleet_table;
  CycleCheck any_fleet(std::nullopt);
  auto fleet = SetupFleet(seed, false);
  fleet->artifacts = &fleet_check;
  HandleSplit unused;
  FleetCycles(*fleet, 1, any_fleet, scratch, nullptr, &unused);
  CycleCheck any_crowd(std::nullopt);
  auto crowd = SetupCrowd(seed);
  CrowdCounts counts;
  CrowdCycles(*crowd, seed, 1, any_crowd, scratch, &counts);
  if (scratch.failed != 0) {
    Die("manifest generation hit failing ops");
  }
  if (fleet_table.size() != fleet->pop->classes.size()) {
    Die("fleet_churn cycle did not request every class");
  }
  fleet.reset();
  auto apps = SetupClientApps();
  std::printf("// Output-check references for perfbench, generated by\n"
              "// `dvm_perfbench --print-manifest`. Regenerate only when the program's\n"
              "// output is meant to change.\n"
              "#ifndef PERFBENCH_MANIFEST_H_\n#define PERFBENCH_MANIFEST_H_\n\n"
              "#include <cstdint>\n\n"
              "// flashcrowd's policy-table fingerprint is stored for this seed.\n"
              "constexpr uint64_t kDefaultSeed = %" PRIu64 ";\n"
              "constexpr uint64_t kFlashcrowdDigest = 0x%016" PRIx64 "ULL;\n\n"
              "// Rewritten class + certificate hash per class of the fixed applet\n"
              "// population, as served by the owning replica of the 3-replica\n"
              "// cluster (fleet_churn).\n"
              "struct ArtifactReference {\n  const char* name;\n  uint64_t hash;\n};\n"
              "constexpr ArtifactReference kFleetArtifacts[] = {\n",
              seed, any_crowd.first());
  for (const auto& [name, hash] : fleet_table) {
    std::printf("    {\"%s\", 0x%016" PRIx64 "ULL},\n", name.c_str(), hash);
  }
  std::printf("};\n");
  std::printf("\n// Fig. 5 apps at work_scale 1 on a warmed server, run by the reference\n"
              "// (non-quickening) engine: guest output + architectural counters, and\n"
              "// the virtual clock.\n"
              "struct AppReference {\n  const char* name;\n  uint64_t output_digest;\n"
              "  uint64_t virtual_nanos;\n};\n"
              "constexpr AppReference kAppReferences[] = {\n");
  for (size_t i = 0; i < apps->apps.size(); i++) {
    AppRun run = RunOneApp(*apps, i, /*quicken=*/false);
    if (!run.ok) {
      Die("reference run failed for " + apps->apps[i].name);
    }
    std::printf("    {\"%s\", 0x%016" PRIx64 "ULL, %" PRIu64 "ULL},\n", apps->apps[i].name.c_str(),
                run.output_digest, run.virtual_nanos);
  }
  std::printf("};\n\n#endif  // PERFBENCH_MANIFEST_H_\n");
  return 0;
}

// Every traced run reports the whole per-layer catalog (BENCHMARK.json's
// per_layer list, same order); a layer the workload leaves idle reads 0.
struct LayerSpec {
  const char* name;
  const char* unit;
};
constexpr LayerSpec kLayerCatalog[] = {
    {"proxy.origin_fetch_us", "us"},
    {"bytecode.parse_us", "us"},
    {"bytecode.emit_us", "us"},
    {"bytecode.bytes_in", "bytes"},
    {"bytecode.bytes_out", "bytes"},
    {"services.reflect_filter_us", "us"},
    {"services.verify_filter_us", "us"},
    {"services.security_filter_us", "us"},
    {"services.audit_filter_us", "us"},
    {"rewrite.pipeline_us", "us"},
    {"rewrite.checks_performed", "count"},
    {"verifier.verify_us", "us"},
    {"verifier.phase3_checks", "count"},
    {"verifier.cert_emit_us", "us"},
    {"proxy.cert_emit_checks", "count"},
    {"proxy.cert_yield", "ratio"},
    {"proxy.miss_self_us", "us"},
    {"proxy.hit_us", "us"},
    {"proxy.hit_ratio", "ratio"},
    {"verifier.cert_validate_us", "us"},
    {"proxy.cert_validations", "count"},
    {"proxy.cert_validate_checks", "count"},
    {"proxy.cert_rejects", "count"},
    {"dvm.replicate_us", "us"},
    {"dvm.epoch_commit_us", "us"},
    {"repl.commits", "count"},
    {"repl.aborts", "count"},
    {"dvm.client_init_us", "us"},
    {"runtime.load_us", "us"},
    {"runtime.run_us", "us"},
    {"runtime.ns_per_instr", "ns"},
    {"services.native_us", "us"},
    {"runtime.instructions", "count"},
    {"runtime.method_invocations", "count"},
    {"runtime.native_calls", "count"},
    {"runtime.allocations", "count"},
    {"runtime.gc_runs", "count"},
    {"runtime.tier_compiles", "count"},
    {"runtime.osr_entries", "count"},
    {"runtime.tier_deopts", "count"},
    {"runtime.dynamic_verify_checks", "count"},
    {"runtime.security_checks", "count"},
    {"runtime.audit_events", "count"},
    {"simnet.event_ns", "ns"},
    {"simnet.events_run", "count"},
    {"simnet.pool_capacity", "count"},
    {"dvm.pool_issued", "count"},
    {"dvm.shed_attempts", "count"},
    {"dvm.unsheddable_sheds", "count"},
    {"proxy.calibration_miss_us", "us"},
    {"trace.coverage", "ratio"},
    {"trace.overhead", "ratio"},
};

std::vector<Metric> CatalogOrder(const std::vector<Metric>& reported) {
  std::map<std::string, const Metric*> by_name;
  for (const Metric& m : reported) {
    by_name[m.name] = &m;
  }
  std::vector<Metric> out;
  for (const LayerSpec& spec : kLayerCatalog) {
    auto it = by_name.find(spec.name);
    if (it != by_name.end() && it->second->unit != spec.unit) {
      Die(std::string("unit mismatch for ") + spec.name);
    }
    out.push_back({spec.name, it == by_name.end() ? 0.0 : it->second->value, spec.unit});
    if (it != by_name.end()) {
      by_name.erase(it);
    }
  }
  if (!by_name.empty()) {
    Die("layer metric missing from the catalog: " + by_name.begin()->first);
  }
  return out;
}

bool ParseArgs(int argc, char** argv, Options* opt) {
  for (int i = 1; i < argc; i++) {
    std::string arg = argv[i];
    auto value = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    const char* v = nullptr;
    if (arg == "--print-manifest") {
      opt->print_manifest = true;
    } else if (arg == "--workload" && (v = value())) {
      opt->workload = v;
    } else if (arg == "--seed" && (v = value())) {
      opt->seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seconds" && (v = value())) {
      opt->seconds = std::strtod(v, nullptr);
    } else if (arg == "--trace" && (v = value())) {
      opt->trace = std::strcmp(v, "0") != 0;
    } else if (arg == "--trace-out" && (v = value())) {
      opt->trace_out = v;
    } else {
      std::fprintf(stderr, "perfbench: bad argument %s\n", arg.c_str());
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!ParseArgs(argc, argv, &opt)) {
    return 2;
  }
  if (opt.print_manifest) {
    return PrintManifest();
  }
  int cycles = CyclesFor(opt);
  if (cycles == 0 || !(opt.seconds > 0)) {
    std::fprintf(stderr, "perfbench: unknown workload '%s' or bad --seconds\n",
                 opt.workload.c_str());
    return 2;
  }
  RunResult r;
  if (opt.workload == "client_apps") {
    r = RunClientApps(opt, cycles);
  } else if (opt.workload == "fleet_churn") {
    r = RunFleetChurn(opt, cycles);
  } else {
    r = RunFlashcrowd(opt, cycles);
  }
  std::fprintf(stderr, "perfbench: %s seed=%" PRIu64 " cycles=%d ops=%" PRIu64
                       " failed=%" PRIu64 " error_rate=%.6f\n",
               opt.workload.c_str(), opt.seed, cycles, r.log.attempted, r.log.failed,
               r.log.attempted == 0 ? 1.0
                                    : static_cast<double>(r.log.failed) /
                                          static_cast<double>(r.log.attempted));
  std::vector<Metric> metrics =
      opt.trace ? CatalogOrder(r.layers) : EndToEndMetrics(r.log, r.setup_s);
  perfbench::PrintResult(r.log.failed == 0 && r.log.attempted > 0, r.log.attempted,
                         r.log.failed, metrics);
  return 0;
}
