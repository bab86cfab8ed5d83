// Control-plane replication under partition and rejoin: what the 2PC
// epoch/artifact rounds and the commit log buy when a replica actually misses
// a policy update. An EventQueue drives a fixed schedule over an applet
// population fetched through a 3-replica cluster:
//
//   warm          — every class rewritten once, artifacts pushed fleet-wide;
//   (outage)      — replica 2 goes dark for a scheduled window;
//   epoch commit  — the policy epoch advances by a 2PC round among the
//                   live members (the dark replica misses it);
//   re-instrument — the fleet re-rewrites under the new epoch;
//   rejoin-probe  — replica 2 is back up but *behind*: with replication it
//                   fails closed (stale-epoch refusals, clients fail over);
//                   the no-replication baseline silently serves its stale
//                   old-policy cache — the bug the epoch gate exists to stop;
//   rejoin        — replica 2 replays the commit-log suffix (baseline: the
//                   operator flushes its cache and it recomputes);
//   post-rejoin   — steady state: with replication every replica serves the
//                   replayed artifacts with zero new rewrites.
//
// --check gates: 100% fetch success in both modes; byte-identical artifacts,
// equal epochs and equal log digests on every replica after rejoin; the
// behind-epoch replica fails closed (stale refusals > 0, zero stale serves)
// while the baseline demonstrably serves stale; recovery is replay, not
// recompute (0 post-rejoin rewrites vs > 0 baseline); and a same-seed rerun
// reproduces bit-identical control-plane and fault-trace fingerprints.
//
// A second scenario exercises the warm fleet (DESIGN.md §16): a profiling
// client tiers up locally and its method profile names the fleet's hot set;
// the replicas' CompilerFilters attach a hot-method hint under a new policy
// epoch; and a fresh client with production thresholds compiles exactly the
// hinted methods at Prepare while printing byte-identical program output.
// Stdout is byte-deterministic for a given seed; the CI replication-smoke job
// diffs it across the timer-wheel and binary-heap EventQueue backends.
#include <cinttypes>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/bytecode/serializer.h"
#include "src/compiler/compiler.h"
#include "src/dvm/redirect_client.h"
#include "src/dvm/replication.h"
#include "src/runtime/profile.h"
#include "src/runtime/syslib.h"
#include "src/runtime/tiered.h"
#include "src/support/hash.h"
#include "src/verifier/verifier.h"
#include "src/services/fleet_metrics.h"
#include "src/services/slo_monitor.h"
#include "src/services/verify_service.h"
#include "src/simnet/fault.h"
#include "src/support/trace.h"
#include "src/workloads/applets.h"

using namespace dvm;
using namespace dvm::bench;

namespace {

constexpr size_t kReplicas = 3;
constexpr size_t kLagger = 2;  // the replica that misses the epoch

// Queue-time schedule. Client fetch phases fast-forward the client's virtual
// clock to the phase start, and every phase is placed so the client's clock
// never crosses the next boundary mid-phase (rewrite CPU + transfers +
// timeout charges stay well inside the gaps).
constexpr SimTime kWarmAt = 1 * kMillisecond;
constexpr SimTime kOutageStart = 60 * kSecond;
constexpr SimTime kEpochAt = 70 * kSecond;
constexpr SimTime kRefetchAt = 71 * kSecond;
constexpr SimTime kOutageEnd = 200 * kSecond;
constexpr SimTime kProbeAt = 210 * kSecond;
constexpr SimTime kRejoinAt = 220 * kSecond;
constexpr SimTime kPostAt = 221 * kSecond;

struct Options {
  uint64_t seed = 23;
  int applets = 10;
  bool check = false;
};

struct Scenario {
  MapClassProvider* origin;
  MapClassEnv* env;
  DvmServer* server;
  std::vector<std::string> classes;
  std::vector<std::string> mains;
};

struct RunOutcome {
  uint64_t attempts = 0;
  uint64_t successes = 0;
  bool epoch_committed = false;
  uint64_t committed_epoch = 0;
  size_t replayed = 0;
  uint64_t total_rewrites = 0;
  uint64_t postrejoin_rewrites = 0;
  uint64_t stale_epoch_rejections = 0;
  // Cache hits served by the lagging replica while it was behind the epoch:
  // stale old-policy artifacts. Zero with replication (it fails closed).
  uint64_t stale_serves = 0;
  bool artifacts_identical = true;
  bool epochs_equal = true;
  bool logs_equal = true;
  // Proof-carrying artifacts (replicated mode only): every pushed commit
  // record must carry a certificate, every install must proof-check, and the
  // lagger's one-pass replay validation must beat re-running the full
  // verifier over the same artifacts (measured in discrete checks).
  bool certs_on_every_artifact = true;
  uint64_t cert_validations = 0;
  uint64_t cert_rejects = 0;
  uint64_t cert_missing = 0;
  uint64_t lagger_validate_checks = 0;
  uint64_t reverify_checks = 0;
  uint64_t control_fingerprint = 0;
  uint64_t trace_fingerprint = 0;
  // Fleet observability (replicated mode only): the console's merged
  // Prometheus export must equal a by-hand merge of the per-replica
  // snapshots, partition windows must drop snapshots (divergence is the
  // signal), and the epoch-staleness SLO transition log is byte-compared
  // across same-seed runs.
  std::string slo_log;
  bool fleet_merge_ok = false;
  uint64_t snapshots_published = 0;
  uint64_t snapshots_dropped = 0;
  size_t slo_firing_at_end = 0;
};

// Runs the schedule with or without the replication layer; appends one table
// row per client phase to `rows`.
RunOutcome Run(Scenario& s, const Options& opt, bool replicated,
               std::vector<std::vector<std::string>>* rows) {
  ProxyCluster cluster(kReplicas, ProxyConfig{}, s.env, s.origin);
  for (size_t i = 0; i < cluster.size(); i++) {
    cluster.replica(i).AddFilter(std::make_unique<VerificationFilter>());
  }
  FaultPlan plan;
  plan.seed = opt.seed;
  plan.replica_outages[kLagger].push_back({kOutageStart, kOutageEnd});
  FaultInjector injector(plan);
  cluster.SetFaultInjector(&injector);
  if (replicated) {
    cluster.EnableReplication();
  }
  ReplicationCoordinator* repl = cluster.replication();

  RedirectingClient client(s.server, nullptr, DvmMachineConfig(), MakeEthernet10Mb());
  client.UseCluster(&cluster);

  RunOutcome out;
  EventQueue queue;

  // Fleet observability plane: each replica periodically snapshots its stats
  // registry (stamped with its policy epoch) and ships it to the console on
  // replica 0 over the same control mesh the 2PC rounds use — so the outage
  // window drops snapshots exactly like it drops votes. The lagging replica
  // runs an epoch-staleness SLO monitor against its own snapshots.
  AdministrationConsole console;
  FleetMetricsPublisher publisher(replicated ? &repl->control_plane() : nullptr,
                                  &console);
  SloMonitor slo("replica-2", &console);
  if (replicated) {
    slo.AddRule(MaxGapRule("policy-epoch-staleness", "repl.policy_epoch",
                           "repl.committed_epoch", /*max_gap=*/0));
  }
  auto stamped_snapshot = [&](size_t i) {
    StatsSnapshot snap = cluster.replica(i).stats().FullSnapshot();
    // "repl.*" sorts after every "proxy.*" counter, so the vector stays
    // name-sorted for exact Merge/Delta.
    snap.counters.emplace_back("repl.committed_epoch", repl->committed_epoch());
    snap.counters.emplace_back("repl.policy_epoch", cluster.replica(i).policy_epoch());
    return snap;
  };
  auto publish_fleet = [&](SimTime now) {
    if (!replicated) {
      return;
    }
    for (size_t i = 0; i < cluster.size(); i++) {
      StatsSnapshot snap = stamped_snapshot(i);
      if (i == kLagger) {
        slo.Evaluate(snap, now);
      }
      publisher.PublishSnapshot(i, std::move(snap), now);
    }
  };

  auto total_rewrites = [&] {
    uint64_t total = 0;
    for (size_t i = 0; i < cluster.size(); i++) {
      total += cluster.replica(i).stats().Value("proxy.rewrites");
    }
    return total;
  };
  auto total_hits = [&] {
    uint64_t total = 0;
    for (size_t i = 0; i < cluster.size(); i++) {
      total += cluster.replica(i).cache().hits();
    }
    return total;
  };
  auto sync_clock = [&](SimTime now) {
    if (client.machine().virtual_nanos() < now) {
      client.machine().AddNanos(now - client.machine().virtual_nanos());
    }
  };
  auto fetch_all = [&](const std::string& label) {
    const uint64_t rw0 = total_rewrites();
    const uint64_t hit0 = total_hits();
    const uint64_t stale0 = client.stale_epoch_rejections();
    const uint64_t to0 = client.timeouts();
    uint64_t ok = 0;
    for (const auto& name : s.classes) {
      out.attempts++;
      if (client.FetchClass(name).ok()) {
        ok++;
        out.successes++;
      }
    }
    rows->push_back({(replicated ? "repl/" : "base/") + label,
                     std::to_string(s.classes.size()), std::to_string(ok),
                     std::to_string(total_rewrites() - rw0), std::to_string(total_hits() - hit0),
                     std::to_string(client.stale_epoch_rejections() - stale0),
                     std::to_string(client.timeouts() - to0)});
  };

  queue.Schedule(kWarmAt, [&] {
    sync_clock(kWarmAt);
    fetch_all("warm");
    publish_fleet(kWarmAt);
  });
  queue.Schedule(kEpochAt, [&] {
    if (replicated) {
      out.epoch_committed = repl->CommitPolicyEpoch(queue.now()).committed;
    } else {
      // The pre-replication world: the invalidation reaches the replicas that
      // are up; the dark one keeps its old-policy cache and nobody can tell.
      for (size_t i = 0; i < cluster.size(); i++) {
        if (cluster.ReplicaUp(i, queue.now())) {
          cluster.replica(i).InvalidateCache();
        }
      }
      out.epoch_committed = true;
    }
    publish_fleet(kEpochAt);
  });
  queue.Schedule(kRefetchAt, [&] {
    sync_clock(kRefetchAt);
    fetch_all("re-instrument");
    publish_fleet(kRefetchAt);
  });
  queue.Schedule(kProbeAt, [&] {
    sync_clock(kProbeAt);
    const uint64_t lagger_hits = cluster.replica(kLagger).cache().hits();
    fetch_all("rejoin-probe");
    out.stale_serves = cluster.replica(kLagger).cache().hits() - lagger_hits;
    publish_fleet(kProbeAt);
  });
  queue.Schedule(kRejoinAt, [&] {
    if (replicated) {
      out.replayed = repl->Rejoin(kLagger, queue.now());
    } else {
      // No commit log: the only remedy for a possibly-stale cache is a flush,
      // after which every artifact is recomputed on demand.
      cluster.replica(kLagger).InvalidateCache();
    }
    publish_fleet(kRejoinAt);
  });
  queue.Schedule(kPostAt, [&] {
    sync_clock(kPostAt);
    const uint64_t rw0 = total_rewrites();
    fetch_all("post-rejoin");
    out.postrejoin_rewrites = total_rewrites() - rw0;
    publish_fleet(kPostAt);
  });
  queue.RunUntilEmpty();

  if (replicated) {
    // Final round already ran with every link up, so the console's merged
    // view must now be exactly the union of the live registries.
    StatsSnapshot manual;
    for (size_t i = 0; i < cluster.size(); i++) {
      manual.Merge(stamped_snapshot(i));
    }
    out.fleet_merge_ok =
        console.FleetPrometheus() == PrometheusText(manual, {{"scope", "fleet"}});
    out.slo_log = slo.TransitionLog();
    out.snapshots_published = publisher.published();
    out.snapshots_dropped = publisher.dropped();
    out.slo_firing_at_end = slo.firing_count();
  }

  out.total_rewrites = total_rewrites();
  out.stale_epoch_rejections = client.stale_epoch_rejections();
  out.trace_fingerprint = injector.TraceFingerprint();
  if (replicated) {
    out.committed_epoch = repl->committed_epoch();
    out.control_fingerprint = repl->Fingerprint();
    for (size_t i = 0; i < cluster.size(); i++) {
      out.epochs_equal &= cluster.replica(i).policy_epoch() == repl->committed_epoch();
      out.logs_equal &= repl->replica_log(i).Digest() == repl->cluster_log().Digest();
    }
    for (const auto& name : s.classes) {
      const std::string key = DvmProxy::RewriteCacheKey(name, "");
      auto reference = cluster.replica(0).cache().Peek(key);
      if (!reference.has_value()) {
        out.artifacts_identical = false;
        continue;
      }
      for (size_t i = 1; i < cluster.size(); i++) {
        auto got = cluster.replica(i).cache().Peek(key);
        out.artifacts_identical &= got.has_value() &&
                                   got->main_class == reference->main_class &&
                                   got->epoch == reference->epoch;
      }
    }

    // Certificate plane accounting. The lagger proof-checked every artifact
    // it installed — the warm pushes live, the missed suffix during replay —
    // which is exactly the set of kArtifact records in the cluster log, so
    // re-running the full verifier over those same records prices what the
    // replay would have cost without certificates.
    for (size_t i = 0; i < cluster.size(); i++) {
      out.cert_validations += cluster.replica(i).stats().Value("proxy.cert_validations");
      out.cert_rejects += cluster.replica(i).stats().Value("proxy.cert_rejects");
      out.cert_missing += cluster.replica(i).stats().Value("proxy.cert_missing");
    }
    out.lagger_validate_checks =
        cluster.replica(kLagger).stats().Value("proxy.cert_validate_checks");
    for (const CommitRecord& record : repl->cluster_log().records()) {
      if (record.type != CommitRecordType::kArtifact) {
        continue;
      }
      out.certs_on_every_artifact &= !record.certificate.empty();
      auto main = ReadClassFile(record.main_class);
      if (!main.ok()) {
        out.certs_on_every_artifact = false;
        continue;
      }
      std::vector<ClassFile> companions;
      companions.reserve(record.extra_classes.size());
      for (const auto& [name, bytes] : record.extra_classes) {
        auto parsed = ReadClassFile(bytes);
        if (parsed.ok()) {
          companions.push_back(std::move(parsed).value());
        }
      }
      MapClassEnv artifact_env;
      for (const ClassFile& companion : companions) {
        artifact_env.Add(&companion);
      }
      artifact_env.Add(&main.value());
      ChainedClassEnv reverify_env(&artifact_env, s.env);
      auto reverified = VerifyClass(main.value(), reverify_env);
      if (reverified.ok()) {
        out.reverify_checks += reverified->stats.TotalStaticChecks();
      }
    }
  }
  return out;
}

// Warm-fleet scenario: profile-guided hot-method hints at the proxies.
// A low threshold makes even the modest applet kernels tier up during the
// profiling pass; the fresh client keeps the production default, so every
// method it compiles is one the fleet's hint named.
constexpr uint64_t kProfileTierThreshold = 8;

struct WarmFleetOutcome {
  bool all_ok = true;                   // every applet ran to completion
  uint64_t hot_methods = 0;             // rows fed to the compiler filters
  uint64_t profile_tier_compiles = 0;   // profiling client's local compiles
  uint64_t hinted_methods = 0;          // ids in replica 0's artifact hints
  bool hints_match_profile = true;      // each hint lists its class's hot set
  uint64_t hinted_prepared = 0;         // fresh client: hinted methods prepared
  uint64_t tier_compiles = 0;           // fresh client: compiles (at Prepare)
  size_t artifacts_compared = 0;
  bool artifacts_identical = true;      // incl. the kAttrHotMethods attribute
  bool outputs_identical = true;        // self-tiered vs hinted printing
  uint64_t output_digest = 0;
};

// Methods `registry` prepared that their own class's hot-method hint names.
uint64_t HintedPrepared(ClassRegistry& registry) {
  uint64_t n = 0;
  for (const std::string& name : registry.loaded_order()) {
    const RuntimeClass* cls = registry.FindLoaded(name);
    const Attribute* hint =
        cls == nullptr ? nullptr : cls->file.FindAttribute(kAttrHotMethods);
    if (hint == nullptr) {
      continue;
    }
    for (const auto& [id, prepared] : cls->prepared) {
      n += HintNamesMethod(hint->data, id) ? 1 : 0;
    }
  }
  return n;
}

WarmFleetOutcome WarmFleet(Scenario& s) {
  WarmFleetOutcome out;
  ProxyCluster cluster(kReplicas, ProxyConfig{}, s.env, s.origin);
  std::vector<CompilerFilter*> compilers;
  for (size_t i = 0; i < cluster.size(); i++) {
    cluster.replica(i).AddFilter(std::make_unique<VerificationFilter>());
    auto compiler = std::make_unique<CompilerFilter>("");
    compilers.push_back(compiler.get());
    cluster.replica(i).AddFilter(std::move(compiler));
  }
  cluster.EnableReplication();

  auto run_apps = [&](RedirectingClient& client, SimTime start_at) {
    // Clients join the fleet at distinct points on the shared virtual
    // timeline: control-mesh links are FIFOs, so a client operating "before"
    // traffic that is already queued would see its rounds time out.
    if (client.machine().virtual_nanos() < start_at) {
      client.machine().AddNanos(start_at - client.machine().virtual_nanos());
    }
    std::string transcript;
    for (const auto& main : s.mains) {
      auto result = client.RunApp(main);
      transcript += main;
      transcript += " => ";
      transcript += result.ok()
                        ? (result->threw ? result->exception_class : result->value.ToString())
                        : result.error().message;
      transcript += '\n';
      const bool ok = result.ok() && !result->threw;
      if (!ok) {
        std::fprintf(stderr,
                     "warm fleet: %s failed: %s (timeouts=%llu stale=%llu failovers=%llu)\n",
                     main.c_str(),
                     result.ok() ? result->exception_class.c_str()
                                 : result.error().message.c_str(),
                     (unsigned long long)client.timeouts(),
                     (unsigned long long)client.stale_epoch_rejections(),
                     (unsigned long long)client.failovers());
      }
      out.all_ok &= ok;
    }
    for (const auto& line : client.machine().printed()) {
      transcript += line;
      transcript += '\n';
    }
    return transcript;
  };

  // Profiling pass: the client tiers up locally, and its always-on method
  // counters become the fleet's hot-set feedback.
  MachineConfig profile_config = DvmMachineConfig();
  profile_config.tier_invocation_threshold = kProfileTierThreshold;
  profile_config.tier_osr_threshold = kProfileTierThreshold;
  RedirectingClient profiler(s.server, nullptr, profile_config, MakeEthernet10Mb());
  profiler.UseCluster(&cluster);
  const std::string profiled_output = run_apps(profiler, 0);
  out.profile_tier_compiles = profiler.machine().counters().tier_compiles;

  // The hot set is exactly the set of methods the profiling machine compiled:
  // final counters over the deterministic workload reproduce every tier-up
  // decision, so the fresh client below compiles at Prepare wherever it would
  // have compiled at run time.
  std::map<std::string, std::set<std::string>> hot;
  for (const MethodProfileRow& row : CollectMethodProfile(profiler.machine().registry())) {
    if (row.invocations < kProfileTierThreshold && row.backedges < kProfileTierThreshold) {
      continue;
    }
    const size_t dot = row.method.find('.');  // class names use '/', so the
    if (dot == std::string::npos) {           // first '.' splits class from id
      continue;
    }
    hot[row.method.substr(0, dot)].insert(row.method.substr(dot + 1));
    out.hot_methods++;
  }
  for (CompilerFilter* compiler : compilers) {
    compiler->SetHotMethods(hot);
  }

  // Hot-set push is a policy change: a 2PC epoch round invalidates every
  // replica, so the next fetch re-rewrites with hints attached and replicates
  // the new artifacts fleet-wide.
  // The push must land after the profiling pass's last artifact replication:
  // the control mesh is a FIFO of SimLinks, so a 2PC round scheduled before
  // the queued artifact pushes drain would blow the vote deadline and abort.
  const SimTime hot_push_at = profiler.machine().virtual_nanos() + 1 * kSecond;
  cluster.CommitPolicyUpdate(hot_push_at);

  // Fresh fleet client, production tier thresholds: the only methods it
  // compiles are the ones the fleet's hints named.
  RedirectingClient fresh(s.server, nullptr, DvmMachineConfig(), MakeEthernet10Mb());
  fresh.UseCluster(&cluster);
  const std::string fresh_output = run_apps(fresh, hot_push_at + 1 * kSecond);
  out.hinted_prepared = HintedPrepared(fresh.machine().registry());
  out.tier_compiles = fresh.machine().counters().tier_compiles;
  out.outputs_identical = fresh_output == profiled_output;
  out.output_digest = Fnv1a(fresh_output);

  // Every application class in the hot set carries a hint listing exactly
  // its hot methods (system classes are never rewritten).
  for (const auto& [name, ids] : hot) {
    if (IsSystemClass(name)) {
      continue;
    }
    auto artifact = cluster.replica(0).cache().Peek(DvmProxy::RewriteCacheKey(name, ""));
    auto parsed = ReadClassFile(artifact.has_value() ? artifact->main_class : Bytes{});
    const Attribute* hint = parsed.ok() ? parsed->FindAttribute(kAttrHotMethods) : nullptr;
    out.hints_match_profile &= hint != nullptr && hint->data == HotMethodHint(ids);
    out.hinted_methods += ids.size();
  }
  for (const auto& name : s.classes) {
    const std::string key = DvmProxy::RewriteCacheKey(name, "");
    auto reference = cluster.replica(0).cache().Peek(key);
    if (!reference.has_value()) {
      continue;  // class never reached by the applet mains
    }
    out.artifacts_compared++;
    for (size_t i = 1; i < cluster.size(); i++) {
      auto got = cluster.replica(i).cache().Peek(key);
      out.artifacts_identical &= got.has_value() &&
                                 got->main_class == reference->main_class &&
                                 got->epoch == reference->epoch;
    }
  }
  return out;
}

bool Gate(const char* what, bool pass) {
  std::printf("  %-68s %s\n", what, pass ? "PASS" : "FAIL");
  return pass;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; i++) {
    if (std::sscanf(argv[i], "--seed=%" PRIu64, &opt.seed) == 1) continue;
    if (std::sscanf(argv[i], "--applets=%d", &opt.applets) == 1) continue;
    if (std::strcmp(argv[i], "--check") == 0) {
      opt.check = true;
      continue;
    }
    std::fprintf(stderr, "unknown flag %s\n", argv[i]);
    return 2;
  }

  PrintHeader("Replicated control plane: partition, rejoin, and log replay",
              "Section 2 replication claim — policy epochs made consistent");

  auto applets = BuildAppletPopulation(opt.applets, opt.seed);
  MapClassProvider origin;
  InstallSystemLibrary(origin);
  std::vector<std::string> classes;
  std::vector<std::string> mains;
  for (const auto& applet : applets) {
    applet.InstallInto(&origin);
    mains.push_back(applet.main_class);
    for (const auto& name : applet.ClassNames()) {
      classes.push_back(name);
    }
  }
  std::vector<ClassFile> library = BuildSystemLibrary();
  MapClassEnv env;
  for (const auto& cls : library) {
    env.Add(&cls);
  }
  DvmServerConfig server_config;
  server_config.policy = PermissivePolicy();
  server_config.proxy.sign_output = true;
  DvmServer server(std::move(server_config), &origin);
  Scenario scenario{&origin, &env, &server, classes, mains};

  std::printf("\n%zu classes, %zu replicas, replica %zu dark [%" PRIu64 "s, %" PRIu64
              "s), seed=%" PRIu64 "\n"
              "event_queue=%s\n\n",
              classes.size(), kReplicas, kLagger, kOutageStart / kSecond,
              kOutageEnd / kSecond, opt.seed,
              EventQueue::DefaultBackend() == EventQueue::Backend::kHeap ? "heap" : "wheel");

  std::vector<std::vector<std::string>> rows;
  RunOutcome repl = Run(scenario, opt, /*replicated=*/true, &rows);
  RunOutcome base = Run(scenario, opt, /*replicated=*/false, &rows);

  PrintRow({"Phase", "Fetches", "OK", "Rewrites", "Hits", "StaleRej", "Timeouts"}, 20);
  for (const auto& row : rows) {
    PrintRow(row, 20);
  }

  std::printf("\nreplicated: epoch=%" PRIu64 " replayed=%zu rewrites=%" PRIu64
              " post_rejoin_rewrites=%" PRIu64 " stale_refusals=%" PRIu64
              " stale_serves=%" PRIu64 "\n",
              repl.committed_epoch, repl.replayed, repl.total_rewrites,
              repl.postrejoin_rewrites, repl.stale_epoch_rejections, repl.stale_serves);
  std::printf("baseline:   rewrites=%" PRIu64 " post_rejoin_rewrites=%" PRIu64
              " stale_serves=%" PRIu64 "\n",
              base.total_rewrites, base.postrejoin_rewrites, base.stale_serves);
  std::printf("control_fingerprint=%016" PRIx64 " trace_fingerprint=%016" PRIx64 "\n",
              repl.control_fingerprint, repl.trace_fingerprint);
  std::printf("certificates: validations=%" PRIu64 " rejects=%" PRIu64 " missing=%" PRIu64
              " lagger_validate_checks=%" PRIu64 " reverify_checks=%" PRIu64 "\n",
              repl.cert_validations, repl.cert_rejects, repl.cert_missing,
              repl.lagger_validate_checks, repl.reverify_checks);
  std::printf("fleet: snapshots=%" PRIu64 " dropped_in_partition=%" PRIu64 "\n",
              repl.snapshots_published, repl.snapshots_dropped);
  std::printf("slo transitions (virtual nanos):\n%s", repl.slo_log.c_str());

  WarmFleetOutcome warm = WarmFleet(scenario);
  std::printf("\nwarm fleet: hot_methods=%" PRIu64 " profile_tier_compiles=%" PRIu64
              " hinted_methods=%" PRIu64 "\n"
              "fresh client: hinted_prepared=%" PRIu64 " tier_compiles=%" PRIu64
              " artifacts_compared=%zu output_digest=%016" PRIx64 "\n",
              warm.hot_methods, warm.profile_tier_compiles, warm.hinted_methods,
              warm.hinted_prepared, warm.tier_compiles, warm.artifacts_compared,
              warm.output_digest);

  bool ok = true;
  std::printf("\nChecks:\n");
  ok &= Gate("every fetch succeeds in both modes",
             repl.successes == repl.attempts && base.successes == base.attempts);
  ok &= Gate("2PC epoch round commits among the live members",
             repl.epoch_committed && repl.committed_epoch == 1);
  ok &= Gate("after rejoin: same committed epoch on every replica", repl.epochs_equal);
  ok &= Gate("after rejoin: equal commit-log digests on every replica", repl.logs_equal);
  ok &= Gate("after rejoin: byte-identical artifacts on every replica",
             repl.artifacts_identical);
  ok &= Gate("behind-epoch replica fails closed (refusals > 0, 0 stale serves)",
             repl.stale_epoch_rejections > 0 && repl.stale_serves == 0);
  ok &= Gate("baseline demonstrably serves stale old-policy artifacts",
             base.stale_serves > 0);
  ok &= Gate("recovery is log replay, not recompute (0 post-rejoin rewrites)",
             repl.replayed > 0 && repl.postrejoin_rewrites == 0 &&
                 base.postrejoin_rewrites > 0);
  ok &= Gate("replication does fewer total rewrites than flush-and-recompute",
             repl.total_rewrites < base.total_rewrites);
  ok &= Gate("every pushed artifact carries a verification certificate",
             repl.certs_on_every_artifact);
  ok &= Gate("every replicated install proof-checked (0 rejects, 0 missing)",
             repl.cert_validations > 0 && repl.cert_rejects == 0 &&
                 repl.cert_missing == 0);
  ok &= Gate("one-pass replay validation beats full re-verification",
             repl.lagger_validate_checks > 0 &&
                 repl.lagger_validate_checks < repl.reverify_checks);
  ok &= Gate("fleet-merged Prometheus equals merge of per-replica snapshots",
             repl.fleet_merge_ok);
  ok &= Gate("partition drops snapshots (console keeps the stale view)",
             repl.snapshots_dropped > 0 &&
                 repl.snapshots_dropped < repl.snapshots_published);
  ok &= Gate("epoch-staleness SLO fired during the miss and cleared on rejoin",
             repl.slo_log.find("ALERT policy-epoch-staleness") != std::string::npos &&
                 repl.slo_log.find("CLEAR policy-epoch-staleness") != std::string::npos &&
                 repl.slo_firing_at_end == 0);
  ok &= Gate("warm fleet: every applet completes in both tier deployments",
             warm.all_ok);
  ok &= Gate("warm fleet: profiling pass tiers locally and names a hot set",
             warm.profile_tier_compiles > 0 && warm.hot_methods > 0);
  ok &= Gate("warm fleet: replicas attach a hint for the profiled set",
             warm.hinted_methods > 0 && warm.hints_match_profile);
  ok &= Gate("warm fleet: fresh client compiles exactly the hinted methods it prepared",
             warm.hinted_prepared > 0 && warm.tier_compiles == warm.hinted_prepared);
  ok &= Gate("warm fleet: tiered artifacts byte-identical on every replica",
             warm.artifacts_compared > 0 && warm.artifacts_identical);
  ok &= Gate("warm fleet: hinted-tier output matches the self-tiered run",
             warm.outputs_identical);

  if (opt.check) {
    std::vector<std::vector<std::string>> rerun_rows;
    RunOutcome again = Run(scenario, opt, /*replicated=*/true, &rerun_rows);
    ok &= Gate("same seed reproduces identical control + trace fingerprints",
               again.control_fingerprint == repl.control_fingerprint &&
                   again.trace_fingerprint == repl.trace_fingerprint &&
                   again.successes == repl.successes);
    ok &= Gate("SLO transitions at identical virtual timestamps on rerun",
               again.slo_log == repl.slo_log && !repl.slo_log.empty());
    WarmFleetOutcome warm_again = WarmFleet(scenario);
    ok &= Gate("warm fleet reproduces identical output digest and tier counts",
               warm_again.output_digest == warm.output_digest &&
                   warm_again.tier_compiles == warm.tier_compiles &&
                   warm_again.hinted_methods == warm.hinted_methods);
  }

  std::printf("\nA policy change is a fleet-wide commit: either every in-sync replica\n"
              "re-instruments under the new epoch, or the round aborts and the fleet\n"
              "fails closed. A replica that misses the round cannot prove currency,\n"
              "so it refuses until the commit log replays it back to byte-identical\n"
              "state — no stale hook sets, and no redundant re-rewriting either.\n");
  return ok ? 0 : 1;
}
