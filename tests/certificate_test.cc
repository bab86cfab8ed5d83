// Tests for proof-carrying verification certificates (verifier/certificate.h)
// and their path through the replicated proxy control plane:
//
//   * canonical serialization round-trips byte-identically;
//   * the one-pass validator agrees with the full fixpoint verifier on every
//     Figure 5 workload class and every checked-in fuzz corpus input, and
//     derives the identical link-time assumption list;
//   * every single-field tampering of a certificate — and every byte-level
//     bit flip that still parses — is rejected;
//   * a replica catching up after an outage validates pushed artifacts
//     against their certificates instead of re-running the rewrite pipeline,
//     and a tampered push is dropped fail-closed.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "src/bytecode/builder.h"
#include "src/bytecode/serializer.h"
#include "src/dvm/replication.h"
#include "src/proxy/proxy.h"
#include "src/runtime/syslib.h"
#include "src/services/verify_service.h"
#include "src/simnet/fault.h"
#include "src/simnet/sim.h"
#include "src/support/hash.h"
#include "src/support/interner.h"
#include "src/verifier/certificate.h"
#include "src/verifier/verifier.h"
#include "src/workloads/applets.h"
#include "src/workloads/apps.h"

namespace dvm {
namespace {

#ifndef DVM_CORPUS_DIR
#define DVM_CORPUS_DIR "tests/corpus"
#endif

Bytes ReadFileBytes(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return Bytes(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
}

// A class with the merge-point shapes certificates exist for: a loop (branch
// target), a conditional join, an exception handler, and calls into classes
// outside the environment (link-time assumptions).
ClassFile BranchyApp() {
  ClassBuilder cb("app/Branchy", "java/lang/Object");
  cb.AddField(AccessFlags::kStatic, "acc", "I");
  cb.AddDefaultConstructor();
  MethodBuilder& m = cb.AddMethod(AccessFlags::kPublic | AccessFlags::kStatic, "run", "()I");
  Label loop = m.NewLabel();
  Label done = m.NewLabel();
  m.PushInt(8).StoreLocal("I", 0);
  m.Bind(loop);
  m.LoadLocal("I", 0).Branch(Op::kIfeq, done);
  m.LoadLocal("I", 0).GetStatic("app/Branchy", "acc", "I").Emit(Op::kIadd);
  m.PutStatic("app/Branchy", "acc", "I");
  m.InvokeStatic("app/Helper", "tick", "()V");  // absent class -> assumption
  m.Emit(Op::kIinc, 0, -1).Branch(Op::kGoto, loop);
  m.Bind(done);
  m.GetStatic("app/Branchy", "acc", "I").Emit(Op::kIreturn);
  return cb.Build().value();
}

class CertificateTest : public ::testing::Test {
 protected:
  CertificateTest() : library_(BuildSystemLibrary()) {
    for (const ClassFile& cls : library_) {
      lib_env_.Add(&cls);
    }
  }

  std::vector<ClassFile> library_;
  MapClassEnv lib_env_;
};

TEST_F(CertificateTest, RoundTripIsByteIdentical) {
  ClassFile cls = BranchyApp();
  MapClassEnv self;
  self.Add(&cls);
  ChainedClassEnv env(&self, &lib_env_);

  ClassCertificate cert;
  auto verified = VerifyClass(cls, env, &cert);
  ASSERT_TRUE(verified.ok()) << verified.error().ToString();
  EXPECT_EQ(cert.class_name, "app/Branchy");
  // The loop head and join are merge points; the helper call is an assumption.
  size_t assertions = 0;
  for (const auto& m : cert.methods) {
    assertions += m.assertions.size();
  }
  EXPECT_GT(assertions, 0u);
  EXPECT_FALSE(cert.assumptions.empty());

  Bytes wire = SerializeCertificate(cert);
  auto reparsed = ParseCertificate(wire);
  ASSERT_TRUE(reparsed.ok()) << reparsed.error().ToString();
  EXPECT_TRUE(reparsed.value() == cert);
  EXPECT_EQ(SerializeCertificate(reparsed.value()), wire);
}

// Every class verified, certified and validated here names types no other
// class names. The names live in per-call tables, so the process-wide
// interner must not grow: an origin serving endless fresh names cannot grow
// the proxy that way.
TEST_F(CertificateTest, VerificationLeavesNoSymbolsBehind) {
  const size_t before = InternedSymbolCount();
  for (int i = 0; i < 50; i++) {
    const std::string id = std::to_string(i);
    ClassBuilder cb("fresh/C" + id, "java/lang/Object");
    cb.AddField(AccessFlags::kStatic, "f", "Lfresh/F" + id + ";");
    MethodBuilder& m = cb.AddMethod(AccessFlags::kPublic | AccessFlags::kStatic, "run",
                                    "(Lfresh/P" + id + ";)V");
    Label join = m.NewLabel();
    m.GetStatic("fresh/C" + id, "f", "Lfresh/F" + id + ";").CheckCast("fresh/K" + id);
    m.LoadLocal("Lfresh/P" + id + ";", 0).Branch(Op::kIfnull, join);
    m.Emit(Op::kPop).PushInt(1).ANewArray("fresh/A" + id);
    m.Bind(join);
    m.InvokeStatic("fresh/H" + id, "use", "(Ljava/lang/Object;)V");
    m.Emit(Op::kReturn);
    ClassFile cls = cb.Build().value();
    MapClassEnv self;
    self.Add(&cls);
    ChainedClassEnv env(&self, &lib_env_);

    ClassCertificate cert;
    ASSERT_TRUE(VerifyClass(cls, env, &cert).ok()) << i;
    auto reparsed = ParseCertificate(SerializeCertificate(cert));
    ASSERT_TRUE(reparsed.ok()) << i;
    ValidateStats stats;
    EXPECT_TRUE(ValidateCertificate(cls, env, reparsed.value(), &stats).ok()) << i;

    // A rejected class leaves nothing behind either.
    ClassBuilder bad("fresh/Bad" + id, "java/lang/Object");
    MethodBuilder& b = bad.AddMethod(AccessFlags::kPublic | AccessFlags::kStatic, "run",
                                     "(Lfresh/Q" + id + ";)I");
    b.LoadLocal("Lfresh/Q" + id + ";", 0).Emit(Op::kIreturn);
    ClassFile bad_cls = bad.Build().value();
    EXPECT_FALSE(VerifyClass(bad_cls, env).ok()) << i;
  }
  EXPECT_EQ(InternedSymbolCount(), before);
}

TEST_F(CertificateTest, ParserRejectsTrailingBytesAndBadMagic) {
  ClassFile cls = BranchyApp();
  MapClassEnv self;
  self.Add(&cls);
  ChainedClassEnv env(&self, &lib_env_);
  ClassCertificate cert;
  ASSERT_TRUE(VerifyClass(cls, env, &cert).ok());
  Bytes wire = SerializeCertificate(cert);

  Bytes trailing = wire;
  trailing.push_back(0);
  EXPECT_FALSE(ParseCertificate(trailing).ok());

  Bytes bad_magic = wire;
  bad_magic[0] ^= 0xff;
  EXPECT_FALSE(ParseCertificate(bad_magic).ok());

  EXPECT_FALSE(ParseCertificate(Bytes{}).ok());
}

// The validator must accept the verifier's certificate for every class of
// every Figure 5 application, in one pass, deriving the same assumptions.
TEST_F(CertificateTest, ValidatorAgreesOnFig5Workloads) {
  for (const AppBundle& app : BuildFig5Apps(1)) {
    MapClassEnv app_env;
    for (const ClassFile& cls : app.classes) {
      app_env.Add(&cls);
    }
    ChainedClassEnv env(&app_env, &lib_env_);
    for (const ClassFile& cls : app.classes) {
      ClassCertificate cert;
      auto verified = VerifyClass(cls, env, &cert);
      ASSERT_TRUE(verified.ok()) << app.name << "/" << cls.name() << ": "
                                 << verified.error().ToString();

      auto reparsed = ParseCertificate(SerializeCertificate(cert));
      ASSERT_TRUE(reparsed.ok()) << cls.name();
      ValidateStats stats;
      auto validated = ValidateCertificate(cls, env, reparsed.value(), &stats);
      EXPECT_TRUE(validated.ok()) << app.name << "/" << cls.name() << ": "
                                  << validated.error().ToString();
      EXPECT_GT(stats.instructions_validated, 0u) << cls.name();
      // Identical phase-4 obligations, by list position.
      ASSERT_EQ(cert.assumptions.size(), verified->assumptions.size());
      for (size_t i = 0; i < cert.assumptions.size(); i++) {
        EXPECT_EQ(cert.assumptions[i].Key(), verified->assumptions[i].Key());
      }
    }
  }
}

// Verdict agreement over the checked-in fuzz corpus: whatever the fixpoint
// accepts, the one-pass validator accepts via the emitted certificate.
TEST_F(CertificateTest, ValidatorAgreesOnFuzzCorpus) {
  std::filesystem::path dir(DVM_CORPUS_DIR);
  ASSERT_TRUE(std::filesystem::is_directory(dir));
  size_t accepted = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (!entry.is_regular_file()) {
      continue;
    }
    auto parsed = ReadClassFile(ReadFileBytes(entry.path()));
    if (!parsed.ok()) {
      continue;  // parse rejection is fail-closed; no certificate exists
    }
    const ClassFile& cls = parsed.value();
    MapClassEnv self;
    self.Add(&cls);
    ChainedClassEnv env(&self, &lib_env_);
    ClassCertificate cert;
    if (!VerifyClass(cls, env, &cert).ok()) {
      continue;
    }
    accepted++;
    auto reparsed = ParseCertificate(SerializeCertificate(cert));
    ASSERT_TRUE(reparsed.ok()) << entry.path().filename();
    ValidateStats stats;
    auto validated = ValidateCertificate(cls, env, reparsed.value(), &stats);
    EXPECT_TRUE(validated.ok()) << entry.path().filename() << ": "
                                << validated.error().ToString();
  }
  EXPECT_GT(accepted, 0u) << "corpus has no verifier-accepted inputs to differentiate";
}

// Work counts and certificate bytes of verifying, then validating, every class
// of a set of bundles. The counts feed the virtual clock (phase-3 checks and
// one-pass validate checks are charged per check), so they pin the worklist
// schedule and the validator's pass exactly.
struct VerifyTotals {
  uint64_t classes = 0;
  uint64_t phase1 = 0;
  uint64_t phase2 = 0;
  uint64_t phase3 = 0;
  uint64_t validate_checks = 0;
  uint64_t cert_fnv = 0;  // FNV-1a over every certificate's bytes, in order

  bool operator==(const VerifyTotals&) const = default;
};

std::ostream& operator<<(std::ostream& os, const VerifyTotals& t) {
  return os << "{" << t.classes << ", " << t.phase1 << ", " << t.phase2 << ", " << t.phase3
            << ", " << t.validate_checks << ", 0x" << std::hex << t.cert_fnv << std::dec
            << "}";
}

VerifyTotals VerifyBundles(const std::vector<AppBundle>& bundles, const ClassEnv& lib_env) {
  VerifyTotals totals;
  Bytes all_certs;
  for (const AppBundle& bundle : bundles) {
    MapClassEnv bundle_env;
    for (const ClassFile& cls : bundle.classes) {
      bundle_env.Add(&cls);
    }
    ChainedClassEnv env(&bundle_env, &lib_env);
    for (const ClassFile& cls : bundle.classes) {
      ClassCertificate cert;
      auto verified = VerifyClass(cls, env, &cert);
      EXPECT_TRUE(verified.ok()) << cls.name();
      if (!verified.ok()) {
        continue;
      }
      totals.classes++;
      totals.phase1 += verified->stats.phase1_checks;
      totals.phase2 += verified->stats.phase2_checks;
      totals.phase3 += verified->stats.phase3_checks;
      Bytes wire = SerializeCertificate(cert);
      all_certs.insert(all_certs.end(), wire.begin(), wire.end());
      ValidateStats stats;
      EXPECT_TRUE(ValidateCertificate(cls, env, cert, &stats).ok()) << cls.name();
      totals.validate_checks += stats.validate_checks;
    }
  }
  totals.cert_fnv = Fnv1a(all_certs.data(), all_certs.size());
  return totals;
}

// Golden values recorded before the verifier's data layout was made dense
// (opcode table, pc maps, interned frame types). A change to the fixpoint's
// visit order, to any Check(), or to certificate bytes fails here.
TEST_F(CertificateTest, VirtualClockInputsArePinned) {
  EXPECT_EQ(VerifyBundles(BuildFig5Apps(1), lib_env_),
            (VerifyTotals{400, 32156, 987819, 1620059, 1646862, 0xd5b834dc75accb63}));
  EXPECT_EQ(VerifyBundles(BuildAppletPopulation(6, 1), lib_env_),
            (VerifyTotals{23, 414, 359805, 599400, 599668, 0x678c88242bd6082c}));
}

// Verdicts and error strings over the fuzz corpus are pinned the same way:
// FNV-1a over "<file>:<verdict>\n" lines in file-name order.
TEST_F(CertificateTest, CorpusVerdictsArePinned) {
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(DVM_CORPUS_DIR)) {
    if (entry.is_regular_file()) {
      files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());
  std::string verdicts;
  for (const auto& path : files) {
    auto parsed = ReadClassFile(ReadFileBytes(path));
    if (!parsed.ok()) {
      continue;
    }
    MapClassEnv self;
    self.Add(&parsed.value());
    ChainedClassEnv env(&self, &lib_env_);
    auto verified = VerifyClass(parsed.value(), env);
    verdicts += path.filename().string() + ":" +
                (verified.ok() ? std::string("ok") : verified.error().ToString()) + "\n";
  }
  EXPECT_EQ(Fnv1a(verdicts), 0xc3871323d54643faULL) << verdicts;
}

// An asserted frame becomes the in-frame wherever no fall-through edge
// reaches it, before any edge has been checked against it. Here the block
// after the leading `goto` is reached only by a later backward branch, and
// its asserted frame is stripped of the method's one local: the
// `iload 0` / `istore 0` stepped from it must not index past the frame.
TEST_F(CertificateTest, AssertionMissingLocalsIsRejected) {
  ClassBuilder cb("app/Narrow", "java/lang/Object");
  MethodBuilder& m = cb.AddMethod(AccessFlags::kPublic | AccessFlags::kStatic, "f", "(I)I");
  Label body = m.NewLabel();
  Label test = m.NewLabel();
  m.Branch(Op::kGoto, test);
  m.Bind(body).LoadLocal("I", 0).StoreLocal("I", 0).LoadLocal("I", 0).Emit(Op::kIreturn);
  m.Bind(test).LoadLocal("I", 0).Branch(Op::kIfeq, body);
  m.PushInt(1).Emit(Op::kIreturn);
  ClassFile cls = cb.Build().value();
  MapClassEnv self;
  self.Add(&cls);
  ChainedClassEnv env(&self, &lib_env_);
  ClassCertificate cert;
  ASSERT_TRUE(VerifyClass(cls, env, &cert).ok());

  MethodCertificate* f = nullptr;
  for (MethodCertificate& method : cert.methods) {
    if (method.method_id == "f:(I)I") {
      f = &method;
    }
  }
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(f->assertions.size(), 2u);
  ASSERT_EQ(f->assertions[0].index, 1u);  // the block after the goto
  f->assertions[0].frame.locals.clear();
  ValidateStats stats;
  auto validated = ValidateCertificate(cls, env, cert, &stats);
  ASSERT_FALSE(validated.ok());
  EXPECT_NE(validated.error().message.find("locals"), std::string::npos)
      << validated.error().message;
}

// Systematic single-field tampering: every struct-level mutation of the
// certificate must flip the validator to reject.
TEST_F(CertificateTest, EverySingleFieldMutationIsRejected) {
  ClassFile cls = BranchyApp();
  MapClassEnv self;
  self.Add(&cls);
  ChainedClassEnv env(&self, &lib_env_);
  ClassCertificate cert;
  ASSERT_TRUE(VerifyClass(cls, env, &cert).ok());

  auto rejects = [&](const ClassCertificate& mutated, const std::string& what) {
    ValidateStats stats;
    EXPECT_FALSE(ValidateCertificate(cls, env, mutated, &stats).ok()) << what;
  };

  {
    ClassCertificate m = cert;
    m.class_name += "X";
    rejects(m, "class_name");
  }
  for (size_t mi = 0; mi < cert.methods.size(); mi++) {
    {
      ClassCertificate m = cert;
      m.methods[mi].method_id += "X";
      rejects(m, "method_id");
    }
    for (size_t ai = 0; ai < cert.methods[mi].assertions.size(); ai++) {
      const std::string where =
          cert.methods[mi].method_id + " assertion " + std::to_string(ai);
      {
        ClassCertificate m = cert;
        m.methods[mi].assertions[ai].index += 1;
        rejects(m, where + " index");
      }
      {
        ClassCertificate m = cert;
        m.methods[mi].assertions.erase(m.methods[mi].assertions.begin() +
                                       static_cast<long>(ai));
        rejects(m, where + " dropped");
      }
      Frame& frame = cert.methods[mi].assertions[ai].frame;
      for (size_t li = 0; li < frame.locals.size(); li++) {
        if (frame.locals[li] == VType::Top()) {
          continue;  // already the widest element; Top -> Top is no mutation
        }
        ClassCertificate m = cert;
        m.methods[mi].assertions[ai].frame.locals[li] = VType::Top();
        rejects(m, where + " local " + std::to_string(li) + " widened");
      }
      for (size_t si = 0; si < frame.stack.size(); si++) {
        ClassCertificate m = cert;
        m.methods[mi].assertions[ai].frame.stack[si] =
            frame.stack[si] == VType::Int() ? VType::Long() : VType::Int();
        rejects(m, where + " stack " + std::to_string(si) + " retyped");
      }
      {
        ClassCertificate m = cert;
        m.methods[mi].assertions[ai].frame.stack.push_back(VType::Int());
        rejects(m, where + " stack deepened");
      }
    }
  }
  ASSERT_FALSE(cert.assumptions.empty());
  for (size_t i = 0; i < cert.assumptions.size(); i++) {
    {
      ClassCertificate m = cert;
      m.assumptions[i].target_class += "X";
      rejects(m, "assumption " + std::to_string(i) + " retargeted");
    }
    {
      ClassCertificate m = cert;
      m.assumptions.erase(m.assumptions.begin() + static_cast<long>(i));
      rejects(m, "assumption " + std::to_string(i) + " dropped");
    }
  }
  {
    ClassCertificate m = cert;
    m.assumptions.push_back(m.assumptions.front());
    rejects(m, "assumption duplicated");
  }
}

// Byte-level adversary: flip one bit at every position. Whatever still parses
// and differs in content must fail validation.
TEST_F(CertificateTest, EveryParsingBitFlipIsRejected) {
  ClassFile cls = BranchyApp();
  MapClassEnv self;
  self.Add(&cls);
  ChainedClassEnv env(&self, &lib_env_);
  ClassCertificate cert;
  ASSERT_TRUE(VerifyClass(cls, env, &cert).ok());
  Bytes wire = SerializeCertificate(cert);

  size_t parsed_mutants = 0;
  for (size_t pos = 0; pos < wire.size(); pos++) {
    for (int bit = 0; bit < 8; bit++) {
      Bytes mutant = wire;
      mutant[pos] ^= static_cast<uint8_t>(1u << bit);
      auto reparsed = ParseCertificate(mutant);
      if (!reparsed.ok()) {
        continue;  // rejected at parse: fail-closed
      }
      if (reparsed.value() == cert) {
        continue;  // cannot happen with a canonical encoding, but be safe
      }
      parsed_mutants++;
      ValidateStats stats;
      EXPECT_FALSE(ValidateCertificate(cls, env, reparsed.value(), &stats).ok())
          << "bit " << bit << " at byte " << pos << " accepted";
    }
  }
  EXPECT_GT(parsed_mutants, 0u) << "flip battery never produced a parseable mutant";
}

// ---------------------------------------------------------------------------
// Replication path: rejoin validates, never re-verifies; tampering is dropped.
// ---------------------------------------------------------------------------

ClassFile TrivialApp(const std::string& name) {
  ClassBuilder cb(name, "java/lang/Object");
  MethodBuilder& m = cb.AddMethod(AccessFlags::kPublic | AccessFlags::kStatic, "main", "()V");
  m.PushString("ran").InvokeStatic("java/lang/System", "println", "(Ljava/lang/String;)V");
  m.Emit(Op::kReturn);
  return cb.Build().value();
}

class CertificateReplicationTest : public ::testing::Test {
 protected:
  CertificateReplicationTest() : library_(BuildSystemLibrary()) {
    InstallSystemLibrary(origin_);
    for (int i = 0; i < 3; i++) {
      origin_.AddClassFile(TrivialApp("app/C" + std::to_string(i)));
    }
    for (const auto& cls : library_) {
      env_.Add(&cls);
    }
    cluster_ = std::make_unique<ProxyCluster>(3, ProxyConfig{}, &env_, &origin_);
    for (size_t i = 0; i < cluster_->size(); i++) {
      cluster_->replica(i).AddFilter(std::make_unique<VerificationFilter>());
    }
  }

  MapClassProvider origin_;
  std::vector<ClassFile> library_;
  MapClassEnv env_;
  std::unique_ptr<ProxyCluster> cluster_;
};

TEST_F(CertificateReplicationTest, RejoinValidatesInsteadOfReverifying) {
  FaultPlan plan;
  plan.seed = 7;
  plan.replica_outages[2].push_back({0, 10 * kSecond});
  FaultInjector injector(plan);
  cluster_->SetFaultInjector(&injector);
  cluster_->EnableReplication();
  ReplicationCoordinator* repl = cluster_->replication();

  for (int i = 0; i < 3; i++) {
    const std::string name = "app/C" + std::to_string(i);
    ASSERT_TRUE(cluster_->replica(0).HandleRequest(name).ok());
    ASSERT_TRUE(repl->ReplicateArtifact(0, name, "", (i + 1) * kMillisecond).committed);
  }
  // The rewriting replica emitted a proof per artifact; every pushed record
  // carries it (the commit-log digest now covers certificate bytes too).
  EXPECT_EQ(cluster_->replica(0).stats().Value("proxy.cert_emits"), 3u);
  EXPECT_EQ(cluster_->replica(0).stats().Value("proxy.cert_emit_failures"), 0u);
  for (const CommitRecord& record : repl->cluster_log().records()) {
    EXPECT_FALSE(record.certificate.empty());
  }
  // The live peer validated each push as it applied it.
  EXPECT_EQ(cluster_->replica(1).stats().Value("proxy.cert_validations"), 3u);
  EXPECT_EQ(cluster_->replica(1).stats().Value("proxy.cert_rejects"), 0u);

  // The rejoining replica catches up by one-pass validation: no pipeline run,
  // no phase-3 fixpoint, every install proof-checked.
  size_t replayed = repl->Rejoin(2, 11 * kSecond);
  EXPECT_EQ(replayed, 3u);
  const StatsRegistry& stats = cluster_->replica(2).stats();
  EXPECT_EQ(stats.Value("proxy.rewrites"), 0u);
  EXPECT_EQ(stats.Value("proxy.cert_validations"), 3u);
  EXPECT_EQ(stats.Value("proxy.cert_rejects"), 0u);
  EXPECT_EQ(stats.Value("proxy.cert_missing"), 0u);
  EXPECT_GT(stats.Value("proxy.cert_validate_checks"), 0u);
  EXPECT_EQ(cluster_->replica(2).replicated_installs(), 3u);
  // Deterministic fleet-wide: the live peer (push path) and the rejoiner
  // (replay path) spend identical validation work on identical artifacts.
  // (The validator-beats-fixpoint cost claim is bench_replication's gate,
  // measured on branchy workloads where the fixpoint revisits instructions.)
  EXPECT_EQ(stats.Value("proxy.cert_validate_checks"),
            cluster_->replica(1).stats().Value("proxy.cert_validate_checks"));
  EXPECT_EQ(repl->replica_log(2).Digest(), repl->cluster_log().Digest());

  // Byte-identical convergence survived the proof gate.
  for (int i = 0; i < 3; i++) {
    const std::string key = DvmProxy::RewriteCacheKey("app/C" + std::to_string(i), "");
    auto a = cluster_->replica(0).cache().Peek(key);
    auto b = cluster_->replica(2).cache().Peek(key);
    ASSERT_TRUE(a.has_value());
    ASSERT_TRUE(b.has_value());
    EXPECT_EQ(a->main_class, b->main_class);
    EXPECT_EQ(a->certificate, b->certificate);
  }
}

TEST_F(CertificateReplicationTest, TamperedPushIsDroppedFailClosed) {
  ASSERT_TRUE(cluster_->replica(0).HandleRequest("app/C0").ok());
  const std::string key = DvmProxy::RewriteCacheKey("app/C0", "");
  auto cached = cluster_->replica(0).cache().Peek(key);
  ASSERT_TRUE(cached.has_value());
  ASSERT_FALSE(cached->certificate.empty());

  CommitRecord record;
  record.type = CommitRecordType::kArtifact;
  record.cache_key = key;
  record.class_name = "app/C0";
  record.main_class = cached->main_class;
  record.extra_classes = cached->extra_classes;

  // Certificate tampered: flip a payload byte past the magic/name header.
  record.certificate = cached->certificate;
  record.certificate[record.certificate.size() / 2] ^= 0x01;
  cluster_->replica(1).ApplyCommitRecord(record);
  EXPECT_EQ(cluster_->replica(1).stats().Value("proxy.cert_rejects"), 1u);
  EXPECT_EQ(cluster_->replica(1).replicated_installs(), 0u);
  EXPECT_FALSE(cluster_->replica(1).cache().Peek(key).has_value());

  // Bytes tampered under an honest certificate: the artifact no longer
  // parses, so the proof cannot be checked against it and the install is
  // refused fail-closed.
  record.certificate = cached->certificate;
  record.main_class = cached->main_class;
  record.main_class.pop_back();
  cluster_->replica(1).ApplyCommitRecord(record);
  EXPECT_EQ(cluster_->replica(1).stats().Value("proxy.cert_rejects"), 2u);
  EXPECT_EQ(cluster_->replica(1).replicated_installs(), 0u);
  EXPECT_FALSE(cluster_->replica(1).cache().Peek(key).has_value());

  // The honest record still installs.
  record.main_class = cached->main_class;
  cluster_->replica(1).ApplyCommitRecord(record);
  EXPECT_EQ(cluster_->replica(1).stats().Value("proxy.cert_validations"), 1u);
  EXPECT_EQ(cluster_->replica(1).replicated_installs(), 1u);
  EXPECT_TRUE(cluster_->replica(1).cache().Peek(key).has_value());

  // A certificate-less record keeps the legacy trusted-install path.
  record.certificate.clear();
  record.cache_key = DvmProxy::RewriteCacheKey("app/C1", "");
  record.class_name = "app/C1";
  cluster_->replica(1).ApplyCommitRecord(record);
  EXPECT_EQ(cluster_->replica(1).stats().Value("proxy.cert_missing"), 1u);
  EXPECT_EQ(cluster_->replica(1).replicated_installs(), 2u);
}

}  // namespace
}  // namespace dvm
