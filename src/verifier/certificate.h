// Proof-carrying verification certificates (ROADMAP: "certificates instead of
// re-checking"). The proxy that rewrites a class runs the full phase-3
// fixpoint once and emits the typestate frame at every merge point; a replica
// receiving the artifact re-checks it against the certificate in ONE forward
// pass — no worklist, no frame merging into a fixpoint — and gets the same
// accept/reject verdict and the same link-time assumptions the full verifier
// would produce.
//
// Validation is fail-closed and exact:
//   * every control-flow edge's frame must fit (⊑) the asserted frame at its
//     target, so the certificate is a sound proof outline;
//   * the join of the edges flowing into each assertion must EQUAL the
//     asserted frame, so a tampered certificate that widens (or narrows, or
//     invents) an assertion is rejected even though a wider frame would still
//     be sound — byte-identical verdicts require the true fixpoint;
//   * the assumptions derived while stepping must equal the certificate's
//     list, so phase-4 dynamic checks are unchanged.
#ifndef SRC_VERIFIER_CERTIFICATE_H_
#define SRC_VERIFIER_CERTIFICATE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/support/bytes.h"
#include "src/support/result.h"
#include "src/verifier/assumptions.h"
#include "src/verifier/class_env.h"
#include "src/verifier/typestate.h"
#include "src/verifier/verifier.h"

namespace dvm {

// The typestate frame the fixpoint computed on entry to one merge point.
struct FrameAssertion {
  uint32_t index = 0;  // instruction index (not byte offset)
  Frame frame;
};

// Assertions for one code-bearing method, indices strictly increasing.
struct MethodCertificate {
  std::string method_id;
  std::vector<FrameAssertion> assertions;
};

struct ClassCertificate {
  std::string class_name;
  // One entry per code-bearing method, in declaration order.
  std::vector<MethodCertificate> methods;
  // The class's deduplicated link-time assumptions (phase-4 work), exactly as
  // VerifyClass reports them.
  std::vector<Assumption> assumptions;
  // Names of the reference types in the frames above.
  TypeNames names;
};

// Equal canonical encodings: frames compare by the names their types carry,
// whatever order their name tables hold them in.
bool operator==(const ClassCertificate& a, const ClassCertificate& b);

// Canonical big-endian encoding: serialize ∘ parse is the identity on valid
// certificate bytes, and parse rejects anything serialize cannot produce
// (trailing bytes, out-of-range type kinds, non-monotonic assertion indices,
// stray name/site payloads on kinds that carry none).
Bytes SerializeCertificate(const ClassCertificate& cert);
Result<ClassCertificate> ParseCertificate(const Bytes& data);

// Work accounting for the one-pass validator. Phases 1-2 still run (they are
// linear and cheap); `verify.phase3_checks` stays untouched — the whole point
// — and `validate_checks` counts the per-edge fit checks plus the shared
// transfer function's work.
struct ValidateStats {
  VerifyStats verify;  // phase 1 + 2 only
  uint64_t validate_checks = 0;
  uint64_t instructions_validated = 0;

  uint64_t TotalChecks() const {
    return verify.phase1_checks + verify.phase2_checks + validate_checks;
  }
};

// Checks `cls` against `cert` in a single forward pass per method. Ok() means
// the class is exactly as safe as the full verifier would find it, with
// cert.assumptions as its phase-4 obligations. Any mismatch — a frame that
// does not fit, an assertion that is not the exact join of its incoming
// edges, an unreachable or missing assertion, an assumption-list difference —
// is a verification failure.
Status ValidateCertificate(const ClassFile& cls, const ClassEnv& env,
                           const ClassCertificate& cert, ValidateStats* stats);

}  // namespace dvm

#endif  // SRC_VERIFIER_CERTIFICATE_H_
