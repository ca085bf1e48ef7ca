#include "checks.h"

#include <cmath>
#include <cstdio>

#include "tensor/ops.h"

namespace perfbench {

using namespace tbnet;

std::string check_parity(const std::vector<Tensor>& served, const Tensor& reference,
                         double rtol, double atol) {
  if (reference.shape().ndim() != 2 ||
      reference.dim(0) != static_cast<int64_t>(served.size())) {
    return "reference shape " + reference.shape().str() + " does not match " +
           std::to_string(served.size()) + " served rows";
  }
  const int64_t classes = reference.dim(1);
  const std::vector<int64_t> want_label = argmax_rows(reference);
  for (size_t i = 0; i < served.size(); ++i) {
    const Tensor& row = served[i];
    if (row.numel() != classes) return "row " + std::to_string(i) + " has wrong size";
    int64_t best = 0;
    for (int64_t j = 0; j < classes; ++j) {
      const double got = row.data()[j];
      const double want = reference.data()[static_cast<int64_t>(i) * classes + j];
      if (!(std::fabs(got - want) <= atol + rtol * std::fabs(want))) {
        return "row " + std::to_string(i) + " logit " + std::to_string(j) +
               ": served " + std::to_string(got) + " vs model " +
               std::to_string(want);
      }
      if (row.data()[j] > row.data()[best]) best = j;
    }
    if (best != want_label[i]) {
      return "row " + std::to_string(i) + " argmax " + std::to_string(best) +
             " vs model " + std::to_string(want_label[i]);
    }
  }
  return "";
}

std::string check_accounting(int64_t submits, const runtime::ServingStats& s) {
  const int64_t resolved = s.requests + s.rejected + s.shed + s.expired;
  if (submits != resolved) {
    return std::to_string(submits) + " submits but requests + rejected + shed + "
           "expired = " + std::to_string(resolved);
  }
  return "";
}

std::string check_resolution(int64_t unresolved, const runtime::ServingStats& s) {
  if (unresolved != 0) {
    return std::to_string(unresolved) + " futures unresolved after drain()";
  }
  if (s.engine_errors != 0 || s.integrity_errors != 0) {
    return std::to_string(s.engine_errors) + " engine errors, " +
           std::to_string(s.integrity_errors) + " integrity errors";
  }
  return "";
}

std::string check_no_leak(const std::vector<int64_t>& leaked_bytes) {
  for (size_t i = 0; i < leaked_bytes.size(); ++i) {
    if (leaked_bytes[i] != 0) {
      return "context " + std::to_string(i) + " leaked " +
             std::to_string(leaked_bytes[i]) + " bytes out of the TEE";
    }
  }
  return "";
}

std::string check_protection(const core::PipelineReport& r) {
  if (!r.rollback_applied) return "rollback was not applied";
  if (r.secure_bytes_final >= r.secure_bytes_initial) {
    return "secure branch did not shrink (" + std::to_string(r.secure_bytes_initial) +
           " -> " + std::to_string(r.secure_bytes_final) + " bytes)";
  }
  return "";
}

namespace {

int expect(const char* name, const std::string& good, const std::string& bad) {
  const bool ok = good.empty() && !bad.empty();
  std::printf("selftest %-18s good=%s bad=%s -> %s\n", name,
              good.empty() ? "pass" : good.c_str(),
              bad.empty() ? "pass (INERT)" : "rejected", ok ? "ok" : "FAIL");
  return ok ? 0 : 1;
}

}  // namespace

int run_selftest() {
  int failures = 0;

  const Tensor ref(Shape{2, 3}, {0.5f, -1.0f, 2.0f, 3.0f, 1.0f, -2.0f});
  const std::vector<Tensor> rows = {Tensor(Shape{3}, {0.5f, -1.0f, 2.00001f}),
                                    Tensor(Shape{3}, {3.0f, 1.0f, -2.0f})};
  std::vector<Tensor> perturbed = rows;
  perturbed[1].data()[1] += 1e-3f;  // one reference-sized logit off by 1e-3
  std::vector<Tensor> flipped = rows;
  flipped[0] = Tensor(Shape{3}, {2.0f, -1.0f, 0.5f});
  failures += expect("parity/value", check_parity(rows, ref), check_parity(perturbed, ref));
  failures += expect("parity/argmax", check_parity(rows, ref), check_parity(flipped, ref));

  runtime::ServingStats stats;
  stats.requests = 90;
  stats.rejected = 4;
  stats.shed = 3;
  stats.expired = 3;
  failures += expect("accounting", check_accounting(100, stats),
                     check_accounting(101, stats));

  runtime::ServingStats faulty = stats;
  faulty.engine_errors = 1;
  failures += expect("resolution/futures", check_resolution(0, stats),
                     check_resolution(1, stats));
  failures += expect("resolution/engine", check_resolution(0, stats),
                     check_resolution(0, faulty));

  failures += expect("leak", check_no_leak({0, 0}), check_no_leak({0, 64}));

  core::PipelineReport good;
  good.rollback_applied = true;
  good.secure_bytes_initial = 1000;
  good.secure_bytes_final = 700;
  core::PipelineReport no_rollback = good;
  no_rollback.rollback_applied = false;
  core::PipelineReport no_shrink = good;
  no_shrink.secure_bytes_final = 1000;
  failures += expect("protect/rollback", check_protection(good),
                     check_protection(no_rollback));
  failures += expect("protect/shrink", check_protection(good),
                     check_protection(no_shrink));

  std::printf("selftest: %d failure(s)\n", failures);
  return failures;
}

}  // namespace perfbench
