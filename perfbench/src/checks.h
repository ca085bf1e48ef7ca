#pragma once
// Output checks of the benchmark. Each returns an empty string when the
// check passes and a description of the first violation otherwise; a run
// with any violation reports "correct": false and exits non-zero.
// run_selftest() feeds every check one good and one bad input, so no check
// can be inert.

#include <cstdint>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "runtime/measurements.h"
#include "tensor/tensor.h"

namespace perfbench {

/// Served logits rows vs the in-process reference [n, classes]: every value
/// within atol + rtol * |ref| (the repo's engine-vs-model parity tolerance)
/// and equal argmax per row.
std::string check_parity(const std::vector<tbnet::Tensor>& served,
                         const tbnet::Tensor& reference, double rtol = 1e-4,
                         double atol = 1e-5);

/// submits == requests + rejected + shed + expired, exactly.
std::string check_accounting(int64_t submits,
                             const tbnet::runtime::ServingStats& stats);

/// Every future had resolved once drain() returned, and no batch failed in
/// an engine (a tee::SecurityViolation or any other engine fault surfaces
/// as kEngineError / kIntegrityError).
std::string check_resolution(int64_t unresolved,
                             const tbnet::runtime::ServingStats& stats);

/// Bytes that left the TEE in plaintext, one entry per TeeContext: all 0.
std::string check_no_leak(const std::vector<int64_t>& leaked_bytes);

/// The protection pipeline rolled M_R back and shrank the secure branch.
std::string check_protection(const tbnet::core::PipelineReport& report);

/// Runs every check on a good and a perturbed input; returns the number of
/// failures and prints one line per case.
int run_selftest();

}  // namespace perfbench
