/**
 * @file
 * Output checks of the end-to-end benchmark.
 *
 * Each check compares the program's output with a computation made
 * here, apart from the library's kernels, or with a property the
 * method must have (batching does not change results, training with
 * one seed is reproducible, losses stay finite and fall). The
 * references are plain loops that accumulate in double; they share no
 * code with the GEMM engine or the convolution lowering they check.
 */
#ifndef PERFBENCH_CHECKS_H
#define PERFBENCH_CHECKS_H

#include <cstdint>
#include <string>
#include <vector>

#include "tensor/tensor.h"

namespace perfbench {

/** Outcome of one check; `detail` says what differed. */
struct CheckResult {
    bool ok = true;
    std::string detail;
};

/**
 * Tolerance of the kernel checks: an element may differ from the
 * double-accumulated reference by this share of the sum of the
 * absolute products that make it up. Float32 accumulation over k
 * terms errs by at most k * 2^-24 of that sum; k stays below 600 in
 * the checked nodes, so 1e-4 bounds honest rounding and nothing more.
 */
inline constexpr double kKernelRelTol = 1e-4;

/**
 * Checks @p out against a naive product of @p a and @p b (rank 2,
 * float32, each optionally transposed, as the MatMul node's
 * transpose_a/transpose_b attrs say).
 */
CheckResult CheckMatMul(const fathom::Tensor& a, const fathom::Tensor& b,
                        bool transpose_a, bool transpose_b,
                        const fathom::Tensor& out,
                        double rel_tol = kKernelRelTol);

/**
 * Checks @p out against a naive NHWC convolution of @p input with
 * @p filter ([kh, kw, c, oc]) at @p stride, with TensorFlow's "SAME"
 * or "VALID" @p padding.
 */
CheckResult CheckConv2D(const fathom::Tensor& input,
                        const fathom::Tensor& filter, std::int64_t stride,
                        const std::string& padding, const fathom::Tensor& out,
                        double rel_tol = kKernelRelTol);

/** Checks that @p got equals @p want bit for bit (dtype, shape, bytes). */
CheckResult CheckBitIdentical(const std::vector<fathom::Tensor>& got,
                              const std::vector<fathom::Tensor>& want);

/** Checks that every value of @p losses is finite. */
CheckResult CheckFinite(const std::vector<float>& losses);

/** Checks that mean loss @p last is below mean loss @p first. */
CheckResult CheckLossFell(double first, double last);

/** Checks that @p got repeats @p want bit for bit. */
CheckResult CheckSameLosses(const std::vector<float>& got,
                            const std::vector<float>& want);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H
