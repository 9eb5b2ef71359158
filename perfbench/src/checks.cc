#include "checks.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>

namespace perfbench {
namespace {

using fathom::DType;
using fathom::Tensor;

/** @return the tensor's bytes, whatever its element type. */
const void*
Bytes(const Tensor& t)
{
    if (t.dtype() == DType::kInt32) {
        return t.data<std::int32_t>();
    }
    return t.data<float>();
}

CheckResult
Fail(const std::string& detail)
{
    return {false, detail};
}

/**
 * Compares @p out element by element with @p ref, each element
 * allowed @p rel_tol of its absolute-product sum @p mag.
 */
CheckResult
CompareToReference(const Tensor& out, const std::vector<double>& ref,
                   const std::vector<double>& mag, double rel_tol,
                   const std::string& what)
{
    if (out.dtype() != DType::kFloat32 ||
        out.num_elements() != static_cast<std::int64_t>(ref.size())) {
        return Fail(what + ": output has shape " + out.shape().ToString() +
                    ", reference has " + std::to_string(ref.size()) +
                    " elements");
    }
    const float* got = out.data<float>();
    for (std::size_t i = 0; i < ref.size(); ++i) {
        const double err = std::fabs(static_cast<double>(got[i]) - ref[i]);
        // Written so that a NaN output fails.
        if (!(err <= rel_tol * mag[i])) {
            std::ostringstream os;
            os << what << ": element " << i << " is " << got[i]
               << ", reference " << ref[i] << " (allowed error "
               << rel_tol * mag[i] << ")";
            return Fail(os.str());
        }
    }
    return {};
}

}  // namespace

CheckResult
CheckMatMul(const Tensor& a, const Tensor& b, bool transpose_a,
            bool transpose_b, const Tensor& out, double rel_tol)
{
    if (a.shape().rank() != 2 || b.shape().rank() != 2 ||
        a.dtype() != DType::kFloat32 || b.dtype() != DType::kFloat32) {
        return Fail("MatMul: inputs must be rank-2 float32, got " +
                    a.shape().ToString() + " and " + b.shape().ToString());
    }
    const std::int64_t m = transpose_a ? a.shape().dim(1) : a.shape().dim(0);
    const std::int64_t k = transpose_a ? a.shape().dim(0) : a.shape().dim(1);
    const std::int64_t kb = transpose_b ? b.shape().dim(1) : b.shape().dim(0);
    const std::int64_t n = transpose_b ? b.shape().dim(0) : b.shape().dim(1);
    if (k != kb) {
        return Fail("MatMul: inner dimensions differ: " +
                    a.shape().ToString() + " x " + b.shape().ToString());
    }
    if (out.shape().rank() != 2 || out.shape().dim(0) != m ||
        out.shape().dim(1) != n) {
        return Fail("MatMul: output shape " + out.shape().ToString() +
                    " is not [" + std::to_string(m) + ", " +
                    std::to_string(n) + "]");
    }
    const float* pa = a.data<float>();
    const float* pb = b.data<float>();
    const std::int64_t lda = a.shape().dim(1);
    const std::int64_t ldb = b.shape().dim(1);
    std::vector<double> ref(static_cast<std::size_t>(m * n));
    std::vector<double> mag(ref.size());
    for (std::int64_t i = 0; i < m; ++i) {
        for (std::int64_t j = 0; j < n; ++j) {
            double sum = 0.0;
            double abs_sum = 0.0;
            for (std::int64_t p = 0; p < k; ++p) {
                const double x = transpose_a ? pa[p * lda + i] : pa[i * lda + p];
                const double y = transpose_b ? pb[j * ldb + p] : pb[p * ldb + j];
                sum += x * y;
                abs_sum += std::fabs(x * y);
            }
            ref[static_cast<std::size_t>(i * n + j)] = sum;
            mag[static_cast<std::size_t>(i * n + j)] = abs_sum;
        }
    }
    return CompareToReference(out, ref, mag, rel_tol, "MatMul");
}

CheckResult
CheckConv2D(const Tensor& input, const Tensor& filter, std::int64_t stride,
            const std::string& padding, const Tensor& out, double rel_tol)
{
    if (input.shape().rank() != 4 || filter.shape().rank() != 4 ||
        input.shape().dim(3) != filter.shape().dim(2) || stride < 1) {
        return Fail("Conv2D: bad operands " + input.shape().ToString() +
                    " * " + filter.shape().ToString());
    }
    if (padding != "SAME" && padding != "VALID") {
        return Fail("Conv2D: unknown padding '" + padding + "'");
    }
    const std::int64_t n = input.shape().dim(0);
    const std::int64_t h = input.shape().dim(1);
    const std::int64_t w = input.shape().dim(2);
    const std::int64_t c = input.shape().dim(3);
    const std::int64_t kh = filter.shape().dim(0);
    const std::int64_t kw = filter.shape().dim(1);
    const std::int64_t oc = filter.shape().dim(3);
    std::int64_t oh = 0, ow = 0, pad_top = 0, pad_left = 0;
    if (padding == "SAME") {
        // TensorFlow's rule: output ceil(in / stride); the total
        // padding is split with the odd row/column at the bottom/right.
        oh = (h + stride - 1) / stride;
        ow = (w + stride - 1) / stride;
        pad_top = std::max<std::int64_t>((oh - 1) * stride + kh - h, 0) / 2;
        pad_left = std::max<std::int64_t>((ow - 1) * stride + kw - w, 0) / 2;
    } else {
        oh = (h - kh) / stride + 1;
        ow = (w - kw) / stride + 1;
    }
    if (out.shape().rank() != 4 || out.shape().dim(0) != n ||
        out.shape().dim(1) != oh || out.shape().dim(2) != ow ||
        out.shape().dim(3) != oc) {
        return Fail("Conv2D: output shape " + out.shape().ToString() +
                    " does not match the convolution geometry");
    }
    const float* x = input.data<float>();
    const float* f = filter.data<float>();
    std::vector<double> ref(static_cast<std::size_t>(n * oh * ow * oc));
    std::vector<double> mag(ref.size());
    std::size_t o = 0;
    for (std::int64_t b = 0; b < n; ++b) {
        for (std::int64_t y = 0; y < oh; ++y) {
            for (std::int64_t xo = 0; xo < ow; ++xo) {
                for (std::int64_t q = 0; q < oc; ++q, ++o) {
                    double sum = 0.0;
                    double abs_sum = 0.0;
                    for (std::int64_t dy = 0; dy < kh; ++dy) {
                        const std::int64_t iy = y * stride + dy - pad_top;
                        if (iy < 0 || iy >= h) {
                            continue;
                        }
                        for (std::int64_t dx = 0; dx < kw; ++dx) {
                            const std::int64_t ix = xo * stride + dx - pad_left;
                            if (ix < 0 || ix >= w) {
                                continue;
                            }
                            for (std::int64_t ci = 0; ci < c; ++ci) {
                                const double v =
                                    static_cast<double>(
                                        x[((b * h + iy) * w + ix) * c + ci]) *
                                    f[((dy * kw + dx) * c + ci) * oc + q];
                                sum += v;
                                abs_sum += std::fabs(v);
                            }
                        }
                    }
                    ref[o] = sum;
                    mag[o] = abs_sum;
                }
            }
        }
    }
    return CompareToReference(out, ref, mag, rel_tol, "Conv2D");
}

CheckResult
CheckBitIdentical(const std::vector<Tensor>& got,
                  const std::vector<Tensor>& want)
{
    if (got.size() != want.size()) {
        return Fail("response has " + std::to_string(got.size()) +
                    " outputs, expected " + std::to_string(want.size()));
    }
    for (std::size_t i = 0; i < got.size(); ++i) {
        if (got[i].dtype() != want[i].dtype() ||
            got[i].shape() != want[i].shape()) {
            return Fail("output " + std::to_string(i) + " has shape " +
                        got[i].shape().ToString() + ", expected " +
                        want[i].shape().ToString());
        }
        if (std::memcmp(Bytes(got[i]), Bytes(want[i]), got[i].byte_size()) != 0) {
            return Fail("output " + std::to_string(i) +
                        " differs from the unbatched result");
        }
    }
    return {};
}

CheckResult
CheckFinite(const std::vector<float>& losses)
{
    for (std::size_t i = 0; i < losses.size(); ++i) {
        if (!std::isfinite(losses[i])) {
            return Fail("loss " + std::to_string(i) + " is not finite");
        }
    }
    return {};
}

CheckResult
CheckLossFell(double first, double last)
{
    // Written so that a NaN mean fails.
    if (!(last < first)) {
        std::ostringstream os;
        os << "mean loss did not fall: first round " << first
           << ", last round " << last;
        return Fail(os.str());
    }
    return {};
}

CheckResult
CheckSameLosses(const std::vector<float>& got, const std::vector<float>& want)
{
    if (got.size() != want.size() ||
        std::memcmp(got.data(), want.data(), got.size() * sizeof(float)) !=
            0) {
        return Fail("a second instance with the same seed gave other losses");
    }
    return {};
}

}  // namespace perfbench
