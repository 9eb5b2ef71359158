/**
 * @file
 * Self-test of the benchmark's output checks: each check passes on the
 * program's true output and fails when handed a perturbed one.
 *
 *   perfbench_selftest    # exit 0 when every case behaves
 */
#include <cmath>
#include <cstdint>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "checks.h"
#include "kernels/conv2d.h"
#include "kernels/matmul.h"
#include "parallel/thread_pool.h"
#include "tensor/rng.h"

namespace {

using namespace fathom;

int failures = 0;

void
Expect(bool pass_wanted, const perfbench::CheckResult& result,
       const std::string& what)
{
    if (result.ok != pass_wanted) {
        ++failures;
        std::cout << "FAIL " << what << ": expected "
                  << (pass_wanted ? "pass" : "failure") << ", got "
                  << (result.ok ? "pass" : result.detail) << "\n";
    } else {
        std::cout << "ok   " << what << "\n";
    }
}

Tensor
Random(const Shape& shape, Rng& rng)
{
    Tensor t(DType::kFloat32, shape);
    for (std::int64_t i = 0; i < t.num_elements(); ++i) {
        t.data<float>()[i] = rng.UniformFloat(-1.0f, 1.0f);
    }
    return t;
}

/** @return a copy of @p t with element @p i scaled by (1 + @p rel). */
Tensor
Perturbed(const Tensor& t, std::int64_t i, float rel)
{
    Tensor copy = t.Clone();
    copy.data<float>()[i] *= 1.0f + rel;
    return copy;
}

/** @return a copy of @p t with element @p i moved by one ulp. */
Tensor
OneUlp(const Tensor& t, std::int64_t i)
{
    Tensor copy = t.Clone();
    float& v = copy.data<float>()[i];
    v = std::nextafter(v, std::numeric_limits<float>::infinity());
    return copy;
}

void
TestMatMul(parallel::ThreadPool& pool, Rng& rng)
{
    for (bool ta : {false, true}) {
        for (bool tb : {false, true}) {
            const std::int64_t m = 7, k = 300, n = 19;
            const Tensor a = Random(ta ? Shape{k, m} : Shape{m, k}, rng);
            const Tensor b = Random(tb ? Shape{n, k} : Shape{k, n}, rng);
            const Tensor out = kernels::MatMul(a, b, ta, tb, pool);
            const std::string tag = std::string("matmul ta=") +
                                    (ta ? "1" : "0") + " tb=" + (tb ? "1" : "0");
            Expect(true, perfbench::CheckMatMul(a, b, ta, tb, out), tag);
            Expect(false,
                   perfbench::CheckMatMul(a, b, ta, tb, Perturbed(out, 25, 0.05f)),
                   tag + " perturbed 5%");
            Tensor nan = out.Clone();
            nan.data<float>()[3] = std::numeric_limits<float>::quiet_NaN();
            Expect(false, perfbench::CheckMatMul(a, b, ta, tb, nan),
                   tag + " NaN element");
        }
    }
}

void
TestConv(parallel::ThreadPool& pool, Rng& rng)
{
    for (const char* padding : {"SAME", "VALID"}) {
        for (std::int64_t stride : {1, 2}) {
            const Tensor input = Random(Shape{2, 9, 8, 16}, rng);
            const Tensor filter = Random(Shape{3, 3, 16, 5}, rng);
            const Tensor out = kernels::Conv2D(
                input, filter, stride,
                std::string(padding) == "SAME" ? kernels::Padding::kSame
                                               : kernels::Padding::kValid,
                pool);
            const std::string tag = std::string("conv2d ") + padding +
                                    " stride " + std::to_string(stride);
            Expect(true,
                   perfbench::CheckConv2D(input, filter, stride, padding, out),
                   tag);
            Expect(false,
                   perfbench::CheckConv2D(input, filter, stride, padding,
                                          Perturbed(out, 11, 0.05f)),
                   tag + " perturbed 5%");
        }
    }
    // The reference's padding rule is its own: the wrong rule fails.
    const Tensor input = Random(Shape{1, 8, 8, 4}, rng);
    const Tensor filter = Random(Shape{3, 3, 4, 2}, rng);
    const Tensor same = kernels::Conv2D(input, filter, 1,
                                        kernels::Padding::kSame, pool);
    Expect(false, perfbench::CheckConv2D(input, filter, 1, "VALID", same),
           "conv2d SAME output checked as VALID");
}

void
TestServingAndLosses(Rng& rng)
{
    const Tensor logits = Random(Shape{1, 40}, rng);
    Tensor ids(DType::kInt32, Shape{1, 3});
    for (int i = 0; i < 3; ++i) {
        ids.data<std::int32_t>()[i] = i * 7;
    }
    Expect(true,
           perfbench::CheckBitIdentical({logits.Clone(), ids.Clone()},
                                        {logits, ids}),
           "serving identical");
    Expect(false,
           perfbench::CheckBitIdentical({OneUlp(logits, 17), ids}, {logits, ids}),
           "serving one ulp off");
    Tensor other_ids = ids.Clone();
    other_ids.data<std::int32_t>()[2] += 1;
    Expect(false,
           perfbench::CheckBitIdentical({logits, other_ids}, {logits, ids}),
           "serving other prediction");
    Expect(false, perfbench::CheckBitIdentical({logits}, {logits, ids}),
           "serving missing output");

    const std::vector<float> losses = {4.85f, 4.1f, 3.35f};
    Expect(true, perfbench::CheckFinite(losses), "losses finite");
    Expect(false,
           perfbench::CheckFinite(
               {4.85f, std::numeric_limits<float>::quiet_NaN(), 3.35f}),
           "loss NaN");
    Expect(false,
           perfbench::CheckFinite({std::numeric_limits<float>::infinity()}),
           "loss infinite");
    Expect(true, perfbench::CheckLossFell(4.85, 3.35), "loss fell");
    Expect(false, perfbench::CheckLossFell(4.85, 4.85), "loss flat");
    Expect(false,
           perfbench::CheckLossFell(4.85,
                                    std::numeric_limits<double>::quiet_NaN()),
           "loss NaN mean");
    std::vector<float> drifted = losses;
    drifted[1] = std::nextafter(drifted[1], 0.0f);
    Expect(true, perfbench::CheckSameLosses(losses, losses), "same-seed losses");
    Expect(false, perfbench::CheckSameLosses(drifted, losses),
           "same-seed losses one ulp off");
}

}  // namespace

int
main()
{
    parallel::ThreadPool pool(1);
    Rng rng(7);
    TestMatMul(pool, rng);
    TestConv(pool, rng);
    TestServingAndLosses(rng);
    std::cout << (failures == 0 ? "all checks behave\n" : "FAILURES\n");
    return failures == 0 ? 0 : 1;
}
