/**
 * @file
 * Shared test helpers: tensor comparison and numerical gradient checks.
 */
#ifndef FATHOM_TESTS_TEST_UTIL_H
#define FATHOM_TESTS_TEST_UTIL_H

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "autodiff/gradients.h"
#include "ops/register.h"
#include "runtime/session.h"
#include "tensor/tensor.h"

namespace fathom::test {

/** Asserts elementwise closeness of two float tensors. */
inline void
ExpectTensorNear(const Tensor& expected, const Tensor& actual,
                 float tolerance = 1e-5f)
{
    ASSERT_EQ(expected.shape().dims(), actual.shape().dims())
        << "shape mismatch: " << expected.shape().ToString() << " vs "
        << actual.shape().ToString();
    const float* e = expected.data<float>();
    const float* a = actual.data<float>();
    for (std::int64_t i = 0; i < expected.num_elements(); ++i) {
        ASSERT_NEAR(e[i], a[i], tolerance) << "at flat index " << i;
    }
}

/**
 * Checks the analytic gradient of a graph-defined scalar function
 * against central finite differences.
 *
 * @param build  given a builder and the placeholder edge for x,
 *               returns the scalar loss edge. Must be deterministic.
 * @param x0     the point at which to check.
 * @param tolerance absolute+relative tolerance for the comparison.
 */
inline void
CheckGradient(const std::function<graph::Output(graph::GraphBuilder&,
                                                graph::Output)>& build,
              const Tensor& x0, float tolerance = 2e-2f,
              float delta = 1e-2f)
{
    ops::RegisterStandardOps();
    runtime::Session session(/*seed=*/7);
    auto builder = session.MakeBuilder();
    const graph::Output x = builder.Placeholder("x");
    const graph::Output loss = build(builder, x);
    const auto grads = autodiff::BuildGradients(builder, loss, {x});
    ASSERT_EQ(grads.size(), 1u);

    runtime::FeedMap feeds;
    feeds[x.node] = x0;
    const auto analytic = session.Run(feeds, {grads[0], loss});
    const Tensor& analytic_grad = analytic[0];
    ASSERT_EQ(analytic_grad.shape().dims(), x0.shape().dims());

    Tensor probe = x0.Clone();
    float* p = probe.data<float>();
    const float* g = analytic_grad.data<float>();
    for (std::int64_t i = 0; i < x0.num_elements(); ++i) {
        const float saved = p[i];
        p[i] = saved + delta;
        feeds[x.node] = probe;
        const float up = session.Run(feeds, {loss})[0].scalar_value();
        p[i] = saved - delta;
        feeds[x.node] = probe;
        const float down = session.Run(feeds, {loss})[0].scalar_value();
        p[i] = saved;
        const float numeric = (up - down) / (2.0f * delta);
        const float tol =
            tolerance * std::max(1.0f, std::fabs(numeric));
        ASSERT_NEAR(g[i], numeric, tol)
            << "gradient mismatch at flat index " << i;
    }
}

/** @return a deterministic pseudo-random float tensor. */
inline Tensor
RandomTensor(const Shape& shape, std::uint64_t seed = 42, float scale = 1.0f)
{
    Rng rng(seed);
    Tensor t(DType::kFloat32, shape);
    rng.FillNormal(&t, 0.0f, scale);
    return t;
}

/** @return the median of @p values (the upper one for an even count). */
inline double
Median(std::vector<double> values)
{
    const auto mid =
        values.begin() + static_cast<std::ptrdiff_t>(values.size() / 2);
    std::nth_element(values.begin(), mid, values.end());
    return *mid;
}

}  // namespace fathom::test

#endif  // FATHOM_TESTS_TEST_UTIL_H
