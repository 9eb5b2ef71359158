/**
 * @file
 * Unit and property tests for the math kernels, checked against naive
 * reference implementations.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <limits>
#include <tuple>
#include <vector>

#include "kernels/conv2d.h"
#include "kernels/data_movement.h"
#include "kernels/elementwise.h"
#include "kernels/matmul.h"
#include "kernels/normalization.h"
#include "kernels/pooling.h"
#include "kernels/reduction.h"
#include "parallel/thread_pool.h"
#include "tensor/rng.h"
#include "test_util.h"

namespace fathom::kernels {
namespace {

using test::ExpectTensorNear;
using test::RandomTensor;

parallel::ThreadPool&
Pool()
{
    static parallel::ThreadPool pool(1);
    return pool;
}

/** Naive O(mnk) reference matmul. */
Tensor
NaiveMatMul(const Tensor& a, const Tensor& b, bool ta, bool tb)
{
    const std::int64_t m = ta ? a.shape().dim(1) : a.shape().dim(0);
    const std::int64_t k = ta ? a.shape().dim(0) : a.shape().dim(1);
    const std::int64_t n = tb ? b.shape().dim(0) : b.shape().dim(1);
    Tensor c = Tensor::Zeros(Shape{m, n});
    auto a_at = [&](std::int64_t i, std::int64_t kk) {
        return ta ? a.data<float>()[kk * m + i] : a.data<float>()[i * k + kk];
    };
    auto b_at = [&](std::int64_t kk, std::int64_t j) {
        return tb ? b.data<float>()[j * k + kk] : b.data<float>()[kk * n + j];
    };
    for (std::int64_t i = 0; i < m; ++i) {
        for (std::int64_t j = 0; j < n; ++j) {
            float acc = 0.0f;
            for (std::int64_t kk = 0; kk < k; ++kk) {
                acc += a_at(i, kk) * b_at(kk, j);
            }
            c.data<float>()[i * n + j] = acc;
        }
    }
    return c;
}

class MatMulParamTest
    : public ::testing::TestWithParam<std::tuple<int, int, int, bool, bool>> {
};

TEST_P(MatMulParamTest, MatchesNaive)
{
    const auto [m, k, n, ta, tb] = GetParam();
    const Tensor a = RandomTensor(ta ? Shape{k, m} : Shape{m, k}, 1);
    const Tensor b = RandomTensor(tb ? Shape{n, k} : Shape{k, n}, 2);
    ExpectTensorNear(NaiveMatMul(a, b, ta, tb), MatMul(a, b, ta, tb, Pool()),
                     1e-3f);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MatMulParamTest,
    ::testing::Values(std::make_tuple(1, 1, 1, false, false),
                      std::make_tuple(4, 7, 3, false, false),
                      std::make_tuple(4, 7, 3, true, false),
                      std::make_tuple(4, 7, 3, false, true),
                      std::make_tuple(4, 7, 3, true, true),
                      std::make_tuple(16, 16, 16, false, false),
                      std::make_tuple(33, 17, 9, true, true),
                      std::make_tuple(1, 64, 1, false, false),
                      std::make_tuple(64, 1, 64, false, true)));

TEST(MatMulTest, RejectsBadShapes)
{
    const Tensor a = RandomTensor(Shape{2, 3});
    const Tensor b = RandomTensor(Shape{4, 5});
    EXPECT_THROW(MatMul(a, b, false, false, Pool()), std::invalid_argument);
    const Tensor v = RandomTensor(Shape{3});
    EXPECT_THROW(MatMul(v, b, false, false, Pool()), std::invalid_argument);
}

TEST(MatMulTest, ParallelMatchesSerial)
{
    parallel::ThreadPool pool4(4);
    const Tensor a = RandomTensor(Shape{37, 19}, 3);
    const Tensor b = RandomTensor(Shape{19, 23}, 4);
    ExpectTensorNear(MatMul(a, b, false, false, Pool()),
                     MatMul(a, b, false, false, pool4), 1e-4f);
}

// ---- GEMM engine battery --------------------------------------------------
//
// The blocked engine has edge paths (partial 6x16 register tiles, the
// m/n zero-padded panel lanes, multi-KC accumulation) that only fire
// at particular sizes, so the battery sweeps odd, prime, and
// around-the-blocking-constant sizes exhaustively against the naive
// reference. These suites carry the `kernels` ctest label (see
// tests/CMakeLists.txt).

TEST(GemmEngineBattery, ExhaustiveSizesAllTransposeCombos)
{
    // 1..5 hit degenerate tiles, 17/63/65 straddle strip widths, and
    // 97 exercises several partial MC/NR strips at once.
    const std::vector<std::int64_t> sizes = {1, 2, 3, 5, 17, 63, 64, 65, 97};
    std::uint64_t seed = 1000;
    for (const bool ta : {false, true}) {
        for (const bool tb : {false, true}) {
            for (const std::int64_t m : sizes) {
                for (const std::int64_t k : sizes) {
                    for (const std::int64_t n : sizes) {
                        SCOPED_TRACE("m=" + std::to_string(m) +
                                     " k=" + std::to_string(k) +
                                     " n=" + std::to_string(n) +
                                     " ta=" + std::to_string(ta) +
                                     " tb=" + std::to_string(tb));
                        const Tensor a = RandomTensor(
                            ta ? Shape{k, m} : Shape{m, k}, ++seed);
                        const Tensor b = RandomTensor(
                            tb ? Shape{n, k} : Shape{k, n}, ++seed);
                        ExpectTensorNear(NaiveMatMul(a, b, ta, tb),
                                         MatMul(a, b, ta, tb, Pool()),
                                         1e-3f);
                    }
                }
            }
        }
    }
}

TEST(GemmEngineBattery, MultiKcBlockAccumulation)
{
    // k > 256 spans several KC blocks, exercising the accumulate-into-C
    // path; odd m/n keep the edge tiles partial at the same time.
    for (const auto& [m, k, n] : std::vector<std::array<std::int64_t, 3>>{
             {3, 300, 5}, {65, 513, 33}, {97, 769, 17}}) {
        for (const bool ta : {false, true}) {
            for (const bool tb : {false, true}) {
                SCOPED_TRACE("m=" + std::to_string(m) +
                             " k=" + std::to_string(k) +
                             " n=" + std::to_string(n) +
                             " ta=" + std::to_string(ta) +
                             " tb=" + std::to_string(tb));
                const Tensor a =
                    RandomTensor(ta ? Shape{k, m} : Shape{m, k}, m + k);
                const Tensor b =
                    RandomTensor(tb ? Shape{n, k} : Shape{k, n}, k + n);
                ExpectTensorNear(NaiveMatMul(a, b, ta, tb),
                                 MatMul(a, b, ta, tb, Pool()), 5e-3f);
            }
        }
    }
}

TEST(GemmEngineTest, ZeroTimesInfIsNaNNotZero)
{
    // The pre-engine kernel skipped a == 0 operands, silently turning
    // 0 * Inf and 0 * NaN into 0. IEEE says those products are NaN and
    // the engine must propagate them.
    const Tensor a = Tensor::FromVector(Shape{1, 2}, {0.0f, 1.0f});
    Tensor b = Tensor::FromVector(Shape{2, 1}, {0.0f, 2.0f});
    b.data<float>()[0] = std::numeric_limits<float>::infinity();
    const Tensor c = MatMul(a, b, false, false, Pool());
    EXPECT_TRUE(std::isnan(c.data<float>()[0]));

    b.data<float>()[0] = std::numeric_limits<float>::quiet_NaN();
    const Tensor c2 = MatMul(a, b, false, false, Pool());
    EXPECT_TRUE(std::isnan(c2.data<float>()[0]));
}

TEST(GemmEngineTest, NaNPropagatesAcrossKcBlocks)
{
    // Poison one element deep in the second KC block (k index > 256):
    // the accumulate path must carry the NaN through, and rows that
    // never meet the poisoned column must stay finite.
    const std::int64_t m = 4, k = 400, n = 8;
    Tensor a = Tensor::Zeros(Shape{m, k});
    const Tensor b = RandomTensor(Shape{k, n}, 77);
    a.data<float>()[0 * k + 301] = std::numeric_limits<float>::quiet_NaN();
    a.data<float>()[1 * k + 5] = 1.0f;
    const Tensor c = MatMul(a, b, false, false, Pool());
    for (std::int64_t j = 0; j < n; ++j) {
        EXPECT_TRUE(std::isnan(c.data<float>()[0 * n + j])) << j;
        EXPECT_FALSE(std::isnan(c.data<float>()[1 * n + j])) << j;
    }
}

/** Naive reference convolution. */
Tensor
NaiveConv2D(const Tensor& input, const Tensor& filter, std::int64_t stride,
            Padding padding)
{
    const auto g =
        ResolveConv2D(input.shape(), filter.shape(), stride, padding);
    Tensor out = Tensor::Zeros(Shape{g.batch, g.out_h, g.out_w, g.out_c});
    const float* in = input.data<float>();
    const float* w = filter.data<float>();
    float* o = out.data<float>();
    for (std::int64_t n = 0; n < g.batch; ++n) {
        for (std::int64_t oh = 0; oh < g.out_h; ++oh) {
            for (std::int64_t ow = 0; ow < g.out_w; ++ow) {
                for (std::int64_t oc = 0; oc < g.out_c; ++oc) {
                    float acc = 0.0f;
                    for (std::int64_t kh = 0; kh < g.k_h; ++kh) {
                        for (std::int64_t kw = 0; kw < g.k_w; ++kw) {
                            const std::int64_t ih =
                                oh * stride - g.pad_top + kh;
                            const std::int64_t iw =
                                ow * stride - g.pad_left + kw;
                            if (ih < 0 || ih >= g.in_h || iw < 0 ||
                                iw >= g.in_w) {
                                continue;
                            }
                            for (std::int64_t c = 0; c < g.in_c; ++c) {
                                acc += in[((n * g.in_h + ih) * g.in_w + iw) *
                                              g.in_c +
                                          c] *
                                       w[((kh * g.k_w + kw) * g.in_c + c) *
                                             g.out_c +
                                         oc];
                            }
                        }
                    }
                    o[((n * g.out_h + oh) * g.out_w + ow) * g.out_c + oc] =
                        acc;
                }
            }
        }
    }
    return out;
}

class Conv2DParamTest
    : public ::testing::TestWithParam<
          std::tuple<int, int, int, int, int, int, Padding>> {};

TEST_P(Conv2DParamTest, MatchesNaive)
{
    const auto [n, hw, ic, k, oc, stride, padding] = GetParam();
    const Tensor input = RandomTensor(Shape{n, hw, hw, ic}, 5);
    const Tensor filter = RandomTensor(Shape{k, k, ic, oc}, 6, 0.5f);
    ExpectTensorNear(NaiveConv2D(input, filter, stride, padding),
                     Conv2D(input, filter, stride, padding, Pool()), 1e-3f);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, Conv2DParamTest,
    ::testing::Values(
        std::make_tuple(1, 5, 1, 3, 1, 1, Padding::kSame),
        std::make_tuple(2, 8, 3, 3, 4, 1, Padding::kSame),
        std::make_tuple(2, 8, 3, 3, 4, 2, Padding::kSame),
        std::make_tuple(1, 9, 2, 5, 3, 2, Padding::kSame),
        std::make_tuple(2, 8, 3, 3, 4, 1, Padding::kValid),
        std::make_tuple(1, 9, 2, 5, 3, 2, Padding::kValid),
        std::make_tuple(1, 7, 4, 1, 8, 1, Padding::kSame),
        std::make_tuple(3, 6, 2, 3, 2, 3, Padding::kValid)));

TEST(Conv2DTest, GeometrySame)
{
    const auto g = ResolveConv2D(Shape{1, 8, 8, 3}, Shape{3, 3, 3, 16}, 2,
                                 Padding::kSame);
    EXPECT_EQ(g.out_h, 4);
    EXPECT_EQ(g.out_w, 4);
}

TEST(Conv2DTest, GeometryValid)
{
    const auto g = ResolveConv2D(Shape{1, 8, 8, 3}, Shape{3, 3, 3, 16}, 1,
                                 Padding::kValid);
    EXPECT_EQ(g.out_h, 6);
    EXPECT_EQ(g.pad_top, 0);
}

TEST(Conv2DTest, ChannelMismatchThrows)
{
    EXPECT_THROW(ResolveConv2D(Shape{1, 8, 8, 3}, Shape{3, 3, 4, 16}, 1,
                               Padding::kSame),
                 std::invalid_argument);
}

/**
 * Backprop kernels are validated against the definition of the
 * adjoint: <Conv(x, w), g> = <x, ConvBackInput(g)> = <w, ConvBackFilter(g)>.
 */
TEST(Conv2DTest, BackpropInputIsAdjoint)
{
    const Shape in_shape{2, 6, 6, 3};
    const Tensor w = RandomTensor(Shape{3, 3, 3, 4}, 7, 0.5f);
    const Tensor x = RandomTensor(in_shape, 8);
    const Tensor y = Conv2D(x, w, 2, Padding::kSame, Pool());
    const Tensor g = RandomTensor(y.shape(), 9);
    const Tensor gx =
        Conv2DBackpropInput(in_shape, w, g, 2, Padding::kSame, Pool());

    double lhs = 0.0;
    for (std::int64_t i = 0; i < y.num_elements(); ++i) {
        lhs += static_cast<double>(y.data<float>()[i] * g.data<float>()[i]);
    }
    double rhs = 0.0;
    for (std::int64_t i = 0; i < x.num_elements(); ++i) {
        rhs += static_cast<double>(x.data<float>()[i] * gx.data<float>()[i]);
    }
    EXPECT_NEAR(lhs, rhs, 1e-2 * std::max(1.0, std::fabs(lhs)));
}

TEST(Conv2DTest, BackpropFilterIsAdjoint)
{
    const Shape w_shape{3, 3, 3, 4};
    const Tensor w = RandomTensor(w_shape, 10, 0.5f);
    const Tensor x = RandomTensor(Shape{2, 6, 6, 3}, 11);
    const Tensor y = Conv2D(x, w, 1, Padding::kValid, Pool());
    const Tensor g = RandomTensor(y.shape(), 12);
    const Tensor gw =
        Conv2DBackpropFilter(x, w_shape, g, 1, Padding::kValid, Pool());

    double lhs = 0.0;
    for (std::int64_t i = 0; i < y.num_elements(); ++i) {
        lhs += static_cast<double>(y.data<float>()[i] * g.data<float>()[i]);
    }
    double rhs = 0.0;
    for (std::int64_t i = 0; i < w.num_elements(); ++i) {
        rhs += static_cast<double>(w.data<float>()[i] * gw.data<float>()[i]);
    }
    EXPECT_NEAR(lhs, rhs, 1e-2 * std::max(1.0, std::fabs(lhs)));
}

// ---- Conv-via-GEMM battery ------------------------------------------------
//
// Conv2D and both its gradients now lower onto the GEMM engine
// (im2col packing); the direct loop nests live on only here, as the
// trivially-correct references the lowering is checked against.

/** Direct-scatter reference for Conv2DBackpropInput. */
Tensor
NaiveConvBackInput(const Shape& in_shape, const Tensor& filter,
                   const Tensor& grad_out, std::int64_t stride,
                   Padding padding)
{
    const auto g = ResolveConv2D(in_shape, filter.shape(), stride, padding);
    Tensor gin = Tensor::Zeros(in_shape);
    const float* w = filter.data<float>();
    const float* go = grad_out.data<float>();
    float* gi = gin.data<float>();
    for (std::int64_t n = 0; n < g.batch; ++n) {
        for (std::int64_t oh = 0; oh < g.out_h; ++oh) {
            for (std::int64_t ow = 0; ow < g.out_w; ++ow) {
                for (std::int64_t kh = 0; kh < g.k_h; ++kh) {
                    for (std::int64_t kw = 0; kw < g.k_w; ++kw) {
                        const std::int64_t ih = oh * stride - g.pad_top + kh;
                        const std::int64_t iw = ow * stride - g.pad_left + kw;
                        if (ih < 0 || ih >= g.in_h || iw < 0 ||
                            iw >= g.in_w) {
                            continue;
                        }
                        for (std::int64_t c = 0; c < g.in_c; ++c) {
                            for (std::int64_t oc = 0; oc < g.out_c; ++oc) {
                                gi[((n * g.in_h + ih) * g.in_w + iw) *
                                       g.in_c +
                                   c] +=
                                    go[((n * g.out_h + oh) * g.out_w + ow) *
                                           g.out_c +
                                       oc] *
                                    w[((kh * g.k_w + kw) * g.in_c + c) *
                                          g.out_c +
                                      oc];
                            }
                        }
                    }
                }
            }
        }
    }
    return gin;
}

/** Direct-accumulation reference for Conv2DBackpropFilter. */
Tensor
NaiveConvBackFilter(const Tensor& input, const Shape& filter_shape,
                    const Tensor& grad_out, std::int64_t stride,
                    Padding padding)
{
    const auto g = ResolveConv2D(input.shape(), filter_shape, stride,
                                 padding);
    Tensor gw = Tensor::Zeros(filter_shape);
    const float* in = input.data<float>();
    const float* go = grad_out.data<float>();
    float* w = gw.data<float>();
    for (std::int64_t n = 0; n < g.batch; ++n) {
        for (std::int64_t oh = 0; oh < g.out_h; ++oh) {
            for (std::int64_t ow = 0; ow < g.out_w; ++ow) {
                for (std::int64_t kh = 0; kh < g.k_h; ++kh) {
                    for (std::int64_t kw = 0; kw < g.k_w; ++kw) {
                        const std::int64_t ih = oh * stride - g.pad_top + kh;
                        const std::int64_t iw = ow * stride - g.pad_left + kw;
                        if (ih < 0 || ih >= g.in_h || iw < 0 ||
                            iw >= g.in_w) {
                            continue;
                        }
                        for (std::int64_t c = 0; c < g.in_c; ++c) {
                            for (std::int64_t oc = 0; oc < g.out_c; ++oc) {
                                w[((kh * g.k_w + kw) * g.in_c + c) *
                                      g.out_c +
                                  oc] +=
                                    in[((n * g.in_h + ih) * g.in_w + iw) *
                                           g.in_c +
                                       c] *
                                    go[((n * g.out_h + oh) * g.out_w + ow) *
                                           g.out_c +
                                       oc];
                            }
                        }
                    }
                }
            }
        }
    }
    return gw;
}

TEST(ConvLoweringBattery, ForwardAndGradientsMatchDirectReference)
{
    std::uint64_t seed = 5000;
    for (const std::int64_t hw : {5, 8, 9}) {
        for (const std::int64_t ic : {1, 3}) {
            for (const std::int64_t ks : {1, 3, 5}) {
                for (const std::int64_t oc : {1, 4}) {
                    for (const std::int64_t stride : {1, 2}) {
                        for (const Padding padding :
                             {Padding::kSame, Padding::kValid}) {
                            if (padding == Padding::kValid && ks > hw) {
                                continue;
                            }
                            SCOPED_TRACE(
                                "hw=" + std::to_string(hw) +
                                " ic=" + std::to_string(ic) +
                                " k=" + std::to_string(ks) +
                                " oc=" + std::to_string(oc) +
                                " stride=" + std::to_string(stride) +
                                (padding == Padding::kSame ? " SAME"
                                                           : " VALID"));
                            const Shape in_shape{2, hw, hw, ic};
                            const Shape w_shape{ks, ks, ic, oc};
                            const Tensor x = RandomTensor(in_shape, ++seed);
                            const Tensor w =
                                RandomTensor(w_shape, ++seed, 0.5f);
                            const Tensor y =
                                Conv2D(x, w, stride, padding, Pool());
                            ExpectTensorNear(
                                NaiveConv2D(x, w, stride, padding), y,
                                1e-3f);
                            const Tensor g =
                                RandomTensor(y.shape(), ++seed);
                            ExpectTensorNear(
                                NaiveConvBackInput(in_shape, w, g, stride,
                                                   padding),
                                Conv2DBackpropInput(in_shape, w, g, stride,
                                                    padding, Pool()),
                                1e-3f);
                            ExpectTensorNear(
                                NaiveConvBackFilter(x, w_shape, g, stride,
                                                    padding),
                                Conv2DBackpropFilter(x, w_shape, g, stride,
                                                     padding, Pool()),
                                1e-3f);
                        }
                    }
                }
            }
        }
    }
}

TEST(PoolingTest, MaxPoolBasic)
{
    const Tensor x = Tensor::FromVector(
        Shape{1, 4, 4, 1},
        {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16});
    const Tensor y = MaxPool(x, 2, 2, Padding::kValid, Pool());
    ExpectTensorNear(Tensor::FromVector(Shape{1, 2, 2, 1}, {6, 8, 14, 16}),
                     y);
}

TEST(PoolingTest, AvgPoolBasic)
{
    const Tensor x = Tensor::FromVector(Shape{1, 2, 2, 1}, {1, 3, 5, 7});
    const Tensor y = AvgPool(x, 2, 2, Padding::kValid, Pool());
    EXPECT_FLOAT_EQ(y.data<float>()[0], 4.0f);
}

TEST(PoolingTest, MaxPoolGradRoutesToArgmax)
{
    const Tensor x = Tensor::FromVector(Shape{1, 2, 2, 1}, {1, 9, 3, 2});
    const Tensor g = Tensor::FromVector(Shape{1, 1, 1, 1}, {5});
    const Tensor gx = MaxPoolGrad(x, g, 2, 2, Padding::kValid, Pool());
    ExpectTensorNear(Tensor::FromVector(Shape{1, 2, 2, 1}, {0, 5, 0, 0}), gx);
}

TEST(PoolingTest, AvgPoolGradSpreadsEvenly)
{
    const Tensor g = Tensor::FromVector(Shape{1, 1, 1, 1}, {8});
    const Tensor gx =
        AvgPoolGrad(Shape{1, 2, 2, 1}, g, 2, 2, Padding::kValid, Pool());
    ExpectTensorNear(Tensor::FromVector(Shape{1, 2, 2, 1}, {2, 2, 2, 2}), gx);
}

TEST(PoolingTest, SamePaddingCountsOnlyValidCells)
{
    // 3x3 input, 2x2 window, stride 2, SAME: corner windows are clipped.
    const Tensor x = Tensor::Full(Shape{1, 3, 3, 1}, 1.0f);
    const Tensor y = AvgPool(x, 2, 2, Padding::kSame, Pool());
    for (std::int64_t i = 0; i < y.num_elements(); ++i) {
        EXPECT_FLOAT_EQ(y.data<float>()[i], 1.0f);
    }
}

TEST(ElementwiseTest, BroadcastShapes)
{
    EXPECT_EQ(BroadcastShape(Shape{2, 3}, Shape{2, 3}), Shape({2, 3}));
    EXPECT_EQ(BroadcastShape(Shape{2, 1}, Shape{1, 3}), Shape({2, 3}));
    EXPECT_EQ(BroadcastShape(Shape{3}, Shape{2, 3}), Shape({2, 3}));
    EXPECT_EQ(BroadcastShape(Shape{}, Shape{4, 5}), Shape({4, 5}));
    EXPECT_THROW(BroadcastShape(Shape{2, 3}, Shape{2, 4}),
                 std::invalid_argument);
}

TEST(ElementwiseTest, BinaryMapSameShape)
{
    const Tensor a = Tensor::FromVector({1, 2, 3});
    const Tensor b = Tensor::FromVector({10, 20, 30});
    const Tensor c =
        BinaryMap(a, b, [](float x, float y) { return x + y; }, Pool());
    ExpectTensorNear(Tensor::FromVector({11, 22, 33}), c);
}

TEST(ElementwiseTest, BinaryMapBroadcastRow)
{
    const Tensor a = Tensor::FromVector(Shape{2, 3}, {1, 2, 3, 4, 5, 6});
    const Tensor b = Tensor::FromVector(Shape{3}, {10, 20, 30});
    const Tensor c =
        BinaryMap(a, b, [](float x, float y) { return x + y; }, Pool());
    ExpectTensorNear(
        Tensor::FromVector(Shape{2, 3}, {11, 22, 33, 14, 25, 36}), c);
}

TEST(ElementwiseTest, BinaryMapBroadcastColumn)
{
    const Tensor a = Tensor::FromVector(Shape{2, 1}, {1, 2});
    const Tensor b = Tensor::FromVector(Shape{1, 3}, {10, 20, 30});
    const Tensor c =
        BinaryMap(a, b, [](float x, float y) { return x * y; }, Pool());
    ExpectTensorNear(
        Tensor::FromVector(Shape{2, 3}, {10, 20, 30, 20, 40, 60}), c);
}

TEST(ElementwiseTest, BinaryMapScalarBroadcast)
{
    const Tensor a = Tensor::Scalar(2.0f);
    const Tensor b = Tensor::FromVector(Shape{2, 2}, {1, 2, 3, 4});
    const Tensor c =
        BinaryMap(a, b, [](float x, float y) { return x * y; }, Pool());
    ExpectTensorNear(Tensor::FromVector(Shape{2, 2}, {2, 4, 6, 8}), c);
}

TEST(ElementwiseTest, ReduceToShapeSumsBroadcastAxes)
{
    const Tensor t =
        Tensor::FromVector(Shape{2, 3}, {1, 2, 3, 4, 5, 6});
    ExpectTensorNear(Tensor::FromVector(Shape{3}, {5, 7, 9}),
                     ReduceToShape(t, Shape{3}, Pool()));
    ExpectTensorNear(Tensor::FromVector(Shape{2, 1}, {6, 15}),
                     ReduceToShape(t, Shape{2, 1}, Pool()));
    ExpectTensorNear(Tensor::Scalar(21.0f),
                     ReduceToShape(t, Shape{}, Pool()));
}

TEST(ElementwiseTest, ReduceToShapeIdentity)
{
    const Tensor t = Tensor::FromVector({1, 2});
    ExpectTensorNear(t, ReduceToShape(t, t.shape(), Pool()));
}

// ---- elementwise oracle battery (ctest label: kernels) -------------------
//
// The reference kernels below are the div/mod broadcast map and the
// scatter reduction the collapsed-walk kernels replaced, kept verbatim
// in behaviour: one index decomposition and one std::function call per
// element. The kernels must match them byte for byte.

std::vector<std::int64_t>
RefBroadcastStrides(const Shape& s, const Shape& out)
{
    const int out_rank = out.rank();
    std::vector<std::int64_t> strides(static_cast<std::size_t>(out_rank), 0);
    const int offset = out_rank - s.rank();
    std::int64_t stride = 1;
    for (int i = s.rank() - 1; i >= 0; --i) {
        if (s.dim(i) != 1) {
            strides[static_cast<std::size_t>(i + offset)] = stride;
        }
        stride *= s.dim(i);
    }
    return strides;
}

std::vector<std::int64_t>
RefRowMajorStrides(const Shape& s)
{
    const int rank = s.rank();
    std::vector<std::int64_t> strides(static_cast<std::size_t>(rank), 1);
    for (int i = rank - 2; i >= 0; --i) {
        strides[static_cast<std::size_t>(i)] =
            strides[static_cast<std::size_t>(i + 1)] * s.dim(i + 1);
    }
    return strides;
}

Tensor
RefBinaryMap(const Tensor& a, const Tensor& b,
             const std::function<float(float, float)>& fn)
{
    const float* pa = a.data<float>();
    const float* pb = b.data<float>();
    const Shape out_shape = BroadcastShape(a.shape(), b.shape());
    Tensor out(DType::kFloat32, out_shape);
    float* o = out.data<float>();
    const int rank = out_shape.rank();
    const auto sa = RefBroadcastStrides(a.shape(), out_shape);
    const auto sb = RefBroadcastStrides(b.shape(), out_shape);
    const auto out_strides = RefRowMajorStrides(out_shape);
    for (std::int64_t flat = 0; flat < out_shape.num_elements(); ++flat) {
        std::int64_t rem = flat;
        std::int64_t off_a = 0;
        std::int64_t off_b = 0;
        for (int d = 0; d < rank; ++d) {
            const auto u = static_cast<std::size_t>(d);
            const std::int64_t od = rem / out_strides[u];
            rem -= od * out_strides[u];
            off_a += od * sa[u];
            off_b += od * sb[u];
        }
        o[flat] = fn(pa[off_a], pb[off_b]);
    }
    return out;
}

Tensor
RefReduceToShape(const Tensor& from, const Shape& to)
{
    if (from.shape() == to) {
        return from;
    }
    const Shape& fs = from.shape();
    const int rank = fs.rank();
    const int offset = rank - to.rank();
    Tensor out = Tensor::Zeros(to);
    const float* in = from.data<float>();
    float* o = out.data<float>();
    std::vector<std::int64_t> to_strides(static_cast<std::size_t>(rank), 0);
    std::int64_t stride = 1;
    for (int i = to.rank() - 1; i >= 0; --i) {
        if (to.dim(i) != 1) {
            to_strides[static_cast<std::size_t>(i + offset)] = stride;
        }
        stride *= to.dim(i);
    }
    const auto from_strides = RefRowMajorStrides(fs);
    for (std::int64_t flat = 0; flat < fs.num_elements(); ++flat) {
        std::int64_t rem = flat;
        std::int64_t off = 0;
        for (int d = 0; d < rank; ++d) {
            const auto u = static_cast<std::size_t>(d);
            const std::int64_t fd = rem / from_strides[u];
            rem -= fd * from_strides[u];
            off += fd * to_strides[u];
        }
        o[off] += in[flat];
    }
    return out;
}

/** The scatter Reduce: double sums (scaled for mean) or float max. */
Tensor
RefReduce(const Tensor& input, ReduceOp op, const std::vector<int>& axes)
{
    const Shape& in_shape = input.shape();
    const int rank = in_shape.rank();
    std::vector<std::int64_t> kept;
    std::int64_t count = 1;
    for (int i = 0; i < rank; ++i) {
        const bool reduced =
            axes.empty() ||
            std::find(axes.begin(), axes.end(), i) != axes.end();
        kept.push_back(reduced ? 1 : in_shape.dim(i));
        count *= reduced ? in_shape.dim(i) : 1;
    }
    const Shape kept_shape(kept);
    std::vector<std::int64_t> out_strides(static_cast<std::size_t>(rank), 0);
    std::int64_t stride = 1;
    for (int i = rank - 1; i >= 0; --i) {
        if (kept_shape.dim(i) != 1) {
            out_strides[static_cast<std::size_t>(i)] = stride;
        }
        stride *= kept_shape.dim(i);
    }
    const auto in_strides = RefRowMajorStrides(in_shape);
    std::vector<double> acc(static_cast<std::size_t>(kept_shape.num_elements()),
                            0.0);
    Tensor out = Tensor::Full(
        kept_shape, op == ReduceOp::kMax
                        ? -std::numeric_limits<float>::infinity()
                        : 0.0f);
    float* o = out.data<float>();
    const float* in = input.data<float>();
    for (std::int64_t flat = 0; flat < in_shape.num_elements(); ++flat) {
        std::int64_t rem = flat;
        std::int64_t off = 0;
        for (int d = 0; d < rank; ++d) {
            const auto u = static_cast<std::size_t>(d);
            const std::int64_t id = rem / in_strides[u];
            rem -= id * in_strides[u];
            off += id * out_strides[u];
        }
        if (op == ReduceOp::kMax) {
            o[off] = std::max(o[off], in[flat]);
        } else {
            acc[static_cast<std::size_t>(off)] +=
                static_cast<double>(in[flat]);
        }
    }
    if (op != ReduceOp::kMax) {
        const double scale =
            op == ReduceOp::kMean && count > 0 ? 1.0 / count : 1.0;
        for (std::size_t i = 0; i < acc.size(); ++i) {
            o[i] = static_cast<float>(acc[i] * scale);
        }
    }
    return out;
}

/** The div/mod Tile loop (and, with @p adjoint, its scatter TileGrad). */
Tensor
RefTile(const Tensor& input, const Shape& in_shape, const Shape& out_shape,
        bool adjoint)
{
    const int rank = in_shape.rank();
    const auto in_strides = RefRowMajorStrides(in_shape);
    const auto out_strides = RefRowMajorStrides(out_shape);
    Tensor out = Tensor::Zeros(adjoint ? in_shape : out_shape);
    const float* src = input.data<float>();
    float* dst = out.data<float>();
    for (std::int64_t flat = 0; flat < out_shape.num_elements(); ++flat) {
        std::int64_t rem = flat;
        std::int64_t off = 0;
        for (int d = 0; d < rank; ++d) {
            const auto u = static_cast<std::size_t>(d);
            const std::int64_t od = rem / out_strides[u];
            rem -= od * out_strides[u];
            off += (od % in_shape.dim(d)) * in_strides[u];
        }
        if (adjoint) {
            dst[off] += src[flat];
        } else {
            dst[flat] = src[off];
        }
    }
    return out;
}

/**
 * Shape, dtype and every byte equal (NaN payloads and -0.0 included).
 * With @p any_nan_payload, a NaN matches any NaN.
 */
::testing::AssertionResult
BitIdentical(const Tensor& expected, const Tensor& actual,
             bool any_nan_payload = false)
{
    if (expected.shape() != actual.shape()) {
        return ::testing::AssertionFailure()
               << "shape " << actual.shape().ToString() << " vs expected "
               << expected.shape().ToString();
    }
    const std::size_t bytes =
        static_cast<std::size_t>(expected.num_elements()) * sizeof(float);
    if (bytes != 0 && std::memcmp(expected.data<float>(),
                                  actual.data<float>(), bytes) != 0) {
        for (std::int64_t i = 0; i < expected.num_elements(); ++i) {
            std::uint32_t e = 0;
            std::uint32_t g = 0;
            std::memcpy(&e, expected.data<float>() + i, sizeof(e));
            std::memcpy(&g, actual.data<float>() + i, sizeof(g));
            const bool both_nan = std::isnan(expected.data<float>()[i]) &&
                                  std::isnan(actual.data<float>()[i]);
            if (e != g && !(any_nan_payload && both_nan)) {
                char bits[64];
                std::snprintf(bits, sizeof(bits),
                              "bits 0x%08x vs expected 0x%08x", g, e);
                return ::testing::AssertionFailure()
                       << "first differing element " << i << " of "
                       << expected.shape().ToString() << ": " << bits;
            }
        }
    }
    return ::testing::AssertionSuccess();
}

/**
 * A reduction's running sum can meet two different NaNs (an input's and
 * the default NaN of Inf + -Inf); which payload survives depends on the
 * operand order the compiler picks for the commutative add, and differs
 * between builds (it does under ASan). Reductions therefore let a NaN
 * cell match any NaN; every other bit, -0.0 included, is compared.
 */
constexpr bool kSumsMeetNaNs = true;

/**
 * One NaN bit pattern per generated case: a quiet NaN, one with a
 * payload, or a negative one with a payload. A case never mixes two
 * patterns, because which payload survives NaN (+) NaN depends on the
 * operand order the compiler picks for a commutative add, which the
 * language leaves open; a single pattern must come through unchanged.
 */
std::uint32_t
PickNan(Rng& rng)
{
    static const std::array<std::uint32_t, 3> kNans = {
        0x7fc00000u, 0x7fc01234u, 0xffc00001u};
    return kNans[static_cast<std::size_t>(rng.UniformInt(kNans.size()))];
}

/**
 * Normal samples with special values mixed in: @p nan_bits NaNs, both
 * infinities, both zeros, a denormal.
 */
Tensor
OracleTensor(const Shape& shape, Rng& rng, std::uint32_t nan_bits)
{
    const std::array<std::uint32_t, 6> specials = {
        nan_bits,     // NaN
        0x7f800000u,  // +Inf
        0xff800000u,  // -Inf
        0x80000000u,  // -0.0
        0x00000000u,  // +0.0
        0x00000007u,  // denormal
    };
    Tensor t(DType::kFloat32, shape);
    float* p = t.data<float>();
    for (std::int64_t i = 0; i < t.num_elements(); ++i) {
        if (rng.UniformInt(6) == 0) {
            std::memcpy(p + i,
                        &specials[static_cast<std::size_t>(
                            rng.UniformInt(specials.size()))],
                        sizeof(float));
        } else {
            p[i] = rng.Normal();
        }
    }
    return t;
}

/**
 * @p full with the dims whose bit is set in @p ones_mask forced to 1
 * and its first @p drop dims removed (a lower-rank operand).
 */
Shape
OperandShape(const Shape& full, unsigned ones_mask, int drop)
{
    std::vector<std::int64_t> dims;
    for (int d = drop; d < full.rank(); ++d) {
        dims.push_back(((ones_mask >> d) & 1u) != 0u ? 1 : full.dim(d));
    }
    return Shape(dims);
}

/** One generated operand pair: a and b broadcast to @p space. */
struct OraclePair {
    Shape space;
    Shape a;
    Shape b;
};

/**
 * Operand pairs from fixed seeds for ranks 0-5: every pair of size-1
 * masks at ranks up to 3 (sampled above), lower-rank operands, scalars,
 * and zero extents.
 */
std::vector<OraclePair>
OraclePairs()
{
    std::vector<OraclePair> pairs;
    Rng rng(20240615);
    static const std::array<std::int64_t, 6> kExtents = {1, 2, 3, 4, 5, 7};
    for (int rank = 0; rank <= 5; ++rank) {
        for (int draw = 0; draw < 4; ++draw) {
            std::vector<std::int64_t> dims;
            for (int d = 0; d < rank; ++d) {
                dims.push_back(kExtents[static_cast<std::size_t>(
                    rng.UniformInt(kExtents.size()))]);
            }
            if (draw == 3 && rank > 0) {
                dims[static_cast<std::size_t>(rng.UniformInt(rank))] = 0;
            }
            const Shape space(dims);
            const unsigned masks = 1u << rank;
            const bool exhaustive = rank <= 3;
            const int samples = exhaustive ? static_cast<int>(masks * masks)
                                           : 96;
            for (int s = 0; s < samples; ++s) {
                const unsigned ma =
                    exhaustive ? static_cast<unsigned>(s) % masks
                               : static_cast<unsigned>(rng.UniformInt(masks));
                const unsigned mb =
                    exhaustive ? static_cast<unsigned>(s) / masks
                               : static_cast<unsigned>(rng.UniformInt(masks));
                const int da = static_cast<int>(rng.UniformInt(rank + 1));
                const int db = static_cast<int>(rng.UniformInt(rank + 1));
                // Operands keep their own extents; the space is their
                // broadcast (a dim every operand sets to 1 shrinks).
                const Shape a = OperandShape(space, ma, (ma & 1u) ? da : 0);
                const Shape b = OperandShape(space, mb, (mb & 1u) ? db : 0);
                pairs.push_back({BroadcastShape(a, b), a, b});
            }
        }
    }
    // Conv-output shapes with a bias, and [N,1] (+) [1,C], large
    // enough that a multi-thread pool splits rows mid-way.
    pairs.push_back({Shape{4, 17, 9, 33}, Shape{4, 17, 9, 33}, Shape{33}});
    pairs.push_back({Shape{4, 17, 9, 33}, Shape{33}, Shape{4, 17, 9, 33}});
    pairs.push_back({Shape{97, 61}, Shape{97, 1}, Shape{1, 61}});
    pairs.push_back({Shape{3, 1, 5, 7, 2, 6}, Shape{3, 1, 5, 1, 2, 1},
                     Shape{5, 7, 1, 6}});
    return pairs;
}

parallel::ThreadPool&
WidePool()
{
    static parallel::ThreadPool pool(3);
    return pool;
}

const std::vector<std::pair<const char*, float (*)(float, float)>>&
OracleFns()
{
    static const std::vector<std::pair<const char*, float (*)(float, float)>>
        fns = {
            {"add", [](float x, float y) { return x + y; }},
            {"sub", [](float x, float y) { return x - y; }},
            {"mul", [](float x, float y) { return x * y; }},
            {"div", [](float x, float y) { return x / y; }},
            {"max", [](float x, float y) { return x > y ? x : y; }},
        };
    return fns;
}

TEST(ElementwiseOracleBattery, BinaryMapMatchesDivModReference)
{
    Rng rng(7);
    int checked = 0;
    for (const OraclePair& p : OraclePairs()) {
        const std::uint32_t nan = PickNan(rng);
        const Tensor a = OracleTensor(p.a, rng, nan);
        const Tensor b = OracleTensor(p.b, rng, nan);
        for (const auto& [name, fn] : OracleFns()) {
            const Tensor want = RefBinaryMap(a, b, fn);
            for (parallel::ThreadPool* pool : {&Pool(), &WidePool()}) {
                ASSERT_TRUE(BitIdentical(
                    want, BinaryMap(
                              a, b,
                              [fn](float x, float y) { return fn(x, y); },
                              *pool)))
                    << name << " " << p.a.ToString() << " (+) "
                    << p.b.ToString() << " threads " << pool->num_threads();
                ++checked;
            }
        }
    }
    EXPECT_GT(checked, 10000);
}

TEST(ElementwiseOracleBattery, AliasedBinaryMapMatchesReference)
{
    // In place: the output takes a's buffer only when the output shape
    // is a's shape; otherwise the flag is ignored.
    Rng rng(8);
    for (const OraclePair& p : OraclePairs()) {
        const std::uint32_t nan = PickNan(rng);
        const Tensor a = OracleTensor(p.a, rng, nan);
        const Tensor b = OracleTensor(p.b, rng, nan);
        for (const auto& [name, fn] : OracleFns()) {
            const Tensor want = RefBinaryMap(a, b, fn);
            for (parallel::ThreadPool* pool : {&Pool(), &WidePool()}) {
                Tensor victim = a.Clone();
                const float* before = victim.data<float>();
                const Tensor got = BinaryMap(
                    victim, b, [fn](float x, float y) { return fn(x, y); },
                    *pool, /*may_alias=*/true);
                ASSERT_TRUE(BitIdentical(want, got))
                    << name << " " << p.a.ToString() << " (+) "
                    << p.b.ToString() << " in place";
                EXPECT_EQ(got.data<float>() == before,
                          want.shape() == p.a)
                    << p.a.ToString() << " (+) " << p.b.ToString();
            }
        }
    }
}

TEST(ElementwiseOracleBattery, ReduceToShapeMatchesScatterReference)
{
    Rng rng(9);
    int checked = 0;
    for (const OraclePair& p : OraclePairs()) {
        const Tensor grad = OracleTensor(p.space, rng, PickNan(rng));
        for (const Shape& to : {p.a, p.b}) {
            for (parallel::ThreadPool* pool : {&Pool(), &WidePool()}) {
                ASSERT_TRUE(BitIdentical(RefReduceToShape(grad, to),
                                         ReduceToShape(grad, to, *pool),
                                         kSumsMeetNaNs))
                    << p.space.ToString() << " -> " << to.ToString();
                ++checked;
            }
        }
    }
    // The reductions a bias, a column and a full sum take.
    const Tensor nhwc = OracleTensor(Shape{4, 17, 9, 33}, rng, PickNan(rng));
    for (const Shape& to : {Shape{33}, Shape{4, 1, 1, 1}, Shape{}}) {
        ASSERT_TRUE(BitIdentical(RefReduceToShape(nhwc, to),
                                 ReduceToShape(nhwc, to, WidePool()),
                                 kSumsMeetNaNs))
            << to.ToString();
    }
    const Tensor rows = OracleTensor(Shape{97, 61}, rng, PickNan(rng));
    for (const Shape& to : {Shape{97, 1}, Shape{61}, Shape{}}) {
        ASSERT_TRUE(BitIdentical(RefReduceToShape(rows, to),
                                 ReduceToShape(rows, to, Pool()),
                                 kSumsMeetNaNs))
            << to.ToString();
    }
    EXPECT_GT(checked, 4000);
}

TEST(ElementwiseOracleBattery, ReduceMatchesScatterReference)
{
    // Reduce walks its input with the kept-dims output as the operand;
    // each generated operand shape doubles as a set of reduced axes.
    Rng rng(12);
    int checked = 0;
    for (const OraclePair& p : OraclePairs()) {
        std::vector<int> axes;
        const int offset = p.space.rank() - p.a.rank();
        for (int d = 0; d < p.space.rank(); ++d) {
            if (d < offset || p.a.dim(d - offset) == 1) {
                axes.push_back(d);
            }
        }
        if (axes.empty() && p.space.rank() > 0) {
            continue;  // an empty axes list means "all axes".
        }
        const Tensor x = OracleTensor(p.space, rng, PickNan(rng));
        for (ReduceOp op : {ReduceOp::kSum, ReduceOp::kMean, ReduceOp::kMax}) {
            const Tensor want = RefReduce(x, op, axes);
            const Tensor got = Reduce(x, op, axes, /*keep_dims=*/true, Pool());
            ASSERT_TRUE(BitIdentical(want, got, kSumsMeetNaNs))
                << p.space.ToString() << " over " << axes.size() << " axes";
            ++checked;
        }
    }
    EXPECT_GT(checked, 1000);
}

TEST(ElementwiseOracleBattery, TileAndTileGradMatchReference)
{
    // Tile is a broadcast and TileGrad a ReduceToShape once each
    // dimension is split into (multiple, extent).
    Rng rng(11);
    for (int rank = 0; rank <= 4; ++rank) {
        for (int draw = 0; draw < 24; ++draw) {
            std::vector<std::int64_t> dims;
            std::vector<std::int64_t> multiples;
            std::vector<std::int64_t> tiled;
            for (int d = 0; d < rank; ++d) {
                dims.push_back(rng.UniformInt(4));
                multiples.push_back(1 + rng.UniformInt(3));
                tiled.push_back(dims.back() * multiples.back());
            }
            const Shape in_shape(dims);
            const Shape out_shape(tiled);
            const Tensor x = OracleTensor(in_shape, rng, PickNan(rng));
            const Tensor g = OracleTensor(out_shape, rng, PickNan(rng));
            for (parallel::ThreadPool* pool : {&Pool(), &WidePool()}) {
                ASSERT_TRUE(BitIdentical(
                    RefTile(x, in_shape, out_shape, false),
                    Tile(x, multiples, *pool)))
                    << in_shape.ToString() << " -> " << out_shape.ToString();
                ASSERT_TRUE(BitIdentical(
                    RefTile(g, in_shape, out_shape, true),
                    TileGrad(g, in_shape, multiples, *pool), kSumsMeetNaNs))
                    << out_shape.ToString() << " -> " << in_shape.ToString();
            }
        }
    }
}

TEST(ElementwiseOracleBattery, BroadcastMapMatchesReference)
{
    // ReduceSumGrad's one pass: broadcast a kept-dims gradient to the
    // reference shape and scale it.
    Rng rng(10);
    const float inv = 1.0f / 3.0f;
    for (const OraclePair& p : OraclePairs()) {
        const Tensor x = OracleTensor(p.a, rng, PickNan(rng));
        const Tensor want = RefBinaryMap(
            x, Tensor::Zeros(p.space),
            [inv](float v, float) { return v * inv; });
        for (parallel::ThreadPool* pool : {&Pool(), &WidePool()}) {
            ASSERT_TRUE(BitIdentical(
                want, BroadcastMap(x, p.space,
                                   [inv](float v) { return v * inv; },
                                   *pool)))
                << p.a.ToString() << " -> " << p.space.ToString();
        }
    }
    EXPECT_THROW(BroadcastMap(Tensor::Zeros(Shape{3}), Shape{2, 4},
                              [](float v) { return v; }, Pool()),
                 std::invalid_argument);
}

TEST(ReductionTest, ReduceSumAxes)
{
    const Tensor t =
        Tensor::FromVector(Shape{2, 3}, {1, 2, 3, 4, 5, 6});
    ExpectTensorNear(Tensor::FromVector(Shape{3}, {5, 7, 9}),
                     Reduce(t, ReduceOp::kSum, {0}, false, Pool()));
    ExpectTensorNear(Tensor::FromVector(Shape{2}, {6, 15}),
                     Reduce(t, ReduceOp::kSum, {1}, false, Pool()));
    ExpectTensorNear(Tensor::FromVector(Shape{2, 1}, {6, 15}),
                     Reduce(t, ReduceOp::kSum, {1}, true, Pool()));
    ExpectTensorNear(Tensor::Scalar(21.0f),
                     Reduce(t, ReduceOp::kSum, {}, false, Pool()));
}

TEST(ReductionTest, ReduceMeanAndMax)
{
    const Tensor t =
        Tensor::FromVector(Shape{2, 3}, {1, 2, 3, 4, 5, 6});
    ExpectTensorNear(Tensor::FromVector(Shape{2}, {2, 5}),
                     Reduce(t, ReduceOp::kMean, {1}, false, Pool()));
    ExpectTensorNear(Tensor::FromVector(Shape{2}, {3, 6}),
                     Reduce(t, ReduceOp::kMax, {-1}, false, Pool()));
}

TEST(ReductionTest, NegativeAxisNormalization)
{
    const Tensor t = RandomTensor(Shape{2, 3, 4}, 20);
    ExpectTensorNear(Reduce(t, ReduceOp::kSum, {2}, false, Pool()),
                     Reduce(t, ReduceOp::kSum, {-1}, false, Pool()));
    EXPECT_THROW(Reduce(t, ReduceOp::kSum, {3}, false, Pool()),
                 std::invalid_argument);
}

TEST(ReductionTest, SoftmaxRowsSumToOne)
{
    const Tensor t = RandomTensor(Shape{4, 7}, 21, 3.0f);
    const Tensor s = Softmax(t, Pool());
    for (std::int64_t r = 0; r < 4; ++r) {
        float sum = 0.0f;
        for (std::int64_t c = 0; c < 7; ++c) {
            const float v = s.data<float>()[r * 7 + c];
            EXPECT_GT(v, 0.0f);
            sum += v;
        }
        EXPECT_NEAR(sum, 1.0f, 1e-5f);
    }
}

TEST(ReductionTest, SoftmaxNumericallyStable)
{
    const Tensor t = Tensor::FromVector(Shape{1, 3}, {1000, 1001, 1002});
    const Tensor s = Softmax(t, Pool());
    EXPECT_FALSE(std::isnan(s.data<float>()[0]));
    EXPECT_NEAR(s.data<float>()[0] + s.data<float>()[1] + s.data<float>()[2],
                1.0f, 1e-5f);
}

TEST(ReductionTest, LogSoftmaxMatchesLogOfSoftmax)
{
    const Tensor t = RandomTensor(Shape{3, 5}, 22);
    const Tensor ls = LogSoftmax(t, Pool());
    const Tensor s = Softmax(t, Pool());
    for (std::int64_t i = 0; i < t.num_elements(); ++i) {
        EXPECT_NEAR(ls.data<float>()[i], std::log(s.data<float>()[i]), 1e-4f);
    }
}

TEST(ReductionTest, ArgMaxLastDim)
{
    const Tensor t =
        Tensor::FromVector(Shape{2, 3}, {1, 9, 2, 7, 3, 5});
    const Tensor a = ArgMaxLastDim(t, Pool());
    EXPECT_EQ(a.dtype(), DType::kInt32);
    EXPECT_EQ(a.data<std::int32_t>()[0], 1);
    EXPECT_EQ(a.data<std::int32_t>()[1], 0);
}

TEST(ReductionTest, TileAndGradRoundTrip)
{
    const Tensor t = Tensor::FromVector(Shape{1, 2}, {1, 2});
    const Tensor tiled = Tile(t, {3, 2}, Pool());
    EXPECT_EQ(tiled.shape(), Shape({3, 4}));
    EXPECT_FLOAT_EQ(tiled.data<float>()[2], 1.0f);  // repeat along cols.
    EXPECT_FLOAT_EQ(tiled.data<float>()[4], 1.0f);  // repeat along rows.

    const Tensor g = Tensor::Full(Shape{3, 4}, 1.0f);
    const Tensor gt = TileGrad(g, Shape{1, 2}, {3, 2}, Pool());
    ExpectTensorNear(Tensor::FromVector(Shape{1, 2}, {6, 6}), gt);
}

TEST(DataMovementTest, Transpose2D)
{
    const Tensor t =
        Tensor::FromVector(Shape{2, 3}, {1, 2, 3, 4, 5, 6});
    const Tensor tr = Transpose(t, {1, 0}, Pool());
    ExpectTensorNear(Tensor::FromVector(Shape{3, 2}, {1, 4, 2, 5, 3, 6}),
                     tr);
}

TEST(DataMovementTest, Transpose3D)
{
    const Tensor t = RandomTensor(Shape{2, 3, 4}, 23);
    const Tensor tr = Transpose(t, {2, 0, 1}, Pool());
    EXPECT_EQ(tr.shape(), Shape({4, 2, 3}));
    // spot-check: tr[d, a, b] == t[a, b, d]
    EXPECT_EQ(tr.data<float>()[(1 * 2 + 1) * 3 + 2],
              t.data<float>()[(1 * 3 + 2) * 4 + 1]);
}

TEST(DataMovementTest, TransposeRejectsBadPerm)
{
    const Tensor t = RandomTensor(Shape{2, 3}, 24);
    EXPECT_THROW(Transpose(t, {0, 0}, Pool()), std::invalid_argument);
    EXPECT_THROW(Transpose(t, {0}, Pool()), std::invalid_argument);
}

TEST(DataMovementTest, ConcatAxis0And1)
{
    const Tensor a = Tensor::FromVector(Shape{1, 2}, {1, 2});
    const Tensor b = Tensor::FromVector(Shape{1, 2}, {3, 4});
    ExpectTensorNear(Tensor::FromVector(Shape{2, 2}, {1, 2, 3, 4}),
                     Concat({a, b}, 0, Pool()));
    ExpectTensorNear(Tensor::FromVector(Shape{1, 4}, {1, 2, 3, 4}),
                     Concat({a, b}, 1, Pool()));
}

TEST(DataMovementTest, ConcatValidation)
{
    const Tensor a = Tensor::FromVector(Shape{1, 2}, {1, 2});
    const Tensor b = Tensor::FromVector(Shape{1, 3}, {3, 4, 5});
    EXPECT_THROW(Concat({a, b}, 0, Pool()), std::invalid_argument);
    EXPECT_NO_THROW(Concat({a, b}, 1, Pool()));
    EXPECT_THROW(Concat({}, 0, Pool()), std::invalid_argument);
}

TEST(DataMovementTest, SliceBasicAndToEnd)
{
    const Tensor t =
        Tensor::FromVector(Shape{2, 3}, {1, 2, 3, 4, 5, 6});
    ExpectTensorNear(Tensor::FromVector(Shape{1, 2}, {5, 6}),
                     Slice(t, {1, 1}, {1, 2}, Pool()));
    ExpectTensorNear(Tensor::FromVector(Shape{2, 2}, {2, 3, 5, 6}),
                     Slice(t, {0, 1}, {-1, -1}, Pool()));
    EXPECT_THROW(Slice(t, {1, 2}, {1, 3}, Pool()), std::invalid_argument);
}

TEST(DataMovementTest, GatherRows)
{
    const Tensor params =
        Tensor::FromVector(Shape{3, 2}, {1, 2, 3, 4, 5, 6});
    const Tensor idx = Tensor::FromVectorInt(Shape{2}, {2, 0});
    const Tensor out = Gather(params, idx, Pool());
    ExpectTensorNear(Tensor::FromVector(Shape{2, 2}, {5, 6, 1, 2}), out);
    const Tensor bad = Tensor::FromVectorInt(Shape{1}, {3});
    EXPECT_THROW(Gather(params, bad, Pool()), std::out_of_range);
}

TEST(DataMovementTest, GatherGradAccumulatesDuplicates)
{
    const Tensor idx = Tensor::FromVectorInt(Shape{3}, {1, 1, 0});
    const Tensor g =
        Tensor::FromVector(Shape{3, 2}, {1, 1, 2, 2, 3, 3});
    const Tensor gp = GatherGrad(Shape{2, 2}, idx, g, Pool());
    ExpectTensorNear(Tensor::FromVector(Shape{2, 2}, {3, 3, 3, 3}), gp);
}

TEST(DataMovementTest, OneHot)
{
    const Tensor idx = Tensor::FromVectorInt(Shape{3}, {0, 2, 5});
    const Tensor out = OneHot(idx, 3, 1.0f, 0.0f, Pool());
    ExpectTensorNear(
        Tensor::FromVector(Shape{3, 3}, {1, 0, 0, 0, 0, 1, 0, 0, 0}), out);
}

TEST(DataMovementTest, PadAndGradRoundTrip)
{
    const Tensor t = Tensor::FromVector(Shape{1, 2}, {7, 8});
    const Tensor padded = Pad(t, {{1, 0}, {1, 1}}, Pool());
    ExpectTensorNear(
        Tensor::FromVector(Shape{2, 4}, {0, 0, 0, 0, 0, 7, 8, 0}), padded);
    ExpectTensorNear(t, PadGrad(padded, {{1, 0}, {1, 1}}, Pool()));
}

TEST(NormalizationTest, LrnMatchesFormula)
{
    const Tensor x = Tensor::FromVector(Shape{1, 4}, {1, 2, 3, 4});
    LrnParams p;
    p.depth_radius = 1;
    p.bias = 2.0f;
    p.alpha = 0.5f;
    p.beta = 1.0f;
    const Tensor y = Lrn(x, p, Pool());
    // channel 0: denom = 2 + 0.5*(1+4) = 4.5
    EXPECT_NEAR(y.data<float>()[0], 1.0f / 4.5f, 1e-5f);
    // channel 1: denom = 2 + 0.5*(1+4+9) = 9
    EXPECT_NEAR(y.data<float>()[1], 2.0f / 9.0f, 1e-5f);
}

TEST(NormalizationTest, LrnGradMatchesFiniteDifference)
{
    const Tensor x = RandomTensor(Shape{2, 5}, 30);
    const Tensor g = RandomTensor(Shape{2, 5}, 31);
    LrnParams p;
    const Tensor analytic = LrnGrad(x, g, p, Pool());

    const float delta = 1e-3f;
    Tensor probe = x.Clone();
    for (std::int64_t i = 0; i < x.num_elements(); ++i) {
        const float saved = probe.data<float>()[i];
        probe.data<float>()[i] = saved + delta;
        const Tensor up = Lrn(probe, p, Pool());
        probe.data<float>()[i] = saved - delta;
        const Tensor down = Lrn(probe, p, Pool());
        probe.data<float>()[i] = saved;
        double numeric = 0.0;
        for (std::int64_t j = 0; j < x.num_elements(); ++j) {
            numeric += static_cast<double>(g.data<float>()[j]) *
                       (up.data<float>()[j] - down.data<float>()[j]) /
                       (2.0 * delta);
        }
        EXPECT_NEAR(analytic.data<float>()[i], numeric, 2e-3)
            << "at index " << i;
    }
}

TEST(NormalizationTest, BatchNormNormalizes)
{
    const Tensor x = RandomTensor(Shape{64, 4}, 32, 3.0f);
    const Tensor gamma = Tensor::Full(Shape{4}, 1.0f);
    const Tensor beta = Tensor::Zeros(Shape{4});
    const auto result = BatchNorm(x, gamma, beta, 1e-5f, Pool());
    // Per-channel output mean ~0, variance ~1.
    for (std::int64_t c = 0; c < 4; ++c) {
        double mean = 0.0;
        double var = 0.0;
        for (std::int64_t r = 0; r < 64; ++r) {
            mean += result.output.data<float>()[r * 4 + c];
        }
        mean /= 64.0;
        for (std::int64_t r = 0; r < 64; ++r) {
            const double d = result.output.data<float>()[r * 4 + c] - mean;
            var += d * d;
        }
        var /= 64.0;
        EXPECT_NEAR(mean, 0.0, 1e-4);
        EXPECT_NEAR(var, 1.0, 1e-2);
    }
}

TEST(NormalizationTest, BatchNormScaleShift)
{
    const Tensor x = RandomTensor(Shape{32, 2}, 33);
    const Tensor gamma = Tensor::FromVector({2.0f, 0.5f});
    const Tensor beta = Tensor::FromVector({1.0f, -1.0f});
    const auto result = BatchNorm(x, gamma, beta, 1e-5f, Pool());
    double mean0 = 0.0;
    for (std::int64_t r = 0; r < 32; ++r) {
        mean0 += result.output.data<float>()[r * 2];
    }
    EXPECT_NEAR(mean0 / 32.0, 1.0, 1e-4);  // beta shifts the mean.
}

TEST(NormalizationTest, BatchNormGradMatchesFiniteDifference)
{
    const Tensor x = RandomTensor(Shape{8, 3}, 34);
    const Tensor gamma = RandomTensor(Shape{3}, 35, 0.5f);
    const Tensor beta = RandomTensor(Shape{3}, 36, 0.5f);
    const Tensor g = RandomTensor(Shape{8, 3}, 37);

    const auto fwd = BatchNorm(x, gamma, beta, 1e-3f, Pool());
    const auto grads =
        BatchNormGrad(x, gamma, fwd.mean, fwd.inv_std, g, Pool());

    auto loss_at = [&](const Tensor& xx) {
        const auto r = BatchNorm(xx, gamma, beta, 1e-3f, Pool());
        double loss = 0.0;
        for (std::int64_t j = 0; j < r.output.num_elements(); ++j) {
            loss += static_cast<double>(g.data<float>()[j]) *
                    r.output.data<float>()[j];
        }
        return loss;
    };

    const float delta = 1e-3f;
    Tensor probe = x.Clone();
    for (std::int64_t i = 0; i < x.num_elements(); ++i) {
        const float saved = probe.data<float>()[i];
        probe.data<float>()[i] = saved + delta;
        const double up = loss_at(probe);
        probe.data<float>()[i] = saved - delta;
        const double down = loss_at(probe);
        probe.data<float>()[i] = saved;
        const double numeric = (up - down) / (2.0 * delta);
        EXPECT_NEAR(grads.grad_input.data<float>()[i], numeric, 5e-3)
            << "at index " << i;
    }
}

}  // namespace
}  // namespace fathom::kernels
