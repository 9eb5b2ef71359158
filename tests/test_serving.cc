/**
 * @file
 * The serving battery: FrozenPlan contract tests, the
 * batching-equivalence battery (a request served inside a coalesced
 * batch is bit-identical to the same request served alone, for all
 * eight workloads), the checkpoint->freeze round trip, the
 * ServingRuntime shutdown contract, and the concurrent serving
 * battery (N client threads on one shared plan; runs under TSan via
 * the `serving` ctest label).
 */
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <functional>
#include <future>
#include <mutex>
#include <random>
#include <thread>
#include <vector>

#include "graph/verify/shape_inference.h"
#include "runtime/checkpoint.h"
#include "serving/frozen_plan.h"
#include "serving/serving_runtime.h"
#include "tensor/buffer_pool.h"
#include "workloads/workload.h"

namespace fathom::serving {
namespace {

using workloads::RegisterAllWorkloads;
using workloads::Workload;
using workloads::WorkloadConfig;
using workloads::WorkloadRegistry;

/** Every future in the shutdown tests gets this long, then the test
 * fails instead of hanging the suite. */
constexpr auto kFutureTimeout = std::chrono::seconds(60);

char*
RawBytes(Tensor& t)
{
    return t.dtype() == DType::kFloat32
               ? reinterpret_cast<char*>(t.data<float>())
               : reinterpret_cast<char*>(t.data<std::int32_t>());
}

const char*
RawBytes(const Tensor& t)
{
    return t.dtype() == DType::kFloat32
               ? reinterpret_cast<const char*>(t.data<float>())
               : reinterpret_cast<const char*>(t.data<std::int32_t>());
}

/** The battery's core assertion: same dtype, same shape, same bytes. */
void
ExpectBitIdentical(const Tensor& a, const Tensor& b, const std::string& what)
{
    ASSERT_TRUE(a.dtype() == b.dtype()) << what;
    ASSERT_EQ(a.shape().dims(), b.shape().dims()) << what;
    const std::size_t bytes =
        static_cast<std::size_t>(a.num_elements()) * DTypeSize(a.dtype());
    EXPECT_EQ(std::memcmp(RawBytes(a), RawBytes(b), bytes), 0) << what;
}

std::unique_ptr<Workload>
MakeServableWorkload(const std::string& name, std::uint64_t seed = 7,
                     std::int64_t batch_size = 8)
{
    RegisterAllWorkloads();
    auto workload = WorkloadRegistry::Global().Create(name);
    WorkloadConfig config;
    config.seed = seed;
    // A common batch cap so the fixed-batch models (seq2seq, speech,
    // memnet) can host every tested coalesced size.
    config.batch_size = batch_size;
    workload->Setup(config);
    return workload;
}

// ---- FrozenPlan contract ------------------------------------------------

TEST(FrozenPlanTest, RejectsStatefulOps)
{
    RegisterAllWorkloads();  // registers the standard ops.
    runtime::Session session(1);
    auto b = session.MakeBuilder();
    const auto noise = b.RandomNormal({2, 2}, 0.0f, 1.0f);
    const auto out = b.Relu(noise);

    InferenceSignature sig;
    sig.fetches = {out};
    sig.output_names = {"out"};
    EXPECT_THROW(FrozenPlan::Freeze(session, sig), std::invalid_argument);
}

TEST(FrozenPlanTest, RejectsUndeclaredPlaceholder)
{
    RegisterAllWorkloads();
    runtime::Session session(1);
    auto b = session.MakeBuilder();
    const auto x = b.Placeholder("x");
    const auto out = b.Relu(x);

    InferenceSignature sig;  // x deliberately not declared.
    sig.fetches = {out};
    sig.output_names = {"out"};
    EXPECT_THROW(FrozenPlan::Freeze(session, sig), std::invalid_argument);
}

TEST(FrozenPlanTest, FrozenWeightsAreImmuneToLiveTraining)
{
    auto workload = MakeServableWorkload("autoenc");
    const auto plan = workload->FreezeServingPlan();
    const RequestFeeds request = workload->SampleServingRequest();

    const auto before = plan->ServeOne(request);
    workload->RunTraining(3);
    const auto after = plan->ServeOne(request);
    for (std::size_t i = 0; i < before.size(); ++i) {
        ExpectBitIdentical(before[i], after[i], "frozen output " +
                                                    std::to_string(i));
    }

    // Sanity: the live session really did move — a fresh freeze
    // produces a different embedding, so the immunity above is not
    // vacuous.
    const auto retrained = workload->FreezeServingPlan()->ServeOne(request);
    const std::size_t bytes =
        static_cast<std::size_t>(before[0].num_elements()) *
        DTypeSize(before[0].dtype());
    EXPECT_NE(
        std::memcmp(RawBytes(before[0]), RawBytes(retrained[0]), bytes), 0);
}

// ---- batching-equivalence battery ---------------------------------------

class ServingEquivalenceBattery
    : public ::testing::TestWithParam<std::string> {};

TEST_P(ServingEquivalenceBattery, BatchedRowsBitIdenticalToSolo)
{
    auto workload = MakeServableWorkload(GetParam());
    ASSERT_TRUE(workload->has_serving_endpoint());
    const auto plan = workload->FreezeServingPlan();

    constexpr std::size_t kRequests = 8;
    std::vector<RequestFeeds> requests;
    requests.reserve(kRequests);
    for (std::size_t i = 0; i < kRequests; ++i) {
        requests.push_back(workload->SampleServingRequest());
    }

    // The solo reference: each request served entirely alone.
    std::vector<std::vector<Tensor>> solo;
    solo.reserve(kRequests);
    for (const auto& request : requests) {
        solo.push_back(plan->ServeOne(request));
    }

    for (const std::size_t size : {std::size_t{1}, std::size_t{2},
                                   std::size_t{4}, std::size_t{8}}) {
        for (std::size_t start = 0; start + size <= kRequests;
             start += size) {
            std::vector<const RequestFeeds*> group;
            for (std::size_t i = start; i < start + size; ++i) {
                group.push_back(&requests[i]);
            }
            const auto batched = plan->ServeBatch(group);
            ASSERT_EQ(batched.size(), size);
            for (std::size_t i = 0; i < size; ++i) {
                ASSERT_EQ(batched[i].size(), solo[start + i].size());
                for (std::size_t o = 0; o < batched[i].size(); ++o) {
                    ExpectBitIdentical(
                        batched[i][o], solo[start + i][o],
                        GetParam() + " request " +
                            std::to_string(start + i) + " output " +
                            std::to_string(o) + " at batch size " +
                            std::to_string(size));
                }
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, ServingEquivalenceBattery,
                         ::testing::Values("seq2seq", "memnet", "speech",
                                           "autoenc", "residual", "vgg",
                                           "alexnet", "deepq"),
                         [](const auto& info) { return info.param; });

// ---- checkpoint -> freeze round trip ------------------------------------

class ServingCheckpointTest : public ::testing::TestWithParam<std::string> {
};

TEST_P(ServingCheckpointTest, FreezeFromRestoredCheckpointMatchesLive)
{
    auto live = MakeServableWorkload(GetParam(), /*seed=*/11);
    live->RunTraining(3);
    const std::string path = ::testing::TempDir() + "serving_roundtrip_" +
                             GetParam() + ".ckpt";
    runtime::SaveCheckpoint(live->session().variables(), path);

    // Inference on the live training session at this step, via its
    // frozen snapshot (freezing copies, it does not perturb).
    const auto live_plan = live->FreezeServingPlan();

    // A cold process restoring the checkpoint: same architecture,
    // different seed so every initial weight differs until restore.
    auto restored = MakeServableWorkload(GetParam(), /*seed=*/23);
    runtime::RestoreCheckpoint(&restored->session().variables(), path);
    const auto restored_plan = restored->FreezeServingPlan();

    for (int i = 0; i < 4; ++i) {
        const RequestFeeds request = live->SampleServingRequest();
        const auto expected = live_plan->ServeOne(request);
        const auto actual = restored_plan->ServeOne(request);
        ASSERT_EQ(expected.size(), actual.size());
        for (std::size_t o = 0; o < expected.size(); ++o) {
            ExpectBitIdentical(expected[o], actual[o],
                               GetParam() + " output " + std::to_string(o));
        }
    }
    std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(Models, ServingCheckpointTest,
                         ::testing::Values("autoenc", "memnet"),
                         [](const auto& info) { return info.param; });

// ---- ServingRuntime shutdown contract -----------------------------------

TEST(ServingRuntimeTest, SubmitAfterStopThrows)
{
    auto workload = MakeServableWorkload("autoenc");
    ServingRuntime runtime(workload->FreezeServingPlan());
    runtime.Stop();
    EXPECT_TRUE(runtime.stopped());
    EXPECT_THROW(runtime.Submit(workload->SampleServingRequest()),
                 std::runtime_error);
}

TEST(ServingRuntimeTest, MalformedRequestRejectedUpFront)
{
    auto workload = MakeServableWorkload("autoenc");
    ServingRuntime runtime(workload->FreezeServingPlan());
    EXPECT_THROW(runtime.Submit({}), std::invalid_argument);

    auto request = workload->SampleServingRequest();
    request.begin()->second = Tensor::Zeros(Shape{1, 3});  // wrong shape.
    EXPECT_THROW(runtime.Submit(std::move(request)), std::invalid_argument);
}

TEST(ServingRuntimeTest, StopDrainsEveryAcceptedRequest)
{
    auto workload = MakeServableWorkload("autoenc");
    ServingOptions options;
    options.max_batch = 4;
    // A long budget so requests are still queued when Stop() lands —
    // the drain, not the batcher deadline, must flush them.
    options.max_queue_delay = std::chrono::microseconds(500000);
    ServingRuntime runtime(workload->FreezeServingPlan(), options);

    std::vector<std::future<InferenceResponse>> futures;
    for (int i = 0; i < 6; ++i) {
        futures.push_back(runtime.Submit(workload->SampleServingRequest()));
    }
    runtime.Stop();
    for (auto& future : futures) {
        ASSERT_EQ(future.wait_for(kFutureTimeout),
                  std::future_status::ready)
            << "a caller was left blocked across Stop()";
        const auto response = future.get();
        EXPECT_EQ(response.outputs.size(), 2u);
    }
}

TEST(ServingRuntimeTest, DestructorDrainsInFlightRequests)
{
    auto workload = MakeServableWorkload("autoenc");
    std::vector<std::future<InferenceResponse>> futures;
    {
        ServingOptions options;
        options.max_batch = 2;
        options.max_queue_delay = std::chrono::microseconds(200000);
        ServingRuntime runtime(workload->FreezeServingPlan(), options);
        for (int i = 0; i < 5; ++i) {
            futures.push_back(
                runtime.Submit(workload->SampleServingRequest()));
        }
    }  // destructor must complete-or-fail everything.
    for (auto& future : futures) {
        ASSERT_EQ(future.wait_for(kFutureTimeout),
                  std::future_status::ready);
        EXPECT_NO_THROW(future.get());
    }
}

TEST(ServingRuntimeTest, BoundedQueueRejectsWhenFull)
{
    auto workload = MakeServableWorkload("autoenc");
    ServingOptions options;
    options.max_batch = 8;
    // Nothing launches before the deadline, so the queue genuinely
    // fills: submit 3 into depth 2 and the third must bounce.
    options.max_queue_delay = std::chrono::microseconds(300000);
    options.max_queue_depth = 2;
    ServingRuntime runtime(workload->FreezeServingPlan(), options);

    auto f0 = runtime.Submit(workload->SampleServingRequest());
    auto f1 = runtime.Submit(workload->SampleServingRequest());
    EXPECT_THROW(runtime.Submit(workload->SampleServingRequest()),
                 std::runtime_error);
    ASSERT_EQ(f0.wait_for(kFutureTimeout), std::future_status::ready);
    ASSERT_EQ(f1.wait_for(kFutureTimeout), std::future_status::ready);
    EXPECT_NO_THROW(f0.get());
    EXPECT_NO_THROW(f1.get());
}

// ---- concurrent serving battery -----------------------------------------

struct ConcurrentCase {
    const char* workload;
    int inter_op_threads;
};

class ServingConcurrentBattery
    : public ::testing::TestWithParam<ConcurrentCase> {};

TEST_P(ServingConcurrentBattery, ClientsShareOnePlanWithoutLossOrCorruption)
{
    const auto& param = GetParam();
    auto workload = MakeServableWorkload(param.workload);
    FrozenPlanOptions plan_options;
    plan_options.inter_op_threads = param.inter_op_threads;
    const auto plan = workload->FreezeServingPlan(plan_options);

    constexpr int kClients = 8;
    constexpr int kRequestsPerClient = 6;

    // Requests and their solo references are prepared up front: the
    // dataset generators are not thread-safe, and the reference gives
    // per-request correctness (which also rules out cross-request
    // response swaps — every request's payload is distinct).
    std::vector<std::vector<RequestFeeds>> requests(kClients);
    std::vector<std::vector<std::vector<Tensor>>> expected(kClients);
    for (int c = 0; c < kClients; ++c) {
        for (int r = 0; r < kRequestsPerClient; ++r) {
            requests[static_cast<std::size_t>(c)].push_back(
                workload->SampleServingRequest());
            expected[static_cast<std::size_t>(c)].push_back(plan->ServeOne(
                requests[static_cast<std::size_t>(c)].back()));
        }
    }

    ServingOptions options;
    options.max_batch = 4;
    options.max_queue_delay = std::chrono::microseconds(1000);
    options.executors = 2;
    ServingRuntime runtime(plan, options);

    std::atomic<int> responses{0};
    std::atomic<int> mismatches{0};
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (int c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
            std::mt19937 arrival(static_cast<unsigned>(1234 + c));
            std::uniform_int_distribution<int> jitter_us(0, 1500);
            for (int r = 0; r < kRequestsPerClient; ++r) {
                std::this_thread::sleep_for(
                    std::chrono::microseconds(jitter_us(arrival)));
                auto future = runtime.Submit(
                    requests[static_cast<std::size_t>(c)]
                            [static_cast<std::size_t>(r)]);
                const auto response = future.get();
                ++responses;
                const auto& want =
                    expected[static_cast<std::size_t>(c)]
                            [static_cast<std::size_t>(r)];
                if (response.outputs.size() != want.size()) {
                    ++mismatches;
                    continue;
                }
                for (std::size_t o = 0; o < want.size(); ++o) {
                    const Tensor& got = response.outputs[o];
                    const std::size_t bytes =
                        static_cast<std::size_t>(want[o].num_elements()) *
                        DTypeSize(want[o].dtype());
                    if (got.shape().dims() != want[o].shape().dims() ||
                        std::memcmp(RawBytes(got), RawBytes(want[o]),
                                    bytes) != 0) {
                        ++mismatches;
                    }
                }
            }
        });
    }
    for (auto& client : clients) {
        client.join();
    }
    runtime.Stop();

    // Exactly one response per submission, every one bit-identical to
    // its solo reference.
    EXPECT_EQ(responses.load(), kClients * kRequestsPerClient);
    EXPECT_EQ(mismatches.load(), 0);
}

INSTANTIATE_TEST_SUITE_P(
    Widths, ServingConcurrentBattery,
    ::testing::Values(ConcurrentCase{"autoenc", 1},
                      ConcurrentCase{"autoenc", 2},
                      ConcurrentCase{"autoenc", 4},
                      // The fixed-batch padding path under contention.
                      ConcurrentCase{"memnet", 2}),
    [](const auto& info) {
        return std::string(info.param.workload) + "_width" +
               std::to_string(info.param.inter_op_threads);
    });

// ---- Session vs FrozenPlan ----------------------------------------------

/** Stacks @p requests row by row into name -> [B, ...] feeds. */
std::map<std::string, Tensor>
StackRequests(const InferenceSignature& signature,
              const std::vector<RequestFeeds>& requests)
{
    std::map<std::string, Tensor> feeds;
    const auto rows = static_cast<std::int64_t>(requests.size());
    for (const TensorSpec& spec : signature.inputs) {
        std::vector<std::int64_t> dims{rows};
        dims.insert(dims.end(), spec.example_dims.begin(),
                    spec.example_dims.end());
        Tensor batched(spec.dtype, Shape(dims));
        const std::size_t row_bytes =
            batched.byte_size() / static_cast<std::size_t>(rows);
        char* dst = RawBytes(batched);
        for (std::size_t i = 0; i < requests.size(); ++i) {
            std::memcpy(dst + i * row_bytes,
                        RawBytes(requests[i].at(spec.name)), row_bytes);
        }
        feeds.emplace(spec.name, std::move(batched));
    }
    return feeds;
}

class SessionVsFrozenConcurrentBattery
    : public ::testing::TestWithParam<std::string> {};

/**
 * The determinism contract's "Session vs FrozenPlan" case: the serving
 * signature's fetches, run by the training session on its live graph
 * and by the frozen plan on its private copy, are bit-identical at
 * every inter-op width.
 */
TEST_P(SessionVsFrozenConcurrentBattery, FetchesBitIdenticalAtEveryWidth)
{
    auto workload = MakeServableWorkload(GetParam());
    const InferenceSignature signature = workload->ServingSignature();
    const std::int64_t rows =
        signature.fixed_batch > 0 ? signature.fixed_batch : 3;
    std::vector<RequestFeeds> requests;
    for (std::int64_t i = 0; i < rows; ++i) {
        requests.push_back(workload->SampleServingRequest());
    }
    const auto feeds = StackRequests(signature, requests);

    for (const int width : {1, 2, 4}) {
        FrozenPlanOptions options;
        options.inter_op_threads = width;
        const auto plan = workload->FreezeServingPlan(options);
        workload->session().SetInterOpThreads(width);
        const auto from_session =
            workload->session().RunNamed(feeds, signature.fetches);
        const auto from_plan = plan->Run(feeds);
        ASSERT_EQ(from_session.size(), from_plan.size());
        for (std::size_t o = 0; o < from_plan.size(); ++o) {
            ExpectBitIdentical(from_session[o], from_plan[o],
                               GetParam() + " output " +
                                   signature.output_names[o] +
                                   " at inter-op width " +
                                   std::to_string(width));
        }
    }
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, SessionVsFrozenConcurrentBattery,
                         ::testing::Values("seq2seq", "memnet", "speech",
                                           "autoenc", "residual", "vgg",
                                           "alexnet", "deepq"),
                         [](const auto& info) { return info.param; });

/**
 * A pure test kernel that, while armed, fails on purpose: each
 * instance waits until `parties` instances are running (so they are
 * in flight together), sleeps by its `idx` attr (ascending or
 * descending), and throws. Disarmed, it passes its input through.
 */
struct InjectedFailure {
    static inline std::atomic<bool> armed{false};
    static inline std::atomic<int> parties{1};
    static inline std::atomic<bool> reverse{false};

    static inline std::mutex mu;
    static inline std::condition_variable cv;
    static inline int arrived = 0;
    static inline std::uint64_t generation = 0;

    static void
    Register()
    {
        static std::once_flag once;
        std::call_once(once, [] {
            graph::OpRegistry::Global().Register(graph::OpDef{
                "TestInjectedFailure", graph::OpClass::kElementwise,
                &InjectedFailure::Kernel, nullptr, false});
            graph::verify::ShapeFnRegistry::Global().Register(
                "TestInjectedFailure",
                [](graph::verify::InferenceContext& ctx) {
                    ctx.set_output(0, ctx.input(0));
                });
        });
    }

    static void
    Kernel(graph::OpContext& ctx)
    {
        if (!armed.load()) {
            ctx.set_output(0, ctx.input(0));
            return;
        }
        {
            // A reusable barrier; the timeout only guards the suite
            // against a hang if the executor stops running steps
            // concurrently.
            std::unique_lock<std::mutex> lock(mu);
            const std::uint64_t gen = generation;
            if (++arrived >= parties.load()) {
                arrived = 0;
                ++generation;
                cv.notify_all();
            } else if (!cv.wait_for(lock, std::chrono::seconds(30),
                                    [gen] { return generation != gen; })) {
                arrived = 0;
                ++generation;
            }
        }
        const std::int64_t idx = ctx.node().attr("idx").AsInt();
        std::this_thread::sleep_for(
            std::chrono::milliseconds(5 * (reverse.load() ? 3 - idx : idx)));
        throw std::runtime_error("injected failure");
    }
};

/** @return what() of the error @p run throws ("" if none). */
template <typename Fn>
std::string
ErrorOf(Fn&& run)
{
    try {
        run();
    } catch (const std::exception& e) {
        return e.what();
    }
    return "";
}

/**
 * Four failing steps in flight at once on four lanes: both runners
 * surface the lowest plan sequence's error (the one the serial
 * executor hits first) whichever fails first, return every buffer to
 * the pool, and run cleanly afterwards.
 */
TEST(RunnerFailureConcurrentBattery,
     LowestSequenceErrorWinsAndRunnersRecover)
{
    RegisterAllWorkloads();  // registers the standard ops.
    InjectedFailure::Register();
    runtime::Session session(1);
    auto b = session.MakeBuilder();
    const graph::Output x = b.Placeholder("x");
    std::vector<graph::Output> fetches{
        b.AddN({b.Relu(x), b.Tanh(x), b.Sigmoid(x)})};
    for (int i = 0; i < 4; ++i) {
        fetches.push_back({b.AddNode("fail" + std::to_string(i),
                                     "TestInjectedFailure", {x},
                                     {{"idx", i}}),
                           0});
    }
    InferenceSignature signature;
    signature.inputs = {{"x", DType::kFloat32, {4}}};
    signature.fetches = fetches;
    for (std::size_t i = 0; i < fetches.size(); ++i) {
        signature.output_names.push_back("out" + std::to_string(i));
    }

    Tensor input(DType::kFloat32, Shape{2, 4});
    input.Fill(0.5f);
    const std::map<std::string, Tensor> feeds{{"x", input}};
    auto run_session = [&] { return session.RunNamed(feeds, fetches); };
    FrozenPlanOptions options;
    options.inter_op_threads = 4;
    const auto frozen = FrozenPlan::Freeze(session, signature, options);
    auto run_frozen = [&] { return frozen->Run(feeds); };

    // Disarmed, the two runners agree; the serial executor names the
    // lowest-sequence failure once armed.
    InjectedFailure::armed = false;
    const auto healthy = run_session();
    const auto healthy_frozen = run_frozen();
    ASSERT_EQ(healthy.size(), healthy_frozen.size());
    for (std::size_t o = 0; o < healthy.size(); ++o) {
        ExpectBitIdentical(healthy[o], healthy_frozen[o], "healthy run");
    }
    InjectedFailure::armed = true;
    InjectedFailure::parties = 1;
    const std::string expected = ErrorOf(run_session);
    ASSERT_NE(expected.find("injected failure"), std::string::npos)
        << expected;

    session.SetInterOpThreads(4);
    InjectedFailure::parties = 4;
    for (const bool reverse : {false, true}) {
        InjectedFailure::reverse = reverse;
        for (const auto& [runner, run] :
             {std::pair<const char*, std::function<std::vector<Tensor>()>>{
                  "Session", run_session},
              {"FrozenPlan", run_frozen}}) {
            SCOPED_TRACE(std::string(runner) +
                         (reverse ? ", reversed delays" : ""));
            const std::uint64_t live_before =
                BufferPool::Global().stats().live_bytes;
            InjectedFailure::armed = true;
            EXPECT_EQ(ErrorOf(run), expected);
            EXPECT_EQ(BufferPool::Global().stats().live_bytes, live_before);

            InjectedFailure::armed = false;
            const auto again = run();
            ASSERT_EQ(again.size(), healthy.size());
            for (std::size_t o = 0; o < again.size(); ++o) {
                ExpectBitIdentical(again[o], healthy[o], "after failure");
            }
        }
    }
}

}  // namespace
}  // namespace fathom::serving
