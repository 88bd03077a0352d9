#include "core/vsg.hpp"

#include <gtest/gtest.h>

#include "bench/bench_util.hpp"

namespace hcm::core {
namespace {

InterfaceDesc calc_interface() {
  return InterfaceDesc{
      "Calc",
      {MethodDesc{"add",
                  {{"a", ValueType::kInt}, {"b", ValueType::kInt}},
                  ValueType::kInt,
                  false}}};
}

class VsgTest : public ::testing::TestWithParam<VsgProtocol> {
 protected:
  void SetUp() override {
    gw_a = &net.add_node("gw-a");
    gw_b = &net.add_node("gw-b");
    auto& eth = net.add_ethernet("backbone", sim::milliseconds(5),
                                 10'000'000);
    net.attach(*gw_a, eth);
    net.attach(*gw_b, eth);
    vsg_a = std::make_unique<VirtualServiceGateway>(net, gw_a->id(),
                                                    "island-a", 8080,
                                                    GetParam());
    vsg_b = std::make_unique<VirtualServiceGateway>(net, gw_b->id(),
                                                    "island-b", 8080,
                                                    GetParam());
    ASSERT_TRUE(vsg_a->start().is_ok());
    ASSERT_TRUE(vsg_b->start().is_ok());
  }

  sim::Scheduler sched;
  net::Network net{sched};
  net::Node* gw_a = nullptr;
  net::Node* gw_b = nullptr;
  std::unique_ptr<VirtualServiceGateway> vsg_a;
  std::unique_ptr<VirtualServiceGateway> vsg_b;
};

TEST_P(VsgTest, ExposeAndCallAcrossGateways) {
  auto uri = vsg_a->expose(
      "calc-1", calc_interface(),
      [](const std::string& method, const ValueList& args,
         InvokeResultFn done) {
        ASSERT_EQ(method, "add");
        done(Value(args[0].as_int() + args[1].as_int()));
      });
  ASSERT_TRUE(uri.is_ok()) << uri.status().to_string();

  std::optional<Result<Value>> result;
  vsg_b->call_remote(uri.value(), "calc-1", calc_interface(), "add",
                     {Value(20), Value(22)},
                     [&](Result<Value> r) { result = std::move(r); });
  sched.run();
  ASSERT_TRUE(result.has_value());
  ASSERT_TRUE(result->is_ok()) << result->status().to_string();
  EXPECT_EQ(result->value(), Value(42));
  EXPECT_EQ(vsg_a->local_dispatches(), 1u);
  EXPECT_EQ(vsg_b->remote_calls(), 1u);
}

TEST_P(VsgTest, ArgumentsValidatedBeforeWire) {
  auto uri = vsg_a->expose("calc-1", calc_interface(),
                           [](const std::string&, const ValueList&,
                              InvokeResultFn done) { done(Value(0)); });
  ASSERT_TRUE(uri.is_ok());
  std::optional<Result<Value>> result;
  vsg_b->call_remote(uri.value(), "calc-1", calc_interface(), "add",
                     {Value("x"), Value(1)},
                     [&](Result<Value> r) { result = std::move(r); });
  sched.run();
  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(result->is_ok());
  EXPECT_EQ(vsg_b->remote_calls(), 0u);  // rejected client-side
}

TEST_P(VsgTest, UnknownMethodRejected) {
  auto uri = vsg_a->expose("calc-1", calc_interface(),
                           [](const std::string&, const ValueList&,
                              InvokeResultFn done) { done(Value(0)); });
  std::optional<Result<Value>> result;
  vsg_b->call_remote(uri.value(), "calc-1", calc_interface(), "subtract",
                     {Value(1), Value(2)},
                     [&](Result<Value> r) { result = std::move(r); });
  sched.run();
  EXPECT_FALSE(result->is_ok());
}

TEST_P(VsgTest, DoubleExposeRejected) {
  auto handler = [](const std::string&, const ValueList&,
                    InvokeResultFn done) { done(Value(0)); };
  ASSERT_TRUE(vsg_a->expose("calc-1", calc_interface(), handler).is_ok());
  auto second = vsg_a->expose("calc-1", calc_interface(), handler);
  ASSERT_FALSE(second.is_ok());
  EXPECT_EQ(second.status().code(), StatusCode::kAlreadyExists);
}

TEST_P(VsgTest, UnexposeStopsService) {
  auto uri = vsg_a->expose("calc-1", calc_interface(),
                           [](const std::string&, const ValueList&,
                              InvokeResultFn done) { done(Value(7)); });
  ASSERT_TRUE(uri.is_ok());
  vsg_a->unexpose("calc-1");
  EXPECT_FALSE(vsg_a->is_exposed("calc-1"));
  std::optional<Result<Value>> result;
  vsg_b->call_remote(uri.value(), "calc-1", calc_interface(), "add",
                     {Value(1), Value(2)},
                     [&](Result<Value> r) { result = std::move(r); });
  sched.run();
  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(result->is_ok());
}

TEST_P(VsgTest, ServiceErrorTunnels) {
  auto uri = vsg_a->expose("calc-1", calc_interface(),
                           [](const std::string&, const ValueList&,
                              InvokeResultFn done) {
                             done(resource_exhausted("overflow"));
                           });
  std::optional<Result<Value>> result;
  vsg_b->call_remote(uri.value(), "calc-1", calc_interface(), "add",
                     {Value(1), Value(2)},
                     [&](Result<Value> r) { result = std::move(r); });
  sched.run();
  ASSERT_TRUE(result.has_value());
  ASSERT_FALSE(result->is_ok());
  EXPECT_EQ(result->status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(result->status().message(), "overflow");
}

TEST_P(VsgTest, GatewayDownSurfacesUnavailable) {
  auto uri = vsg_a->expose("calc-1", calc_interface(),
                           [](const std::string&, const ValueList&,
                              InvokeResultFn done) { done(Value(0)); });
  gw_a->set_up(false);
  std::optional<Result<Value>> result;
  vsg_b->call_remote(uri.value(), "calc-1", calc_interface(), "add",
                     {Value(1), Value(2)},
                     [&](Result<Value> r) { result = std::move(r); });
  sched.run();
  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(result->is_ok());
}

TEST_P(VsgTest, SilentPeerTimesOut) {
  // The exposed handler never completes: the caller's gateway gives up
  // after 30 s, on the binary channel exactly as on SOAP/HTTP.
  auto uri = vsg_a->expose("calc-1", calc_interface(),
                           [](const std::string&, const ValueList&,
                              InvokeResultFn) { /* never replies */ });
  ASSERT_TRUE(uri.is_ok());
  std::optional<Result<Value>> result;
  sim::SimTime done_at = 0;
  const sim::SimTime start = sched.now();
  vsg_b->call_remote(uri.value(), "calc-1", calc_interface(), "add",
                     {Value(1), Value(2)}, [&](Result<Value> r) {
                       result = std::move(r);
                       done_at = sched.now();
                     });
  sched.run_for(sim::seconds(300));
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->status().code(), StatusCode::kTimeout);
  EXPECT_GE(done_at - start, sim::seconds(30));
  EXPECT_LT(done_at - start, sim::seconds(31));
}

TEST_P(VsgTest, ExposureUriMatchesProtocol) {
  auto uri = vsg_a->expose("calc-1", calc_interface(),
                           [](const std::string&, const ValueList&,
                              InvokeResultFn done) { done(Value(0)); });
  ASSERT_TRUE(uri.is_ok());
  EXPECT_EQ(uri.value(), vsg_a->exposure_uri("calc-1"));
  if (GetParam() == VsgProtocol::kSoap) {
    EXPECT_EQ(uri.value().scheme, "http");
  } else {
    EXPECT_EQ(uri.value().scheme, "hcmb");
  }
  EXPECT_EQ(uri.value().host, "gw-a");
}

// Steady state of one cross-gateway call with one int argument: the
// allocations one warm call costs, averaged over 100 calls. The caller's
// call_remote and the callee's dispatch glue each observe the completion
// they are handed; those observations ride inside the completion
// (SmallFn::decorate) instead of a heap cell per hop. On SOAP the
// server's completion holds only a dispatch slot, whose strings keep
// their capacity, and element names are written in parts, so names
// longer than the small-string buffer cost nothing either. The names
// are built once, outside the measured loop.
double warm_call_allocs(VirtualServiceGateway& callee,
                        VirtualServiceGateway& caller, sim::Scheduler& sched,
                        const std::string& interface_name,
                        const std::string& method) {
  const InterfaceDesc iface{
      interface_name,
      {MethodDesc{method, {{"x", ValueType::kInt}}, ValueType::kInt, false}}};
  const std::string service = interface_name + "-1";
  auto uri = callee.expose(service, iface,
                           [](const std::string&, const ValueList& args,
                              InvokeResultFn done) {
                             done(Value(args[0].as_int()));
                           });
  EXPECT_TRUE(uri.is_ok()) << uri.status().to_string();
  if (!uri.is_ok()) return -1;
  const ValueList args{Value(7)};
  std::int64_t sum = 0;
  int failures = 0;
  auto call_once = [&] {
    caller.call_remote(uri.value(), service, iface, method, args,
                       [&](Result<Value> r) {
                         if (r.is_ok()) {
                           sum += r.value().as_int();
                         } else {
                           ++failures;
                         }
                       });
    sched.run();
  };
  // Warm-up: the backbone connection, pooled blocks and scratch buffers.
  const int kWarm = 10;
  for (int i = 0; i < kWarm; ++i) call_once();
  EXPECT_TRUE(bench::alloc_hook_installed());
  const int kCalls = 100;
  bench::AllocDelta delta;
  for (int i = 0; i < kCalls; ++i) call_once();
  const std::uint64_t allocs = delta.allocs();
  EXPECT_EQ(failures, 0);
  EXPECT_EQ(sum, 7 * (kWarm + kCalls));
  return static_cast<double>(allocs) / kCalls;
}

TEST_P(VsgTest, WarmCallAllocationsStayPinned) {
  const std::string interface_name = "Echo";
  const std::string method = "echo";
  const double per_call =
      warm_call_allocs(*vsg_a, *vsg_b, sched, interface_name, method);
  EXPECT_GE(per_call, 0.0);
  EXPECT_LT(per_call, 0.5) << per_call * 100 << " allocations";
}

TEST_P(VsgTest, WarmCallAllocationsStayPinnedWithLongNames) {
  // Both names overflow the 15-byte small-string buffer, as the
  // interface namespace (urn:hcm:LaserdiscPlayer) and the response
  // element (m:getTransportStateResponse) do.
  const std::string interface_name = "LaserdiscPlayer";
  const std::string method = "getTransportState";
  const double per_call =
      warm_call_allocs(*vsg_a, *vsg_b, sched, interface_name, method);
  EXPECT_GE(per_call, 0.0);
  EXPECT_LT(per_call, 0.5) << per_call * 100 << " allocations";
}

TEST(VsgKeepAliveTest, BackboneConnectionReusedAcrossCalls) {
  sim::Scheduler sched;
  net::Network net{sched};
  auto& gw_a = net.add_node("gw-a");
  auto& gw_b = net.add_node("gw-b");
  auto& eth = net.add_ethernet("backbone", sim::milliseconds(5), 10'000'000);
  net.attach(gw_a, eth);
  net.attach(gw_b, eth);
  VirtualServiceGateway callee(net, gw_a.id(), "island-a", 8080,
                               VsgProtocol::kSoap);
  VirtualServiceGateway caller(net, gw_b.id(), "island-b", 8080,
                               VsgProtocol::kSoap);
  ASSERT_TRUE(callee.start().is_ok());
  ASSERT_TRUE(caller.start().is_ok());
  auto uri = callee.expose("calc-1", calc_interface(),
                           [](const std::string&, const ValueList& args,
                              InvokeResultFn done) {
                             done(Value(args[0].as_int() + args[1].as_int()));
                           });
  ASSERT_TRUE(uri.is_ok());

  const int kCalls = 8;
  for (int i = 0; i < kCalls; ++i) {
    std::optional<Result<Value>> result;
    caller.call_remote(uri.value(), "calc-1", calc_interface(), "add",
                       {Value(i), Value(1)},
                       [&](Result<Value> r) { result = std::move(r); });
    sched.run();
    ASSERT_TRUE(result.has_value());
    ASSERT_TRUE(result->is_ok()) << result->status().to_string();
    EXPECT_EQ(result->value(), Value(std::int64_t{i} + 1));
  }
  EXPECT_EQ(caller.remote_calls(), static_cast<std::uint64_t>(kCalls));
  // The backbone SoapClient keeps its connection alive: all calls ride
  // one accepted transport connection.
  EXPECT_EQ(callee.backbone_connections_accepted(), 1u);
}

INSTANTIATE_TEST_SUITE_P(BothProtocols, VsgTest,
                         ::testing::Values(VsgProtocol::kSoap,
                                           VsgProtocol::kBinary),
                         [](const auto& info) {
                           return info.param == VsgProtocol::kSoap
                                      ? "Soap"
                                      : "Binary";
                         });

}  // namespace
}  // namespace hcm::core
