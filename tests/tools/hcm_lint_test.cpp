// Fixture tests for hcm_lint itself: each framework invariant the
// checker enforces gets a violating descriptor/WSDL/VSR fixture and an
// assertion on the diagnostic produced (and a clean fixture proving no
// false positive).
#include "hcm_lint/lint.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "soap/wsdl.hpp"

namespace hcm::lint {
namespace {

bool has_check(const Diagnostics& diags, const std::string& check) {
  return std::any_of(diags.begin(), diags.end(),
                     [&](const Diagnostic& d) { return d.check == check; });
}

InterfaceDesc clean_interface() {
  return InterfaceDesc{
      "VcrControl",
      {MethodDesc{"play", {}, ValueType::kBool, false},
       MethodDesc{"record",
                  {{"channel", ValueType::kInt}, {"title", ValueType::kString}},
                  ValueType::kBool, false},
       MethodDesc{"notifyTape", {{"present", ValueType::kBool}},
                  ValueType::kNull, true}}};
}

TEST(LintInterfaceTest, CleanInterfaceHasNoDiagnostics) {
  auto diags = check_interface(clean_interface(), "fixture");
  EXPECT_TRUE(diags.empty()) << format_diagnostics(diags);
  diags = check_wsdl_roundtrip(clean_interface(), "fixture");
  EXPECT_TRUE(diags.empty()) << format_diagnostics(diags);
}

TEST(LintInterfaceTest, DuplicateMethodNameIsFlagged) {
  InterfaceDesc iface = clean_interface();
  iface.methods.push_back(MethodDesc{"play", {}, ValueType::kInt, false});
  auto diags = check_interface(iface, "fixture");
  EXPECT_TRUE(has_check(diags, "duplicate-method"))
      << format_diagnostics(diags);
}

TEST(LintInterfaceTest, OneWayMethodWithReturnTypeIsFlagged) {
  InterfaceDesc iface = clean_interface();
  iface.methods.push_back(
      MethodDesc{"fireAndForget", {}, ValueType::kInt, true});
  auto diags = check_interface(iface, "fixture");
  EXPECT_TRUE(has_check(diags, "one-way-return")) << format_diagnostics(diags);
  // The same defect is visible as WSDL drift: emit drops the reply, so
  // the round-trip loses the declared return type.
  auto rt = check_wsdl_roundtrip(iface, "fixture");
  EXPECT_TRUE(has_check(rt, "wsdl-roundtrip")) << format_diagnostics(rt);
}

TEST(LintInterfaceTest, UnrepresentableValueTypeIsFlagged) {
  InterfaceDesc iface = clean_interface();
  iface.methods.push_back(MethodDesc{
      "weird", {{"arg", static_cast<ValueType>(99)}}, ValueType::kNull,
      false});
  auto diags = check_interface(iface, "fixture");
  EXPECT_TRUE(has_check(diags, "unrepresentable-type"))
      << format_diagnostics(diags);
}

TEST(LintInterfaceTest, UnnamedMethodAndInterfaceAreFlagged) {
  InterfaceDesc iface;
  iface.methods.push_back(MethodDesc{"", {}, ValueType::kNull, false});
  auto diags = check_interface(iface, "fixture");
  EXPECT_TRUE(has_check(diags, "unnamed-interface"));
  EXPECT_TRUE(has_check(diags, "unnamed-method"));
}

// --- events contract ----------------------------------------------------

InterfaceDesc clean_event_interface() {
  InterfaceDesc iface = clean_interface();
  iface.events.push_back(MethodDesc{"transportChanged",
                                    {{"state", ValueType::kString}},
                                    ValueType::kNull, true});
  return iface;
}

TEST(LintEventsTest, CleanEventInterfaceHasNoDiagnostics) {
  auto diags = check_interface(clean_event_interface(), "fixture");
  EXPECT_TRUE(diags.empty()) << format_diagnostics(diags);
  diags = check_wsdl_roundtrip(clean_event_interface(), "fixture");
  EXPECT_TRUE(diags.empty()) << format_diagnostics(diags);
}

TEST(LintEventsTest, UnnamedEventIsFlagged) {
  auto iface = clean_event_interface();
  iface.events.push_back(MethodDesc{"", {}, ValueType::kNull, true});
  auto diags = check_interface(iface, "fixture");
  EXPECT_TRUE(has_check(diags, "unnamed-event")) << format_diagnostics(diags);
}

TEST(LintEventsTest, DuplicateEventIsFlagged) {
  auto iface = clean_event_interface();
  iface.events.push_back(iface.events.front());
  auto diags = check_interface(iface, "fixture");
  EXPECT_TRUE(has_check(diags, "duplicate-event"))
      << format_diagnostics(diags);
}

TEST(LintEventsTest, TwoWayEventIsFlagged) {
  auto iface = clean_event_interface();
  iface.events.push_back(MethodDesc{"ack", {}, ValueType::kNull, false});
  auto diags = check_interface(iface, "fixture");
  EXPECT_TRUE(has_check(diags, "event-not-one-way"))
      << format_diagnostics(diags);
}

TEST(LintEventsTest, EventWithReturnTypeIsFlagged) {
  auto iface = clean_event_interface();
  iface.events.push_back(MethodDesc{"reply", {}, ValueType::kInt, true});
  auto diags = check_interface(iface, "fixture");
  EXPECT_TRUE(has_check(diags, "event-return")) << format_diagnostics(diags);
}

TEST(LintEventsTest, EventParamTypesAreChecked) {
  auto iface = clean_event_interface();
  iface.events.push_back(MethodDesc{
      "weird", {{"arg", static_cast<ValueType>(99)}}, ValueType::kNull, true});
  auto diags = check_interface(iface, "fixture");
  EXPECT_TRUE(has_check(diags, "unrepresentable-type"))
      << format_diagnostics(diags);
}

TEST(LintEventsTest, EventsSurviveWsdlRoundTrip) {
  // The round-trip rule covers events through the interface equality
  // check: drop the events port type and the comparison must fail.
  auto iface = clean_event_interface();
  auto doc = soap::parse_wsdl(soap::emit_wsdl(
      iface, "probe", parse_uri("http://h:1/x").value()));
  ASSERT_TRUE(doc.is_ok());
  ASSERT_EQ(doc.value().interface, iface);
  auto stripped = doc.value().interface;
  stripped.events.clear();
  EXPECT_FALSE(stripped == iface);
}

class LintVsrTest : public ::testing::Test {
 protected:
  void SetUp() override {
    gw_ = &net_.add_node("gw");
    auto& eth = net_.add_ethernet("lan", sim::milliseconds(1), 10'000'000);
    net_.attach(*gw_, eth);
    vsg_ = std::make_unique<core::VirtualServiceGateway>(net_, gw_->id(),
                                                         "island");
    ASSERT_TRUE(vsg_->start().is_ok());
    ASSERT_TRUE(vsg_->expose("lamp-1", clean_interface(),
                             [](const std::string&, const ValueList&,
                                InvokeResultFn done) { done(Value(true)); })
                    .is_ok());
    ctx_.vsg_for_origin = [this](const std::string& origin) {
      return origin == "island" ? vsg_.get() : nullptr;
    };
    ctx_.net = &net_;
  }

  soap::RegistryEntry entry_for(const std::string& name, const Uri& endpoint) {
    soap::RegistryEntry e;
    e.name = name;
    e.category = "VcrControl";
    e.origin = "island";
    e.wsdl = soap::emit_wsdl(clean_interface(), name, endpoint);
    return e;
  }

  sim::Scheduler sched_;
  net::Network net_{sched_};
  net::Node* gw_ = nullptr;
  std::unique_ptr<core::VirtualServiceGateway> vsg_;
  VsrCheckContext ctx_;
};

TEST_F(LintVsrTest, LiveEntryHasNoDiagnostics) {
  auto diags = check_vsr_entries(
      {entry_for("lamp-1", vsg_->exposure_uri("lamp-1"))}, ctx_);
  EXPECT_TRUE(diags.empty()) << format_diagnostics(diags);
}

TEST_F(LintVsrTest, DanglingEntryIsFlagged) {
  // "ghost" is in the VSR but was never exposed (or was unexposed).
  auto diags = check_vsr_entries(
      {entry_for("ghost", vsg_->exposure_uri("ghost"))}, ctx_);
  EXPECT_TRUE(has_check(diags, "vsr-dangling-entry"))
      << format_diagnostics(diags);
}

TEST_F(LintVsrTest, EndpointMismatchIsFlagged) {
  auto stale = parse_uri("http://gw:9999/vsg/lamp-1");
  ASSERT_TRUE(stale.is_ok());
  auto diags = check_vsr_entries({entry_for("lamp-1", stale.value())}, ctx_);
  EXPECT_TRUE(has_check(diags, "vsr-endpoint-mismatch"))
      << format_diagnostics(diags);
}

TEST_F(LintVsrTest, UnknownOriginIsFlagged) {
  auto entry = entry_for("lamp-1", vsg_->exposure_uri("lamp-1"));
  entry.origin = "mars-island";
  auto diags = check_vsr_entries({entry}, ctx_);
  EXPECT_TRUE(has_check(diags, "vsr-unknown-origin"))
      << format_diagnostics(diags);
}

TEST_F(LintVsrTest, UnparsableWsdlIsFlagged) {
  soap::RegistryEntry entry;
  entry.name = "broken";
  entry.origin = "island";
  entry.wsdl = "<definitely-not-wsdl/>";
  auto diags = check_vsr_entries({entry}, ctx_);
  EXPECT_TRUE(has_check(diags, "vsr-bad-wsdl")) << format_diagnostics(diags);
}

// --- observability contract ---------------------------------------------

// Reuses the live-gateway fixture: expose() registers per-op metrics in
// the global registry, so the clean case checks against that; violation
// cases use a local registry shaped to each defect.
class LintObsOpTest : public LintVsrTest {
 protected:
  std::string op_base(const std::string& method) const {
    return vsg_->obs_scope() + ".op.lamp-1." + method;
  }
};

TEST_F(LintObsOpTest, FreshlyExposedGatewayHasNoDiagnostics) {
  auto diags = check_vsg_op_metrics(*vsg_, obs::Registry::global());
  EXPECT_TRUE(diags.empty()) << format_diagnostics(diags);
}

TEST_F(LintObsOpTest, MissingHistogramIsFlagged) {
  // A registry that never saw expose(): every mounted op is missing.
  obs::Registry bare;
  auto diags = check_vsg_op_metrics(*vsg_, bare);
  EXPECT_TRUE(has_check(diags, "obs-op-missing")) << format_diagnostics(diags);
  EXPECT_EQ(diags.size(), vsg_->exposed_ops().size());
}

TEST_F(LintObsOpTest, DispatchedButUnsampledOpIsFlagged) {
  obs::Registry reg;
  for (const auto& [service, method] : vsg_->exposed_ops()) {
    reg.histogram(op_base(method) + "_us");  // registered, but empty
    reg.counter(op_base(method) + ".calls").inc();
  }
  auto diags = check_vsg_op_metrics(*vsg_, reg);
  EXPECT_TRUE(has_check(diags, "obs-op-unsampled"))
      << format_diagnostics(diags);
  EXPECT_FALSE(has_check(diags, "obs-op-missing"));
}

TEST_F(LintObsOpTest, SampledOpsAreClean) {
  obs::Registry reg;
  for (const auto& [service, method] : vsg_->exposed_ops()) {
    reg.histogram(op_base(method) + "_us").observe(42);
    reg.counter(op_base(method) + ".calls").inc();
  }
  auto diags = check_vsg_op_metrics(*vsg_, reg);
  EXPECT_TRUE(diags.empty()) << format_diagnostics(diags);
}

// --- registry wire contract ----------------------------------------------

TEST(LintRegistryWireTest, CanonicalFixturesCoverLiveRegistry) {
  // Self-test of the shipped fixture set against a real registry's
  // mounted ops: full coverage, no unknown ops, all values codec-clean.
  sim::Scheduler sched;
  net::Network net{sched};
  auto& host = net.add_node("vsr");
  auto& eth = net.add_ethernet("bb", sim::milliseconds(1), 10'000'000);
  net.attach(host, eth);
  http::HttpServer http(net, host.id(), 80);
  ASSERT_TRUE(http.start().is_ok());
  soap::UddiRegistry registry(http, sched);

  auto diags =
      check_registry_wire(registry.wire_ops(), registry_wire_fixtures());
  EXPECT_TRUE(diags.empty()) << format_diagnostics(diags);
}

TEST(LintRegistryWireTest, UncoveredOpIsFlagged) {
  auto fixtures = registry_wire_fixtures();
  auto diags = check_registry_wire({"publish", "futureOp"}, fixtures);
  EXPECT_TRUE(has_check(diags, "registry-wire-uncovered"))
      << format_diagnostics(diags);
}

TEST(LintRegistryWireTest, UnknownFixtureOpIsFlagged) {
  std::vector<WireFixture> fixtures{{"ghostOp", {}, Value(true)}};
  auto diags = check_registry_wire({"ghostOp"}, fixtures);
  EXPECT_TRUE(diags.empty()) << format_diagnostics(diags);
  diags = check_registry_wire({"publish"}, fixtures);
  EXPECT_TRUE(has_check(diags, "registry-wire-unknown-op"))
      << format_diagnostics(diags);
}

TEST(LintRegistryWireTest, NonRoundTrippingPayloadIsFlagged) {
  // NaN is the canonical codec-breaking payload: both codecs preserve
  // the bits but NaN != NaN, so value equality cannot survive.
  std::vector<WireFixture> fixtures{
      {"publish",
       {{"weight", Value(std::numeric_limits<double>::quiet_NaN())}},
       Value(true)}};
  auto diags = check_registry_wire({"publish"}, fixtures);
  EXPECT_TRUE(has_check(diags, "registry-wire-codec"))
      << format_diagnostics(diags);
}

TEST(LintStoreRecordTest, CanonicalFixturesCoverAllRecordTypes) {
  // Self-test of the shipped fixture set: every durable record type has
  // an exemplar and every exemplar round-trips canonically.
  auto diags = check_store_records(store::all_record_types(),
                                   store_record_fixtures());
  EXPECT_TRUE(diags.empty()) << format_diagnostics(diags);
}

TEST(LintStoreRecordTest, UncoveredRecordTypeIsFlagged) {
  auto fixtures = store_record_fixtures();
  // Drop the checkpoint exemplar: its type must surface as uncovered.
  fixtures.erase(std::remove_if(fixtures.begin(), fixtures.end(),
                                [](const StoreRecordFixture& f) {
                                  return f.record.type ==
                                         store::RecordType::kCheckpoint;
                                }),
                 fixtures.end());
  auto diags = check_store_records(store::all_record_types(), fixtures);
  EXPECT_TRUE(has_check(diags, "store-record-uncovered"))
      << format_diagnostics(diags);
}

TEST(LintStoreRecordTest, FixturesSurviveFrameAndChainReuse) {
  // The encoded fixtures are exactly what the log frames carry; folding
  // them through the chain hash must be stable across two runs (the
  // canonical-encoding property the codec check enforces).
  std::uint64_t chain1 = store::kChainGenesis;
  std::uint64_t chain2 = store::kChainGenesis;
  for (const auto& f : store_record_fixtures()) {
    chain1 = store::chain_hash(chain1, store::encode_record(f.record));
    chain2 = store::chain_hash(chain2, store::encode_record(f.record));
  }
  EXPECT_EQ(chain1, chain2);
  EXPECT_NE(chain1, store::kChainGenesis);
}

}  // namespace
}  // namespace hcm::lint
