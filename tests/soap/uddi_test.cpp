#include "soap/uddi.hpp"

#include <gtest/gtest.h>

#include "tests/soap/registry_find.hpp"

namespace hcm::soap {
namespace {

class UddiTest : public ::testing::Test {
 protected:
  void SetUp() override {
    registry_node = &net.add_node("vsr");
    island_node = &net.add_node("jini-gw");
    auto& eth = net.add_ethernet("backbone", sim::microseconds(500),
                                 10'000'000);
    net.attach(*registry_node, eth);
    net.attach(*island_node, eth);
    http_server =
        std::make_unique<http::HttpServer>(net, registry_node->id(), 80);
    ASSERT_TRUE(http_server->start().is_ok());
    registry = std::make_unique<UddiRegistry>(*http_server, sched);
    client = std::make_unique<UddiClient>(
        net, island_node->id(), net::Endpoint{registry_node->id(), 80});
  }

  Status publish(const std::string& name, const std::string& category,
                 sim::Duration ttl = 0) {
    RegistryEntry e;
    e.name = name;
    e.category = category;
    e.origin = "jini-island";
    e.wsdl = "<definitions name=\"" + category + "\"/>";
    std::optional<Status> result;
    client->publish(e, ttl, [&](const Status& s) { result = s; });
    sched.run();
    EXPECT_TRUE(result.has_value());
    return result.value_or(internal_error("no result"));
  }

  sim::Scheduler sched;
  net::Network net{sched};
  net::Node* registry_node = nullptr;
  net::Node* island_node = nullptr;
  std::unique_ptr<http::HttpServer> http_server;
  std::unique_ptr<UddiRegistry> registry;
  std::unique_ptr<UddiClient> client;
};

TEST_F(UddiTest, PublishAndLookup) {
  ASSERT_TRUE(publish("laserdisc-1", "MediaPlayer").is_ok());
  EXPECT_EQ(registry->size(), 1u);

  auto found = find_entry(*client, sched, "laserdisc-1");
  ASSERT_TRUE(found.has_value());
  ASSERT_TRUE(found->is_ok());
  EXPECT_EQ(found->value().category, "MediaPlayer");
  EXPECT_EQ(found->value().origin, "jini-island");
}

TEST_F(UddiTest, LookupMissingIsNotFound) {
  auto found = find_entry(*client, sched, "ghost");
  ASSERT_TRUE(found.has_value());
  ASSERT_FALSE(found->is_ok());
  EXPECT_EQ(found->status().code(), StatusCode::kNotFound);
}

TEST_F(UddiTest, MountsOnlyTheOpsClientsSend) {
  EXPECT_EQ(registry->wire_ops(),
            (std::vector<std::string>{"changesSince", "list", "publish",
                                      "renewOrigin", "unpublish"}));
}

TEST_F(UddiTest, ListAllReturnsEverything) {
  publish("a", "X");
  publish("b", "Y");
  std::optional<Result<std::vector<RegistryEntry>>> found;
  client->list_all(
      [&](Result<std::vector<RegistryEntry>> r) { found = std::move(r); });
  sched.run();
  ASSERT_TRUE(found->is_ok());
  EXPECT_EQ(found->value().size(), 2u);
}

TEST_F(UddiTest, RepublishOverwrites) {
  publish("svc", "CatA");
  publish("svc", "CatB");
  EXPECT_EQ(registry->size(), 1u);
  auto found = find_entry(*client, sched, "svc");
  EXPECT_EQ(found->value().category, "CatB");
}

TEST_F(UddiTest, UnpublishRemoves) {
  publish("svc", "Cat");
  std::optional<Status> result;
  client->unpublish("svc", [&](const Status& s) { result = s; });
  sched.run();
  ASSERT_TRUE(result->is_ok());
  EXPECT_EQ(registry->size(), 0u);
}

TEST_F(UddiTest, LeaseExpiry) {
  publish("ephemeral", "Cat", sim::seconds(10));
  EXPECT_EQ(registry->size(), 1u);
  sched.run_until(sched.now() + sim::seconds(11));
  // Entry has lapsed: it must not be listed (stale endpoints are never
  // returned — a VSR invariant from DESIGN.md).
  auto found = find_entry(*client, sched, "ephemeral");
  ASSERT_TRUE(found.has_value());
  EXPECT_FALSE(found->is_ok());
  EXPECT_EQ(registry->size(), 0u);
}

TEST_F(UddiTest, RepublishRenewsLease) {
  publish("svc", "Cat", sim::seconds(10));
  sched.run_until(sched.now() + sim::seconds(8));
  publish("svc", "Cat", sim::seconds(10));  // renew before expiry
  sched.run_until(sched.now() + sim::seconds(8));
  auto found = find_entry(*client, sched, "svc");
  EXPECT_TRUE(found->is_ok());
}

TEST_F(UddiTest, PublishRequiresNameAndWsdl) {
  RegistryEntry e;  // empty name
  std::optional<Status> result;
  client->publish(e, 0, [&](const Status& s) { result = s; });
  sched.run();
  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(result->is_ok());
}

TEST_F(UddiTest, WsdlSurvivesRegistryTransit) {
  InterfaceDesc iface{"Probe",
                      {MethodDesc{"ping", {}, ValueType::kBool, false}}};
  RegistryEntry e;
  e.name = "probe-1";
  e.category = "Probe";
  e.wsdl = emit_wsdl(iface, "probe-1", Uri{"http", "gw", 8080, "/vsg/probe"});
  std::optional<Status> pub;
  client->publish(e, 0, [&](const Status& s) { pub = s; });
  sched.run();
  ASSERT_TRUE(pub->is_ok());

  auto found = find_entry(*client, sched, "probe-1");
  ASSERT_TRUE(found->is_ok());
  auto doc = parse_wsdl(found->value().wsdl);
  ASSERT_TRUE(doc.is_ok()) << doc.status().to_string();
  EXPECT_EQ(doc.value().interface, iface);
  EXPECT_EQ(doc.value().endpoint.host, "gw");
}

}  // namespace
}  // namespace hcm::soap
