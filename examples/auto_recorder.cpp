// Automatic video recording — the paper's §2 motivating integration:
// "the service integration of a VCR control service with a TV program
// service on the Internet can provide an automatic video recording
// service that records TV programs according to user profiles."
//
// Pieces: a SOAP TV-program guide web service (Internet), a Jini user-
// profile service, and the HAVi VCR + tuner FCMs — three middleware,
// one application, zero per-service glue.
//
// Run: ./build/examples/auto_recorder
#include <cstdio>

#include "soap/rpc.hpp"
#include "testbed/home.hpp"

using namespace hcm;

namespace {

// The Internet TV-program web service: listings with start times.
void mount_tv_guide(http::HttpServer& server) {
  static soap::SoapService* guide =
      new soap::SoapService(server, "/tvguide");
  guide->register_method(
      "listings", [](const soap::NamedValues&, soap::CallResultFn done) {
        ValueList programs;
        programs.push_back(Value(ValueMap{
            {"title", Value("Evening News")},
            {"channel", Value(1)},
            {"startsInMinutes", Value(1)},
            {"minutes", Value(2)},
            {"genre", Value("news")},
        }));
        programs.push_back(Value(ValueMap{
            {"title", Value("Sumo Digest")},
            {"channel", Value(3)},
            {"startsInMinutes", Value(2)},
            {"minutes", Value(1)},
            {"genre", Value("sports")},
        }));
        programs.push_back(Value(ValueMap{
            {"title", Value("Late Movie")},
            {"channel", Value(8)},
            {"startsInMinutes", Value(4)},
            {"minutes", Value(2)},
            {"genre", Value("drama")},
        }));
        done(Value(std::move(programs)));
      });
}

}  // namespace

int main() {
  sim::Scheduler sched;
  testbed::SmartHome home(sched);

  // The TV guide lives on the Internet side of the backbone: host it on
  // the VSR host's HTTP server sibling port.
  auto& guide_host = home.net.add_node("tvguide.example.com");
  home.net.attach(guide_host, *home.backbone);
  http::HttpServer guide_http(home.net, guide_host.id(), 80);
  (void)guide_http.start();
  mount_tv_guide(guide_http);

  // A Jini user-profile service: which genres this household records.
  net::BinaryRpcServer profile_server(home.net, home.laserdisc_node->id(), 4280,
                                      "jini");
  (void)profile_server.start();
  profile_server.register_service(
      "profile-1", [](const std::string& method, const ValueList&,
                      InvokeResultFn done) {
        if (method == "genres") {
          done(Value(ValueList{Value("news"), Value("sports")}));
        } else {
          done(not_found(method));
        }
      });
  jini::ServiceItem profile_item;
  profile_item.service_id = "profile-1";
  profile_item.name = "profile-1";
  profile_item.interface = InterfaceDesc{
      "UserProfile", {MethodDesc{"genres", {}, ValueType::kList, false}}};
  profile_item.endpoint = profile_server.endpoint();
  jini::Registrar profile_registrar(home.net, home.laserdisc_node->id(),
                                    home.lookup->endpoint(), profile_item);
  profile_registrar.join([](const Status&) {});

  auto status = home.refresh();
  std::printf("framework sync: %s\n", status.to_string().c_str());

  // --- the integration logic (what a developer writes) ---------------
  // 1. Fetch the household profile through the Jini island.
  std::optional<Result<Value>> genres;
  home.jini_adapter->invoke("profile-1", "genres", {},
                            [&](Result<Value> r) { genres = std::move(r); });
  sim::run_until_done(sched, [&] { return genres.has_value(); });
  if (!genres->is_ok()) {
    std::printf("profile fetch failed: %s\n",
                genres->status().to_string().c_str());
    return 1;
  }
  std::printf("user profile genres: %s\n",
              genres->value().to_string().c_str());

  // 2. Fetch listings from the Internet web service (plain SOAP).
  soap::SoapClient soap_client(home.net, home.havi_gw->id());
  std::optional<Result<Value>> listings;
  soap_client.call({guide_host.id(), 80}, "/tvguide", "urn:tvguide",
                   "listings", {},
                   [&](Result<Value> r) { listings = std::move(r); });
  sim::run_until_done(sched, [&] { return listings.has_value(); });
  if (!listings->is_ok()) {
    std::printf("guide fetch failed\n");
    return 1;
  }

  // 3. Schedule recordings: tune + record through the HAVi island for
  //    every program matching the profile.
  int scheduled = 0;
  for (const auto& program : listings->value().as_list()) {
    bool wanted = false;
    for (const auto& g : genres->value().as_list()) {
      if (program.at("genre") == g) wanted = true;
    }
    std::printf("  %-14s ch%-2lld %s\n",
                program.at("title").as_string().c_str(),
                static_cast<long long>(program.at("channel").as_int()),
                wanted ? "[record]" : "[skip]");
    if (!wanted) continue;
    ++scheduled;
    auto start_delay =
        sim::seconds(program.at("startsInMinutes").as_int() * 60);
    auto channel = program.at("channel");
    auto minutes = program.at("minutes");
    sched.after(start_delay, [&home, channel, minutes] {
      home.havi_adapter->invoke("tuner-1", "setChannel", {channel},
                                [&home, minutes](Result<Value>) {
                                  home.havi_adapter->invoke(
                                      "vcr-1", "record", {minutes},
                                      [](Result<Value>) {});
                                });
    });
  }

  // Let the evening play out.
  sched.run_for(sim::seconds(10 * 60));
  std::printf("scheduled %d recordings; tape now holds %llu frames "
              "(%llu s of video), tuner on channel %lld\n",
              scheduled,
              static_cast<unsigned long long>(home.vcr->tape_frames()),
              static_cast<unsigned long long>(home.vcr->tape_frames() / 30),
              static_cast<long long>(home.tuner->channel()));
  return home.vcr->tape_frames() > 0 ? 0 : 1;
}
