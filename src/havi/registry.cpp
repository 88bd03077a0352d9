#include "havi/registry.hpp"

#include "common/logging.hpp"
#include "havi/event_manager.hpp"

namespace hcm::havi {

namespace {
Value record_to_value(const RegistryRecord& r) {
  ValueMap out;
  out.reserve(2);
  out.emplace("seid", r.seid.to_value());
  out.emplace("attrs", r.attributes);
  return Value(std::move(out));
}

// Moves the attributes out of `v` (a getElement reply entry).
Result<RegistryRecord> record_from_value(Value& v) {
  auto seid = Seid::from_value(v.at("seid"));
  if (!seid.is_ok()) return seid.status();  // also rejects a non-map `v`
  RegistryRecord r;
  r.seid = seid.value();
  auto attrs = v.as_map().find("attrs");
  if (attrs != v.as_map().end() && attrs->second.is_map()) {
    r.attributes = std::move(attrs->second.as_map());
  }
  return r;
}
}  // namespace

Registry::Registry(MessagingSystem& ms, net::Ieee1394Bus& bus)
    : ms_(ms), bus_(bus) {
  auto seid = ms_.register_system_element(
      kRegistryHandle,
      [this](const std::string& op, const ValueList& args,
             InvokeResultFn done) { handle(op, args, done); });
  seid_ = seid.is_ok() ? seid.value() : Seid{};
  bus_.subscribe_reset(ms_.node(), [this](std::uint32_t generation) {
    log_debug("havi.registry", "bus reset, generation ", generation);
    purge_dead_nodes();
  });
}

void Registry::handle(const std::string& op, const ValueList& args,
                      InvokeResultFn done) {
  if (op == "registerElement") {
    if (args.size() != 2) {
      return done(invalid_argument("registerElement(seid, attrs)"));
    }
    auto seid = Seid::from_value(args[0]);
    if (!seid.is_ok()) return done(seid.status());
    RegistryRecord& rec = records_[seid.value()];
    rec.seid = seid.value();
    rec.attributes = args[1].is_map() ? args[1].as_map() : ValueMap{};
    post_change(rec.seid, &rec.attributes);
    return done(Value(true));
  }
  if (op == "unregisterElement") {
    if (args.size() != 1) {
      return done(invalid_argument("unregisterElement(seid)"));
    }
    auto seid = Seid::from_value(args[0]);
    if (!seid.is_ok()) return done(seid.status());
    const bool removed = records_.erase(seid.value()) > 0;
    if (removed) post_change(seid.value(), nullptr);
    return done(Value(removed));
  }
  if (op == "getElement") {
    if (args.size() != 1) return done(invalid_argument("getElement(query)"));
    ++queries_served_;
    const ValueMap none;
    const ValueMap& query = args[0].is_map() ? args[0].as_map() : none;
    ValueList out;
    for (const auto& [seid, rec] : records_) {
      bool match = true;
      for (const auto& [k, v] : query) {
        auto it = rec.attributes.find(k);
        if (it == rec.attributes.end() || !(it->second == v)) {
          match = false;
          break;
        }
      }
      if (match) out.push_back(record_to_value(rec));
    }
    ValueMap reply;
    reply.reserve(2);
    reply.emplace("records", std::move(out));
    reply.emplace("seq", static_cast<std::int64_t>(seq_));
    return done(Value(std::move(reply)));
  }
  if (op == "getChangeNumber") {
    // The number alone: a subscriber's O(1) check that its event feed
    // missed nothing.
    return done(Value(static_cast<std::int64_t>(seq_)));
  }
  done(not_found("registry has no op " + op));
}

void Registry::post_change(const Seid& seid, const ValueMap* attrs) {
  ++seq_;
  ValueMap change;
  change.reserve(3);
  change.emplace("seq", static_cast<std::int64_t>(seq_));
  change.emplace("seid", seid.to_value());
  if (attrs != nullptr) change.emplace("attrs", *attrs);
  ValueList args;
  args.reserve(2);
  args.emplace_back(attrs != nullptr ? kEventNewSoftwareElement
                                     : kEventGoneSoftwareElement);
  args.emplace_back(std::move(change));
  ms_.send_notification(seid_, Seid{ms_.node(), kEventManagerHandle},
                        "postEvent", args);
}

void Registry::purge_dead_nodes() {
  for (auto it = records_.begin(); it != records_.end();) {
    if (!bus_.has_node(it->first.node)) {
      log_debug("havi.registry", "purging ", it->first.to_string());
      const Seid gone = it->first;
      it = records_.erase(it);
      post_change(gone, nullptr);
    } else {
      ++it;
    }
  }
}

void RegistryClient::register_element(const Seid& seid, const ValueMap& attrs,
                                      std::function<void(const Status&)> done) {
  ms_.send_request(self_, registry_, "registerElement",
                   {seid.to_value(), Value(attrs)},
                   [done = std::move(done)](Result<Value> r) {
                     done(r.is_ok() ? Status::ok() : r.status());
                   });
}

void RegistryClient::unregister_element(
    const Seid& seid, std::function<void(const Status&)> done) {
  ms_.send_request(self_, registry_, "unregisterElement", {seid.to_value()},
                   [done = std::move(done)](Result<Value> r) {
                     done(r.is_ok() ? Status::ok() : r.status());
                   });
}

void RegistryClient::get_elements(const ValueMap& query, ListingFn done) {
  ms_.send_request(
      self_, registry_, "getElement", {Value(query)},
      [done = std::move(done)](Result<Value> r) {
        if (!r.is_ok()) {
          done(r.status());
          return;
        }
        auto seq = r.value().at("seq").to_int();
        if (!seq.is_ok() || !r.value().at("records").is_list()) {
          done(protocol_error("getElement reply is not a listing"));
          return;
        }
        RegistryListing listing;
        listing.seq = static_cast<std::uint64_t>(seq.value());
        auto& records = r.value().as_map().find("records")->second.as_list();
        listing.records.reserve(records.size());
        for (auto& v : records) {
          auto rec = record_from_value(v);
          if (!rec.is_ok()) {
            done(rec.status());
            return;
          }
          listing.records.push_back(std::move(rec).take());
        }
        done(std::move(listing));
      });
}

void RegistryClient::change_number(
    std::function<void(Result<std::uint64_t>)> done) {
  ms_.send_request(self_, registry_, "getChangeNumber", {},
                   [done = std::move(done)](Result<Value> r) {
                     if (!r.is_ok()) {
                       done(r.status());
                       return;
                     }
                     auto seq = r.value().to_int();
                     if (!seq.is_ok()) {
                       done(protocol_error("bad getChangeNumber reply"));
                       return;
                     }
                     done(static_cast<std::uint64_t>(seq.value()));
                   });
}

}  // namespace hcm::havi
