#include "havi/registry.hpp"

#include "common/logging.hpp"

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
    RegistryRecord rec;
    rec.seid = seid.value();
    if (args[1].is_map()) rec.attributes = args[1].as_map();
    records_[rec.seid] = std::move(rec);
    return done(Value(true));
  }
  if (op == "unregisterElement") {
    if (args.size() != 1) {
      return done(invalid_argument("unregisterElement(seid)"));
    }
    auto seid = Seid::from_value(args[0]);
    if (!seid.is_ok()) return done(seid.status());
    return done(Value(records_.erase(seid.value()) > 0));
  }
  if (op == "getElement") {
    if (args.size() != 1) return done(invalid_argument("getElement(query)"));
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
    return done(Value(std::move(out)));
  }
  done(not_found("registry has no op " + op));
}

void Registry::purge_dead_nodes() {
  for (auto it = records_.begin(); it != records_.end();) {
    if (!bus_.has_node(it->first.node)) {
      log_debug("havi.registry", "purging ", it->first.to_string());
      it = records_.erase(it);
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

void RegistryClient::get_elements(const ValueMap& query, RecordsFn done) {
  ms_.send_request(
      self_, registry_, "getElement", {Value(query)},
      [done = std::move(done)](Result<Value> r) {
        if (!r.is_ok()) {
          done(r.status());
          return;
        }
        if (!r.value().is_list()) {
          done(protocol_error("getElement reply is not a list"));
          return;
        }
        std::vector<RegistryRecord> records;
        for (auto& v : r.value().as_list()) {
          auto rec = record_from_value(v);
          if (!rec.is_ok()) {
            done(rec.status());
            return;
          }
          records.push_back(std::move(rec).take());
        }
        done(std::move(records));
      });
}

}  // namespace hcm::havi
