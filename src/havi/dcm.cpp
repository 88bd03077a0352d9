#include "havi/dcm.hpp"

#include "common/join.hpp"

namespace hcm::havi {

Dcm::Dcm(MessagingSystem& ms, std::string huid, std::string name)
    : ms_(ms), huid_(std::move(huid)), name_(std::move(name)) {
  seid_ = ms_.register_element(
      [this](const std::string& op, const ValueList&, InvokeResultFn done) {
        if (op == "getDeviceInfo") {
          ValueList fcm_seids;
          for (const auto& fcm : fcms_) fcm_seids.push_back(fcm->seid().to_value());
          ValueMap info;
          info.emplace("huid", huid_);
          info.emplace("name", name_);
          info.emplace("fcms", std::move(fcm_seids));
          done(Value(std::move(info)));
          return;
        }
        done(not_found("DCM has no op " + op));
      });
}

Dcm::~Dcm() { ms_.unregister_element(seid_); }

Fcm& Dcm::add_fcm(std::unique_ptr<Fcm> fcm) {
  fcms_.push_back(std::move(fcm));
  return *fcms_.back();
}

void Dcm::announce(RegistryClient& rc,
                   std::function<void(const Status&)> done) {
  ValueMap dcm_attrs{
      {kAttrSeType, Value("DCM")},
      {kAttrHuid, Value(huid_)},
      {kAttrName, Value(name_)},
  };
  Join step(1 + fcms_.size(), std::move(done));
  rc.register_element(seid_, dcm_attrs, step);
  for (const auto& fcm : fcms_) fcm->announce(rc, step);
}

}  // namespace hcm::havi
