// HAVi Registry: the bus-wide directory of software elements. FCMs
// register their SEID plus attributes (SE type, device class, HUID,
// interface); controllers query it to find targets. Lives on the FAV
// (full AV) controller node at a well-known handle.
#pragma once

#include <map>
#include <vector>

#include "havi/messaging.hpp"
#include "net/ieee1394.hpp"

namespace hcm::havi {

// Standard attribute keys.
inline constexpr const char* kAttrSeType = "SE_TYPE";          // "FCM","DCM",...
inline constexpr const char* kAttrDeviceClass = "DEVICE_CLASS";  // "VCR","CAMERA",...
inline constexpr const char* kAttrHuid = "HUID";
inline constexpr const char* kAttrInterface = "INTERFACE";  // serialized InterfaceDesc
inline constexpr const char* kAttrName = "NAME";

struct RegistryRecord {
  Seid seid;
  ValueMap attributes;
};

// Every change to the Registry (a record added, replaced or removed,
// including a purge after a bus reset) takes the next change number
// and is posted through the Event Manager on the same node:
// NewSoftwareElement with {seq, seid, attrs} or GoneSoftwareElement
// with {seq, seid}. getElement replies carry the number too, so a
// subscriber can tell which events a listing already holds, and
// getChangeNumber answers it alone, so a subscriber can tell that an
// event went missing on the bus.
class Registry {
 public:
  // Mounts the registry at kRegistryHandle on `ms`; watches `bus` for
  // resets to purge elements whose node has left.
  Registry(MessagingSystem& ms, net::Ieee1394Bus& bus);

  [[nodiscard]] Seid seid() const { return seid_; }
  [[nodiscard]] std::size_t size() const { return records_.size(); }
  // getElement queries answered.
  [[nodiscard]] std::uint64_t queries_served() const { return queries_served_; }

 private:
  void handle(const std::string& op, const ValueList& args,
              InvokeResultFn done);
  void purge_dead_nodes();
  // Numbers a change and posts it; `attrs` is null for a removal.
  void post_change(const Seid& seid, const ValueMap* attrs);

  MessagingSystem& ms_;
  net::Ieee1394Bus& bus_;
  Seid seid_;
  std::map<Seid, RegistryRecord> records_;
  std::uint64_t seq_ = 0;
  std::uint64_t queries_served_ = 0;
};

// A getElement reply: the matching records, and the Registry's change
// number when it answered.
struct RegistryListing {
  std::uint64_t seq = 0;
  std::vector<RegistryRecord> records;
};

// Typed client for any SE that wants to talk to the registry.
class RegistryClient {
 public:
  RegistryClient(MessagingSystem& ms, Seid self, Seid registry)
      : ms_(ms), self_(self), registry_(registry) {}

  using ListingFn = std::function<void(Result<RegistryListing>)>;

  void register_element(const Seid& seid, const ValueMap& attrs,
                        std::function<void(const Status&)> done);
  void unregister_element(const Seid& seid,
                          std::function<void(const Status&)> done);
  // Returns records whose attributes contain all of `query`.
  void get_elements(const ValueMap& query, ListingFn done);
  // The Registry's current change number.
  void change_number(std::function<void(Result<std::uint64_t>)> done);

 private:
  MessagingSystem& ms_;
  Seid self_;
  Seid registry_;
};

}  // namespace hcm::havi
