// Test helper: reads one registry entry through the "list" op. The
// registry serves no single-entry read (its readers are the PCMs, which
// list or sync), so tests that inspect one entry filter the listing.
#pragma once

#include <optional>
#include <string>

#include "sim/scheduler.hpp"
#include "soap/uddi.hpp"

namespace hcm::soap {

// The entry named `name`, kNotFound when the registry lists none; empty
// only when the listing never completed.
inline std::optional<Result<RegistryEntry>> find_entry(
    UddiClient& client, sim::Scheduler& sched, const std::string& name) {
  std::optional<Result<RegistryEntry>> found;
  client.list_all([&](Result<std::vector<RegistryEntry>> r) {
    if (!r.is_ok()) {
      found = r.status();
      return;
    }
    for (const auto& e : r.value()) {
      if (e.name == name) {
        found = e;
        return;
      }
    }
    found = not_found("no registry entry: " + name);
  });
  sim::run_until_done(sched, [&] { return found.has_value(); });
  return found;
}

}  // namespace hcm::soap
