#include "core/pcm.hpp"

#include <algorithm>

#include "common/join.hpp"
#include "common/logging.hpp"
#include "core/shard_channel.hpp"
#include "obs/slab.hpp"

namespace hcm::core {

Pcm::Pcm(net::Network& net, VirtualServiceGateway& vsg, net::Endpoint vsr,
         std::unique_ptr<MiddlewareAdapter> adapter)
    : net_(net),
      vsg_(vsg),
      vsr_(net, vsg.node(), vsr),
      adapter_(std::move(adapter)),
      proxygen_(vsg),
      obs_scope_(obs::shard_registry().unique_scope("pcm." +
                                                      vsg.island_name())),
      wsdl_generations_(
          obs::shard_registry().counter(obs_scope_ + ".wsdl_generations")),
      renew_fallbacks_(
          obs::shard_registry().counter(obs_scope_ + ".renew_fallbacks")),
      refreshes_(obs::shard_registry().counter(obs_scope_ + ".refreshes")),
      refresh_latency_us_(obs::shard_registry().histogram(
          obs_scope_ + ".refresh_latency_us")) {}

void Pcm::refresh(DoneFn done) {
  refreshes_.inc();
  done = [done = std::move(done), &sched = net_.scheduler(),
          &latency = refresh_latency_us_,
          start = net_.scheduler().now()](const Status& s) {
    latency.observe(sched.now() - start);
    done(s);
  };
  publish_locals(
      [this, done = std::move(done)](const Status& publish_status) mutable {
        if (!publish_status.is_ok()) {
          done(publish_status);
          return;
        }
        import_delta(std::move(done));
      });
}

Status Pcm::host_service(const std::string& name, const InterfaceDesc& iface,
                         ServiceHandler handler, DoneFn published) {
  if (published_.count(name) != 0) {
    return already_exists("service already published: " + name);
  }
  auto uri = vsg_.expose(name, iface, std::move(handler));
  if (!uri.is_ok()) return uri.status();
  PublishedRecord rec;
  rec.wsdl = soap::emit_wsdl(iface, name, uri.value());
  rec.digest = soap::wsdl_digest(rec.wsdl);
  rec.category = iface.name;
  rec.hosted = true;
  wsdl_generations_.inc();
  published_.emplace(name, std::move(rec));
  // Initiate from the gateway's shard so the client's events live where
  // its node does.
  ShardChannel::run_on_node(
      net_, vsg_.node(), [this, name, published = std::move(published)] {
        publish_record(name, published_.at(name), published);
      });
  return Status::ok();
}

void Pcm::publish_locals(DoneFn done) {
  adapter_->list_services([this, done = std::move(done)](
                              Result<std::vector<LocalService>> services) {
    if (!services.is_ok()) {
      done(services.status());
      return;
    }
    // When every set change has been acknowledged by the VSR, one
    // fingerprint-guarded call renews the leases of the unchanged
    // remainder.
    Join join(1, [this, done = std::move(done)](const Status& s) mutable {
      if (!s.is_ok() || published_.empty()) {
        done(s);
        return;
      }
      renew_origin_lease(std::move(done));
    });

    // Retire client proxies for services that left the middleware, so
    // the VSR never advertises a dead endpoint. Hosted services are not
    // in the native listing and stay.
    std::vector<std::string_view> current;
    current.reserve(services.value().size());
    for (const auto& service : services.value()) current.push_back(service.name);
    std::sort(current.begin(), current.end());
    for (auto it = published_.begin(); it != published_.end();) {
      if (!it->second.hosted &&
          !std::binary_search(current.begin(), current.end(), it->first)) {
        vsg_.unexpose(it->first);
        join.add();
        vsr_.unpublish(it->first, join);
        it = published_.erase(it);
      } else {
        ++it;
      }
    }

    for (const auto& service : services.value()) {
      // Never republish a service this PCM itself imported — that would
      // bounce services between islands forever.
      if (has_imported(service.name)) continue;
      // Already exposed and the document is cached; its lease rides the
      // renewOrigin call after the set changes land.
      if (published_.count(service.name) != 0) continue;
      auto generated = proxygen_.generate_client_proxy(service, *adapter_);
      if (!generated.is_ok()) {
        join.fail(generated.status());
        continue;
      }
      PublishedRecord rec;
      rec.wsdl = std::move(generated).take();
      rec.digest = soap::wsdl_digest(rec.wsdl);
      rec.category = service.interface.name;
      wsdl_generations_.inc();
      auto pub = published_.emplace(service.name, std::move(rec)).first;
      join.add();
      publish_record(pub->first, pub->second, join);
    }
    join(Status::ok());  // releases the hold
  });
}

void Pcm::publish_record(const std::string& name, const PublishedRecord& rec,
                         DoneFn done) {
  VsrEntry entry;
  entry.name = name;
  entry.category = rec.category;
  entry.origin = vsg_.island_name();
  entry.wsdl = rec.wsdl;
  vsr_.publish(entry, kPublishTtl, std::move(done));
}

void Pcm::renew_origin_lease(DoneFn done) {
  soap::FingerprintHasher fingerprint;
  for (const auto& [name, rec] : published_) fingerprint.add(name, rec.digest);
  vsr_.renew_origin(
      vsg_.island_name(), fingerprint.finish(),
      kPublishTtl, [this, done = std::move(done)](const Status& s) mutable {
        if (s.is_ok()) {
          done(Status::ok());
          return;
        }
        // The registry's view of our set diverged (restart wiped it, a
        // lease lapsed mid-period, ...). Re-upload everything once; the
        // next refresh is back on the O(1) path.
        renew_fallbacks_.inc();
        log_debug("pcm", "renewOrigin refused for ", vsg_.island_name(), " (",
                  s.to_string(), "); republishing ", published_.size(),
                  " entries");
        republish_all(std::move(done));
      });
}

void Pcm::republish_all(DoneFn done) {
  Join join(1, std::move(done));
  for (const auto& [name, rec] : published_) {
    join.add();
    publish_record(name, rec, join);
  }
  join(Status::ok());
}

std::size_t Pcm::imported_count() const {
  return static_cast<std::size_t>(
      std::count_if(foreign_.begin(), foreign_.end(),
                    [](const auto& entry) { return entry.second.exported; }));
}

bool Pcm::apply_upsert(const std::string& name, const std::string& origin,
                       const std::string& digest, const std::string& wsdl) {
  auto it = foreign_.find(name);
  if (it != foreign_.end() && it->second.digest != digest) {
    // Description changed under the same name: regenerate the server
    // proxy from the new document.
    retire_import(name);
    it = foreign_.end();
  }
  ServiceHandler handler;
  if (it == foreign_.end()) {
    auto doc = soap::parse_wsdl(wsdl);
    if (!doc.is_ok()) {
      // Non-fatal: one island publishing a malformed description must
      // not block the rest of the mesh.
      log_warn("pcm", "bad WSDL for ", name, ": ", doc.status().to_string());
      return false;
    }
    // The proxy copies from `doc` before the record moves out of it.
    handler = proxygen_.generate_server_proxy(doc.value());
    ForeignRecord rec;
    rec.digest = digest;
    rec.service.name = name;
    rec.service.interface = std::move(doc.value().interface);
    rec.service.attributes.reserve(2);
    rec.service.attributes["hcm.origin"] = Value(origin);
    rec.service.attributes["hcm.imported"] = Value(true);
    rec.endpoint = std::move(doc.value().endpoint);
    it = foreign_.emplace(name, std::move(rec)).first;
  } else if (it->second.exported) {
    return true;  // unchanged — nothing to do
  } else {
    // The middleware refused this export before; offer it again.
    const ForeignRecord& rec = it->second;
    handler = proxygen_.generate_server_proxy(
        {rec.service.interface, name, rec.endpoint});
  }
  auto status =
      adapter_->export_service(it->second.service, std::move(handler));
  if (!status.is_ok()) {
    // Also non-fatal: some conversions are inherently impossible
    // (e.g. a 3-argument mail method has no X10 ON/OFF mapping —
    // the asymmetry §4.2 of the paper runs into).
    log_debug("pcm", "cannot export ", name, " into ",
              adapter_->middleware_name(), ": ", status.to_string());
    return false;
  }
  it->second.exported = true;
  return true;
}

void Pcm::retire_import(const std::string& name) {
  auto it = foreign_.find(name);
  if (it == foreign_.end()) return;
  if (it->second.exported) adapter_->unexport_service(name);
  foreign_.erase(it);
}

void Pcm::converge_imports(const std::vector<VsrChange>& entries) {
  std::set<std::string> seen_foreign;
  for (const auto& entry : entries) {
    if (entry.origin == vsg_.island_name()) continue;
    seen_foreign.insert(entry.name);
    apply_upsert(entry.name, entry.origin, entry.digest, entry.wsdl);
  }
  // Retire imports whose VSR entry is gone (stale services must not
  // linger, as server proxies or as subscription targets).
  for (auto it = foreign_.begin(); it != foreign_.end();) {
    if (seen_foreign.count(it->first) == 0) {
      if (it->second.exported) adapter_->unexport_service(it->first);
      it = foreign_.erase(it);
    } else {
      ++it;
    }
  }
}

void Pcm::import_delta(DoneFn done) {
  vsr_.changes_since([this, done = std::move(done)](Result<VsrDelta> r) {
    if (!r.is_ok()) {
      done(r.status());
      return;
    }
    const VsrDelta& delta = r.value();
    if (delta.full) {
      // Authoritative snapshot (first sync, or resync after journal
      // compaction / registry restart): converge to exactly this set.
      converge_imports(delta.changes);
    } else {
      // O(Δ): only the touched names are parsed / (un)exported.
      for (const auto& c : delta.changes) {
        if (c.kind == VsrChange::Kind::kRemove) {
          retire_import(c.name);  // no-op for our own unpublish echoes
          continue;
        }
        if (c.origin == vsg_.island_name()) continue;
        apply_upsert(c.name, c.origin, c.digest, c.wsdl);
      }
    }
    done(Status::ok());
  });
}

}  // namespace hcm::core
