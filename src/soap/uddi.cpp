#include "soap/uddi.hpp"

#include <atomic>

#include "common/fnv.hpp"
#include "store/vsr_store.hpp"

namespace hcm::soap {

namespace {
constexpr const char* kNs = "urn:hcm:uddi";

// Registry incarnations get distinct epochs so a client cursor from a
// previous incarnation is detectably stale. A process-local counter is
// deterministic (same scenario -> same epochs), unlike wall time.
// Atomic so concurrent registry construction across future shard
// workers still yields unique epochs (allocation order stays
// deterministic in the single-threaded sim). Being process-wide, an
// epoch still depends on how many registries the process built before.
// hcm:allow(static-atomic-counter): pending ROADMAP 3(a), per-registry base
std::atomic<std::uint64_t> g_next_epoch{1};

const Value& param(const NamedValues& params, const std::string& name) {
  static const Value kNull;
  for (const auto& [k, v] : params) {
    if (k == name) return v;
  }
  return kNull;
}

std::uint64_t uint_param(const NamedValues& params, const std::string& name) {
  const auto& v = param(params, name);
  return v.is_int() && v.as_int() > 0 ? static_cast<std::uint64_t>(v.as_int())
                                      : 0;
}

const char* kind_name(RegistryChange::Kind k) {
  return k == RegistryChange::Kind::kUpsert ? "upsert" : "remove";
}
}  // namespace

// FNV-1a over the sorted (name, digest) pairs with NUL separators, so
// registry and client fold identical byte streams for identical sets.
void FingerprintHasher::add(std::string_view name, std::string_view digest) {
  h_ = fnv1a_byte(fnv1a(h_, name), 0);
  h_ = fnv1a_byte(fnv1a(h_, digest), 0);
}

std::string FingerprintHasher::finish() const {
  char buf[17];
  static const char* hex = "0123456789abcdef";
  for (int i = 0; i < 16; ++i) {
    buf[i] = hex[(h_ >> ((15 - i) * 4)) & 0xf];
  }
  buf[16] = '\0';
  return std::string(buf);
}

UddiRegistry::UddiRegistry(http::HttpServer& http_server,
                           sim::Scheduler& sched, std::string path,
                           std::size_t journal_capacity,
                           store::VsrStore* store)
    : sched_(sched),
      service_(http_server, std::move(path)),
      epoch_(g_next_epoch.fetch_add(1)),
      journal_capacity_(journal_capacity),
      store_(store) {
  if (store_ != nullptr) adopt_store_state();
  service_.register_method(
      "publish", [this](const NamedValues& params, CallResultFn done) {
        const auto& name = param(params, "name");
        const auto& wsdl = param(params, "wsdl");
        if (!name.is_string() || name.as_string().empty() ||
            !wsdl.is_string()) {
          done(invalid_argument("publish requires name and wsdl"));
          return;
        }
        RegistryEntry e;
        e.name = name.as_string();
        e.category = param(params, "category").is_string()
                         ? param(params, "category").as_string()
                         : "";
        e.origin = param(params, "origin").is_string()
                       ? param(params, "origin").as_string()
                       : "";
        e.wsdl = wsdl.as_string();
        e.digest = wsdl_digest(e.wsdl);
        auto ttl = param(params, "ttl");
        e.expires_at =
            ttl.is_int() && ttl.as_int() > 0 ? sched_.now() + ttl.as_int() : 0;
        auto it = entries_.find(e.name);
        const bool unchanged =
            it != entries_.end() && it->second.expires_at != 0 &&
            it->second.expires_at > sched_.now() &&
            it->second.digest == e.digest &&
            it->second.category == e.category && it->second.origin == e.origin;
        if (unchanged) {
          // Same content republished before its lease lapsed: a lease
          // renewal, invisible to synchronizing clients — no journal
          // record, no seq bump. The store still learns the new expiry
          // (a kTouch record) so replay restores live leases.
          it->second.expires_at = e.expires_at;
          ++renewals_;
          store_touch(e.name, e.expires_at);
        } else {
          journal_append(RegistryChange::Kind::kUpsert, e.name, e.digest);
          store_upsert(e);
          entries_[e.name] = std::move(e);
          ++publishes_;
        }
        store_commit();
        done(Value(true));
      });

  service_.register_method(
      "unpublish", [this](const NamedValues& params, CallResultFn done) {
        const auto& name = param(params, "name");
        if (!name.is_string()) {
          done(invalid_argument("unpublish requires name"));
          return;
        }
        auto it = entries_.find(name.as_string());
        if (it == entries_.end()) {
          done(Value(false));
          return;
        }
        journal_append(RegistryChange::Kind::kRemove, it->first,
                       it->second.digest);
        store_remove(it->first, it->second.digest);
        entries_.erase(it);
        store_commit();
        done(Value(true));
      });

  service_.register_method(
      "renewOrigin", [this](const NamedValues& params, CallResultFn done) {
        prune();
        const auto& origin = param(params, "origin");
        const auto& fp = param(params, "fingerprint");
        if (!origin.is_string() || origin.as_string().empty() ||
            !fp.is_string()) {
          done(invalid_argument("renewOrigin requires origin and fingerprint"));
          return;
        }
        FingerprintHasher expected;
        std::size_t held = 0;
        for (const auto& [name, e] : entries_) {
          if (e.origin != origin.as_string()) continue;
          expected.add(name, e.digest);
          ++held;
        }
        if (held == 0) {
          done(not_found("origin has no entries: " + origin.as_string()));
          return;
        }
        if (expected.finish() != fp.as_string()) {
          done(invalid_argument("fingerprint mismatch for origin " +
                                origin.as_string() +
                                " — republish the changed entries"));
          return;
        }
        auto ttl = param(params, "ttl");
        const sim::SimTime expires =
            ttl.is_int() && ttl.as_int() > 0 ? sched_.now() + ttl.as_int() : 0;
        for (auto& [name, e] : entries_) {
          if (e.origin == origin.as_string()) {
            e.expires_at = expires;
            store_touch(name, expires);
          }
        }
        store_commit();
        renewals_ += held;
        done(Value(static_cast<std::int64_t>(held)));
      });

  service_.register_method(
      "changesSince", [this](const NamedValues& params, CallResultFn done) {
        handle_changes_since(params, std::move(done));
      });

  service_.register_method(
      "list", [this](const NamedValues&, CallResultFn done) {
        prune();
        ValueList out;
        for (const auto& [name, e] : entries_) out.push_back(entry_to_value(e));
        done(Value(std::move(out)));
      });
}

void UddiRegistry::adopt_store_state() {
  const store::RecoveredState& rec = store_->recovered();
  if (rec.fresh) {
    // Brand-new store directory: persist this incarnation's epoch so a
    // restart can prove it is resuming the same one.
    store_->record_epoch(epoch_);
    store_commit();
    return;
  }
  bool lost = rec.lost_tail;
  for (const store::UpsertRecord& u : rec.entries) {
    auto body = store_->body_for(u.digest);
    if (!body.is_ok()) {
      // A live entry whose body no longer resolves is itself lost
      // state: drop it and force the resync path below.
      lost = true;
      continue;
    }
    RegistryEntry e;
    e.name = u.name;
    e.category = u.category;
    e.origin = u.origin;
    e.wsdl = std::move(body).take();
    e.digest = u.digest;
    e.expires_at = u.expires_at;
    entries_[e.name] = std::move(e);
  }
  store_recovered_entries_ = entries_.size();
  seq_ = rec.last_seq;
  compacted_through_ = rec.compacted_through;
  journal_.clear();
  for (const store::JournalEntry& j : rec.journal) {
    journal_.push_back(JournalRecord{j.seq,
                                     j.remove ? RegistryChange::Kind::kRemove
                                              : RegistryChange::Kind::kUpsert,
                                     j.name, j.digest});
  }
  if (!lost) {
    // Clean replay: resume the exact incarnation clients hold cursors
    // for — same epoch, same seq, same resync window. Warm cursors stay
    // valid; restart costs zero snapshot resyncs.
    epoch_ = rec.epoch;
  } else {
    // Committed records were truncated away (torn tail / bit rot):
    // clients may hold state the store no longer has, so this must look
    // like a restart. They degrade to the ordinary snapshot fallback.
    epoch_ = rec.epoch + 1;
    store_->record_epoch(epoch_);
    store_commit();
  }
  // Future fresh incarnations in this process must not collide with an
  // epoch adopted from disk.
  std::uint64_t next = g_next_epoch.load();
  while (next <= epoch_ &&
         !g_next_epoch.compare_exchange_weak(next, epoch_ + 1)) {
  }
}

void UddiRegistry::store_upsert(const RegistryEntry& e) {
  if (store_ == nullptr) return;
  store_->record_upsert(store::UpsertRecord{seq_, e.name, e.category,
                                            e.origin, e.digest, e.expires_at},
                        e.wsdl);
}

void UddiRegistry::store_remove(const std::string& name,
                                const std::string& digest) {
  if (store_ == nullptr) return;
  store_->record_remove(store::RemoveRecord{seq_, name, digest});
}

void UddiRegistry::store_touch(const std::string& name,
                               sim::SimTime expires_at) {
  if (store_ == nullptr) return;
  store_->record_touch(name, expires_at);
}

void UddiRegistry::store_commit() {
  if (store_ == nullptr) return;
  if (!store_->commit().is_ok()) ++store_errors_;
}

void UddiRegistry::journal_append(RegistryChange::Kind kind,
                                  const std::string& name,
                                  const std::string& digest) {
  journal_.push_back(JournalRecord{++seq_, kind, name, digest});
  while (journal_.size() > journal_capacity_) {
    compacted_through_ = journal_.front().seq;
    journal_.pop_front();
  }
}

void UddiRegistry::handle_changes_since(const NamedValues& params,
                                        CallResultFn done) {
  prune();  // lease expiries become journal records before we answer
  const std::uint64_t req_epoch = uint_param(params, "epoch");
  const std::uint64_t req_cursor = uint_param(params, "cursor");
  const bool snapshot = param(params, "snapshot").is_bool() &&
                        param(params, "snapshot").as_bool();
  std::set<std::string> known;
  if (param(params, "known").is_list()) {
    for (const auto& d : param(params, "known").as_list()) {
      if (d.is_string()) known.insert(d.as_string());
    }
  }

  ValueMap out;
  out["epoch"] = Value(static_cast<std::int64_t>(epoch_));
  out["cursor"] = Value(static_cast<std::int64_t>(seq_));
  out["resync"] = Value(false);

  if (!snapshot && (req_epoch != epoch_ || req_cursor < compacted_through_)) {
    // Stale cursor (restart, or the journal compacted past it). Answer
    // with a cheap resync signal instead of an unsolicited snapshot, so
    // the client can retry with its known-digest list and receive a
    // body-elided snapshot.
    ++resyncs_required_;
    out["full"] = Value(false);
    out["resync"] = Value(true);
    out["changes"] = Value(ValueList{});
    done(Value(std::move(out)));
    return;
  }

  ValueList changes;
  if (snapshot) {
    ++full_syncs_;
    out["full"] = Value(true);
    for (auto& [name, e] : entries_) {
      changes.push_back(change_to_value(e, known, /*allow_elide=*/true));
    }
  } else {
    ++delta_syncs_;
    out["full"] = Value(false);
    // Names touched since the cursor; the response carries each name's
    // *current* state (upsert if live, remove otherwise), so replay
    // order inside the window is irrelevant.
    std::set<std::string> touched;
    for (const auto& rec : journal_) {
      if (rec.seq > req_cursor) touched.insert(rec.name);
    }
    for (const auto& name : touched) {
      auto it = entries_.find(name);
      if (it == entries_.end()) {
        ValueMap m;
        m["kind"] = Value(std::string(kind_name(RegistryChange::Kind::kRemove)));
        m["name"] = Value(name);
        changes.push_back(Value(std::move(m)));
      } else {
        changes.push_back(
            change_to_value(it->second, known, /*allow_elide=*/true));
      }
    }
  }
  out["changes"] = Value(std::move(changes));
  done(Value(std::move(out)));
}

void UddiRegistry::prune() {
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (it->second.expires_at != 0 && it->second.expires_at <= sched_.now()) {
      // Expiry is a state change clients must learn about: journal it
      // exactly like an unpublish.
      journal_append(RegistryChange::Kind::kRemove, it->first,
                     it->second.digest);
      store_remove(it->first, it->second.digest);
      it = entries_.erase(it);
    } else {
      ++it;
    }
  }
  // Expiries can surface inside read handlers too; the commit no-ops
  // when nothing was staged.
  store_commit();
}

std::size_t UddiRegistry::size() const {
  std::size_t n = 0;
  for (const auto& [name, e] : entries_) {
    if (e.expires_at == 0 || e.expires_at > sched_.now()) ++n;
  }
  return n;
}

Value UddiRegistry::entry_to_value(const RegistryEntry& e) const {
  ValueMap m;
  m["name"] = e.name;
  m["category"] = e.category;
  m["origin"] = e.origin;
  m["wsdl"] = e.wsdl;
  m["digest"] = e.digest;
  return Value(std::move(m));
}

Value UddiRegistry::change_to_value(const RegistryEntry& e,
                                    const std::set<std::string>& known,
                                    bool allow_elide) {
  ValueMap m;
  m["kind"] = Value(std::string(kind_name(RegistryChange::Kind::kUpsert)));
  m["name"] = e.name;
  m["category"] = e.category;
  m["origin"] = e.origin;
  m["digest"] = e.digest;
  if (allow_elide && known.count(e.digest) != 0) {
    ++wsdl_bodies_elided_;  // caller proved it holds this content
  } else {
    m["wsdl"] = e.wsdl;
    ++wsdl_bodies_sent_;
  }
  return Value(std::move(m));
}

Result<RegistryEntry> UddiClient::entry_from_value(const Value& v) {
  if (!v.is_map()) return protocol_error("registry entry is not a struct");
  RegistryEntry e;
  e.name = v.at("name").is_string() ? v.at("name").as_string() : "";
  e.category = v.at("category").is_string() ? v.at("category").as_string() : "";
  e.origin = v.at("origin").is_string() ? v.at("origin").as_string() : "";
  e.wsdl = v.at("wsdl").is_string() ? v.at("wsdl").as_string() : "";
  e.digest = v.at("digest").is_string() ? v.at("digest").as_string() : "";
  if (e.name.empty()) return protocol_error("registry entry missing name");
  return e;
}

template <typename F>
struct UddiClient::Attempt {
  UddiClient* client;
  const char* method;
  NamedValues params;
  F on_result;
  bool resent = false;

  void operator()(Result<Value> r) {
    if (!resent && !r.is_ok() && http::is_stale_connection(r.status())) {
      resent = true;
      client->send(std::move(*this));
      return;
    }
    on_result(std::move(r));
  }
};

template <typename F>
void UddiClient::call(const char* method, NamedValues params, F on_result) {
  send(Attempt<F>{this, method, std::move(params), std::move(on_result)});
}

template <typename F>
void UddiClient::send(Attempt<F> attempt) {
  // The view stays valid while the attempt moves into the completion:
  // a moved vector keeps its elements where they are.
  const NamedValuesView params(attempt.params);
  const char* method = attempt.method;
  client_.call(registry_, path_, kNs, method, params, std::move(attempt));
}

void UddiClient::publish(const RegistryEntry& entry, sim::Duration ttl,
                         DoneFn done) {
  call("publish",
       {{"name", Value(entry.name)},
        {"category", Value(entry.category)},
        {"origin", Value(entry.origin)},
        {"wsdl", Value(entry.wsdl)},
        {"ttl", Value(static_cast<std::int64_t>(ttl))}},
       [done = std::move(done)](Result<Value> r) {
         done(r.is_ok() ? Status::ok() : r.status());
       });
}

void UddiClient::unpublish(const std::string& name, DoneFn done) {
  call("unpublish", {{"name", Value(name)}},
       [done = std::move(done)](Result<Value> r) {
         done(r.is_ok() ? Status::ok() : r.status());
       });
}

void UddiClient::renew_origin(const std::string& origin,
                              const std::string& fingerprint,
                              sim::Duration ttl, DoneFn done) {
  call("renewOrigin",
       {{"origin", Value(origin)},
        {"fingerprint", Value(fingerprint)},
        {"ttl", Value(static_cast<std::int64_t>(ttl))}},
       [done = std::move(done)](Result<Value> r) {
         done(r.is_ok() ? Status::ok() : r.status());
       });
}

Result<RegistryDelta> UddiClient::delta_from_value(const Value& v) {
  if (!v.is_map()) return protocol_error("changesSince result is not a struct");
  RegistryDelta delta;
  delta.full = v.at("full").is_bool() && v.at("full").as_bool();
  delta.epoch = v.at("epoch").is_int()
                    ? static_cast<std::uint64_t>(v.at("epoch").as_int())
                    : 0;
  delta.cursor = v.at("cursor").is_int()
                     ? static_cast<std::uint64_t>(v.at("cursor").as_int())
                     : 0;
  if (!v.at("changes").is_list()) {
    return protocol_error("changesSince result has no change list");
  }
  for (const auto& item : v.at("changes").as_list()) {
    if (!item.is_map()) return protocol_error("registry change is not a struct");
    RegistryChange c;
    const std::string kind =
        item.at("kind").is_string() ? item.at("kind").as_string() : "";
    if (kind == "upsert") {
      c.kind = RegistryChange::Kind::kUpsert;
    } else if (kind == "remove") {
      c.kind = RegistryChange::Kind::kRemove;
    } else {
      return protocol_error("registry change has unknown kind: " + kind);
    }
    c.name = item.at("name").is_string() ? item.at("name").as_string() : "";
    if (c.name.empty()) return protocol_error("registry change missing name");
    if (delta.full && c.kind == RegistryChange::Kind::kRemove) {
      // A full reply is the live set itself; it cannot list a removal.
      return protocol_error("snapshot lists a removal: " + c.name);
    }
    c.category =
        item.at("category").is_string() ? item.at("category").as_string() : "";
    c.origin =
        item.at("origin").is_string() ? item.at("origin").as_string() : "";
    c.digest =
        item.at("digest").is_string() ? item.at("digest").as_string() : "";
    c.wsdl = item.at("wsdl").is_string() ? item.at("wsdl").as_string() : "";
    if (c.kind == RegistryChange::Kind::kUpsert && c.digest.empty()) {
      return protocol_error("upsert change missing digest: " + c.name);
    }
    delta.changes.push_back(std::move(c));
  }
  return delta;
}

void UddiClient::changes_since(DeltaFn done) {
  // First contact (or after reset_cursor): ask for a snapshot outright,
  // offering the digests already cached so bodies can be elided.
  request_changes(cursor_ == 0 && epoch_ == 0, std::move(done));
}

void UddiClient::request_changes(bool snapshot, DeltaFn done) {
  NamedValues params{
      {"epoch", Value(static_cast<std::int64_t>(epoch_))},
      {"cursor", Value(static_cast<std::int64_t>(cursor_))},
      {"snapshot", Value(snapshot)}};
  if (snapshot) {
    // The known-digest list rides only on snapshot requests: steady-
    // state delta requests stay O(1) on the wire regardless of how many
    // descriptions this client caches.
    ValueList known;
    for (const auto& [digest, wsdl] : wsdl_by_digest_) {
      known.push_back(Value(digest));
    }
    params.push_back({"known", Value(std::move(known))});
  }
  call(
      "changesSince", std::move(params),
      [this, snapshot, done = std::move(done)](Result<Value> r) mutable {
        if (!r.is_ok()) {
          done(r.status());
          return;
        }
        const Value& v = r.value();
        if (v.is_map() && v.at("resync").is_bool() &&
            v.at("resync").as_bool()) {
          if (snapshot) {
            done(protocol_error("registry demanded resync of a snapshot"));
            return;
          }
          // Our cursor predates the journal horizon (compaction) or the
          // registry restarted (fresh epoch): fall back to a snapshot.
          request_changes(true, std::move(done));
          return;
        }
        auto parsed = delta_from_value(v);
        if (!parsed.is_ok()) {
          done(parsed.status());
          return;
        }
        RegistryDelta delta = std::move(parsed).take();
        for (auto& c : delta.changes) {
          if (c.kind != RegistryChange::Kind::kUpsert) continue;
          if (!c.wsdl.empty()) {
            wsdl_by_digest_[c.digest] = c.wsdl;
          } else {
            auto it = wsdl_by_digest_.find(c.digest);
            if (it == wsdl_by_digest_.end()) {
              done(protocol_error("registry elided a digest we never saw: " +
                                  c.digest));
              return;
            }
            c.wsdl = it->second;
          }
        }
        if (delta.full) {
          // Snapshot = the complete live set; cached bodies no snapshot
          // entry references are garbage. Collecting here bounds the
          // cache by the registry's live size.
          std::set<std::string> live;
          for (const auto& c : delta.changes) live.insert(c.digest);
          for (auto it = wsdl_by_digest_.begin();
               it != wsdl_by_digest_.end();) {
            it = live.count(it->first) == 0 ? wsdl_by_digest_.erase(it)
                                            : std::next(it);
          }
          ++full_syncs_;
        } else {
          ++delta_syncs_;
        }
        epoch_ = delta.epoch;
        cursor_ = delta.cursor;
        done(std::move(delta));
      });
}

void UddiClient::list_all(EntriesFn done) {
  call("list", {}, [done = std::move(done)](Result<Value> r) {
    if (!r.is_ok()) {
      done(r.status());
      return;
    }
    if (!r.value().is_list()) {
      done(protocol_error("list result is not an array"));
      return;
    }
    std::vector<RegistryEntry> out;
    for (const auto& item : r.value().as_list()) {
      auto e = entry_from_value(item);
      if (!e.is_ok()) {
        done(e.status());
        return;
      }
      out.push_back(std::move(e).take());
    }
    done(std::move(out));
  });
}

}  // namespace hcm::soap
