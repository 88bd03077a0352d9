// UDDI-like registry: the concrete backing store of the paper's Virtual
// Service Repository when the VSG protocol is SOAP (§3.3: "the VSR will
// be implemented with WSDL and UDDI"). It is itself a SOAP service, so
// every island reaches it through the same wire protocol.
//
// Synchronization is incremental: the registry keeps a monotonic
// sequence number and a bounded change journal (publish, unpublish and
// lease expiry all append), and serves a "changesSince" op so clients
// pay O(changes) — not O(entries) — per refresh. Entry WSDL bodies are
// content-addressed by digest (soap::wsdl_digest), which lets clients
// renew leases and resynchronize without re-transferring documents they
// already hold. DESIGN.md §"VSR synchronization" has the protocol.
#pragma once

#include <deque>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/fnv.hpp"
#include "soap/rpc.hpp"
#include "soap/wsdl.hpp"

namespace hcm::store {
class VsrStore;
}

namespace hcm::soap {

struct RegistryEntry {
  std::string name;      // globally unique deployed-service name
  std::string category;  // e.g. interface name ("VcrControl")
  std::string origin;    // island that published it ("jini-island")
  std::string wsdl;      // full WSDL document
  std::string digest;    // content digest of wsdl (filled by the registry)
  sim::SimTime expires_at = 0;  // 0 = no lease
};

// One entry of a changesSince response. Upserts carry the entry's
// digest always and its WSDL body only when the caller doesn't already
// hold that digest; removes carry just the name.
struct RegistryChange {
  enum class Kind { kUpsert, kRemove };
  Kind kind = Kind::kUpsert;
  std::string name;
  std::string category;
  std::string origin;
  std::string digest;
  std::string wsdl;  // resolved body (client side fills from its cache
                     // when the registry elided it)
};

// A changesSince result, already digest-resolved by UddiClient: every
// upsert's wsdl is populated. When `full` is set the change list is an
// authoritative snapshot — anything the caller imported that is not
// listed no longer exists.
struct RegistryDelta {
  bool full = false;
  std::uint64_t epoch = 0;   // registry incarnation
  std::uint64_t cursor = 0;  // pass back to the next changesSince
  std::vector<RegistryChange> changes;
};

// Stable fingerprint over one origin's published set: FNV-1a folded
// over its (name, digest) pairs in name order. An origin whose
// fingerprint matches the registry's view renews every lease it holds
// with one O(1) renewOrigin call (see Pcm::renew_origin_lease). add()
// the pairs in name order, then finish().
class FingerprintHasher {
 public:
  void add(std::string_view name, std::string_view digest);
  [[nodiscard]] std::string finish() const;

 private:
  std::uint64_t h_ = kFnv1aOffset;
};

// Server side: mounts five ops on a SoapService at `path` of an
// HttpServer. Each island's PCM is the only writer of the entries of its
// origin ("publish"/"unpublish", and "renewOrigin" for its leases), and
// reads the registry through "changesSince". "list" returns every entry
// at once, for audits (hcm_lint, perfbench, tests). The event bridge
// resolves sources through its island's PCM and never asks the
// registry.
class UddiRegistry {
 public:
  // The journal is bounded: once more than `journal_capacity` records
  // accumulate, the oldest are compacted away and clients whose cursor
  // predates the compaction horizon are told to resynchronize.
  static constexpr std::size_t kDefaultJournalCapacity = 128;

  // With a `store`, every journaled change (publish, unpublish, lease
  // expiry) is written through to disk and the registry adopts whatever
  // the store recovered: a clean replay resumes the **same epoch and
  // sequence number**, so warm client cursors stay valid and restart
  // costs zero snapshot resyncs; a torn/corrupt log tail resumes the
  // surviving prefix under a bumped epoch, which clients answer with
  // the ordinary snapshot-fallback resync. The store must be open()ed
  // before construction and must outlive the registry.
  UddiRegistry(http::HttpServer& http_server, sim::Scheduler& sched,
               std::string path = "/uddi",
               std::size_t journal_capacity = kDefaultJournalCapacity,
               store::VsrStore* store = nullptr);

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::uint64_t publishes() const { return publishes_; }

  // --- delta-sync observability (tests, benches) ----------------------
  [[nodiscard]] std::uint64_t epoch() const { return epoch_; }
  [[nodiscard]] std::uint64_t latest_seq() const { return seq_; }
  [[nodiscard]] std::size_t journal_size() const { return journal_.size(); }
  // Highest sequence number already compacted out of the journal.
  [[nodiscard]] std::uint64_t compacted_through() const {
    return compacted_through_;
  }
  [[nodiscard]] std::uint64_t renewals() const { return renewals_; }
  [[nodiscard]] std::uint64_t full_syncs() const { return full_syncs_; }
  [[nodiscard]] std::uint64_t delta_syncs() const { return delta_syncs_; }
  [[nodiscard]] std::uint64_t resyncs_required() const {
    return resyncs_required_;
  }
  [[nodiscard]] std::uint64_t wsdl_bodies_sent() const {
    return wsdl_bodies_sent_;
  }
  [[nodiscard]] std::uint64_t wsdl_bodies_elided() const {
    return wsdl_bodies_elided_;
  }

  // --- durable-store observability -------------------------------------
  [[nodiscard]] bool store_backed() const { return store_ != nullptr; }
  // Entries adopted from the store at construction (0 for a fresh dir).
  [[nodiscard]] std::size_t store_recovered_entries() const {
    return store_recovered_entries_;
  }
  // Write-through failures (store kept serving in-memory; durability is
  // degraded until the next successful commit).
  [[nodiscard]] std::uint64_t store_errors() const { return store_errors_; }

  // Mounted wire-op names (hcm_lint's registry-wire coverage rule).
  [[nodiscard]] std::vector<std::string> wire_ops() const {
    return service_.method_names();
  }

 private:
  struct JournalRecord {
    std::uint64_t seq = 0;
    RegistryChange::Kind kind = RegistryChange::Kind::kUpsert;
    std::string name;
    std::string digest;  // digest at record time (upserts)
  };

  void prune();
  void journal_append(RegistryChange::Kind kind, const std::string& name,
                      const std::string& digest);
  void adopt_store_state();
  void store_upsert(const RegistryEntry& e);
  void store_remove(const std::string& name, const std::string& digest);
  void store_touch(const std::string& name, sim::SimTime expires_at);
  void store_commit();
  Value entry_to_value(const RegistryEntry& e) const;
  Value change_to_value(const RegistryEntry& e,
                        const std::set<std::string>& known,
                        bool allow_elide);
  void handle_changes_since(const NamedValues& params, CallResultFn done);

  sim::Scheduler& sched_;
  SoapService service_;
  std::map<std::string, RegistryEntry> entries_;
  std::uint64_t publishes_ = 0;

  // --- change journal --------------------------------------------------
  std::uint64_t epoch_ = 0;  // distinct per registry incarnation
  std::uint64_t seq_ = 0;    // bumps on every journaled change
  std::uint64_t compacted_through_ = 0;
  std::size_t journal_capacity_;
  std::deque<JournalRecord> journal_;
  std::uint64_t renewals_ = 0;
  std::uint64_t full_syncs_ = 0;
  std::uint64_t delta_syncs_ = 0;
  std::uint64_t resyncs_required_ = 0;
  std::uint64_t wsdl_bodies_sent_ = 0;
  std::uint64_t wsdl_bodies_elided_ = 0;

  // --- durable store (optional) ----------------------------------------
  store::VsrStore* store_ = nullptr;
  std::size_t store_recovered_entries_ = 0;
  std::uint64_t store_errors_ = 0;
};

// Client-side typed wrapper used by VSGs/PCMs on every island. Keeps
// the per-registry sync cursor and a digest-keyed WSDL cache, so a
// changes_since() call transfers document bodies only for descriptions
// this client has never seen.
class UddiClient {
 public:
  // Pooled connections to the registry. A delta refresh with nothing
  // to publish asks one question at a time (renewOrigin, then
  // changesSince) and keeps to one connection; publications sent
  // together spread over up to kMaxConnections. Two bursts send an
  // island's whole set at once: its first round, and the republish
  // after a refused renewal (Pcm::republish_all). With 32, a burst of
  // up to 50 services per island was measured at least as fast as one
  // connection per request (bench_ext_vsr_sync). A registry restart
  // closes them, and the next request reconnects; a request one of them
  // drops unanswered is resent once, on a fresh connection (see
  // Attempt).
  static constexpr std::size_t kMaxConnections = 32;
  UddiClient(net::Network& net, net::NodeId node, net::Endpoint registry,
             std::string path = "/uddi")
      : client_(net, node,
                http::HttpClient::Options{.keep_alive = true,
                                          .max_connections = kMaxConnections}),
        registry_(registry),
        path_(std::move(path)) {}

  using DoneFn = std::function<void(const Status&)>;
  using EntriesFn = std::function<void(Result<std::vector<RegistryEntry>>)>;
  using DeltaFn = std::function<void(Result<RegistryDelta>)>;

  // ttl of 0 means no expiry; otherwise the entry lapses unless
  // republished (lease-style, mirroring Jini's lease discipline).
  void publish(const RegistryEntry& entry, sim::Duration ttl, DoneFn done);
  void unpublish(const std::string& name, DoneFn done);
  void list_all(EntriesFn done);

  // --- delta synchronization -------------------------------------------
  // Fetches everything that changed since the previous changes_since()
  // on this client (first call: a full snapshot). Handles registry
  // restarts and journal compaction internally by falling back to a
  // snapshot request, so callers always receive a usable delta; `full`
  // tells them when to treat it as authoritative. Upsert bodies elided
  // by the registry are resolved from the digest cache before delivery.
  void changes_since(DeltaFn done);
  // Forget cursor/epoch (next changes_since is a fresh snapshot). The
  // digest cache survives — it is content-addressed, so it stays valid
  // across registry restarts.
  void reset_cursor() { cursor_ = 0; epoch_ = 0; }

  // Renews every lease `origin` holds in one O(1) call, guarded by the
  // set fingerprint (FingerprintHasher). kInvalidArgument on
  // fingerprint mismatch, kNotFound when the origin has no entries.
  void renew_origin(const std::string& origin, const std::string& fingerprint,
                    sim::Duration ttl, DoneFn done);

  [[nodiscard]] std::uint64_t cursor() const { return cursor_; }
  [[nodiscard]] std::uint64_t epoch() const { return epoch_; }
  [[nodiscard]] std::size_t digest_cache_size() const {
    return wsdl_by_digest_.size();
  }
  [[nodiscard]] std::uint64_t full_syncs() const { return full_syncs_; }
  [[nodiscard]] std::uint64_t delta_syncs() const { return delta_syncs_; }

 private:
  // One registry request and its completion. Every registry op is
  // idempotent (republishing an identical document renews it; the others
  // read or renew), so a request that a stale pooled connection dropped
  // (http::is_stale_connection: the registry restarted behind the pool)
  // is resent once, on a fresh connection. The attempt owns its params
  // until the reply, at no extra allocation.
  template <typename F>
  struct Attempt;
  template <typename F>
  void call(const char* method, NamedValues params, F on_result);
  template <typename F>
  void send(Attempt<F> attempt);

  static Result<RegistryEntry> entry_from_value(const Value& v);
  void request_changes(bool snapshot, DeltaFn done);
  Result<RegistryDelta> delta_from_value(const Value& v);

  SoapClient client_;
  net::Endpoint registry_;
  std::string path_;

  // --- delta-sync state -------------------------------------------------
  std::uint64_t cursor_ = 0;
  std::uint64_t epoch_ = 0;
  std::map<std::string, std::string> wsdl_by_digest_;
  std::uint64_t full_syncs_ = 0;
  std::uint64_t delta_syncs_ = 0;
};

}  // namespace hcm::soap
