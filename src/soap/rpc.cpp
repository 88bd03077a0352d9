#include "soap/rpc.hpp"

#include "common/logging.hpp"
#include "obs/slab.hpp"
#include "obs/trace.hpp"

namespace hcm::soap {

namespace {
// Thread-local response scratch. respond() serializes synchronously
// (stream delivery is scheduled, never inline), so the scratch and its
// string capacities are free again the moment the call returns —
// steady-state service responses are built without reallocation. A
// handler that parks the response moves from it, which only forfeits
// the recycled capacity. Thread-local keeps shards independent under
// the parallel kernel. Callers render the envelope into .body.
http::Response& soap_response(int status, std::string_view reason) {
  thread_local http::Response resp;
  resp.status = status;
  resp.reason.assign(reason);
  resp.version.assign("HTTP/1.1");
  if (resp.headers.empty()) resp.headers.emplace_back();
  resp.headers.resize(1);
  resp.headers[0].first.assign("Content-Type");
  resp.headers[0].second.assign("text/xml; charset=utf-8");
  return resp;
}
}  // namespace

// One slot per dispatch in flight: what its completion needs once the
// request envelope has been recycled. Slots go back on a free list, and
// their strings keep their capacity from call to call, so a warm
// dispatch stores its state without allocating.
class DispatchTable {
 public:
  struct Slot {
    http::RespondFn respond;  // null once answered
    std::string ns;
    std::string method;
    std::uint64_t span_id = 0;
    std::uint32_t refs = 0;  // live copies of the slot's completion
  };

  DispatchTable(obs::Counter& faults_sent, sim::Scheduler& scheduler)
      : faults(faults_sent), sched(scheduler) {}

  std::uint32_t acquire() {
    if (free_.empty()) {
      slots.emplace_back();
      return static_cast<std::uint32_t>(slots.size() - 1);
    }
    const std::uint32_t i = free_.back();
    free_.pop_back();
    return i;
  }

  void retain(std::uint32_t i) { ++slots[i].refs; }

  // The last completion copy is gone: an unanswered respond fn (a
  // handler dropped its completion) dies with it, after the slot is
  // back on the free list.
  void release(std::uint32_t i) {
    if (--slots[i].refs != 0) return;
    http::RespondFn dead = std::move(slots[i].respond);
    free_.push_back(i);
  }

  obs::Counter& faults;
  sim::Scheduler& sched;
  std::vector<Slot> slots;

 private:
  std::vector<std::uint32_t> free_;
};

namespace {
// A completion's claim on its slot. Copies of the completion share the
// slot; the last one to be destroyed frees it.
class SlotRef {
 public:
  SlotRef(std::shared_ptr<DispatchTable> table, std::uint32_t index)
      : table_(std::move(table)), index_(index) {
    table_->retain(index_);
  }
  SlotRef(const SlotRef& o) : table_(o.table_), index_(o.index_) {
    table_->retain(index_);
  }
  SlotRef(SlotRef&& o) noexcept
      : table_(std::move(o.table_)), index_(o.index_) {}
  SlotRef& operator=(const SlotRef&) = delete;
  SlotRef& operator=(SlotRef&&) = delete;
  ~SlotRef() {
    if (table_) table_->release(index_);
  }

  [[nodiscard]] DispatchTable& table() const { return *table_; }
  [[nodiscard]] DispatchTable::Slot& slot() const {
    return table_->slots[index_];
  }

 private:
  std::shared_ptr<DispatchTable> table_;
  std::uint32_t index_;
};
}  // namespace

SoapService::SoapService(http::HttpServer& http_server, std::string path)
    : http_server_(http_server),
      path_(std::move(path)),
      obs_scope_(obs::shard_registry().unique_scope("soap.service")),
      calls_handled_(obs::shard_registry().counter(obs_scope_ + ".calls")),
      faults_sent_(obs::shard_registry().counter(obs_scope_ + ".faults")),
      dispatch_(std::make_shared<DispatchTable>(
          faults_sent_, http_server_.network().scheduler())) {
  http_server_.route(path_, [this](const http::Request& req,
                                   http::RespondFn respond) {
    handle(req, std::move(respond));
  });
}

SoapService::~SoapService() { http_server_.remove_route(path_); }

std::size_t SoapService::dispatch_slots() const {
  return dispatch_->slots.size();
}

void SoapService::register_method(const std::string& method,
                                  MethodHandler handler) {
  methods_[method] = std::move(handler);
}

void SoapService::unregister_method(const std::string& method) {
  methods_.erase(method);
}

std::unique_ptr<Envelope> SoapService::acquire_env() {
  if (env_pool_.empty()) return std::make_unique<Envelope>();
  auto env = std::move(env_pool_.back());
  env_pool_.pop_back();
  return env;
}

void SoapService::release_env(std::unique_ptr<Envelope> env) {
  // A few entries cover synchronous nested dispatch; beyond that the
  // envelope just frees (no unbounded hoard).
  if (env_pool_.size() < 4) env_pool_.push_back(std::move(env));
}

void SoapService::handle(const http::Request& req, http::RespondFn respond) {
  if (req.method != "POST") {
    faults_sent_.inc();
    auto& resp = soap_response(405, "Method Not Allowed");
    build_fault_into(resp.body,
                     Fault{"SOAP-ENV:Client", "SOAP requires POST", ""});
    respond(std::move(resp));
    return;
  }
  // Borrowed for this frame only: what the completion needs moves into
  // a dispatch slot (it may run after the envelope has been reused).
  auto env = acquire_env();
  struct Lease {
    SoapService* service;
    std::unique_ptr<Envelope>& env;
    ~Lease() { service->release_env(std::move(env)); }
  } lease{this, env};
  auto parsed = parse_envelope_into(req.body, *env);
  if (!parsed.is_ok()) {
    faults_sent_.inc();
    auto& resp = soap_response(400, "Bad Request");
    build_fault_into(resp.body, Fault::from_status(parsed));
    respond(std::move(resp));
    return;
  }
  if (env->is_fault) {
    faults_sent_.inc();
    auto& resp = soap_response(400, "Bad Request");
    build_fault_into(resp.body,
                     Fault{"SOAP-ENV:Client", "fault sent as request", ""});
    respond(std::move(resp));
    return;
  }
  calls_handled_.inc();
  auto& call = *env;
  auto it = methods_.find(call.method);
  if (it == methods_.end()) {
    faults_sent_.inc();
    auto& resp = soap_response(500, "Internal Server Error");
    build_fault_into(resp.body, Fault::from_status(
                                    not_found("no such method: " + call.method)));
    respond(std::move(resp));
    return;
  }
  // Rejoin the caller's trace: the <hcm:Trace> header carries the
  // client-side span, which becomes this dispatch span's parent. The
  // scopes make it current while the handler runs synchronously, so
  // downstream hops (VSG dispatch, nested remote calls) nest under it.
  auto& tracer = obs::Tracer::global();
  auto& sched = http_server_.network().scheduler();
  obs::Tracer::Scope wire_scope(tracer, call.trace);
  const std::uint64_t span_id =
      tracer.enabled()
          ? tracer.begin_span("soap.server:" + call.method, "soap.server",
                              sched.now())
          : 0;
  obs::Tracer::Scope span_scope(tracer, tracer.context_of(span_id));
  // The completion holds only its slot: the respond fn, namespace,
  // method and span wait in the dispatch table, so the closure leaves
  // room in CallResultFn's buffer for the observers that the VSG glue
  // and the target adapter decorate into it. It touches nothing of
  // `this`: it may run after the service is gone.
  const std::uint32_t index = dispatch_->acquire();
  {
    auto& slot = dispatch_->slots[index];
    slot.respond = std::move(respond);
    slot.ns.assign(call.method_ns.empty() ? std::string_view("urn:hcm")
                                          : std::string_view(call.method_ns));
    slot.method.assign(call.method);
    slot.span_id = span_id;
  }
  auto complete = [ref = SlotRef(dispatch_, index)](Result<Value> result) {
    auto& slot = ref.slot();
    if (!slot.respond) return;  // a copy already answered
    DispatchTable& table = ref.table();
    obs::Tracer::global().end_span(slot.span_id, table.sched.now(),
                                   result.is_ok());
    const http::RespondFn respond = std::move(slot.respond);
    if (result.is_ok()) {
      auto& resp = soap_response(200, "OK");
      build_response_into(resp.body, slot.ns, slot.method, result.value());
      respond(std::move(resp));
    } else {
      table.faults.inc();
      auto& resp = soap_response(500, "Internal Server Error");
      build_fault_into(resp.body, Fault::from_status(result.status()));
      respond(std::move(resp));
    }
  };
  // Two observer records (56 bytes each) follow it in the 192-byte
  // buffer; a closure any larger nests the dispatch into a heap cell.
  static_assert(sizeof(complete) <= 80);
  it->second(call.params, std::move(complete));
}

void SoapClient::call(net::Endpoint dest, const std::string& path,
                      const std::string& ns, const std::string& method,
                      NamedValuesView params, CallResultFn done) {
  calls_sent_.inc();
  // The wire header carries this client span's context, so the remote
  // dispatch span parents to it and the trace stays connected across
  // the island hop.
  auto& tracer = obs::Tracer::global();
  auto& sched = http_.network().scheduler();
  const std::uint64_t span_id =
      tracer.enabled()
          ? tracer.begin_span("soap.call:" + method, "soap.client",
                              sched.now())
          : 0;
  // Recycled request: every string below assigns into capacity kept
  // from the previous call, so a steady-state caller allocates nothing
  // here. Header slots are reconciled by index (a recycled request
  // carries [Content-Type, SOAPAction, Host]; the Host entry the HTTP
  // client appends is small-string-optimized, so dropping it is free).
  http::Request req = http_.recycled_request();
  req.method.assign("POST");
  req.target.assign(path);
  req.version.assign("HTTP/1.1");
  build_call_into(req.body, ns, method, params, tracer.context_of(span_id));
  while (req.headers.size() < 2) req.headers.emplace_back();
  req.headers.resize(2);
  req.headers[0].first.assign("Content-Type");
  req.headers[0].second.assign("text/xml; charset=utf-8");
  req.headers[1].first.assign("SOAPAction");
  std::string& action = req.headers[1].second;
  action.clear();
  action.reserve(ns.size() + method.size() + 3);
  action += '"';
  action += ns;
  action += '#';
  action += method;
  action += '"';
  // The result is borrowed (Result<Response>&): the HTTP client keeps
  // the Response and recycles its storage after this returns. Parsing
  // lands in env_scratch_, and the result Value is moved out before
  // `done` runs so a nested call from the completion can reuse it. The
  // closure (232 bytes) fits ResponseCallback's buffer; the tracer is
  // reached through Tracer::global(). A transport failure does not
  // touch `this`: a closed connection may fail its request after the
  // client is gone.
  http_.request(dest, std::move(req),
                [done = std::move(done), this, &sched,
                 span_id](Result<http::Response>& resp) {
                  auto end_span = [&](bool ok) {
                    obs::Tracer::global().end_span(span_id, sched.now(), ok);
                  };
                  if (!resp.is_ok()) {
                    end_span(false);
                    done(resp.status());
                    return;
                  }
                  auto parsed =
                      parse_envelope_into(resp.value().body, env_scratch_);
                  if (!parsed.is_ok()) {
                    end_span(false);
                    done(parsed);
                    return;
                  }
                  if (env_scratch_.is_fault) {
                    end_span(false);
                    done(env_scratch_.fault.to_status());
                    return;
                  }
                  end_span(true);
                  // RPC convention: single <return> child (or first param).
                  if (env_scratch_.params.empty()) {
                    done(Value());
                  } else {
                    Result<Value> rv(
                        std::move(env_scratch_.params.front().second));
                    done(std::move(rv));
                  }
                });
}

}  // namespace hcm::soap
