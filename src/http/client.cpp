#include "http/client.hpp"

#include <algorithm>
#include <vector>

namespace hcm::http {

namespace {
constexpr std::string_view kStaleConnection =
    "keep-alive connection closed before response";
Status stale_connection() { return unavailable(std::string(kStaleConnection)); }
}  // namespace

bool is_stale_connection(const Status& s) {
  return s.code() == StatusCode::kUnavailable && s.message() == kStaleConnection;
}

// One live connection. Requests are serialized (at most one in flight)
// because asynchronous server handlers may finish out of order, and
// HTTP/1.1 responses carry no request correlation.
struct HttpClient::PooledConn {
  net::StreamPtr stream;
  net::Endpoint dest;
  MessageParser parser{MessageParser::Mode::kResponse};
  struct Queued {
    Request req;
    ResponseCallback cb;
    sim::SimTime start;
  };
  std::deque<Queued> queue;
  ResponseCallback inflight;       // callback awaiting a response
  sim::SimTime inflight_start = 0; // request() entry time, for latency
  // Delivery scratch: responses are lent to the callback and moved
  // back, so string/header capacities rotate scratch <-> parser slots
  // instead of being reallocated per message.
  Response scratch_resp;
  sim::EventId timeout_event = 0;
  bool keep_alive = false;
  // Has delivered a response: a close that drops requests after this
  // is a stale keep-alive connection (see is_stale_connection).
  bool answered = false;
  // Pooled and still connecting: requests queue here instead of
  // opening connections of their own.
  bool connecting = false;
  std::weak_ptr<Pool> pool;  // its siblings, when pooled
};

// The pooled connections to one destination. Shared so that a close
// handler, which may run after the client is gone, reaches the siblings.
struct HttpClient::Pool {
  std::vector<std::shared_ptr<PooledConn>> conns;
};

// Latency/error accounting happens at the point a callback is
// delivered (not via a per-request wrapper closure, which would
// heap-allocate on every call): every path that invokes a callback
// funnels through here or records against the registry-owned metrics
// directly. The result stays owned by the caller (lvalue ref) so the
// hot path can reclaim the Response's string storage afterwards.
void HttpClient::finish(ResponseCallback cb, sim::SimTime start,
                        Result<Response>& r) {
  latency_us_.observe(net_.scheduler().now() - start);
  if (!r.is_ok()) errors_.inc();
  cb(r);
}

void HttpClient::request(net::Endpoint dest, Request req, ResponseCallback cb) {
  requests_.inc();
  const sim::SimTime start = net_.scheduler().now();
  std::string& host = header_slot(req.headers, "Host");
  host.clear();
  dest.append_to(host);
  std::shared_ptr<PooledConn> pooled;
  if (options_.keep_alive) {
    auto& pool = pool_[dest];
    if (!pool) pool = std::make_shared<Pool>();
    auto& conns = pool->conns;
    // Forget connections closed behind our back.
    std::erase_if(conns, [](const std::shared_ptr<PooledConn>& c) {
      return !c->connecting && !(c->stream && c->stream->is_open());
    });
    const auto load = [](const std::shared_ptr<PooledConn>& c) {
      return c->queue.size() + (c->inflight || c->connecting ? 1 : 0);
    };
    auto least = std::min_element(
        conns.begin(), conns.end(),
        [&](const auto& a, const auto& b) { return load(a) < load(b); });
    // An idle connection takes the request; when every one is busy, a
    // new one opens while the pool has room, else the request queues
    // behind the least loaded.
    if (least != conns.end() &&
        (load(*least) == 0 || conns.size() >= options_.max_connections)) {
      if ((*least)->connecting) {
        (*least)->queue.push_back({std::move(req), std::move(cb), start});
      } else {
        send_on(*least, std::move(req), std::move(cb), start);
      }
      return;
    }
    pooled = std::make_shared<PooledConn>();
    pooled->dest = dest;
    pooled->keep_alive = true;
    pooled->connecting = true;
    pooled->pool = pool;
    conns.push_back(pooled);
  }
  net_.connect(node_, dest,
               [this, dest, start, pooled, req = std::move(req),
                cb = std::move(cb)](Result<net::StreamPtr> stream) mutable {
                 if (!stream.is_ok()) {
                   // Out of the pool first: a callback may retry at once.
                   if (pooled) std::erase(pool_[dest]->conns, pooled);
                   Result<Response> r(stream.status());
                   finish(std::move(cb), start, r);
                   // Requests that queued on the failed connect fail too.
                   if (pooled) {
                     fail_queued(*pooled, net_.scheduler(), latency_us_,
                                 errors_, stream.status());
                   }
                   return;
                 }
                 auto conn = pooled ? pooled : std::make_shared<PooledConn>();
                 conn->connecting = false;
                 attach(conn, stream.value(), dest);
                 send_on(conn, std::move(req), std::move(cb), start);
               });
}

void HttpClient::attach(const std::shared_ptr<PooledConn>& conn,
                        net::StreamPtr stream, net::Endpoint dest) {
  conn->stream = std::move(stream);
  conn->dest = dest;
  conn->keep_alive = options_.keep_alive;
  auto& sched = net_.scheduler();

  // The connection owns the stream; the stream's callbacks must hold
  // only weak references back, or the pair keeps each other alive
  // forever. Ownership lives in pool_ (keep-alive) and in the pending
  // request-timeout closure (while a request is in flight). on_close
  // may fire after the client is gone, so it captures the scheduler
  // and registry-owned metrics, not this.
  std::weak_ptr<PooledConn> weak = conn;

  conn->stream->set_on_close([weak, &sched, &lat = latency_us_,
                              &errs = errors_] {
    auto conn = weak.lock();
    if (!conn) return;
    if (conn->timeout_event != 0) sched.cancel(conn->timeout_event);
    // The peer closed a pooled connection: its idle siblings most likely
    // went with it (a server restart), their close still on the way.
    // Drop them before the callbacks below issue requests that would
    // pick one.
    const auto pool = conn->pool.lock();
    if (pool) {
      for (auto& other : pool->conns) {
        if (other == conn || !other->stream || other->inflight ||
            !other->queue.empty()) {
          continue;
        }
        other->stream->close();
        other->stream = nullptr;
      }
    }
    // Stale only while the client lives (it owns the pool): a caller
    // that sees the status may resend through it.
    const bool stale = conn->answered && pool != nullptr;
    if (conn->inflight) {
      auto cb = std::move(conn->inflight);
      conn->inflight = nullptr;
      lat.observe(sched.now() - conn->inflight_start);
      errs.inc();
      Result<Response> r(stale
                             ? stale_connection()
                             : unavailable("connection closed before response"));
      cb(r);
    }
    fail_queued(*conn, sched, lat, errs,
                stale ? stale_connection() : unavailable("connection closed"));
    conn->stream = nullptr;
  });

  conn->stream->set_on_data([this, weak](BlockStream&& data) {
    auto conn = weak.lock();
    if (!conn) return;
    auto status = conn->parser.feed(std::move(data));
    if (!status.is_ok()) {
      if (conn->inflight) {
        auto cb = std::move(conn->inflight);
        conn->inflight = nullptr;
        Result<Response> r(status);
        finish(std::move(cb), conn->inflight_start, r);
      }
      if (conn->stream) conn->stream->close();
      return;
    }
    while (conn->parser.pop_response(conn->scratch_resp)) {
      if (conn->timeout_event != 0) {
        net_.scheduler().cancel(conn->timeout_event);
        conn->timeout_event = 0;
      }
      conn->answered = true;
      if (conn->inflight) {
        auto cb = std::move(conn->inflight);
        conn->inflight = nullptr;
        // Lend the response to the callback, then take it back: unless
        // the callback moved it out, its capacities return to scratch
        // and rotate into the parser's slot ring on the next pop.
        Result<Response> r(std::move(conn->scratch_resp));
        finish(std::move(cb), conn->inflight_start, r);
        if (r.is_ok()) conn->scratch_resp = std::move(r.value());
      }
      // Next queued request, if any.
      if (!conn->queue.empty() && conn->stream && conn->stream->is_open()) {
        auto next = std::move(conn->queue.front());
        conn->queue.pop_front();
        send_on(conn, std::move(next.req), std::move(next.cb), next.start);
      } else if (!conn->keep_alive && conn->stream) {
        conn->stream->close();
      }
    }
  });
}

void HttpClient::send_on(const std::shared_ptr<PooledConn>& conn, Request req,
                         ResponseCallback cb, sim::SimTime start) {
  if (conn->inflight) {
    conn->queue.push_back({std::move(req), std::move(cb), start});
    return;
  }
  if (!conn->stream || !conn->stream->is_open()) {
    Result<Response> r(unavailable("connection closed"));
    finish(std::move(cb), start, r);
    return;
  }
  conn->inflight = std::move(cb);
  conn->inflight_start = start;
  BlockStream out;
  req.serialize_to(out);
  // The request is consumed here; keep its capacities for
  // recycled_request() (bounded so a one-off huge upload isn't hoarded).
  if (req.body.capacity() <= 64 * 1024) spare_req_ = std::move(req);
  conn->stream->send(std::move(out));
  conn->timeout_event = net_.scheduler().after(
      options_.request_timeout,
      [conn, &sched = net_.scheduler(), &lat = latency_us_,
       &errs = errors_] {
        conn->timeout_event = 0;
        if (conn->inflight) {
          auto pending = std::move(conn->inflight);
          conn->inflight = nullptr;
          lat.observe(sched.now() - conn->inflight_start);
          errs.inc();
          Result<Response> r(timeout("HTTP request timed out"));
          pending(r);
          if (conn->stream) conn->stream->close();
          // Closing our end fires no on_close here: requests queued
          // behind the timed-out one fail now instead of waiting forever.
          fail_queued(*conn, sched, lat, errs,
                      unavailable("connection closed"));
        }
      });
}

void HttpClient::fail_queued(PooledConn& conn, sim::Scheduler& sched,
                             obs::Histogram& lat, obs::Counter& errs,
                             const Status& status) {
  auto queued = std::move(conn.queue);
  conn.queue.clear();
  for (auto& q : queued) {
    lat.observe(sched.now() - q.start);
    errs.inc();
    Result<Response> r(status);
    q.cb(r);
  }
}

}  // namespace hcm::http
