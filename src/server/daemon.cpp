#include "server/daemon.hpp"

#include <chrono>
#include <thread>
#include <utility>

#include "model/textio.hpp"
#include "support/error.hpp"
#include "support/json.hpp"
#include "support/metrics.hpp"

namespace sekitei::server {

namespace wire = service::wire;

namespace {

void sleep_for_ms(double ms) {
  std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
}

}  // namespace

Daemon::Daemon(Options opt)
    : opt_(std::move(opt)), engine_(opt_.engine), quota_(opt_.quota) {}

Daemon::~Daemon() {
  if (started_.load(std::memory_order_acquire)) stop();
}

void Daemon::start() {
  if (started_.exchange(true, std::memory_order_acq_rel)) return;
  listener_ = sock::listen_tcp(opt_.port, port_);
  accepting_.store(true, std::memory_order_release);
  accept_thread_ = std::thread([this] { accept_loop(); });
}

void Daemon::accept_loop() {
  while (accepting_.load(std::memory_order_acquire)) {
    sock::Socket conn = sock::accept_tcp(listener_, opt_.accept_tick_ms);
    reap_finished_sessions();
    if (!accepting_.load(std::memory_order_acquire)) break;
    if (!conn.valid()) continue;  // tick (or listener closed; loop re-checks)
    if (draining() || stopping()) continue;  // refuse late connections
    accepted_.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(sessions_mu_);
    auto session = std::make_unique<Session>(next_session_id_++,
                                             std::move(conn), *this,
                                             opt_.session);
    session->start();
    sessions_.push_back(std::move(session));
  }
}

void Daemon::reap_finished_sessions() {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  auto it = sessions_.begin();
  while (it != sessions_.end()) {
    if ((*it)->finished()) {
      (*it)->join();
      it = sessions_.erase(it);
    } else {
      ++it;
    }
  }
}

void Daemon::stop_accepting() {
  accepting_.store(false, std::memory_order_release);
  listener_.shutdown_both();  // wakes a parked accept immediately
  if (accept_thread_.joinable()) accept_thread_.join();
  listener_.close();
}

bool Daemon::all_sessions_finished() const {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  for (const auto& s : sessions_) {
    if (!s->finished()) return false;
  }
  return true;
}

bool Daemon::drain() {
  if (!started_.load(std::memory_order_acquire)) return true;
  draining_.store(true, std::memory_order_release);
  drain_deadline_epoch_ns_.store(
      StopSource::now_epoch_ns() +
          static_cast<std::int64_t>(opt_.drain_deadline_ms * 1e6),
      std::memory_order_release);
  stop_accepting();

  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    for (auto& s : sessions_) s->arm_inflight_deadline(opt_.drain_deadline_ms);
  }

  // Sessions answer their in-flight work (finished or degraded by the
  // tightened deadline) and close themselves; poll for that, then escalate.
  const double budget_ms = opt_.drain_deadline_ms + opt_.drain_grace_ms;
  const std::int64_t give_up =
      StopSource::now_epoch_ns() + static_cast<std::int64_t>(budget_ms * 1e6);
  bool clean = true;
  while (!all_sessions_finished()) {
    if (StopSource::now_epoch_ns() >= give_up) {
      clean = false;
      break;
    }
    sleep_for_ms(10.0);
  }
  if (!clean) {
    // Escalate: cancellation still answers every request (Cancelled), it
    // just stops burning the budget.
    stopping_.store(true, std::memory_order_release);
    std::lock_guard<std::mutex> lock(sessions_mu_);
    for (auto& s : sessions_) s->cancel_inflight();
  }
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    for (auto& s : sessions_) s->join();  // blocks until each reader exits
    sessions_.clear();
  }
  stopping_.store(true, std::memory_order_release);
  return clean;
}

void Daemon::stop() {
  if (!started_.load(std::memory_order_acquire)) return;
  stopping_.store(true, std::memory_order_release);
  draining_.store(true, std::memory_order_release);
  stop_accepting();
  std::lock_guard<std::mutex> lock(sessions_mu_);
  for (auto& s : sessions_) s->cancel_inflight();
  for (auto& s : sessions_) s->join();
  sessions_.clear();
}

std::size_t Daemon::session_count() const {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  return sessions_.size();
}

std::shared_ptr<const model::LoadedProblem> Daemon::load_problem_text(
    const std::string& text) {
  if (opt_.problem_cache_capacity != 0) {
    std::lock_guard<std::mutex> lock(cache_mu_);
    auto it = cache_.find(text);
    if (it != cache_.end()) return it->second;
  }
  // Parse outside the cache lock: parsing is the expensive part and the
  // cache exists precisely because concurrent sessions resend instances.
  std::shared_ptr<const model::LoadedProblem> loaded =
      model::load_problem(opt_.domain_text, text);
  if (opt_.problem_cache_capacity != 0) {
    std::lock_guard<std::mutex> lock(cache_mu_);
    // Keyed by the full text, not a hash: a hash collision here would
    // silently answer with the wrong instance's plan.
    if (cache_.emplace(text, loaded).second) {
      cache_order_.push_back(text);
      while (cache_.size() > opt_.problem_cache_capacity) {
        cache_.erase(cache_order_.front());
        cache_order_.pop_front();
      }
    }
  }
  return loaded;
}

void Daemon::submit(wire::WireRequest&& w,
                    std::shared_ptr<const model::LoadedProblem> problem,
                    StopSource stop,
                    std::function<void(service::PlanResponse&&)> done) {
  // A request that slipped past the session's draining check (drain() flipped
  // the flag mid-frame) still gets the tightened drain budget.
  const std::int64_t drain_ns =
      drain_deadline_epoch_ns_.load(std::memory_order_acquire);
  if (drain_ns != 0) {
    const std::int64_t current = stop.deadline_epoch_ns();
    if (current == 0 || current > drain_ns) stop.arm_deadline_at_ns(drain_ns);
  }

  service::PlanRequest req;
  req.id = std::move(w.id);
  req.mode = w.mode;
  req.deadline_ms = w.deadline_ms;
  req.validate = w.validate;
  req.preflight = w.preflight;
  req.degrade = w.degrade;
  req.echo_plan = w.echo_plan;
  if (w.repair) {
    // Resolve the name-keyed wire damage against the loaded instance before
    // the request leaves this thread; a bad name is a protocol-level refusal,
    // not a planning outcome.
    service::RepairSpec spec;
    std::string error;
    if (!wire::resolve_repair(w, *problem, spec, error)) {
      done(wire::make_rejected(std::move(req.id), "bad repair: " + error));
      return;
    }
    req.repair = std::move(spec);
  }
  req.problem = std::move(problem);
  req.stop = std::move(stop);
  engine_.submit_async(std::move(req), std::move(done));
}

std::string Daemon::healthz_body() {
  std::string body = "{\"healthz\":";
  json::append_escaped(body, draining() ? "draining" : "ok");
  body += ",\"sessions\":";
  json::append_number(body, static_cast<std::uint64_t>(session_count()));
  body += ",\"inflight\":";
  json::append_number(body, static_cast<std::uint64_t>(quota_.global_inflight()));
  body += ",\"pending\":";
  json::append_number(body, static_cast<std::uint64_t>(engine_.pending()));
  body += ",\"accepted\":";
  json::append_number(body, accepted_.load(std::memory_order_relaxed));
  body += ",\"served\":";
  json::append_number(body, served_.load(std::memory_order_relaxed));
  body += "}";
  return body;
}

std::string Daemon::stats_body() {
  // One frame = one JSON object, so the registry's NDJSON lines (one object
  // per series) become elements of a "metrics" array.
  const std::string ndjson = metrics::registry().to_ndjson(metrics::wall_ms());
  std::string body = "{\"stats\":1,\"metrics\":[";
  bool first = true;
  std::size_t start = 0;
  while (start < ndjson.size()) {
    std::size_t end = ndjson.find('\n', start);
    if (end == std::string::npos) end = ndjson.size();
    if (end > start) {
      if (!first) body.push_back(',');
      first = false;
      body.append(ndjson, start, end - start);
    }
    start = end + 1;
  }
  body += "]}";
  return body;
}

void Daemon::access_log(const std::string& line) {
  if (opt_.access_log == nullptr) return;
  std::lock_guard<std::mutex> lock(log_mu_);
  std::fwrite(line.data(), 1, line.size(), opt_.access_log);
  std::fflush(opt_.access_log);
}

}  // namespace sekitei::server
