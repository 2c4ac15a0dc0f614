// The service-mixed workload: an in-process server::Daemon on a loopback
// port, driven by one load-generator process over <= nproc pipelined
// connections with a four-kind request mix:
//
//   hit     repeated .sk problems (tiny / small / diamond): compile cache hits
//   miss    perturbed small.sk / diamond.sk instances, a fresh fingerprint
//           each, so every one is compiled
//   repair  seeded damage deltas against diamond.sk's plan (repair ladder)
//   cp      Tiny B-E in mode cp (the branch-and-bound backend)
//
// A run is kWindows windows.  Each window is an open-loop segment (a seeded
// Poisson schedule at a fixed rate well below capacity; latency runs from
// each request's *scheduled* send time to the arrival of its response
// frame), then a closed-loop segment (every connection keeps kClosedDepth
// requests in flight; completions per second give capacity_rps).  Between
// windows, while the daemon is idle, the reference kernel runs on every CPU
// at once; each window's times are calibrated by the kernel timings around
// it, so drift of the machine hits every window alike (NOTES.md).  Every
// response is checked afterwards.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common.hpp"
#include "inputs.hpp"
#include "model/compile.hpp"
#include "model/textio.hpp"
#include "repair/repair.hpp"
#include "server/client.hpp"
#include "server/daemon.hpp"
#include "service/engine.hpp"
#include "service/wire.hpp"
#include "sim/executor.hpp"
#include "support/json_reader.hpp"
#include "support/rng.hpp"

namespace perfbench {

namespace {

using namespace sekitei;

// Offered open-loop rate, about half of the raw closed-loop capacity this
// workload measures on a 4-CPU x86 box (NOTES.md).  Fixed: it is the
// workload's definition, not a tuning knob.
constexpr double kOpenRate = 350.0;
constexpr double kOpenShare = 0.65;  // of each window; the rest is closed loop
constexpr int kWindows = 10;
constexpr std::size_t kClosedDepth = 2;
constexpr double kMigrationPenalty = 1.0;
enum Kind : std::size_t { kHit, kMiss, kRepair, kCp, kKinds };
constexpr const char* kKindName[kKinds] = {"hit", "miss", "repair", "cp"};
// The mix, as counts per block.  Each block is shuffled by the seed, so the
// shares are exact in every run and only the order varies.  Derived in
// NOTES.md from the measured per-kind service time: each kind carries about
// the same share of the daemon's busy time.
constexpr std::size_t kMix[kKinds] = {1, 1, 18, 16};
constexpr std::size_t kBlock = kMix[kHit] + kMix[kMiss] + kMix[kRepair] + kMix[kCp];
// Miss indices of the open-loop and closed-loop generators never meet, so
// every miss in a run has its own fingerprint.
constexpr std::size_t kClosedMissBase = std::size_t{1} << 30;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch())
      .count();
}

struct Request {
  Kind kind = kHit;
  std::size_t key = 0;  // hit file / miss variant / damage case / cp scenario index
  std::string id;
  std::string body;
  std::int64_t due_ns = 0;  // open loop: absolute scheduled send time
  std::int64_t sent_ns = 0;
  std::int64_t recv_ns = 0;
  int window = 0;
  std::string response;
};

/// Inputs shared by every request of a run: problem texts and the prior
/// plan the repair slice damages.
struct Inputs {
  std::string domain;
  std::vector<std::string> hit_texts;  // by hit_files() index
  std::vector<std::string> cp_texts;   // by cp_scenarios() index
  std::vector<std::uint32_t> prior_steps;
  std::vector<double> prior_choices;
};

/// Repair request `k`: damage case k against the prior diamond.sk plan.
service::wire::WireRequest repair_request(const Inputs& in, std::size_t k) {
  service::wire::WireRequest w;
  w.echo_plan = true;
  w.problem_text = in.hit_texts[2];  // diamond.sk
  w.repair = true;
  w.prior_plan = in.prior_steps;
  w.choices = in.prior_choices;
  w.damage = repair_damages()[k].damage;
  w.migration_penalty = kMigrationPenalty;
  return w;
}

/// Makes the requests of one stream (the open-loop schedule, or the closed
/// loop) in a fixed order: the same seed gives the same requests.
class RequestFactory {
 public:
  RequestFactory(const Inputs& in, std::uint64_t seed, std::size_t miss_base)
      : in_(in), rng_(seed * 0x2545f4914f6cdd1dULL + 7 + miss_base),
        first_(static_cast<std::size_t>(seed % 977)), miss_base_(miss_base) {}

  Request make(const std::string& id) {
    if (block_pos_ == kBlock) {
      std::size_t at = 0;
      for (std::size_t k = 0; k < kKinds; ++k) {
        for (std::size_t c = 0; c < kMix[k]; ++c) block_[at++] = static_cast<Kind>(k);
      }
      for (std::size_t i = kBlock - 1; i > 0; --i) std::swap(block_[i], block_[rng_.next_below(i + 1)]);
      block_pos_ = 0;
    }
    Request r;
    r.id = id;
    r.kind = block_[block_pos_++];
    const std::size_t nth = first_ + made_[r.kind]++;
    service::wire::WireRequest w;
    w.id = id;
    w.echo_plan = true;
    switch (r.kind) {
      case kHit:
        r.key = nth % in_.hit_texts.size();
        w.problem_text = in_.hit_texts[r.key];
        break;
      case kMiss:
        r.key = miss_base_ + nth;
        w.problem_text = miss_variant_text(r.key);
        break;
      case kRepair:
        r.key = nth % repair_damages().size();
        w = repair_request(in_, r.key);
        w.id = id;
        break;
      default:
        r.key = nth % cp_scenarios().size();
        w.problem_text = in_.cp_texts[r.key];
        w.mode = core::PlannerOptions::Mode::Cp;
        break;
    }
    r.body = service::wire::render_request(w);
    return r;
  }

  double uniform() { return rng_.next_double(); }

 private:
  const Inputs& in_;
  SplitMix64 rng_;
  std::size_t first_;      // seed-chosen start of every kind's cycle
  std::size_t miss_base_;  // first miss-variant index of this stream
  Kind block_[kBlock] = {};
  std::size_t block_pos_ = kBlock;
  std::size_t made_[kKinds] = {};
};

/// The `request` id of a response frame (a flat scan: the writer escapes
/// quotes, and the id is the record's first key).
std::string response_id(const std::string& body) {
  const std::string needle = "\"request\":\"";
  const std::size_t at = body.find(needle);
  if (at == std::string::npos) return {};
  const std::size_t from = at + needle.size();
  return body.substr(from, body.find('"', from) - from);
}

std::size_t worker_count() {
  return std::max<std::size_t>(1, std::min<std::size_t>(4, std::thread::hardware_concurrency()));
}

server::Daemon::Options daemon_options(const std::string& domain) {
  server::Daemon::Options o;
  o.domain_text = domain;
  o.engine.workers = worker_count();
  o.quota.per_conn_inflight = 64;
  return o;
}

/// Open loop on one connection: send each request at its due time, collect
/// responses in between.  `mine` is sorted by due time.
void open_loop_connection(std::uint16_t port, std::vector<Request*> mine, std::int64_t give_up_ns) try {
  server::FrameClient client(port);
  std::unordered_map<std::string, Request*> inflight;
  std::size_t next = 0;
  std::string body;
  while (next < mine.size() || !inflight.empty()) {
    const std::int64_t now = now_ns();
    if (now > give_up_ns) break;
    if (next < mine.size() && now >= mine[next]->due_ns) {
      Request* r = mine[next++];
      r->sent_ns = now;
      inflight[r->id] = r;
      if (!client.send(r->body)) break;
      continue;
    }
    const double wait_ms =
        next < mine.size() ? static_cast<double>(mine[next]->due_ns - now) / 1e6 : 200.0;
    const auto st = client.recv_frame(body, std::max(wait_ms, 0.0));
    if (st == server::FrameClient::Recv::Frame) {
      const std::int64_t at = now_ns();
      const auto it = inflight.find(response_id(body));
      if (it == inflight.end()) continue;
      it->second->recv_ns = at;
      it->second->response = std::move(body);
      inflight.erase(it);
    } else if (st != server::FrameClient::Recv::Timeout) {
      break;
    }
  }
} catch (const std::exception&) {
  // A connection that fails leaves its requests unanswered; the checks
  // count each of them as a failure.
}

/// The closed loop's requests, made on demand in the factory's order (so
/// no pool can run dry and cap the measured capacity) and kept for the checks.
class ClosedSource {
 public:
  explicit ClosedSource(RequestFactory factory) : factory_(std::move(factory)) {}

  Request* next(int window) {
    const std::lock_guard<std::mutex> lock(mu_);
    reqs_.push_back(factory_.make("c" + std::to_string(reqs_.size())));
    reqs_.back().window = window;
    return &reqs_.back();
  }
  std::deque<Request>& all() { return reqs_; }

 private:
  std::mutex mu_;
  RequestFactory factory_;
  std::deque<Request> reqs_;
};

/// Closed loop on one connection: keep kClosedDepth requests in flight
/// until `stop_ns`, then drain.
void closed_loop_connection(std::uint16_t port, ClosedSource& source, int window, std::int64_t stop_ns,
                            std::int64_t give_up_ns) try {
  server::FrameClient client(port);
  std::unordered_map<std::string, Request*> inflight;
  auto send_next = [&] {
    Request* r = source.next(window);
    r->sent_ns = now_ns();
    inflight[r->id] = r;
    return client.send(r->body);
  };
  for (std::size_t d = 0; d < kClosedDepth; ++d) {
    if (!send_next()) break;
  }
  std::string body;
  while (!inflight.empty() && now_ns() < give_up_ns) {
    const auto st = client.recv_frame(body, 200.0);
    if (st == server::FrameClient::Recv::Timeout) continue;
    if (st != server::FrameClient::Recv::Frame) break;
    const std::int64_t at = now_ns();
    const auto it = inflight.find(response_id(body));
    if (it == inflight.end()) continue;
    it->second->recv_ns = at;
    it->second->response = std::move(body);
    inflight.erase(it);
    if (at < stop_ns && !send_next()) break;
  }
} catch (const std::exception&) {
  // As in open_loop_connection: unanswered requests count as failures.
}

/// Sends `reqs` pipelined on one fresh connection and returns the
/// responses by id (set-up and warm-up traffic).
std::map<std::string, std::string> round_trip(std::uint16_t port,
                                              const std::vector<service::wire::WireRequest>& reqs) {
  server::FrameClient client(port);
  for (const auto& r : reqs) {
    if (!client.send(r)) throw std::runtime_error("warm-up send failed");
  }
  std::map<std::string, std::string> out;
  std::string body;
  while (out.size() < reqs.size()) {
    if (client.recv_frame(body, 60000.0) != server::FrameClient::Recv::Frame) {
      throw std::runtime_error("warm-up response missing");
    }
    out[response_id(body)] = body;
  }
  return out;
}

json::Value parse_json(const std::string& text) {
  json::Value v;
  std::string error;
  if (!json::parse(text, v, &error)) throw std::runtime_error("bad response JSON: " + error);
  return v;
}

double num(const json::Value& v, const char* key) {
  const json::Value* m = v.find(key);
  return m != nullptr && m->is_number() ? m->number : 0.0;
}

std::string str(const json::Value& v, const char* key) {
  const json::Value* m = v.find(key);
  return m != nullptr && m->is_string() ? m->str : std::string();
}

bool flag(const json::Value& v, const char* key) {
  const json::Value* m = v.find(key);
  return m != nullptr && m->is_bool() && m->boolean;
}

/// The four work counters of a response's stats record.
WorkCounters work_of(const json::Value& resp) {
  const json::Value* stats = resp.find("stats");
  if (stats == nullptr) return {};
  return {num(*stats, "rg_expansions"), num(*stats, "slrg_sets"), num(*stats, "replay_calls"),
          num(*stats, "sim_rejections")};
}

std::vector<double> num_array(const json::Value& v, const char* key) {
  std::vector<double> out;
  const json::Value* m = v.find(key);
  if (m == nullptr || !m->is_array()) return out;
  for (const json::Value& e : *m->arr) out.push_back(e.number);
  return out;
}

/// Starts a daemon and warms it up: each repeated problem once, and the
/// diamond plan (with its execution choices) the repair slice damages.
std::unique_ptr<server::Daemon> start_daemon(Inputs& in) {
  auto daemon = std::make_unique<server::Daemon>(daemon_options(in.domain));
  daemon->start();
  std::vector<service::wire::WireRequest> warm;
  auto add = [&warm](std::string id, const std::string& text, core::PlannerOptions::Mode mode) {
    service::wire::WireRequest w;
    w.id = std::move(id);
    w.problem_text = text;
    w.mode = mode;
    w.echo_plan = true;
    warm.push_back(std::move(w));
  };
  for (std::size_t i = 0; i < in.hit_texts.size(); ++i) {
    add("warm-hit-" + std::to_string(i), in.hit_texts[i], core::PlannerOptions::Mode::Leveled);
  }
  for (std::size_t i = 0; i < in.cp_texts.size(); ++i) {
    add("warm-cp-" + std::to_string(i), in.cp_texts[i], core::PlannerOptions::Mode::Cp);
  }
  const auto responses = round_trip(daemon->port(), warm);
  const json::Value prior = parse_json(responses.at("warm-hit-2"));
  in.prior_steps.clear();
  for (const double s : num_array(prior, "plan_steps")) in.prior_steps.push_back(static_cast<std::uint32_t>(s));
  in.prior_choices = num_array(prior, "choices");
  if (in.prior_steps.empty()) throw std::runtime_error("diamond.sk warm-up did not solve");
  return daemon;
}

/// Client-side re-check of responses: compiles each distinct problem once
/// and re-executes the shipped plans in sim::Executor.
class Checker {
 public:
  Checker(const Inputs& in, const Expected& exp) : in_(in), exp_(exp) {}

  /// Returns an empty string when the response is right, else the reason.
  std::string check(const Request& req, const json::Value& resp) {
    const std::string outcome = str(resp, "outcome");
    std::optional<double> expected;
    WorkCounters want_work;
    std::string want_outcome = "solved";
    switch (req.kind) {
      case kHit: {
        const Answer& a = exp_.hit.at(hit_files()[req.key]);
        expected = a.cost;
        want_work = a.work;
        break;
      }
      case kMiss: {
        const Answer& a = exp_.miss[miss_shape(req.key)];
        expected = a.cost;
        want_work = a.work;
        break;
      }
      case kCp:
        expected = exp_.table2.at(std::string("Tiny/") + cp_scenarios()[req.key]).cost;
        want_work = exp_.cp[req.key];
        break;
      default: {
        const RepairAnswer& a = exp_.repair[req.key];
        want_outcome = a.outcome;
        if (a.outcome == "solved" || a.outcome == "degraded") expected = a.cost_lb;
        want_work = a.work;
        if (flag(resp, "repaired") != a.repaired) return "repaired flag differs";
      }
    }
    if (req.kind != kRepair && !expected) want_outcome = "infeasible";
    if (outcome != want_outcome) return "outcome " + outcome + " != " + want_outcome;
    if (!(work_of(resp) == want_work)) return "work counters differ from the recorded ones";
    if (!expected) return {};
    if (!same_cost(num(resp, "cost_lb"), *expected)) {
      return "cost " + std::to_string(num(resp, "cost_lb")) + " != " + std::to_string(*expected);
    }
    core::Plan plan;
    for (const double s : num_array(resp, "plan_steps")) plan.steps.emplace_back(static_cast<std::uint32_t>(s));
    const model::CompiledProblem& cp = compiled(req, flag(resp, "repaired"));
    for (const ActionId a : plan.steps) {
      if (a.index() >= cp.actions.size()) return "plan step out of range";
    }
    if (!sim::Executor(cp).execute(plan).feasible) return "plan does not re-execute";
    return {};
  }

 private:
  struct Entry {
    std::shared_ptr<model::LoadedProblem> lp;
    std::unique_ptr<model::CompiledProblem> cp;
    net::Network damaged;
    model::CppProblem problem;
    std::size_t variant = 0;
  };

  const model::CompiledProblem& compiled(const Request& req, bool repaired) {
    // Miss variants occur once per run: keep only the latest.
    const std::string key = req.kind == kMiss ? std::string("miss")
                                              : std::string(kKindName[req.kind]) +
                                                    std::to_string(req.key) + (repaired ? "r" : "");
    auto it = cache_.find(key);
    if (it != cache_.end() && (req.kind != kMiss || it->second->variant == req.key)) {
      return *it->second->cp;
    }
    auto e = std::make_unique<Entry>();
    std::string text;
    switch (req.kind) {
      case kHit: text = in_.hit_texts[req.key]; break;
      case kMiss: text = miss_variant_text(req.key); break;
      case kCp: text = in_.cp_texts[req.key]; break;
      default: text = in_.hit_texts[2]; break;
    }
    e->lp = model::load_problem(in_.domain, text);
    if (req.kind != kRepair) {
      e->cp = std::make_unique<model::CompiledProblem>(model::compile(e->lp->problem, e->lp->scenario));
    } else {
      // Rebuild the repair compile the engine planned against: survivors
      // pinned when the plan is a repair, the bare damaged network when
      // the ladder fell to a full replan.
      const model::CompiledProblem base = model::compile(e->lp->problem, e->lp->scenario);
      const service::wire::WireRequest w = repair_request(in_, req.key);
      service::RepairSpec spec;
      std::string error;
      if (!service::wire::resolve_repair(w, *e->lp, spec, error)) throw std::runtime_error(error);
      if (repaired) {
        const repair::Survivors sv =
            repair::compute_survivors(base, spec.prior_plan, spec.choices, spec.damage);
        e->damaged = repair::damaged_copy(*base.net, spec.damage, &sv.residual);
        e->problem = repair::repair_problem(*base.problem, e->damaged, sv);
        e->cp = std::make_unique<model::CompiledProblem>(model::compile(e->problem, base.scenario));
        repair::apply_adaptation_costs(*e->cp, sv, spec.costs);
      } else {
        e->damaged = repair::damaged_copy(*base.net, spec.damage, nullptr);
        e->problem = *base.problem;
        e->problem.network = &e->damaged;
        e->cp = std::make_unique<model::CompiledProblem>(model::compile(e->problem, base.scenario));
      }
    }
    e->variant = req.key;
    auto& slot = cache_[key];
    slot = std::move(e);
    return *slot->cp;
  }

  const Inputs& in_;
  const Expected& exp_;
  std::unordered_map<std::string, std::unique_ptr<Entry>> cache_;
};

/// Reads the inputs and starts a warmed-up daemon: the run's set-up.
std::unique_ptr<server::Daemon> set_up(const std::string& data_dir, Inputs& in) {
  in.domain = read_file(data_dir + "/media.sk");
  in.hit_texts.clear();
  for (const std::string& f : hit_files()) in.hit_texts.push_back(read_file(data_dir + "/" + f));
  const std::string tiny = read_file(data_dir + "/tiny.sk");
  in.cp_texts.clear();
  for (const char sc : cp_scenarios()) in.cp_texts.push_back(with_scenario(tiny, sc));
  return start_daemon(in);
}

}  // namespace

ServiceRecord record_service(const std::string& data_dir) {
  Inputs in;
  const std::unique_ptr<server::Daemon> daemon = set_up(data_dir, in);
  std::vector<service::wire::WireRequest> reqs;
  auto add = [&reqs](std::string id, std::string text, core::PlannerOptions::Mode mode) {
    service::wire::WireRequest w;
    w.id = std::move(id);
    w.problem_text = std::move(text);
    w.mode = mode;
    w.echo_plan = true;
    reqs.push_back(std::move(w));
  };
  for (std::size_t i = 0; i < hit_files().size(); ++i) {
    add("hit-" + std::to_string(i), in.hit_texts[i], core::PlannerOptions::Mode::Leveled);
  }
  for (std::size_t s = 0; s < kMissShapes; ++s) {
    add("miss-" + std::to_string(s), miss_variant_text(s), core::PlannerOptions::Mode::Leveled);
  }
  for (std::size_t k = 0; k < cp_scenarios().size(); ++k) {
    add("cp-" + std::to_string(k), in.cp_texts[k], core::PlannerOptions::Mode::Cp);
  }
  for (std::size_t k = 0; k < repair_damages().size(); ++k) {
    reqs.push_back(repair_request(in, k));
    reqs.back().id = "repair-" + std::to_string(k);
  }
  const std::map<std::string, std::string> responses = round_trip(daemon->port(), reqs);
  daemon->stop();

  auto answer = [&responses](const std::string& id) {
    const json::Value v = parse_json(responses.at(id));
    const std::string outcome = str(v, "outcome");
    if (outcome != "solved" && outcome != "infeasible") throw std::runtime_error(id + ": " + outcome);
    Answer a;
    if (outcome == "solved") a.cost = num(v, "cost_lb");
    a.work = work_of(v);
    return a;
  };
  ServiceRecord rec;
  for (std::size_t i = 0; i < hit_files().size(); ++i) rec.hit[hit_files()[i]] = answer("hit-" + std::to_string(i));
  for (std::size_t s = 0; s < kMissShapes; ++s) rec.miss.push_back(answer("miss-" + std::to_string(s)));
  for (std::size_t k = 0; k < cp_scenarios().size(); ++k) rec.cp.push_back(answer("cp-" + std::to_string(k)).work);
  for (std::size_t k = 0; k < repair_damages().size(); ++k) {
    const json::Value v = parse_json(responses.at("repair-" + std::to_string(k)));
    RepairAnswer a;
    a.outcome = str(v, "outcome");
    a.cost_lb = num(v, "cost_lb");
    a.repaired = flag(v, "repaired");
    a.work = work_of(v);
    rec.repair.push_back(std::move(a));
  }
  return rec;
}

void run_service(const RunOptions& opt, Report& report) {
  const Expected exp = load_expected(opt.data_dir);
  const std::size_t conns = worker_count();
  std::vector<KernelArena> arenas(conns);

  // Set-up, kSetupReps times (median reported), each calibrated by the
  // reference kernel on every CPU right after it.  The last daemon serves
  // the run.
  constexpr int kSetupReps = 15;
  Inputs in;
  std::unique_ptr<server::Daemon> daemon;
  std::vector<double> setup_s, setup_raw_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    if (daemon) daemon->stop();
    daemon.reset();
    const Clock::time_point t0 = Clock::now();
    daemon = set_up(opt.data_dir, in);
    setup_raw_s.push_back(ms_since(t0) / 1000.0);
    setup_s.push_back(setup_raw_s.back() * kRefNominalMs / ref_kernel_all_ms(arenas, 3));
  }
  const std::uint16_t port = daemon->port();

  // The open-loop schedule, drawn from the seed: one Poisson stream cut
  // into kWindows segments.  The closed loop draws its own stream.
  const double window_s = opt.seconds / kWindows;
  const double open_s = window_s * kOpenShare;  // per window
  const double closed_s = window_s - open_s;    // per window
  RequestFactory open_factory(in, opt.seed, 0);
  ClosedSource closed(RequestFactory(in, opt.seed, kClosedMissBase));
  std::vector<Request> open;
  for (double t = 0.0;;) {
    t += -std::log(1.0 - open_factory.uniform()) / kOpenRate;
    if (t >= open_s * kWindows) break;
    Request r = open_factory.make("o" + std::to_string(open.size()));
    r.window = std::min(static_cast<int>(t / open_s), kWindows - 1);
    r.due_ns = static_cast<std::int64_t>((t - r.window * open_s) * 1e9);  // within the window
    open.push_back(std::move(r));
  }

  // The windows.  The reference kernel runs only between them, while the
  // daemon is idle: timed under load it would also see the planner's own
  // CPU use, and calibrating by it would cancel part of a real change.
  std::vector<double> ref_ms = {ref_kernel_all_ms(arenas, 3)};
  std::vector<double> cal(kWindows);
  std::vector<std::int64_t> closed_stop(kWindows);
  std::size_t next_open = 0;
  for (int w = 0; w < kWindows; ++w) {
    const std::int64_t start = now_ns() + 20'000'000;  // 20 ms to connect
    std::vector<std::vector<Request*>> per_conn(conns);
    for (std::size_t c = 0; next_open < open.size() && open[next_open].window == w; ++next_open, ++c) {
      open[next_open].due_ns += start;
      per_conn[c % conns].push_back(&open[next_open]);
    }
    const std::int64_t open_give_up = start + static_cast<std::int64_t>((open_s + 60.0) * 1e9);
    {
      std::vector<std::thread> threads;
      for (std::size_t c = 0; c < conns; ++c) {
        threads.emplace_back(open_loop_connection, port, per_conn[c], open_give_up);
      }
      for (std::thread& t : threads) t.join();
    }
    const std::int64_t c_stop = now_ns() + static_cast<std::int64_t>(closed_s * 1e9);
    {
      std::vector<std::thread> threads;
      for (std::size_t c = 0; c < conns; ++c) {
        threads.emplace_back(closed_loop_connection, port, std::ref(closed), w, c_stop,
                             c_stop + 60'000'000'000LL);
      }
      for (std::thread& t : threads) t.join();
    }
    closed_stop[w] = c_stop;
    ref_ms.push_back(ref_kernel_all_ms(arenas, 3));
    cal[w] = kRefNominalMs / ((ref_ms[w] + ref_ms[w + 1]) / 2.0);
  }
  daemon->stop();
  // Peak RSS of the daemon and the load generator, before the checks below
  // compile their own copies of the problems.
  const double rss_mb = peak_rss_mb();

  // Check every response; gather the per-request numbers.
  Checker checker(in, exp);
  std::vector<double> latency, raw_latency, lag, wait, overhead;
  std::vector<double> kind_latency[kKinds], kind_compile[kKinds], kind_solve[kKinds];
  std::size_t kind_count[kKinds] = {};
  std::size_t cache_hits = 0;
  std::map<std::string, std::size_t> ladder;
  std::size_t repaired = 0;
  std::vector<double> cp_branches, rg_exp, replay_calls, slrg_sets, pruned, memo_hits, memo_all,
      actions, miss_compile;
  double peak_open = 0.0;
  std::size_t limit_hits = 0;
  std::vector<double> closed_done(kWindows, 0.0);

  auto check_one = [&](Request& r, bool is_open) {
    ++report.attempted;
    json::Value resp;
    std::string why;
    if (r.response.empty()) {
      why = "no response";
    } else if (!json::parse(r.response, resp, &why)) {
      why = "malformed response: " + why;
    } else if (resp.find("stats") == nullptr) {
      why = "response without stats";
    } else {
      why = checker.check(r, resp);
    }
    if (!why.empty()) {
      report.fail(r.id + " (" + kKindName[r.kind] + " " + std::to_string(r.key) + "): " + why);
      return;
    }
    if (!is_open) {
      if (r.recv_ns <= closed_stop[r.window]) closed_done[r.window] += 1.0;
      return;
    }
    const json::Value& stats = *resp.find("stats");
    const double raw = static_cast<double>(r.recv_ns - r.due_ns) / 1e6;
    const double lat = raw * cal[r.window];
    raw_latency.push_back(raw);
    latency.push_back(lat);
    lag.push_back(static_cast<double>(r.sent_ns - r.due_ns) / 1e6);
    const double wms = num(resp, "wait_ms");
    const double cms = num(resp, "compile_ms");
    const double sms = num(resp, "solve_ms");
    wait.push_back(wms);
    overhead.push_back(static_cast<double>(r.recv_ns - r.sent_ns) / 1e6 - wms - cms - sms);
    kind_latency[r.kind].push_back(lat);
    kind_compile[r.kind].push_back(cms);
    kind_solve[r.kind].push_back(sms);
    ++kind_count[r.kind];
    cache_hits += flag(resp, "cache_hit") ? 1 : 0;
    ++ladder[str(resp, "ladder")];
    const WorkCounters w = work_of(resp);
    if (r.kind == kRepair) repaired += flag(resp, "repaired") ? 1 : 0;
    if (r.kind == kCp) cp_branches.push_back(w.rg_expansions);
    if (r.kind == kMiss) miss_compile.push_back(cms);
    rg_exp.push_back(w.rg_expansions);
    replay_calls.push_back(w.replay_calls);
    slrg_sets.push_back(w.slrg_sets);
    pruned.push_back(num(stats, "rg_pruned_by_replay"));
    memo_hits.push_back(num(stats, "slrg_memo_hits"));
    memo_all.push_back(num(stats, "slrg_memo_hits") + num(stats, "slrg_memo_misses"));
    actions.push_back(num(stats, "total_actions"));
    peak_open = std::max(peak_open, num(stats, "rg_peak_open"));
    limit_hits += flag(stats, "hit_search_limit") ? 1 : 0;
  };
  for (Request& r : open) check_one(r, true);
  for (Request& r : closed.all()) check_one(r, false);

  const std::size_t n_open = latency.size();
  std::vector<double> kind_p50;
  for (std::size_t k = 0; k < kKinds; ++k) {
    if (!kind_latency[k].empty()) kind_p50.push_back(median(kind_latency[k]));
  }
  std::vector<double> capacity, raw_capacity;
  std::size_t completions = 0;
  for (int w = 0; w < kWindows; ++w) {
    raw_capacity.push_back(closed_done[w] / closed_s);
    capacity.push_back(raw_capacity.back() / cal[w]);
    completions += static_cast<std::size_t>(closed_done[w]);
  }
  const Tail lat_tail = tail(latency);
  char line[256];
  std::snprintf(line, sizeof line,
                "open loop: %zu requests at %.1f req/s offered in %d windows; tail = p%.1f (%zu beyond)",
                n_open, kOpenRate, kWindows, lat_tail.percentile, lat_tail.beyond);
  report.note(line);
  // Busy time = compile + solve + server overhead: the daemon's work per
  // request, whose per-kind shares the mix (kMix) is derived from.
  double busy[kKinds] = {};
  double busy_all = 0.0;
  for (std::size_t k = 0; k < kKinds; ++k) {
    for (std::size_t i = 0; i < kind_count[k]; ++i) busy[k] += kind_compile[k][i] + kind_solve[k][i];
    busy[k] += median(overhead) * static_cast<double>(kind_count[k]);
    busy_all += busy[k];
  }
  for (std::size_t k = 0; k < kKinds; ++k) {
    std::snprintf(line, sizeof line,
                  "slice %-6s share %.3f  p50 %.3f ms  compile p50 %.3f ms  solve p50 %.3f ms  "
                  "busy mean %.3f ms, share %.3f  n=%zu",
                  kKindName[k], n_open ? static_cast<double>(kind_count[k]) / n_open : 0.0,
                  median(kind_latency[k]), median(kind_compile[k]), median(kind_solve[k]),
                  kind_count[k] ? busy[k] / static_cast<double>(kind_count[k]) : 0.0,
                  busy_all > 0 ? busy[k] / busy_all : 0.0, kind_count[k]);
    report.note(line);
  }
  std::snprintf(line, sizeof line, "cache-hit share %.3f; closed loop %zu completions in %.1f s",
                n_open ? static_cast<double>(cache_hits) / n_open : 0.0, completions, closed_s * kWindows);
  report.note(line);
  std::snprintf(line, sizeof line,
                "raw wall clock: setup_s %.4f s, latency_p50_ms %.4f ms, latency_tail_ms %.4f ms, "
                "capacity_rps %.2f; calibration x%.4f",
                median(setup_raw_s), median(raw_latency), tail(raw_latency).value, median(raw_capacity),
                median(cal));
  report.note(line);

  report.add_e2e("setup_s", median(setup_s), "s", setup_s.size());
  report.add_e2e("solve_ms_geomean", geomean(kind_p50), "ms", n_open);
  report.add_e2e("latency_p50_ms", median(latency), "ms", n_open);
  report.add_e2e("latency_tail_ms", lat_tail.value, "ms", n_open);
  report.add_e2e("capacity_rps", median(capacity), "1/s", completions);
  report.add_e2e("verdict_ok_rate",
                 static_cast<double>(report.attempted - report.failed) /
                     static_cast<double>(std::max<std::uint64_t>(report.attempted, 1)),
                 "ratio", report.attempted);
  report.add_e2e("peak_rss_mb", rss_mb, "MB", 1);
  report.add_layer("host.ref_ms", median(ref_ms), "ms", ref_ms.size());
  if (!opt.trace) return;

  // Wire codec cost on this run's own frames: parse every request body the
  // run sent, render a response of each kind (planned in-process).
  std::vector<double> parse_us;
  auto time_parse = [&](const Request& r) {
    service::wire::WireRequest w;
    std::string error;
    const Clock::time_point t0 = Clock::now();
    const bool ok = service::wire::parse_request(r.body, w, error);
    parse_us.push_back(ms_since(t0) * 1000.0);
    if (!ok) report.fail("request body does not parse: " + error);
  };
  for (const Request& r : open) time_parse(r);
  for (const Request& r : closed.all()) time_parse(r);
  std::vector<double> render_us;
  {
    service::PlanningEngine::Options engine_opt;
    engine_opt.workers = 1;
    service::PlanningEngine engine(engine_opt);
    for (std::size_t k = 0; k < kKinds; ++k) {
      const auto it = std::find_if(open.begin(), open.end(), [k](const Request& r) { return r.kind == k; });
      if (it == open.end()) continue;
      service::wire::WireRequest w;
      std::string error;
      if (!service::wire::parse_request(it->body, w, error)) continue;
      auto lp = model::load_problem(in.domain, w.problem_text);
      service::PlanRequest pr;
      pr.id = w.id;
      pr.mode = w.mode;
      pr.echo_plan = true;
      if (w.repair) {
        pr.repair.emplace();
        if (!service::wire::resolve_repair(w, *lp, *pr.repair, error)) continue;
      }
      pr.problem = std::move(lp);
      const service::PlanResponse resp = engine.plan(std::move(pr));
      for (int rep = 0; rep < 200; ++rep) {
        const Clock::time_point t0 = Clock::now();
        const std::string frame = service::wire::render_response_frame(resp);
        render_us.push_back(ms_since(t0) * 1000.0 + (frame.empty() ? 1.0 : 0.0));
      }
    }
  }

  auto sum = [](const std::vector<double>& v) { return std::accumulate(v.begin(), v.end(), 0.0); };
  auto mean = [&sum](const std::vector<double>& v) {
    return v.empty() ? 0.0 : sum(v) / static_cast<double>(v.size());
  };
  const Tail wait_tail = tail(wait);
  const Tail lag_tail = tail(lag);
  std::vector<double> all_solve;
  for (const auto& v : kind_solve) all_solve.insert(all_solve.end(), v.begin(), v.end());

  // Core counters on the service are per request (mean over the open loop).
  report.add_layer("model.compile_ms", median(miss_compile), "ms", miss_compile.size());
  report.add_layer("model.actions", mean(actions), "count", n_open);
  report.add_layer("core.plan_ms", median(all_solve), "ms", n_open);
  report.add_layer("core.replay_calls", mean(replay_calls), "count", n_open);
  report.add_layer("core.replay_prune_ratio", sum(pruned) / std::max(sum(replay_calls), 1.0), "ratio", n_open);
  report.add_layer("core.rg_expansions", mean(rg_exp), "count", n_open);
  report.add_layer("core.rg_peak_open", peak_open, "count", n_open);
  report.add_layer("core.slrg_sets", mean(slrg_sets), "count", n_open);
  report.add_layer("core.slrg_memo_hit_rate", sum(memo_hits) / std::max(sum(memo_all), 1.0), "ratio", n_open);
  report.add_layer("core.limit_hits", static_cast<double>(limit_hits), "count", n_open);
  report.add_layer("service.wait_ms_p50", median(wait), "ms", n_open);
  report.add_layer("service.wait_ms_tail", wait_tail.value, "ms", n_open);
  report.add_layer("service.cache_hit_rate",
                   n_open ? static_cast<double>(cache_hits) / static_cast<double>(n_open) : 0.0, "ratio", n_open);
  for (std::size_t k = 0; k < kKinds; ++k) {
    report.add_layer(std::string("service.compile_ms.") + kKindName[k], median(kind_compile[k]), "ms", kind_count[k]);
    report.add_layer(std::string("service.solve_ms.") + kKindName[k], median(kind_solve[k]), "ms", kind_count[k]);
  }
  for (const char* rung : {"primary", "anytime_incumbent", "greedy_fallback", "full_replan"}) {
    report.add_layer(std::string("service.ladder.") + rung, static_cast<double>(ladder[rung]), "count", n_open);
  }
  report.add_layer("repair.repaired_share",
                   kind_count[kRepair] ? static_cast<double>(repaired) / kind_count[kRepair] : 0.0, "ratio",
                   kind_count[kRepair]);
  report.add_layer("repair.solve_ms", median(kind_solve[kRepair]), "ms", kind_count[kRepair]);
  report.add_layer("cp.solve_ms", median(kind_solve[kCp]), "ms", kind_count[kCp]);
  report.add_layer("cp.branches", mean(cp_branches), "count", cp_branches.size());
  report.add_layer("wire.parse_us", median(parse_us), "us", parse_us.size());
  report.add_layer("wire.render_us", median(render_us), "us", render_us.size());
  report.add_layer("server.overhead_ms", median(overhead), "ms", n_open);
  report.add_layer("loadgen.lag_ms", lag_tail.value, "ms", n_open);
}

}  // namespace perfbench
