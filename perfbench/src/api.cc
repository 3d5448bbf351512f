// The benchmark's one point of contact with the program. Everything
// else in the benchmark works on strings, numbers and the types of
// api.h.
#include "api.h"

#include <pthread.h>
#include <signal.h>
#include <unistd.h>

#include <cctype>
#include <cstdio>
#include <functional>
#include <mutex>
#include <thread>

#include "cluster/matcher.h"
#include "cluster/pool.h"
#include "core/binding.h"
#include "core/controller.h"
#include "core/domain.h"
#include "core/optimizer.h"
#include "net/framing.h"
#include "net/protocol.h"
#include "net/server.h"
#include "net/tcp.h"
#include "net/tcp_transport.h"
#include "persist/persistence.h"
#include "rsl/rsl.h"
#include "rsl/value.h"

namespace perfbench {

using namespace harmony;

// Written by keep(); external linkage keeps the stores observable.
volatile double probe_sink = 0;

namespace {

core::ControllerConfig controller_config(const std::vector<double>& grants) {
  core::ControllerConfig config;
  // Thousands of instances behind one server: the per-epoch global
  // objective sample would make every O(1) request O(instances).
  config.record_objective_metric = false;
  if (!grants.empty()) config.optimizer.memory_grant_levels = grants;
  return config;
}

persist::PersistConfig persist_config(const std::string& dir) {
  persist::PersistConfig config;
  config.dir = dir;
  // Partitioned journaling supports only the baseline snapshot.
  config.snapshot_every_epochs = 0;
  return config;
}

template <typename T>
bool fail(const Result<T>& result, std::string* error) {
  if (result.ok()) return false;
  *error = result.error().message;
  return true;
}

bool fail(const Status& status, std::string* error) {
  if (status.ok()) return false;
  *error = status.error().message;
  return true;
}

// Blocks the stop signals in every thread the host will start; one
// waiter thread turns SIGTERM into server.stop().
void serve(net::HarmonyTcpServer& server, int ready_fd,
           const sigset_t& stop_signals) {
  auto port = server.start();
  if (!port.ok()) {
    std::fprintf(stderr, "host: start: %s\n", port.error().message.c_str());
    return;
  }
  const std::string line = std::to_string(port.value()) + "\n";
  if (ready_fd >= 0) {
    (void)!::write(ready_fd, line.data(), line.size());
    ::close(ready_fd);
  }
  std::thread waiter([&server, &stop_signals] {
    int signal = 0;
    sigwait(&stop_signals, &signal);
    server.stop();
  });
  server.run();
  waiter.join();
}

}  // namespace

// --- server host -------------------------------------------------------------

int run_host(const HostConfig& config) {
  sigset_t stop_signals;
  sigemptyset(&stop_signals);
  sigaddset(&stop_signals, SIGTERM);
  sigaddset(&stop_signals, SIGINT);
  pthread_sigmask(SIG_BLOCK, &stop_signals, nullptr);

  const core::ControllerConfig cc = controller_config(config.grant_levels);
  std::string error;
  if (config.recover) {
    core::Controller controller(cc);
    auto opened = persist::Persistence::open(persist_config(config.journal_dir),
                                             controller);
    if (fail(opened, &error)) {
      std::fprintf(stderr, "host: recovery: %s\n", error.c_str());
      return 1;
    }
    auto persistence = std::move(opened).value();
    net::HarmonyTcpServer server(&controller, config.port);
    server.set_persistence(persistence.get());
    serve(server, config.ready_fd, stop_signals);
    return 0;
  }
  // The router's scratch controller carries the cluster definition for
  // the journal's baseline snapshot; it never hosts an instance.
  core::Controller scratch(cc);
  if (fail(scratch.add_nodes_script(config.cluster_script), &error) ||
      fail(scratch.finalize_cluster(), &error)) {
    std::fprintf(stderr, "host: cluster: %s\n", error.c_str());
    return 1;
  }
  auto opened =
      persist::Persistence::open(persist_config(config.journal_dir), scratch);
  if (fail(opened, &error)) {
    std::fprintf(stderr, "host: persistence: %s\n", error.c_str());
    return 1;
  }
  auto persistence = std::move(opened).value();
  core::DomainRouterConfig rc;
  rc.controller = cc;
  core::DomainRouter router(rc);
  if (fail(router.add_nodes_script(config.cluster_script), &error) ||
      fail(router.finalize_cluster(), &error)) {
    std::fprintf(stderr, "host: router cluster: %s\n", error.c_str());
    return 1;
  }
  router.attach_journal(persistence.get());
  net::HarmonyTcpServer server(&router, config.port);
  server.set_persistence(persistence.get());
  serve(server, config.ready_fd, stop_signals);
  return 0;
}

// --- client connection ---------------------------------------------------------

struct Client::Impl {
  net::TcpTransport transport;
  std::map<std::string, std::string> pushed;
  uint64_t update_bytes = 0;
  // The transport hands every UPDATE of the connection to each
  // installed handler; one handler, on a live instance, sees them all.
  uint64_t anchor = 0;
  std::vector<uint64_t> live;

  void anchor_on(uint64_t id) {
    anchor = id;
    (void)transport.subscribe(
        id, [this](const std::string& name, const std::string& value) {
          pushed[name] = value;
          update_bytes += 4 + net::Message::update(name, value).encode().size();
        });
  }
};

Client::Client() : impl_(std::make_unique<Impl>()) {}
Client::~Client() = default;

bool Client::connect(uint16_t port, uint64_t jitter_seed, std::string* error) {
  net::ReconnectPolicy policy;
  policy.jitter_seed = jitter_seed;
  impl_->transport.set_reconnect_policy(policy);
  return !fail(impl_->transport.connect("127.0.0.1", port), error);
}

bool Client::register_app(const std::string& script, uint64_t* id,
                          std::string* error) {
  auto registered = impl_->transport.register_app(script);
  if (fail(registered, error)) return false;
  *id = registered.value();
  impl_->live.push_back(*id);
  if (impl_->anchor == 0) impl_->anchor_on(*id);
  return true;
}

bool Client::end(uint64_t id, std::string* error) {
  const bool ok = !fail(impl_->transport.unregister(id), error);
  std::erase(impl_->live, id);
  if (id == impl_->anchor) {
    impl_->anchor = 0;
    if (!impl_->live.empty()) impl_->anchor_on(impl_->live.front());
  }
  return ok;
}

bool Client::get(uint64_t id, const std::string& name, std::string* value,
                 std::string* error) {
  auto got = impl_->transport.get_variable(id, name);
  if (fail(got, error)) return false;
  *value = got.value();
  return true;
}

bool Client::set_option(uint64_t id, const std::string& bundle,
                        const std::string& option, std::string* error) {
  return !fail(impl_->transport.set_option(id, bundle, option), error);
}

bool Client::report_load(const std::string& host, int tasks,
                         std::string* error) {
  return !fail(impl_->transport.report_load(host, tasks), error);
}

const std::map<std::string, std::string>& Client::pushed() const {
  return impl_->pushed;
}
uint64_t Client::update_bytes() const { return impl_->update_bytes; }

// --- telemetry scrapes -----------------------------------------------------------

namespace {

// Parser for the flat JSON of Telemetry::render_json(): objects of
// numbers or of objects, no arrays or strings as values.
class JsonReader {
 public:
  explicit JsonReader(const std::string& text) : text_(text) {}

  using Visit = std::function<void(const std::vector<std::string>& path,
                                   double value)>;
  bool parse(const Visit& visit) {
    std::vector<std::string> path;
    return object(path, visit) && (skip(), pos_ == text_.size());
  }

 private:
  void skip() {
    while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[pos_]))) ++pos_;
  }
  bool eat(char c) {
    skip();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool string(std::string* out) {
    if (!eat('"')) return false;
    const size_t close = text_.find('"', pos_);
    if (close == std::string::npos) return false;
    *out = text_.substr(pos_, close - pos_);
    pos_ = close + 1;
    return true;
  }
  bool object(std::vector<std::string>& path, const Visit& visit) {
    if (!eat('{')) return false;
    if (eat('}')) return true;
    do {
      std::string key;
      if (!string(&key) || !eat(':')) return false;
      path.push_back(key);
      skip();
      if (pos_ < text_.size() && text_[pos_] == '{') {
        if (!object(path, visit)) return false;
      } else {
        char* end = nullptr;
        const double value = std::strtod(text_.c_str() + pos_, &end);
        if (end == text_.c_str() + pos_) return false;
        pos_ = static_cast<size_t>(end - text_.c_str());
        visit(path, value);
      }
      path.pop_back();
    } while (eat(','));
    return eat('}');
  }

  const std::string& text_;
  size_t pos_ = 0;
};

}  // namespace

double TelemetrySnapshot::counter(const std::string& name) const {
  auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

HistogramTotals TelemetrySnapshot::histogram(const std::string& name) const {
  auto it = histograms.find(name);
  return it == histograms.end() ? HistogramTotals{} : it->second;
}

struct Admin::Impl {
  net::Fd fd;
  net::FrameBuffer inbound;
};

Admin::Admin() : impl_(std::make_unique<Impl>()) {}
Admin::~Admin() = default;

bool Admin::connect(uint16_t port, std::string* error) {
  auto fd = net::connect_to("127.0.0.1", port);
  if (fail(fd, error)) return false;
  impl_->fd = std::move(fd).value();
  return !fail(net::set_nonblocking(impl_->fd, false), error);
}

bool Admin::request(const std::vector<std::string>& words,
                    std::vector<std::string>* reply, std::string* error) {
  net::Message message;
  message.verb = words.front();
  message.args.assign(words.begin() + 1, words.end());
  if (fail(net::write_all(impl_->fd, net::encode_frame(message.encode())),
           error)) {
    return false;
  }
  ++frames_sent_;
  char buffer[65536];
  while (true) {
    auto frame = impl_->inbound.next_frame();
    if (fail(frame, error)) return false;
    if (frame.value().has_value()) {
      auto decoded = net::Message::decode(*frame.value());
      if (fail(decoded, error)) return false;
      if (decoded.value().verb != "OK") {
        *error = decoded.value().verb;
        for (const auto& arg : decoded.value().args) *error += " " + arg;
        return false;
      }
      *reply = decoded.value().args;
      return true;
    }
    auto n = net::read_some(impl_->fd, buffer, sizeof(buffer));
    if (fail(n, error)) return false;
    impl_->inbound.feed(std::string_view(buffer, n.value()));
  }
}

bool Admin::metrics(TelemetrySnapshot* out, std::string* error) {
  std::vector<std::string> reply;
  if (!request({"METRICS", "json"}, &reply, error)) return false;
  if (reply.size() != 1) {
    *error = "METRICS json: unexpected reply shape";
    return false;
  }
  *out = TelemetrySnapshot{};
  JsonReader reader(reply[0]);
  const bool parsed = reader.parse(
      [out](const std::vector<std::string>& path, double value) {
        if (path.size() == 2 && path[0] == "counters") {
          out->counters[path[1]] = value;
        } else if (path.size() == 3 && path[0] == "histograms") {
          if (path[2] == "count") out->histograms[path[1]].count = value;
          if (path[2] == "sum") out->histograms[path[1]].sum = value;
        }
      });
  if (!parsed) *error = "METRICS json: unparseable";
  return parsed;
}

bool Admin::trace(std::string* out, std::string* error) {
  std::vector<std::string> reply;
  if (!request({"METRICS", "trace"}, &reply, error)) return false;
  *out = reply.empty() ? "" : reply[0];
  return true;
}

bool Admin::domains(std::vector<std::vector<std::string>>* members,
                    bool* routed, std::string* error) {
  members->clear();
  std::vector<std::string> reply;
  if (!request({"DOMAINS"}, &reply, error)) {
    // A controller-backed server has no domains to list.
    *routed = false;
    return error->find("not_found") != std::string::npos;
  }
  *routed = true;
  if (reply.size() != 1) {
    *error = "DOMAINS: unexpected reply shape";
    return false;
  }
  auto rows = rsl::list_parse(reply[0]);
  if (fail(rows, error)) return false;
  for (const auto& row : rows.value()) {
    auto fields = rsl::list_parse(row);
    if (fail(fields, error)) return false;
    if (fields.value().size() < 3) {
      *error = "DOMAINS: short row";
      return false;
    }
    auto names = rsl::list_parse(fields.value()[2]);
    if (fail(names, error)) return false;
    members->push_back(names.value());
  }
  return true;
}

// --- in-process layer probes -------------------------------------------------------

namespace {

// Forwards domain-tagged journal records and keeps a copy, so the
// commit probe can re-append exactly the records a domain produced.
class TeeJournal final : public core::DomainJournal {
 public:
  struct Record {
    uint32_t domain;
    uint64_t dseq;
    core::ControllerEvent event;
  };
  explicit TeeJournal(core::DomainJournal* next) : next_(next) {}
  void on_domain_event(uint32_t domain, uint64_t dseq,
                       const core::ControllerEvent& event) override {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      records_.push_back(Record{domain, dseq, event});
    }
    next_->on_domain_event(domain, dseq, event);
  }
  void on_domain_epoch_commit(uint32_t domain) override {
    next_->on_domain_epoch_commit(domain);
  }
  std::vector<Record> records() {
    std::lock_guard<std::mutex> lock(mutex_);
    return records_;
  }

 private:
  core::DomainJournal* next_;
  std::mutex mutex_;
  std::vector<Record> records_;  // guarded by mutex_
};

// Times one call as a span under `parent`; returns its microseconds.
double timed(Tracer& tracer, const char* name, uint64_t parent,
             const std::function<void()>& call) {
  const uint64_t id = tracer.begin(name, parent);
  const auto start = Clock::now();
  call();
  const double us =
      std::chrono::duration<double, std::micro>(Clock::now() - start).count();
  tracer.end(id);
  return us;
}

// Consumes a probe's result so the timed work cannot be optimized out.
void keep(double value) { probe_sink = value; }

double mean(const std::vector<double>& values) {
  double total = 0;
  for (double v : values) total += v;
  return values.empty() ? 0 : total / static_cast<double>(values.size());
}

// Number lookups for expression probes: every name reads a fixed,
// plausible value (a granted client memory, a variable setting).
rsl::ExprContext probe_context() {
  rsl::ExprContext ctx;
  ctx.name_lookup = [](const std::string&, double* out) {
    *out = 34;
    return true;
  };
  ctx.var_lookup = [](const std::string&, std::string* out) {
    *out = "34";
    return true;
  };
  return ctx;
}

}  // namespace

std::map<std::string, MetricValue> run_layer_probes(const ProbeInput& in,
                                                    Tracer& tracer,
                                                    uint64_t parent) {
  std::map<std::string, MetricValue> out;
  const core::ControllerConfig cc = controller_config(in.grant_levels);
  Rng rng(in.seed * 31 + 17);

  // rsl: parse every bundle script of the domain (what REGISTER and
  // journal replay do first).
  std::vector<rsl::BundleSpec> specs;
  {
    ScopedSpan step(tracer, "step.parse_bundles", parent);
    std::vector<double> us;
    for (int rep = 0; rep < 20; ++rep) {
      for (const auto& script : in.app_scripts) {
        rsl::RslHost host;
        std::vector<rsl::BundleSpec> parsed;
        host.on_bundle([&parsed](const rsl::BundleSpec& spec) {
          parsed.push_back(spec);
          return Status::Ok();
        });
        us.push_back(timed(tracer, "rsl.eval_script", step.id(),
                           [&] { (void)host.eval_script(script); }));
        if (rep == 0 && !parsed.empty()) specs.push_back(parsed.front());
      }
    }
    out["rsl.bundle_parse_us"] = {mean(us), "us"};
  }

  // rsl: compiled evaluation of the domain's link, communication and
  // seconds expressions (warmed once, so the bytecode is cached).
  {
    ScopedSpan step(tracer, "step.eval_exprs", parent);
    std::vector<const rsl::Expr*> exprs;
    for (const auto& spec : specs) {
      for (const auto& option : spec.options) {
        for (const auto& node : option.nodes) exprs.push_back(&node.seconds);
        for (const auto& link : option.links) exprs.push_back(&link.megabytes);
        if (!option.communication.empty()) {
          exprs.push_back(&option.communication);
        }
      }
    }
    const rsl::ExprContext ctx = probe_context();
    double sink = 0;
    for (const rsl::Expr* expr : exprs) {
      auto value = expr->eval(ctx);
      if (value.ok()) sink += value.value();
    }
    constexpr int kReps = 2000;
    const double us = timed(tracer, "rsl.Expr.eval", step.id(), [&] {
      for (int rep = 0; rep < kReps; ++rep) {
        for (const rsl::Expr* expr : exprs) {
          auto value = expr->eval(ctx);
          if (value.ok()) sink += value.value();
        }
      }
    });
    keep(sink);
    out["rsl.expr_eval_us"] = {
        exprs.empty() ? 0 : us / (kReps * static_cast<double>(exprs.size())),
        "us"};
  }

  // core + persist: a journaled in-process router holding one domain
  // of the workload's bundles.
  const std::string router_dir = in.scratch_dir + "/router";
  std::vector<TeeJournal::Record> records;
  {
    core::Controller scratch(cc);
    (void)scratch.add_nodes_script(in.cluster_script);
    (void)scratch.finalize_cluster();
    auto opened =
        persist::Persistence::open(persist_config(router_dir), scratch);
    if (!opened.ok()) return out;
    auto persistence = std::move(opened).value();
    TeeJournal tee(persistence.get());
    core::DomainRouterConfig rc;
    rc.controller = cc;
    core::DomainRouter router(rc);
    (void)router.add_nodes_script(in.cluster_script);
    (void)router.finalize_cluster();
    router.attach_journal(&tee);

    std::vector<uint64_t> ids;
    {
      ScopedSpan step(tracer, "step.register", parent);
      std::vector<double> us;
      for (const auto& script : in.app_scripts) {
        us.push_back(timed(tracer, "DomainRouter::register_script", step.id(),
                           [&] {
                             auto id = router.register_script(script);
                             if (id.ok()) ids.push_back(id.value());
                           }));
      }
      out["router.register_us"] = {mean(us), "us"};
    }
    auto domain_optimizer = [&router]() -> const core::Optimizer* {
      auto controllers = router.domain_controllers();
      return controllers.empty() ? nullptr : &controllers.front()->optimizer();
    };
    const core::Optimizer* optimizer = domain_optimizer();
    const uint64_t calls_before = optimizer ? optimizer->predictor_calls() : 0;
    const auto cache_before =
        optimizer ? optimizer->cache_stats() : core::PredictionCache::Stats{};
    constexpr int kOps = 64;
    {
      ScopedSpan step(tracer, "step.load", parent);
      std::vector<double> us;
      for (int i = 0; i < kOps; ++i) {
        const std::string& host = in.hosts[rng.below(in.hosts.size())];
        const int tasks = static_cast<int>(rng.below(4));
        us.push_back(timed(tracer, "DomainRouter::report_external_load",
                           step.id(), [&] {
                             (void)router.report_external_load(host, tasks);
                           }));
      }
      out["router.load_us"] = {mean(us), "us"};
    }
    {
      ScopedSpan step(tracer, "step.set", parent);
      std::vector<double> us;
      for (int i = 0; i < kOps && !ids.empty(); ++i) {
        const size_t app = rng.below(ids.size());
        const auto& options = in.app_options[app];
        core::OptionChoice choice;
        choice.option = options[rng.below(options.size())];
        const std::string bundle = specs.size() > app ? specs[app].bundle : "";
        us.push_back(timed(tracer, "DomainRouter::set_option", step.id(), [&] {
          (void)router.set_option(ids[app], bundle, choice);
        }));
      }
      out["router.set_us"] = {mean(us), "us"};
    }
    router.quiesce();
    optimizer = domain_optimizer();
    if (optimizer != nullptr) {
      const auto cache = optimizer->cache_stats();
      const double hits = static_cast<double>(cache.hits - cache_before.hits);
      const double misses =
          static_cast<double>(cache.misses - cache_before.misses);
      out["predict.calls_per_epoch"] = {
          static_cast<double>(optimizer->predictor_calls() - calls_before) /
              (2.0 * kOps),
          "count"};
      out["predict.cache_hit_ratio"] = {
          hits + misses > 0 ? hits / (hits + misses) : 0, "ratio"};
    }

    // cluster: enumerate one bundle's candidates and match each on a
    // fresh view of the domain's nodes.
    if (!specs.empty()) {
      ScopedSpan step(tracer, "step.enumerate", parent);
      cluster::ResourcePool pool(&router.topology());
      const rsl::ExprContext names = probe_context();
      cluster::Matcher matcher;
      constexpr int kReps = 200;
      size_t matched = 0;
      const double us = timed(tracer, "Matcher::match", step.id(), [&] {
        for (int rep = 0; rep < kReps; ++rep) {
          for (const auto& choice :
               core::expand_option_choices(specs.front(), in.grant_levels)) {
            const rsl::OptionSpec* option =
                specs.front().find_option(choice.option);
            if (option == nullptr) continue;
            auto bound = core::bind_option(*option, choice, names);
            if (!bound.ok()) continue;
            auto allocation = matcher.match(bound.value().node_requirements,
                                            bound.value().link_requirements,
                                            pool);
            if (!allocation.ok()) continue;
            ++matched;
            (void)cluster::Matcher::release(allocation.value(), pool);
          }
        }
      });
      keep(static_cast<double>(matched));
      out["matcher.enumerate_us"] = {us / kReps, "us"};
    }
    records = tee.records();
  }

  // persist: append + commit of each recorded decision, one at a time,
  // into a second journal.
  {
    ScopedSpan step(tracer, "step.commit", parent);
    core::Controller scratch(cc);
    (void)scratch.add_nodes_script(in.cluster_script);
    (void)scratch.finalize_cluster();
    auto opened = persist::Persistence::open(
        persist_config(in.scratch_dir + "/commit"), scratch);
    if (opened.ok()) {
      auto persistence = std::move(opened).value();
      std::vector<double> us;
      for (const auto& record : records) {
        us.push_back(timed(tracer, "Persistence::commit", step.id(), [&] {
          persistence->on_domain_event(record.domain, record.dseq,
                                       record.event);
          persistence->on_domain_epoch_commit(record.domain);
        }));
      }
      out["persist.commit_us"] = {mean(us), "us"};
    }
  }

  // persist: recovery replay, per journal record.
  {
    ScopedSpan step(tracer, "step.replay", parent);
    const std::string dir = in.replay_dir.empty() ? router_dir : in.replay_dir;
    core::Controller recovered(cc);
    std::unique_ptr<persist::Persistence> persistence;
    const double us = timed(tracer, "Persistence::open", step.id(), [&] {
      auto opened = persist::Persistence::open(persist_config(dir), recovered);
      if (opened.ok()) persistence = std::move(opened).value();
    });
    if (persistence != nullptr) {
      const double records_replayed =
          static_cast<double>(persistence->recovery().journal_records);
      out["persist.replay_ms_per_record"] = {
          records_replayed > 0 ? us / 1000.0 / records_replayed : 0, "ms"};
    }
  }

  // net: request framing + decode, and reply/UPDATE encoding + framing.
  {
    ScopedSpan step(tracer, "step.decode", parent);
    std::string stream;
    for (const auto& words : in.requests) {
      net::Message message;
      message.verb = words.front();
      message.args.assign(words.begin() + 1, words.end());
      stream += net::encode_frame(message.encode());
    }
    constexpr int kReps = 20;
    size_t frames = 0;
    const double us = timed(tracer, "Message::decode", step.id(), [&] {
      for (int rep = 0; rep < kReps; ++rep) {
        net::FrameBuffer buffer;
        buffer.feed(stream);
        while (true) {
          auto frame = buffer.next_frame();
          if (!frame.ok() || !frame.value().has_value()) break;
          auto decoded = net::Message::decode(*frame.value());
          if (decoded.ok()) ++frames;
        }
      }
    });
    out["net.decode_us"] = {
        frames > 0 ? us / static_cast<double>(frames) : 0, "us"};
  }
  {
    ScopedSpan step(tracer, "step.encode", parent);
    constexpr int kReps = 20;
    size_t frames = 0;
    size_t bytes = 0;
    const double us = timed(tracer, "Message::encode", step.id(), [&] {
      for (int rep = 0; rep < kReps; ++rep) {
        for (const auto& [name, value] : in.updates) {
          bytes += net::encode_frame(net::Message::update(name, value).encode())
                       .size();
          bytes += net::encode_frame(net::Message::ok().encode()).size();
          frames += 2;
        }
      }
    });
    keep(static_cast<double>(bytes));
    out["net.encode_us"] = {
        frames > 0 ? us / static_cast<double>(frames) : 0, "us"};
  }
  return out;
}

}  // namespace perfbench
