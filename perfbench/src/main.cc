// Serving benchmark entry point. One process generates closed-loop load over
// loopback through the program's client library against a forked
// server host (this same binary, run as `perfbench host ...`), checks
// the program's outputs, and prints one JSON result line.
//
//   perfbench --workload <many-tenants|crowded-domains|restart>
//             --seed <n> --seconds <s> --trace <0|1> --out-dir <dir>
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the same
// workload with the server's trace ring on, records a span per request
// and per in-process layer call, and prints the per-layer metrics.
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <set>
#include <sstream>
#include <thread>

#include "api.h"
#include "checks.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;

// Connections (and load-generating threads) of the closed loop: one
// core of a 4-core machine is left to the server.
constexpr int kConnections = 3;
constexpr double kWarmupSeconds = 2.0;
// Fixed pre-kill history of the restart workload.
constexpr int kRestartEvents = 600;
// Tags: population from 1, Figure 7 clients from 9001, churn from
// 100000 per connection, restart history replacements from 50000.
constexpr int kFig7Tag = 9001;
constexpr int kChurnTagBase = 100000;
constexpr int kHistoryTagBase = 50000;

struct Options {
  std::string workload_name;
  Workload workload = Workload::kManyTenants;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".bench_build/perfbench-out";
};

std::string self_exe() {
  char buffer[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buffer, sizeof(buffer) - 1);
  return n > 0 ? std::string(buffer, static_cast<size_t>(n)) : "";
}

// --- /proc readers ------------------------------------------------------------

double proc_cpu_seconds(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  const size_t close = text.rfind(')');
  if (close == std::string::npos) return 0;
  std::istringstream fields(text.substr(close + 2));
  std::string field;
  double ticks = 0;
  // Fields after the command: state(3) ... utime(14) stime(15).
  for (int i = 3; i <= 15 && (fields >> field); ++i) {
    if (i == 14 || i == 15) ticks += std::stod(field);
  }
  return ticks / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

// Peak resident set (MB) and thread count from /proc/<pid>/status.
void proc_status(pid_t pid, double* hwm_mb, int* threads) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) *hwm_mb = std::stod(line.substr(6)) / 1024;
    if (line.rfind("Threads:", 0) == 0) *threads = std::stoi(line.substr(8));
  }
}

// --- the server host process ---------------------------------------------------

class HostProcess {
 public:
  HostProcess() = default;
  ~HostProcess() { kill_now(); }
  HostProcess(const HostProcess&) = delete;
  HostProcess& operator=(const HostProcess&) = delete;

  bool launch(const Options& options, const std::string& dir, uint16_t port,
              bool recover, std::string* error) {
    int pipe_fds[2];
    if (::pipe2(pipe_fds, O_CLOEXEC) != 0) {
      *error = "pipe failed";
      return false;
    }
    const std::string exe = self_exe();
    pid_ = ::fork();
    if (pid_ < 0) {
      *error = "fork failed";
      return false;
    }
    if (pid_ == 0) {
      // The host never outlives the generator, and writes to stderr: the
      // result line on stdout is the generator's.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      ::dup2(2, 1);
      const int ready = ::dup(pipe_fds[1]);  // dup drops O_CLOEXEC
      if (options.trace) ::setenv("HARMONY_TRACE", "1", 1);
      const std::string seed = std::to_string(options.seed);
      const std::string port_text = std::to_string(port);
      const std::string ready_text = std::to_string(ready);
      const char* argv[] = {exe.c_str(),  "host",
                            "--workload", options.workload_name.c_str(),
                            "--seed",     seed.c_str(),
                            "--dir",      dir.c_str(),
                            "--port",     port_text.c_str(),
                            "--recover",  recover ? "1" : "0",
                            "--ready-fd", ready_text.c_str(),
                            nullptr};
      ::execv(exe.c_str(), const_cast<char* const*>(argv));
      ::_exit(127);
    }
    ::close(pipe_fds[1]);
    std::string line;
    char c = 0;
    bool done = false;
    while (!done) {
      pollfd pfd{pipe_fds[0], POLLIN, 0};
      if (::poll(&pfd, 1, 150000) <= 0) break;
      const ssize_t n = ::read(pipe_fds[0], &c, 1);
      if (n <= 0) break;
      if (c == '\n') done = true; else line += c;
    }
    ::close(pipe_fds[0]);
    if (!done || line.empty()) {
      *error = "server host did not come up";
      kill_now();
      return false;
    }
    port_ = static_cast<uint16_t>(std::stoi(line));
    return true;
  }

  void kill_now() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGKILL);
    int status = 0;
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
  }

  // Clean shutdown; a host that does not exit in time is killed.
  bool stop() {
    if (pid_ <= 0) return true;
    ::kill(pid_, SIGTERM);
    for (int i = 0; i < 400; ++i) {
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        return WIFEXITED(status) && WEXITSTATUS(status) == 0;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    kill_now();
    return false;
  }

  pid_t pid() const { return pid_; }
  uint16_t port() const { return port_; }

 private:
  pid_t pid_ = -1;
  uint16_t port_ = 0;
};

// --- load generation -------------------------------------------------------------

struct Live {
  uint64_t id = 0;
  App app;
};

struct Sample {
  Verb verb = Verb::kGet;
  double start_us = 0;
  double end_us = 0;
};

// One step of the closed-loop mix (churn is END then REGISTER).
enum class Op { kGet, kSet, kLoad, kChurn };

struct Conn {
  explicit Conn(int i, uint64_t seed)
      : index(i), rng(seed * 1315423911ull + static_cast<uint64_t>(i) + 1),
        next_tag(kChurnTagBase * (i + 1)) {}
  int index;
  Client client;
  std::vector<Live> apps;   // owned, steered and churned by the mix
  std::vector<Live> fixed;  // Figure 7 clients: registered, never churned
  Rng rng;
  int next_tag;
  std::vector<Op> deck;  // the current round of the mix
  size_t deck_pos = 0;
  std::vector<std::string> load_hosts;
  size_t load_pos = 0;
  std::map<std::string, int> load_tasks;  // last load this conn reported
  bool record = false;
  std::vector<Sample> samples;
  uint64_t requests = 0;
  uint64_t failures = 0;
  uint64_t decisions_ok = 0;
  std::string error;

  // Issues one request; failures are counted, never retried.
  bool run(Verb verb, Tracer& tracer, uint64_t parent,
           const std::function<bool(std::string*)>& call) {
    const double start = tracer.now_us();
    std::string err;
    const bool ok = call(&err);
    const double end = tracer.now_us();
    ++requests;
    if (!ok) {
      ++failures;
      if (error.empty()) error = std::string(verb_name(verb)) + ": " + err;
    } else if (is_decision(verb)) {
      ++decisions_ok;
    }
    if (record) {
      samples.push_back(Sample{verb, start, end});
      tracer.add(std::string("req.") + verb_name(verb), start, end,
                 tracer.enabled() ? tracer.next_id() : 0, parent);
    }
    return ok;
  }
};

using Conns = std::vector<std::unique_ptr<Conn>>;

// The next operation of the connection's shuffled round: a round holds
// exactly the mix's share of each operation, so every run (and every
// seed) asks for the same proportions of work, not a binomial draw.
Op next_op(Conn& c, const Mix& mix) {
  if (c.deck_pos == c.deck.size()) {
    c.deck.clear();
    c.deck.insert(c.deck.end(), mix.get, Op::kGet);
    c.deck.insert(c.deck.end(), mix.set, Op::kSet);
    c.deck.insert(c.deck.end(), mix.load, Op::kLoad);
    c.deck.insert(c.deck.end(), mix.churn, Op::kChurn);
    for (size_t i = c.deck.size() - 1; i > 0; --i) {
      std::swap(c.deck[i], c.deck[c.rng.below(i + 1)]);
    }
    c.deck_pos = 0;
  }
  return c.deck[c.deck_pos++];
}

// LOAD targets: the connection's share of the hosts (every third of
// the non-Figure-7 hosts, in a seeded order), visited round-robin, each
// report changing the host's load so every one re-decides.
void assign_load_hosts(Conns& conns, const Population& p, uint64_t seed) {
  std::vector<std::string> hosts;
  for (size_t g = 0; g + 1 < p.groups.size(); ++g) {
    hosts.insert(hosts.end(), p.groups[g].hosts.begin(),
                 p.groups[g].hosts.end());
  }
  Rng rng(seed * 7919 + 5);
  for (size_t i = hosts.size() - 1; i > 0; --i) {
    std::swap(hosts[i], hosts[rng.below(i + 1)]);
  }
  for (size_t i = 0; i < hosts.size(); ++i) {
    conns[i % conns.size()]->load_hosts.push_back(hosts[i]);
  }
}

void mix_step(Conn& c, const Population& p, Tracer& tracer, uint64_t parent) {
  Op op = next_op(c, p.mix);
  if (c.apps.empty()) op = Op::kLoad;
  if (op == Op::kGet) {
    const Live& a = c.apps[c.rng.below(c.apps.size())];
    std::string value;
    c.run(Verb::kGet, tracer, parent, [&](std::string* e) {
      return c.client.get(a.id, a.app.bundle() + ".option", &value, e);
    });
  } else if (op == Op::kSet) {
    const Live& a = c.apps[c.rng.below(c.apps.size())];
    const std::string& option =
        a.app.options[c.rng.below(a.app.options.size())].name;
    c.run(Verb::kSet, tracer, parent, [&](std::string* e) {
      return c.client.set_option(a.id, a.app.bundle(), option, e);
    });
  } else if (op == Op::kLoad) {
    const std::string& host = c.load_hosts[c.load_pos++ % c.load_hosts.size()];
    int& tasks = c.load_tasks[host];
    tasks = (tasks + 1 + static_cast<int>(c.rng.below(3))) % 4;
    c.run(Verb::kLoad, tracer, parent, [&](std::string* e) {
      return c.client.report_load(host, tasks, e);
    });
  } else {
    const size_t index = c.rng.below(c.apps.size());
    const Live old = c.apps[index];
    if (!c.run(Verb::kEnd, tracer, parent, [&](std::string* e) {
          return c.client.end(old.id, e);
        })) {
      return;
    }
    Live fresh;
    fresh.app = make_app(p, old.app.group, c.next_tag++, c.rng);
    if (c.run(Verb::kRegister, tracer, parent, [&](std::string* e) {
          return c.client.register_app(fresh.app.script, &fresh.id, e);
        })) {
      c.apps[index] = fresh;
    } else {
      c.apps.erase(c.apps.begin() + static_cast<long>(index));
    }
  }
}

// Runs the closed loop on every connection for `seconds`; returns the
// elapsed wall time until the last in-flight request completed.
double run_phase(Conns& conns, const Population& p, double seconds,
                 bool record, Tracer& tracer, uint64_t parent) {
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (auto& conn : conns) {
    conn->record = record;
    threads.emplace_back([&conn, &p, &tracer, parent, deadline] {
      while (Clock::now() < deadline) mix_step(*conn, p, tracer, parent);
    });
  }
  for (auto& t : threads) t.join();
  for (auto& conn : conns) conn->record = false;
  return seconds_between(start, Clock::now());
}

template <typename F>
void on_each(Conns& conns, F&& body) {
  std::vector<std::thread> threads;
  for (auto& conn : conns) threads.emplace_back([&conn, &body] { body(*conn); });
  for (auto& t : threads) t.join();
}

// Option plus every placement (host, memory) of one instance, read
// through GET; `state` is their canonical text for restart comparison.
struct InstanceView {
  std::string option;
  std::vector<Placement> placements;
  std::string state;
};

bool read_instance(Conn& c, const Live& live, InstanceView* view,
                   std::string* error) {
  const std::string bundle = live.app.bundle();
  if (!c.client.get(live.id, bundle + ".option", &view->option, error)) {
    return false;
  }
  view->state = view->option;
  view->placements.clear();
  for (const auto& option : live.app.options) {
    if (option.name != view->option) continue;
    for (const auto& role : option.roles) {
      for (int i = 0; i < role.replicas; ++i) {
        std::string prefix = bundle + "." + option.name + "." + role.role;
        if (i > 0) prefix += "." + std::to_string(i);
        std::string host;
        std::string memory;
        if (!c.client.get(live.id, prefix + ".node", &host, error) ||
            !c.client.get(live.id, prefix + ".memory", &memory, error)) {
          return false;
        }
        view->placements.push_back(
            Placement{live.app.group, host, std::stod(memory)});
        view->state += "|" + host + ":" + memory;
      }
    }
  }
  return true;
}

// Reads every live instance on its owning connection, in parallel.
bool read_all(Conns& conns, std::map<uint64_t, InstanceView>* views,
              std::string* error) {
  std::vector<std::map<uint64_t, InstanceView>> per(conns.size());
  std::vector<std::string> errors(conns.size());
  on_each(conns, [&](Conn& c) {
    for (const auto* list : {&c.fixed, &c.apps}) {
      for (const Live& live : *list) {
        if (!read_instance(c, live, &per[c.index][live.id], &errors[c.index])) {
          errors[c.index] = "reading " + live.app.bundle() + ": " +
                            errors[c.index];
          return;
        }
      }
    }
  });
  for (size_t i = 0; i < conns.size(); ++i) {
    if (!errors[i].empty()) {
      *error = errors[i];
      return false;
    }
    views->insert(per[i].begin(), per[i].end());
  }
  return true;
}

// The Figure 7 sequence on connection 0: two clients, a third, then the
// third leaves. Returns the options read at each stage.
bool run_fig7(Conn& c, const Population& p,
              std::vector<std::vector<std::string>>* stages, uint64_t* ops,
              std::string* error) {
  std::vector<Live> clients;
  auto stage = [&]() {
    std::vector<std::string> options;
    for (const Live& live : clients) {
      std::string option;
      if (!c.client.get(live.id, live.app.bundle() + ".option", &option,
                        error)) {
        return false;
      }
      options.push_back(option);
    }
    stages->push_back(options);
    return true;
  };
  auto add = [&](int client) {
    Live live;
    live.app = p.fig7.app(kFig7Tag + client, client);
    live.app.group = p.fig7_group;
    ++*ops;
    if (!c.client.register_app(live.app.script, &live.id, error)) return false;
    clients.push_back(live);
    return true;
  };
  if (!add(0) || !add(1) || !stage() || !add(2) || !stage()) return false;
  ++*ops;
  if (!c.client.end(clients.back().id, error)) return false;
  clients.pop_back();
  if (!stage()) return false;
  c.fixed = clients;
  return true;
}

// The cluster-script lines of one group's hosts (a group's links only
// name its own hosts, so the lines stand alone).
std::string group_cluster_script(const Population& p, const Group& g) {
  std::istringstream lines(p.cluster_script);
  std::string line;
  std::string out;
  const std::set<std::string> hosts(g.hosts.begin(), g.hosts.end());
  while (std::getline(lines, line)) {
    std::istringstream words(line);
    std::string command;
    std::string host;
    words >> command >> host;
    if (hosts.count(host) != 0) out += line + "\n";
  }
  return out;
}

// Request word lists of the workload's mix, for the decode probe.
std::vector<std::vector<std::string>> sample_requests(const Population& p,
                                                      uint64_t seed) {
  Rng rng(seed + 99);
  std::vector<std::vector<std::string>> out;
  const Mix& mix = p.mix;
  for (int i = 0; i < 2000; ++i) {
    const App& a = p.apps[rng.below(p.apps.size())];
    const std::string id = std::to_string(a.tag);
    const uint64_t roll = rng.below(100);
    if (roll < static_cast<uint64_t>(mix.get)) {
      out.push_back({"GET", id, a.bundle() + ".option"});
    } else if (roll < static_cast<uint64_t>(mix.get + mix.set)) {
      out.push_back({"SET", id, a.bundle(), a.options[rng.below(2)].name});
    } else if (roll < static_cast<uint64_t>(mix.get + mix.set + mix.load)) {
      const Group& g = p.groups[rng.below(p.groups.size() - 1)];
      out.push_back({"LOAD", g.hosts[rng.below(g.hosts.size())],
                     std::to_string(rng.below(4))});
    } else {
      out.push_back({"END", id});
      out.push_back({"REGISTER", a.script, "2"});
    }
  }
  return out;
}

// --- one benchmark run -------------------------------------------------------------

struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, MetricValue> metrics;
  std::vector<std::string> problems;
};

// Everything the window measured, for the metrics and the checks.
struct Window {
  double elapsed_s = 0;
  uint64_t requests = 0;
  uint64_t ok = 0;
  uint64_t decisions_ok = 0;
  uint64_t update_bytes = 0;
  double server_cpu_s = 0;
  std::vector<double> all_ms;
  std::vector<double> read_ms;
  std::vector<double> decision_ms;
  TelemetrySnapshot before;
  TelemetrySnapshot after;
};

// One run of one workload: set-up (for restart: history, kill,
// recovery), warm-up, the measured window, the output checks and the
// self-test, then the metrics of the requested kind.
class Run {
 public:
  explicit Run(const Options& o)
      : o_(o),
        tracer_(o.trace),
        p_(make_population(o.workload, o.seed)),
        restart_(o.workload == Workload::kRestart),
        run_dir_(fs::path(o.out_dir) / ("run-" + o.workload_name + "-" +
                                        std::to_string(::getpid()))) {}
  ~Run() {
    std::error_code ignored;
    fs::remove_all(run_dir_, ignored);
  }
  Run(const Run&) = delete;
  Run& operator=(const Run&) = delete;

  bool execute(RunResult* result, std::string* error) {
    error_ = error;
    const auto t0 = Clock::now();
    root_ = tracer_.begin("run." + o_.workload_name, 0);
    fs::remove_all(run_dir_);
    fs::create_directories(run_dir_ / "journal");
    if (!start_host(false) || !setup()) return false;
    if (restart_ && !restart_server()) return false;
    r_.metrics["setup_s"] = {seconds_between(t0, Clock::now()), "s"};
    tracer_.end(setup_span_);

    run_phase(conns_, p_, kWarmupSeconds, false, tracer_, root_);
    settle("warm-up", !restart_);
    Window w;
    if (!measure(&w) || !final_checks()) return false;
    double hwm_mb = 0;
    int threads = 0;
    proc_status(host_.pid(), &hwm_mb, &threads);
    std::string server_trace;
    if (o_.trace && !admin_.trace(&server_trace, error_)) return false;
    if (!host_.stop()) problem("server host did not shut down cleanly");
    run_self_test();

    const double ops_per_s = static_cast<double>(w.ok) / w.elapsed_s;
    if (!o_.trace) {
      r_.metrics["ops_per_s"] = {ops_per_s, "ops/s"};
      r_.metrics["read_rtt_p50_ms"] = {quantile(w.read_ms, 0.5), "ms"};
      r_.metrics["decision_rtt_p50_ms"] = {quantile(w.decision_ms, 0.5), "ms"};
      r_.metrics["rtt_p99_ms"] = {quantile(w.all_ms, 0.99), "ms"};
      r_.metrics["server_cpu_us_per_op"] = {
          w.ok > 0 ? w.server_cpu_s * 1e6 / static_cast<double>(w.ok) : 0,
          "us"};
      r_.metrics["server_rss_mb"] = {hwm_mb, "MB"};
    } else {
      r_.metrics = layer_metrics(w, ops_per_s, threads);
      fs::create_directories(o_.out_dir);
      std::ofstream(fs::path(o_.out_dir) / (o_.workload_name + "-trace.json"))
          << tracer_.chrome_json();
      std::ofstream(fs::path(o_.out_dir) /
                    (o_.workload_name + "-server-trace.json"))
          << server_trace;
    }
    tracer_.end(root_);
    *result = r_;
    return true;
  }

 private:
  void problem(const std::string& what) {
    r_.correct = false;
    r_.problems.push_back(what);
  }
  void check(const char* name, const CheckResult& result) {
    if (!result.ok) problem(std::string("check ") + name + ": " + result.detail);
  }
  std::string journal() const { return (run_dir_ / "journal").string(); }

  bool start_host(bool recover) {
    return host_.launch(o_, journal(), recover ? host_.port() : 0, recover,
                        error_) &&
           admin_.connect(host_.port(), error_);
  }

  // Folds the connections' request counts into the result: the workload's
  // operations count as attempted unless the run's attempted set is the
  // restart workload's fixed one. Failures in a phase not counted as
  // attempted make the run incorrect instead.
  void settle(const char* phase, bool count) {
    for (auto& conn : conns_) {
      if (count) {
        r_.attempted += conn->requests;
        r_.failed += conn->failures;
      } else if (conn->failures > 0) {
        problem(std::string(phase) + " " + conn->error);
      }
      if (count && !conn->error.empty()) {
        std::fprintf(stderr, "perfbench: %s %s\n", phase, conn->error.c_str());
      }
      conn->requests = conn->failures = conn->decisions_ok = 0;
      conn->error.clear();
    }
  }

  // The Figure 7 pair, then the population (restart: then its history).
  bool setup() {
    for (int i = 0; i < kConnections; ++i) {
      conns_.push_back(std::make_unique<Conn>(i, o_.seed));
      if (!conns_.back()->client.connect(host_.port(), 4242 + i, error_)) {
        return false;
      }
    }
    assign_load_hosts(conns_, p_, o_.seed);
    setup_span_ = tracer_.begin("setup", root_);
    uint64_t fig7_ops = 0;
    if (!run_fig7(*conns_[0], p_, &fig7_observed_, &fig7_ops, error_)) {
      return false;
    }
    fig7_model_ = {fig7_expected(p_.fig7, 2, p_.grant_levels),
                   fig7_expected(p_.fig7, 3, p_.grant_levels),
                   fig7_expected(p_.fig7, 2, p_.grant_levels)};
    check("fig7", check_fig7(fig7_observed_, fig7_model_));
    r_.attempted += fig7_ops;

    // Application i belongs to connection i % kConnections.
    auto register_app = [this](Conn& c, const App& app) {
      Live live{0, app};
      if (c.run(Verb::kRegister, tracer_, setup_span_, [&](std::string* e) {
            return c.client.register_app(app.script, &live.id, e);
          })) {
        c.apps.push_back(live);
      }
    };
    if (!restart_) {
      on_each(conns_, [&](Conn& c) {
        for (size_t i = c.index; i < p_.apps.size(); i += conns_.size()) {
          register_app(c, p_.apps[i]);
        }
      });
    } else {
      // One thread applies the fixed history in a fixed order through
      // the three sessions, so the journal, and everything replayed from
      // it, is the same in every run.
      for (size_t i = 0; i < p_.apps.size(); ++i) {
        register_app(*conns_[i % conns_.size()], p_.apps[i]);
      }
      apply_history();
    }
    settle("set-up", true);
    return true;
  }

  void apply_history() {
    int tag = kHistoryTagBase;
    Rng rng(11);
    for (const HistoryEvent& event : restart_history(p_, kRestartEvents)) {
      if (event.verb == Verb::kLoad) {
        Conn& c = *conns_[0];
        c.run(Verb::kLoad, tracer_, setup_span_, [&](std::string* e) {
          return c.client.report_load(event.host, event.tasks, e);
        });
        continue;
      }
      // Application i lives at apps[i / 3] of connection i % 3.
      const size_t app = event.app % p_.apps.size();
      Conn& owner = *conns_[app % conns_.size()];
      const size_t slot = app / conns_.size();
      if (slot >= owner.apps.size()) continue;
      Live& live = owner.apps[slot];
      if (event.verb == Verb::kSet) {
        const std::string& option = live.app.options[event.option].name;
        owner.run(Verb::kSet, tracer_, setup_span_, [&](std::string* e) {
          return owner.client.set_option(live.id, live.app.bundle(), option, e);
        });
        continue;
      }
      if (!owner.run(Verb::kEnd, tracer_, setup_span_, [&](std::string* e) {
            return owner.client.end(live.id, e);
          })) {
        continue;
      }
      Live fresh;
      fresh.app = make_app(p_, live.app.group, tag++, rng);
      owner.run(Verb::kRegister, tracer_, setup_span_, [&](std::string* e) {
        return owner.client.register_app(fresh.app.script, &fresh.id, e);
      });
      live = fresh;
    }
  }

  // (e) on the routed server.
  void check_domain_count() {
    std::vector<std::vector<std::string>> members;
    bool routed = false;
    if (!admin_.domains(&members, &routed, error_) || !routed) {
      problem("check domains: {DOMAINS} unavailable: " + *error_);
      return;
    }
    domains_.clear();
    for (const auto& domain : members) {
      std::vector<uint64_t> ids;
      for (const auto& path : domain) {
        ids.push_back(std::stoull(path.substr(path.rfind('.') + 1)));
      }
      domains_.push_back(ids);
    }
    live_group_.clear();
    for (auto& conn : conns_) {
      for (const auto* list : {&conn->fixed, &conn->apps}) {
        for (const Live& live : *list) live_group_[live.id] = live.app.group;
      }
    }
    check("domains", check_domains(domains_, live_group_));
  }

  // restart: record the acked state, SIGKILL, relaunch on the same
  // journal and port, let every session RESUME, and compare (f).
  bool restart_server() {
    std::map<uint64_t, InstanceView> before;
    if (!read_all(conns_, &before, error_)) return false;
    for (const auto& [id, view] : before) acked_[id] = view.state;
    check_domain_count();
    host_.kill_now();
    if (o_.trace) {
      replay_copy_ = (run_dir_ / "replay").string();
      fs::copy(journal(), replay_copy_, fs::copy_options::recursive);
    }
    const auto relaunch = Clock::now();
    if (!start_host(true)) return false;
    // Each session's next request reconnects, RESUMEs and is answered.
    std::vector<std::string> errors(conns_.size());
    on_each(conns_, [&](Conn& c) {
      const Live& live = c.apps.empty() ? c.fixed.front() : c.apps.front();
      std::string value;
      if (!c.client.get(live.id, live.app.bundle() + ".option", &value,
                        &errors[c.index])) {
        errors[c.index] = "resume: " + errors[c.index];
      }
    });
    for (const auto& e : errors) {
      if (!e.empty()) problem(e);
    }
    std::fprintf(stderr, "restart: recovery took %.3f s\n",
                 seconds_between(relaunch, Clock::now()));
    std::map<uint64_t, InstanceView> after;
    if (!read_all(conns_, &after, error_)) return false;
    for (const auto& [id, view] : after) recovered_[id] = view.state;
    const auto diverged = restart_divergence(acked_, recovered_);
    for (size_t i = 0; i < diverged.size() && i < 3; ++i) {
      std::fprintf(stderr, "  instance %llu: acked %s, recovered %s\n",
                   static_cast<unsigned long long>(diverged[i]),
                   acked_[diverged[i]].c_str(),
                   recovered_[diverged[i]].c_str());
    }
    std::fprintf(stderr, "restart: %zu of %zu instances changed configuration "
                 "across the restart\n", diverged.size(), acked_.size());
    // The restart workload's attempted set is fixed: its history and one
    // state comparison per instance; each divergent instance failed.
    r_.attempted += acked_.size();
    r_.failed += diverged.size();
    return true;
  }

  bool measure(Window* w) {
    if (!admin_.metrics(&w->before, error_)) return false;
    uint64_t update_bytes_before = 0;
    for (auto& conn : conns_) update_bytes_before += conn->client.update_bytes();
    const double cpu_before = proc_cpu_seconds(host_.pid());
    const uint64_t span = tracer_.begin("window", root_);
    w->elapsed_s = run_phase(conns_, p_, o_.seconds, true, tracer_, span);
    tracer_.end(span);
    w->server_cpu_s = proc_cpu_seconds(host_.pid()) - cpu_before;
    const uint64_t admin_frames = admin_.frames_sent();
    if (!admin_.metrics(&w->after, error_)) return false;

    std::map<Verb, std::vector<double>> by_verb;
    for (auto& conn : conns_) {
      w->requests += conn->requests;
      w->ok += conn->requests - conn->failures;
      w->decisions_ok += conn->decisions_ok;
      w->update_bytes += conn->client.update_bytes();
      for (const Sample& s : conn->samples) {
        const double ms = (s.end_us - s.start_us) / 1000.0;
        w->all_ms.push_back(ms);
        (s.verb == Verb::kGet ? w->read_ms : w->decision_ms).push_back(ms);
        by_verb[s.verb].push_back(ms);
      }
    }
    w->update_bytes -= update_bytes_before;
    settle("window", !restart_);
    for (const auto& [verb, ms] : by_verb) {
      std::fprintf(stderr, "  %-8s n=%-6zu p50=%.3f ms p99=%.3f ms\n",
                   verb_name(verb), ms.size(), quantile(ms, 0.5),
                   quantile(ms, 0.99));
    }
    std::fprintf(stderr, "window: %llu requests in %.2f s\n",
                 static_cast<unsigned long long>(w->requests), w->elapsed_s);
    // (d) the window's requests plus the closing scrape.
    server_frames_ = w->after.counter("net.frames_in_total") -
                     w->before.counter("net.frames_in_total");
    client_frames_ = static_cast<double>(w->requests) +
                     static_cast<double>(admin_.frames_sent() - admin_frames);
    check("frames", check_frames(server_frames_, client_frames_));
    return true;
  }

  // (b), (c) and, on a routed server, (e) after the window.
  bool final_checks() {
    std::map<uint64_t, InstanceView> views;
    if (!read_all(conns_, &views, error_)) return false;
    for (const auto& [id, view] : views) {
      placements_.insert(placements_.end(), view.placements.begin(),
                         view.placements.end());
    }
    for (const auto& node : p_.nodes) capacity_[node.host] = node.memory_mb;
    for (size_t g = 0; g < p_.groups.size(); ++g) {
      for (const auto& h : p_.groups[g].hosts) {
        host_group_[h] = static_cast<int>(g);
      }
    }
    check("memory", check_memory(placements_, capacity_, host_group_));
    for (auto& conn : conns_) {
      for (const auto* list : {&conn->fixed, &conn->apps}) {
        for (const Live& live : *list) {
          const std::string bundle = live.app.bundle();
          pulled_[bundle] = views[live.id].option;
          auto it = conn->client.pushed().find(bundle);
          if (it != conn->client.pushed().end()) pushed_[bundle] = it->second;
        }
      }
    }
    check("push_pull", check_push_pull(pushed_, pulled_));
    // restart checked its domains on the routed server before the kill;
    // the recovered server has a plain controller and no domains.
    if (!restart_) check_domain_count();
    return true;
  }

  // Every check must notice a wrong expectation on this run's data.
  void run_self_test() {
    SelfTestInput st;
    st.fig7_observed = fig7_observed_;
    st.fig7_expected = fig7_model_;
    st.placements = placements_;
    st.capacity_mb = capacity_;
    st.host_group = host_group_;
    st.pushed = pushed_;
    st.pulled = pulled_;
    st.server_frames = server_frames_;
    st.client_frames = client_frames_;
    st.domains = domains_;
    st.live_group = live_group_;
    // Workloads without a restart exercise (f) on a one-instance record.
    const std::map<uint64_t, std::string> one = {{1, "wide"}};
    st.acked = restart_ ? acked_ : one;
    st.recovered = restart_ ? recovered_ : one;
    const auto blind = self_test(st);
    for (const auto& name : blind) {
      problem("self-test: check " + name + " cannot fail");
    }
    if (blind.empty()) {
      std::fprintf(stderr, "self-test: each of the 6 checks reports a wrong "
                   "expectation\n");
    }
  }

  // Traced run: per-layer metrics from the scrapes, the client, the
  // process, and the in-process probes.
  std::map<std::string, MetricValue> layer_metrics(const Window& w,
                                                   double ops_per_s,
                                                   int threads) {
    auto hist_mean = [&](const std::string& name) {
      const HistogramTotals a = w.before.histogram(name);
      const HistogramTotals b = w.after.histogram(name);
      return b.count > a.count ? (b.sum - a.sum) / (b.count - a.count) : 0.0;
    };
    auto delta = [&](const std::string& name) {
      return w.after.counter(name) - w.before.counter(name);
    };
    const double decisions =
        std::max<double>(1, static_cast<double>(w.decisions_ok));
    const double epochs = delta("controller.epochs_total");
    const double candidates = delta("controller.epoch_candidates_total");
    const double skips = delta("controller.epoch_skips_total");
    std::map<std::string, MetricValue> m;
    m["traced.ops_per_s"] = {ops_per_s, "ops/s"};
    m["net.mailbox_wait_us_mean"] = {hist_mean("net.mailbox_wait_us"), "us"};
    m["net.update_bytes_per_decision"] = {
        static_cast<double>(w.update_bytes) / decisions, "bytes"};
    m["controller.epoch_us_mean"] = {hist_mean("controller.epoch_us"), "us"};
    m["optimizer.candidates_per_epoch"] = {
        epochs > 0 ? candidates / epochs : 0, "count"};
    m["optimizer.skip_ratio"] = {
        skips + candidates > 0 ? skips / (skips + candidates) : 0, "ratio"};
    m["persist.fsync_us_mean"] = {hist_mean("persist.fsync_us"), "us"};
    m["persist.journal_bytes_per_op"] = {
        delta("persist.journal_bytes_total") / decisions, "bytes"};
    m["server.threads"] = {static_cast<double>(threads), "count"};

    // The in-process phase runs on the first group's domain.
    ProbeInput probe;
    const Group& group = p_.groups.front();
    probe.cluster_script = group_cluster_script(p_, group);
    probe.hosts = group.hosts;
    for (const App& app : p_.apps) {
      if (app.group != 0) continue;
      probe.app_scripts.push_back(app.script);
      std::vector<std::string> names;
      for (const auto& option : app.options) names.push_back(option.name);
      probe.app_options.push_back(names);
      const OptionDecl& first = app.options.front();
      probe.updates.emplace_back(app.bundle(), first.name);
      for (const auto& role : first.roles) {
        const std::string prefix = app.bundle() + "." + role.role;
        probe.updates.emplace_back(prefix + ".node", group.hosts[0]);
        probe.updates.emplace_back(prefix + ".nodes",
                                   group.hosts[0] + " " + group.hosts[1]);
        probe.updates.emplace_back(prefix + ".memory", "6");
      }
    }
    probe.grant_levels = p_.grant_levels;
    probe.requests = sample_requests(p_, o_.seed);
    probe.scratch_dir = (run_dir_ / "probe").string();
    fs::create_directories(probe.scratch_dir);
    probe.replay_dir = replay_copy_;
    probe.seed = o_.seed;
    const uint64_t span = tracer_.begin("probe", root_);
    for (const auto& [name, value] : run_layer_probes(probe, tracer_, span)) {
      m[name] = value;
    }
    tracer_.end(span);
    return m;
  }

  const Options& o_;
  Tracer tracer_;
  const Population p_;
  const bool restart_;
  const fs::path run_dir_;
  std::string* error_ = nullptr;
  RunResult r_;
  uint64_t root_ = 0;
  uint64_t setup_span_ = 0;
  HostProcess host_;
  Admin admin_;
  Conns conns_;
  std::string replay_copy_;
  // Check inputs, kept for the self-test.
  std::vector<std::vector<std::string>> fig7_observed_;
  std::vector<std::vector<std::string>> fig7_model_;
  std::vector<Placement> placements_;
  std::map<std::string, double> capacity_;
  std::map<std::string, int> host_group_;
  std::map<std::string, std::string> pushed_;
  std::map<std::string, std::string> pulled_;
  double server_frames_ = 0;
  double client_frames_ = 0;
  std::vector<std::vector<uint64_t>> domains_;
  std::map<uint64_t, int> live_group_;
  std::map<uint64_t, std::string> acked_;
  std::map<uint64_t, std::string> recovered_;
};

// --- command line -------------------------------------------------------------------

bool flag(int argc, char** argv, const char* name, std::string* out) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) {
      *out = argv[i + 1];
      return true;
    }
  }
  return false;
}

int host_main(int argc, char** argv) {
  std::string workload_name, seed, dir, port, recover, ready;
  Workload workload;
  if (!flag(argc, argv, "--workload", &workload_name) ||
      !parse_workload(workload_name, &workload) ||
      !flag(argc, argv, "--seed", &seed) || !flag(argc, argv, "--dir", &dir) ||
      !flag(argc, argv, "--port", &port) ||
      !flag(argc, argv, "--recover", &recover) ||
      !flag(argc, argv, "--ready-fd", &ready)) {
    std::fprintf(stderr, "host: bad arguments\n");
    return 2;
  }
  const Population p = make_population(workload, std::stoull(seed));
  HostConfig config;
  config.cluster_script = p.cluster_script;
  config.grant_levels = p.grant_levels;
  config.journal_dir = dir;
  config.port = static_cast<uint16_t>(std::stoi(port));
  config.recover = recover == "1";
  config.ready_fd = std::stoi(ready);
  return run_host(config);
}

int bench_main(int argc, char** argv) {
  Options o;
  std::string seed, seconds, trace;
  if (!flag(argc, argv, "--workload", &o.workload_name) ||
      !parse_workload(o.workload_name, &o.workload)) {
    std::fprintf(stderr, "usage: perfbench --workload "
                 "<many-tenants|crowded-domains|restart> --seed N "
                 "--seconds S --trace 0|1 [--out-dir DIR]\n");
    return 2;
  }
  if (flag(argc, argv, "--seed", &seed)) o.seed = std::stoull(seed);
  if (flag(argc, argv, "--seconds", &seconds)) o.seconds = std::stod(seconds);
  if (flag(argc, argv, "--trace", &trace)) o.trace = trace == "1";
  flag(argc, argv, "--out-dir", &o.out_dir);
  signal(SIGPIPE, SIG_IGN);

  RunResult result;
  std::string error;
  Run run(o);
  if (!run.execute(&result, &error)) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
    return 1;
  }
  for (const auto& p : result.problems) {
    std::fprintf(stderr, "perfbench: %s\n", p.c_str());
  }
  std::printf("%s\n", result_json(result.correct, result.attempted,
                                  result.failed, result.metrics)
                          .c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "host") == 0) {
    return perfbench::host_main(argc, argv);
  }
  return perfbench::bench_main(argc, argv);
}
