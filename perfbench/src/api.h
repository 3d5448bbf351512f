// Every call the benchmark makes into the program lives behind this
// header (implemented in api.cc): the server host, the client-library
// connection, the telemetry scrapes and the in-process layer probes.
// When the decision-core API changes, api.cc is the one file to adapt.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "stats.h"

namespace perfbench {

// --- server host -------------------------------------------------------------

struct HostConfig {
  std::string cluster_script;
  std::vector<double> grant_levels;
  std::string journal_dir;
  uint16_t port = 0;     // 0 = ephemeral
  // false: a durable partitioned server (DomainRouter journaling into
  // Persistence, which is also the session store). true: reopen
  // journal_dir through Persistence::open, which rebuilds a plain
  // Controller, and serve that — the program's recovery path.
  bool recover = false;
  int ready_fd = -1;     // receives "<port>\n" once the server listens
};

// Serves until SIGTERM; returns the process exit code.
int run_host(const HostConfig& config);

// --- client connection (the program's client library) ------------------------

class Client {
 public:
  Client();
  ~Client();
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  // Reconnects (after a server restart) use a fixed jitter seed so the
  // backoff sequence is the same in every run.
  bool connect(uint16_t port, uint64_t jitter_seed, std::string* error);
  bool register_app(const std::string& script, uint64_t* id,
                    std::string* error);
  bool end(uint64_t id, std::string* error);
  bool get(uint64_t id, const std::string& name, std::string* value,
           std::string* error);
  bool set_option(uint64_t id, const std::string& bundle,
                  const std::string& option, std::string* error);
  bool report_load(const std::string& host, int tasks, std::string* error);

  // Last pushed UPDATE value per variable name.
  const std::map<std::string, std::string>& pushed() const;
  // Encoded bytes (frame header included) of every UPDATE received.
  uint64_t update_bytes() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

// --- telemetry scrapes (raw frames on an admin connection) --------------------

struct HistogramTotals {
  double count = 0;
  double sum = 0;
};

struct TelemetrySnapshot {
  std::map<std::string, double> counters;
  std::map<std::string, HistogramTotals> histograms;
  double counter(const std::string& name) const;
  HistogramTotals histogram(const std::string& name) const;
};

class Admin {
 public:
  Admin();
  ~Admin();
  Admin(const Admin&) = delete;
  Admin& operator=(const Admin&) = delete;

  bool connect(uint16_t port, std::string* error);
  // {METRICS json}
  bool metrics(TelemetrySnapshot* out, std::string* error);
  // {METRICS trace}: the server's Chrome trace dump.
  bool trace(std::string* out, std::string* error);
  // {DOMAINS}: member instance paths per live domain. *routed is false
  // when the server answers that it has no domain router.
  bool domains(std::vector<std::vector<std::string>>* members, bool* routed,
               std::string* error);
  // Request frames this connection has sent.
  uint64_t frames_sent() const { return frames_sent_; }

 private:
  bool request(const std::vector<std::string>& words,
               std::vector<std::string>* reply, std::string* error);
  struct Impl;
  std::unique_ptr<Impl> impl_;
  uint64_t frames_sent_ = 0;
};

// --- in-process layer probes ---------------------------------------------------

struct ProbeInput {
  // One domain of the workload: its group's nodes and applications.
  std::string cluster_script;
  std::vector<std::string> app_scripts;
  std::vector<std::vector<std::string>> app_options;  // per app
  std::vector<std::string> hosts;
  std::vector<double> grant_levels;
  // Wire frames of the workload's request mix (encoded by the probe).
  std::vector<std::vector<std::string>> requests;
  // Update (name, value) pairs the workload's decisions push.
  std::vector<std::pair<std::string, std::string>> updates;
  std::string scratch_dir;   // empty directory the probes may use
  // When set, a copy of a journal directory to time recovery on;
  // otherwise the probe's own one-domain journal is replayed.
  std::string replay_dir;
  uint64_t seed = 1;
};

// Times the public calls of each layer on the workload's inputs, each
// call wrapped in a span under `parent`. Returns per-layer metrics by
// name (see README for the list).
std::map<std::string, MetricValue> run_layer_probes(const ProbeInput& input,
                                                    Tracer& tracer,
                                                    uint64_t parent);

}  // namespace perfbench
