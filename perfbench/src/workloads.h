// The benchmark's inputs: clusters, application populations and request
// mixes, all generated from the seed. Plain strings and numbers — the
// program only ever sees the RSL scripts and wire requests built here.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "stats.h"

namespace perfbench {

enum class Workload { kManyTenants, kCrowdedDomains, kRestart };

bool parse_workload(const std::string& name, Workload* out);

// A node as the benchmark's own cluster script declares it.
struct NodeDecl {
  std::string host;
  double speed = 1;
  double memory_mb = 0;
};

// One role of an option and how many replicas it places.
struct RoleDecl {
  std::string role;
  int replicas = 1;
};

struct OptionDecl {
  std::string name;
  std::vector<RoleDecl> roles;
};

// One application instance: a single bundle named "b<tag>", so pushed
// UPDATE frames (which carry the bundle name, not the instance id) name
// their instance unambiguously on a shared connection.
struct App {
  int tag = 0;
  int group = 0;
  std::string script;
  std::vector<OptionDecl> options;
  std::string bundle() const {
    std::string name = "b";
    name += std::to_string(tag);
    return name;
  }
};

// An isolated node group; hostname pins confine each application to
// its group, so the partitioned router carves one domain per group.
struct Group {
  std::string name;
  std::vector<std::string> hosts;
};

enum class Verb { kGet, kSet, kLoad, kEnd, kRegister };
const char* verb_name(Verb verb);
// Verbs that run the decision path and the journal.
inline bool is_decision(Verb verb) { return verb != Verb::kGet; }

// Closed-loop request mix, in percent; churn is END followed by a
// REGISTER of a fresh instance in the same group (two requests).
struct Mix {
  int get = 0;
  int set = 0;
  int load = 0;
  int churn = 0;
};

// The Figure 7 database pair (paper §6): one database server host and
// three client hosts; clients choose query shipping (QS) or data
// shipping (DS).
struct Fig7 {
  std::string server_host = "f7srv";
  double server_speed = 2.25;
  std::vector<std::string> client_hosts = {"f7c00", "f7c01", "f7c02"};
  double client_speed = 1.0;
  double client_memory_mb = 64;
  double link_mbps = 320;
  // Declared per-option figures (seconds on the reference machine, MB
  // moved); the DS link moves 61 - min(client.memory, 24) MB.
  double qs_server_s = 9, qs_client_s = 1, qs_link_mb = 10;
  double ds_server_s = 1, ds_client_s = 9, ds_min_client_memory_mb = 17;
  std::string script(int tag, int client) const;
  App app(int tag, int client) const;
};

struct Population {
  Workload workload = Workload::kManyTenants;
  std::string cluster_script;
  std::vector<NodeDecl> nodes;
  std::vector<Group> groups;  // the Figure 7 group is groups.back()
  std::vector<App> apps;      // registered in this order
  Fig7 fig7;
  int fig7_group = 0;
  Mix mix;
  // Memory grant multipliers the host's optimizer tries for ">="
  // constraints (the swarm DB's memory lever).
  std::vector<double> grant_levels = {1.0, 2.0, 3.0};
};

// Everything the host and the generator need, from the workload and the
// seed. The restart workload ignores the seed for its population: its
// history is fixed so that its replay work is the same in every run.
Population make_population(Workload workload, uint64_t seed);

// A fresh instance for `group` (churn re-registrations).
App make_app(const Population& population, int group, int tag, Rng& rng);

// The fixed pre-kill history of the restart workload after the
// population is registered: LOAD/SET and END+REGISTER events.
struct HistoryEvent {
  Verb verb = Verb::kLoad;
  size_t app = 0;         // SET/END: the population app now in that slot
  std::string host;       // LOAD
  int tasks = 0;          // LOAD
  int option = 0;         // SET: index into the app's options
};
std::vector<HistoryEvent> restart_history(const Population& population,
                                          int events);

}  // namespace perfbench
