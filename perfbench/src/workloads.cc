#include "workloads.h"

#include <cstdarg>
#include <algorithm>
#include <cstdio>

namespace perfbench {

namespace {

std::string format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));
std::string format(const char* fmt, ...) {
  char buffer[1024];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buffer, sizeof(buffer), fmt, args);
  va_end(args);
  return buffer;
}

// many-tenants: 64 groups of 4 linked nodes, 16 two-option tenants each.
constexpr int kTenantGroups = 64;
constexpr int kTenantsPerGroup = 16;
constexpr int kTenantNodes = 4;
// restart: a smaller tenant population, fixed regardless of the seed.
constexpr int kRestartGroups = 16;
constexpr int kRestartTenantsPerGroup = 12;
constexpr uint64_t kRestartSeed = 7;
// crowded-domains: 8 swarm groups of one server and 8 clients, 40
// applications each, two SwarmDB to one SwarmPar in a fixed order: the
// greedy cost of a 40-bundle domain depends on its make-up, so the
// seed varies only the LOAD stream, not the work per decision.
constexpr int kSwarmGroups = 8;
constexpr int kSwarmClients = 8;
constexpr int kSwarmAppsPerGroup = 40;

void add_node(Population& p, const std::string& host, double speed,
              double memory, const std::vector<std::pair<std::string, double>>&
                                 links) {
  std::string line =
      format("harmonyNode %s {speed %g} {memory %g} {os aix}", host.c_str(),
             speed, memory);
  for (const auto& [peer, mbps] : links) {
    line += format(" {link %s %g 0.05}", peer.c_str(), mbps);
  }
  p.cluster_script += line + "\n";
  p.nodes.push_back(NodeDecl{host, speed, memory});
}

void add_tenant_group(Population& p, int index) {
  Group group{format("t%03d", index), {}};
  for (int n = 0; n < kTenantNodes; ++n) {
    const std::string host = format("%s-n%d", group.name.c_str(), n);
    std::vector<std::pair<std::string, double>> links;
    for (const auto& peer : group.hosts) links.emplace_back(peer, 320);
    add_node(p, host, 1.0, 64, links);
    group.hosts.push_back(host);
  }
  p.groups.push_back(group);
}

void add_swarm_group(Population& p, int index) {
  Group group{format("s%02d", index), {}};
  const std::string server = group.name + "-srv";
  add_node(p, server, 2.0, 256, {});
  group.hosts.push_back(server);
  for (int c = 0; c < kSwarmClients; ++c) {
    const std::string host = format("%s-c%02d", group.name.c_str(), c);
    std::vector<std::pair<std::string, double>> links;
    for (const auto& peer : group.hosts) links.emplace_back(peer, 10);
    add_node(p, host, 1.0, 512, links);
    group.hosts.push_back(host);
  }
  p.groups.push_back(group);
}

void add_fig7_group(Population& p) {
  const Fig7& f = p.fig7;
  Group group{"f7", {}};
  for (const auto& host : f.client_hosts) {
    std::vector<std::pair<std::string, double>> links;
    for (const auto& peer : group.hosts) links.emplace_back(peer, f.link_mbps);
    add_node(p, host, f.client_speed, f.client_memory_mb, links);
    group.hosts.push_back(host);
  }
  std::vector<std::pair<std::string, double>> links;
  for (const auto& peer : group.hosts) links.emplace_back(peer, f.link_mbps);
  add_node(p, f.server_host, f.server_speed, 512, links);
  group.hosts.push_back(f.server_host);
  p.fig7_group = static_cast<int>(p.groups.size());
  p.groups.push_back(group);
}

// Two-option tenant: "wide" on two replicas of the group, or "narrow"
// on one. Every tenant of a full group fits on either option (16 x 12
// MB of 256 MB), so steering never fails for lack of memory.
App tenant_app(const Group& group, int group_index, int tag, Rng& rng) {
  App app;
  app.tag = tag;
  app.group = group_index;
  const int wide_s = 200 + static_cast<int>(rng.below(80));
  const int narrow_s = 380 + static_cast<int>(rng.below(80));
  const int wide_mb = 4 + static_cast<int>(rng.below(8));
  app.script = format(
      "harmonyBundle T%d:%d %s {\n"
      "  {wide\n"
      "    {node worker {hostname %s-*} {seconds %d} {memory 6} "
      "{replicate 2}}\n"
      "    {communication %d}}\n"
      "  {narrow\n"
      "    {node worker {hostname %s-*} {seconds %d} {memory 4}}\n"
      "    {communication 1}}\n"
      "}\n",
      group_index, tag, app.bundle().c_str(), group.name.c_str(), wide_s,
      wide_mb, group.name.c_str(), narrow_s);
  app.options = {OptionDecl{"wide", {RoleDecl{"worker", 2}}},
                 OptionDecl{"narrow", {RoleDecl{"worker", 1}}}};
  return app;
}

// The swarm shapes: SwarmDB has the memory-grant lever (an open-ended
// client memory constraint with a convex transfer curve), SwarmPar the
// placement lever (two replicas vs one).
App swarm_app(const Group& group, int group_index, int tag, bool db) {
  App app;
  app.tag = tag;
  app.group = group_index;
  const char* g = group.name.c_str();
  if (db) {
    app.script = format(
        "harmonyBundle SwarmDB%d:%d %s {\n"
        "  {rich\n"
        "    {node server {hostname %s-srv} {seconds 0.2} {memory 4}}\n"
        "    {node client {hostname %s-c*} {memory >=17} {seconds 2}}\n"
        "    {link client server {(77 - (client.memory > 60 ? 60 : "
        "client.memory)) * (77 - (client.memory > 60 ? 60 : client.memory)) "
        "/ 48}}\n"
        "    {friction 0.5}}\n"
        "  {lean\n"
        "    {node server {hostname %s-srv} {seconds 0.2} {memory 4}}\n"
        "    {node client {hostname %s-c*} {seconds 2}}\n"
        "    {link client server 96}\n"
        "    {friction 0.5}}\n"
        "}\n",
        group_index, tag, app.bundle().c_str(), g, g, g, g);
    app.options = {
        OptionDecl{"rich", {RoleDecl{"server", 1}, RoleDecl{"client", 1}}},
        OptionDecl{"lean", {RoleDecl{"server", 1}, RoleDecl{"client", 1}}}};
  } else {
    app.script = format(
        "harmonyBundle SwarmPar%d:%d %s {\n"
        "  {wide\n"
        "    {node worker {hostname %s-c*} {seconds 4} {memory 6} "
        "{replicate 2}}\n"
        "    {communication 4}\n"
        "    {friction 0.5}}\n"
        "  {narrow\n"
        "    {node worker {hostname %s-c*} {seconds 9} {memory 3}}\n"
        "    {friction 0.5}}\n"
        "}\n",
        group_index, tag, app.bundle().c_str(), g, g);
    app.options = {OptionDecl{"wide", {RoleDecl{"worker", 2}}},
                   OptionDecl{"narrow", {RoleDecl{"worker", 1}}}};
  }
  return app;
}

}  // namespace

bool parse_workload(const std::string& name, Workload* out) {
  if (name == "many-tenants") {
    *out = Workload::kManyTenants;
  } else if (name == "crowded-domains") {
    *out = Workload::kCrowdedDomains;
  } else if (name == "restart") {
    *out = Workload::kRestart;
  } else {
    return false;
  }
  return true;
}

const char* verb_name(Verb verb) {
  switch (verb) {
    case Verb::kGet: return "GET";
    case Verb::kSet: return "SET";
    case Verb::kLoad: return "LOAD";
    case Verb::kEnd: return "END";
    case Verb::kRegister: return "REGISTER";
  }
  return "?";
}

std::string Fig7::script(int tag, int client) const {
  const char* host = client_hosts[client].c_str();
  return format(
      "harmonyBundle DBclient:%d b%d {\n"
      "  {QS\n"
      "    {node server {hostname %s} {seconds %g} {memory 20}}\n"
      "    {node client {hostname %s} {seconds %g} {memory 2}}\n"
      "    {link client server %g}}\n"
      "  {DS\n"
      "    {node server {hostname %s} {seconds %g} {memory 20}}\n"
      "    {node client {hostname %s} {memory >=%g} {seconds %g}}\n"
      "    {link client server {61 - (client.memory > 24 ? 24 : "
      "client.memory)}}}\n"
      "}\n",
      tag, tag, server_host.c_str(), qs_server_s, host, qs_client_s,
      qs_link_mb, server_host.c_str(), ds_server_s, host,
      ds_min_client_memory_mb, ds_client_s);
}

App Fig7::app(int tag, int client) const {
  App app;
  app.tag = tag;
  app.script = script(tag, client);
  app.options = {
      OptionDecl{"QS", {RoleDecl{"server", 1}, RoleDecl{"client", 1}}},
      OptionDecl{"DS", {RoleDecl{"server", 1}, RoleDecl{"client", 1}}}};
  return app;
}

Population make_population(Workload workload, uint64_t seed) {
  Population p;
  p.workload = workload;
  const uint64_t population_seed =
      workload == Workload::kRestart ? kRestartSeed : seed;
  Rng rng(population_seed * 0x2545f4914f6cdd1dull + 1);
  int tag = 1;
  switch (workload) {
    case Workload::kManyTenants:
    case Workload::kRestart: {
      const bool restart = workload == Workload::kRestart;
      const int groups = restart ? kRestartGroups : kTenantGroups;
      const int per_group =
          restart ? kRestartTenantsPerGroup : kTenantsPerGroup;
      for (int g = 0; g < groups; ++g) add_tenant_group(p, g);
      // Group-interleaved registration order, so domains grow side by
      // side instead of one after another.
      for (int i = 0; i < per_group; ++i) {
        for (int g = 0; g < groups; ++g) {
          p.apps.push_back(tenant_app(p.groups[g], g, tag++, rng));
        }
      }
      // Steering (SET) is cheap and re-evaluating decisions (LOAD, END,
      // REGISTER) are not; SET stays a third of the decisions so their
      // median falls inside one class, not between the two. Reads wait
      // on the serial decision path (F4), so re-evaluations stay rare
      // enough that most reads find it idle.
      p.mix = Mix{70, 12, 12, 6};
      break;
    }
    case Workload::kCrowdedDomains: {
      for (int g = 0; g < kSwarmGroups; ++g) add_swarm_group(p, g);
      for (int i = 0; i < kSwarmAppsPerGroup; ++i) {
        for (int g = 0; g < kSwarmGroups; ++g) {
          p.apps.push_back(swarm_app(p.groups[g], g, tag++, i % 3 != 2));
        }
      }
      p.mix = Mix{15, 0, 85, 0};
      break;
    }
  }
  add_fig7_group(p);
  return p;
}

App make_app(const Population& population, int group, int tag, Rng& rng) {
  const Group& g = population.groups[group];
  return population.workload == Workload::kCrowdedDomains
             ? swarm_app(g, group, tag, rng.below(3) < 2)
             : tenant_app(g, group, tag, rng);
}

std::vector<HistoryEvent> restart_history(const Population& population,
                                          int events) {
  Rng rng(kRestartSeed * 977 + 3);
  std::vector<HistoryEvent> history;
  const size_t apps = population.apps.size();
  for (int i = 0; i < events; ++i) {
    HistoryEvent event;
    const uint64_t roll = rng.below(100);
    if (roll < 45) {
      event.verb = Verb::kLoad;
      const Group& group =
          population.groups[rng.below(population.groups.size() - 1)];
      event.host = group.hosts[rng.below(group.hosts.size())];
      event.tasks = static_cast<int>(rng.below(4));
    } else if (roll < 90) {
      event.verb = Verb::kSet;
      event.app = rng.below(apps);
      event.option = static_cast<int>(rng.below(2));
    } else {
      event.verb = Verb::kEnd;  // END + REGISTER of a replacement
      event.app = rng.below(apps);
    }
    history.push_back(event);
  }
  return history;
}

}  // namespace perfbench
