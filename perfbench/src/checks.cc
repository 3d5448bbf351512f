#include "checks.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace perfbench {

namespace {

std::string join(const std::vector<std::string>& parts) {
  std::string out;
  for (const auto& part : parts) out += (out.empty() ? "" : ",") + part;
  return out;
}

// Mean predicted response of one assignment: option index 0 = QS,
// k >= 1 = DS with grant level grants[k-1].
double fig7_mean(const Fig7& f, const std::vector<int>& assignment,
                 const std::vector<double>& grants) {
  const double n = static_cast<double>(assignment.size());
  // Every client places one task on the shared server; each client host
  // carries only its own instance.
  const double server_load = n;
  double total = 0;
  for (int choice : assignment) {
    double cpu = 0;
    double megabytes = 0;
    if (choice == 0) {
      cpu = std::max(f.qs_server_s / f.server_speed * server_load,
                     f.qs_client_s / f.client_speed);
      megabytes = f.qs_link_mb;
    } else {
      const double memory = f.ds_min_client_memory_mb * grants[choice - 1];
      if (memory > f.client_memory_mb) {
        return std::numeric_limits<double>::infinity();
      }
      cpu = std::max(f.ds_server_s / f.server_speed * server_load,
                     f.ds_client_s / f.client_speed);
      megabytes = 61 - std::min(memory, 24.0);
    }
    total += cpu + megabytes * 8.0 / f.link_mbps;
  }
  return total / n;
}

}  // namespace

std::vector<std::string> fig7_expected(const Fig7& fig7, int clients,
                                       const std::vector<double>& grants) {
  const int choices = 1 + static_cast<int>(grants.size());
  std::vector<int> assignment(clients, 0);
  std::vector<int> best;
  double best_mean = std::numeric_limits<double>::infinity();
  while (true) {
    const double mean = fig7_mean(fig7, assignment, grants);
    if (mean < best_mean - 1e-9) {
      best_mean = mean;
      best = assignment;
    }
    int i = 0;
    while (i < clients && ++assignment[i] == choices) assignment[i++] = 0;
    if (i == clients) break;
  }
  std::vector<std::string> names;
  for (int choice : best) names.push_back(choice == 0 ? "QS" : "DS");
  return names;
}

CheckResult check_fig7(const std::vector<std::vector<std::string>>& observed,
                       const std::vector<std::vector<std::string>>& expected) {
  const std::vector<std::vector<std::string>> paper = {
      {"QS", "QS"}, {"DS", "DS", "DS"}, {"QS", "QS"}};
  if (expected != paper) {
    std::string model;
    for (const auto& stage : expected) model += " [" + join(stage) + "]";
    return {false, "fig7: the model shows no QS->DS->QS crossover:" + model};
  }
  if (observed.size() != expected.size()) {
    return {false, "fig7: missing stages"};
  }
  for (size_t i = 0; i < expected.size(); ++i) {
    if (observed[i] != expected[i]) {
      return {false, "fig7 stage " + std::to_string(i) + ": program [" +
                         join(observed[i]) + "], model [" + join(expected[i]) +
                         "]"};
    }
  }
  return {};
}

CheckResult check_memory(const std::vector<Placement>& placements,
                         const std::map<std::string, double>& capacity_mb,
                         const std::map<std::string, int>& host_group) {
  std::map<std::string, double> used;
  for (const auto& placement : placements) {
    auto group = host_group.find(placement.host);
    if (group == host_group.end() || group->second != placement.group) {
      return {false, "placement on " + placement.host +
                         " outside the application's group"};
    }
    used[placement.host] += placement.memory_mb;
  }
  for (const auto& [host, mb] : used) {
    auto capacity = capacity_mb.find(host);
    if (capacity == capacity_mb.end() || mb > capacity->second + 1e-9) {
      return {false, "node " + host + " holds " + std::to_string(mb) +
                         " MB, declared " +
                         (capacity == capacity_mb.end()
                              ? std::string("none")
                              : std::to_string(capacity->second))};
    }
  }
  return {};
}

CheckResult check_push_pull(const std::map<std::string, std::string>& pushed,
                            const std::map<std::string, std::string>& pulled) {
  for (const auto& [bundle, option] : pulled) {
    auto it = pushed.find(bundle);
    if (it == pushed.end()) return {false, "no UPDATE pushed for " + bundle};
    if (it->second != option) {
      return {false, bundle + ": pushed " + it->second + ", pulled " + option};
    }
  }
  return {};
}

CheckResult check_frames(double server_delta, double client_frames) {
  if (server_delta != client_frames) {
    return {false, "server counted " + std::to_string(server_delta) +
                       " frames in, clients sent " +
                       std::to_string(client_frames)};
  }
  return {};
}

CheckResult check_domains(const std::vector<std::vector<uint64_t>>& domains,
                          const std::map<uint64_t, int>& live_group) {
  std::set<int> live_groups;
  for (const auto& [id, group] : live_group) live_groups.insert(group);
  std::set<int> seen;
  size_t members = 0;
  for (const auto& domain : domains) {
    std::set<int> groups;
    for (uint64_t id : domain) {
      auto it = live_group.find(id);
      if (it == live_group.end()) {
        return {false, "domain lists unknown instance " + std::to_string(id)};
      }
      groups.insert(it->second);
    }
    if (groups.size() != 1) {
      return {false, "a domain spans " + std::to_string(groups.size()) +
                         " groups"};
    }
    if (!seen.insert(*groups.begin()).second) {
      return {false, "group " + std::to_string(*groups.begin()) +
                         " split over several domains"};
    }
    members += domain.size();
  }
  if (seen != live_groups) {
    return {false, std::to_string(domains.size()) + " domains for " +
                       std::to_string(live_groups.size()) + " live groups"};
  }
  if (members != live_group.size()) {
    return {false, std::to_string(members) + " domain members for " +
                       std::to_string(live_group.size()) + " live instances"};
  }
  return {};
}

std::vector<uint64_t> restart_divergence(
    const std::map<uint64_t, std::string>& acked,
    const std::map<uint64_t, std::string>& recovered) {
  std::vector<uint64_t> diverged;
  for (const auto& [id, state] : acked) {
    auto it = recovered.find(id);
    if (it == recovered.end() || it->second != state) diverged.push_back(id);
  }
  return diverged;
}

std::vector<std::string> self_test(const SelfTestInput& in) {
  std::vector<std::string> blind;
  // (a) swapped crossover: the third-client stage expected on QS.
  {
    auto expected = in.fig7_expected;
    if (expected.size() == 3) {
      std::fill(expected[1].begin(), expected[1].end(), "QS");
    }
    if (check_fig7(in.fig7_observed, expected).ok) blind.push_back("fig7");
  }
  // (b) the fullest node declared 1 MB smaller than what it holds.
  {
    std::map<std::string, double> used;
    for (const auto& p : in.placements) used[p.host] += p.memory_mb;
    auto fullest = std::max_element(
        used.begin(), used.end(),
        [](const auto& a, const auto& b) { return a.second < b.second; });
    auto capacity = in.capacity_mb;
    if (fullest != used.end()) capacity[fullest->first] = fullest->second - 1;
    if (check_memory(in.placements, capacity, in.host_group).ok) {
      blind.push_back("memory");
    }
  }
  // (c) one pulled option flipped.
  {
    auto pulled = in.pulled;
    if (!pulled.empty()) pulled.begin()->second += "-flipped";
    if (check_push_pull(in.pushed, pulled).ok) blind.push_back("push_pull");
  }
  // (d) one frame more than the clients sent.
  if (check_frames(in.server_frames, in.client_frames + 1).ok) {
    blind.push_back("frames");
  }
  // (e) a live instance in a group the server never saw.
  {
    auto live = in.live_group;
    live[std::numeric_limits<uint64_t>::max()] = -1;
    if (check_domains(in.domains, live).ok) blind.push_back("domains");
  }
  // (f) one acked state changed: one more divergent instance.
  {
    auto acked = in.acked;
    if (!acked.empty()) acked.begin()->second += "-changed";
    if (restart_divergence(acked, in.recovered).size() ==
        restart_divergence(in.acked, in.recovered).size()) {
      blind.push_back("restart");
    }
  }
  return blind;
}

}  // namespace perfbench
