// Output checks (a)-(f). Each compares what the program reported with a
// computation the benchmark makes on its own, or with a property the
// method must have. They are pure functions of observed data and an
// expectation, so the self-test can hand each one a wrong expectation
// and confirm it reports the difference.
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

#include "workloads.h"

namespace perfbench {

struct CheckResult {
  bool ok = true;
  std::string detail;  // first mismatch, empty when ok
};

// (a) Figure 7: the option set minimizing the mean predicted response
// under the default model (CPU seconds scaled by node speed and
// processor-sharing load, plus transfer time), for `clients` database
// clients, computed from the declared seconds, speeds and bandwidths.
std::vector<std::string> fig7_expected(const Fig7& fig7, int clients,
                                       const std::vector<double>& grants);
// Stages: two clients, three clients, two again after a departure.
// The model must show the paper's crossover, and the program must match
// the model at every stage.
CheckResult check_fig7(const std::vector<std::vector<std::string>>& observed,
                       const std::vector<std::vector<std::string>>& expected);

// (b) Every placement's host belongs to its application's group, and no
// node's placed memory exceeds what the cluster script declares.
struct Placement {
  int group = 0;
  std::string host;
  double memory_mb = 0;
};
CheckResult check_memory(const std::vector<Placement>& placements,
                         const std::map<std::string, double>& capacity_mb,
                         const std::map<std::string, int>& host_group);

// (c) The last pushed UPDATE for each bundle equals its pulled option.
CheckResult check_push_pull(const std::map<std::string, std::string>& pushed,
                            const std::map<std::string, std::string>& pulled);

// (d) The server's frames_in delta equals the frames the clients sent.
CheckResult check_frames(double server_delta, double client_frames);

// (e) One domain per group with live instances: each domain's members
// belong to one group, and each live group has exactly one domain.
CheckResult check_domains(const std::vector<std::vector<uint64_t>>& domains,
                          const std::map<uint64_t, int>& live_group);

// (f) Instances whose option or placement after the restart differs
// from what was acked before the kill (each is one failed operation).
std::vector<uint64_t> restart_divergence(
    const std::map<uint64_t, std::string>& acked,
    const std::map<uint64_t, std::string>& recovered);

// Hands each check a wrong expectation derived from the given observed
// data; returns the checks that failed to notice (empty = all can
// fail).
struct SelfTestInput {
  std::vector<std::vector<std::string>> fig7_observed;
  std::vector<std::vector<std::string>> fig7_expected;
  std::vector<Placement> placements;
  std::map<std::string, double> capacity_mb;
  std::map<std::string, int> host_group;
  std::map<std::string, std::string> pushed;
  std::map<std::string, std::string> pulled;
  double server_frames = 0;
  double client_frames = 0;
  std::vector<std::vector<uint64_t>> domains;
  std::map<uint64_t, int> live_group;
  std::map<uint64_t, std::string> acked;
  std::map<uint64_t, std::string> recovered;
};
std::vector<std::string> self_test(const SelfTestInput& input);

}  // namespace perfbench
