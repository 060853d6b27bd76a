// The benchmark's traffic mixes: model shape, engine configuration and a
// seeded request generator for each. README.md records why each exists and
// which layer metrics it is expected to move.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/llm/disagg_cluster.h"
#include "src/llm/serving_engine.h"
#include "src/llm/tiny_transformer.h"

namespace servebench {

struct Request {
  std::vector<int32_t> prompt;
  int64_t max_new = 0;
  double arrival_s = 0.0;    // virtual
  double cancel_at_s = -1.0;  // virtual; < 0 = the client never cancels
};

struct Workload {
  std::string name;
  spinfer::TinyConfig model;
  uint64_t model_seed = 0;
  // Engine configuration; for the disagg workload only max_batch, the KV
  // geometry and the cost model are used (copied into the cluster config).
  spinfer::ServingEngineConfig engine;
  int shards = 0;  // > 0: the engine runs over a ShardedEngine
  bool disagg = false;
  int64_t prefill_instances = 0;
  int64_t decode_instances = 0;
  // Completed requests checked token for token against Generate per run.
  int oracle_samples = 1;
  // Wall time of one round on the reference host (4-vCPU Xeon, AVX2); a
  // run of --seconds S plays round(S / nominal_round_s) rounds.
  double nominal_round_s = 1.0;
};

// False for an unknown name.
bool FindWorkload(const std::string& name, Workload* out);
const std::vector<std::string>& WorkloadNames();

// The requests of measured round `round` (0, 1, ...). The same seed and
// round give the same requests. Arrival times follow a fixed schedule per
// round; the seed draws everything else (lengths, token ids, which requests
// the client cancels).
std::vector<Request> MakeTraffic(const Workload& w, uint64_t seed, int64_t round);

// A few short requests at the workload's shapes, run before timing so that
// scratch buffers have grown and pages are resident.
std::vector<Request> MakeWarmup(const Workload& w, uint64_t seed);

spinfer::DisaggClusterConfig DisaggConfigFor(const Workload& w);

}  // namespace servebench
