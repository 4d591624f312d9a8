// Seeded input generation for every workload. Everything a workload feeds
// the program is produced here, from --seed alone, before its timed window
// opens: the same seed yields byte-identical inputs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "sched/batch_job.h"

namespace perfbench {

// ---------------------------------------------------------------- serve-mix

enum class ServeOp : std::uint8_t {
  kSolveK,
  kOci,
  kCheckpointNow,
  kPairWhatif,
  kSubscribe,
};
inline constexpr std::size_t kServeOps = 5;
const char* serve_op_name(ServeOp op);

/// A solve signature: (MTBF, delta_LW, delta_HW).
struct Signature {
  double mtbf_hours = 5.0;
  double delta_lw_s = 0.0;
  double delta_hw_s = 0.0;
};

/// The eight popular signatures solve_k, oci and checkpoint_now draw from;
/// the first is the paper working point pair_whatif and subscribe use.
const std::vector<Signature>& popular_signatures();

/// One client's request lines, pre-rendered into one buffer (a per-line
/// std::string would cost more memory than the daemon under test).
struct RequestScript {
  std::string bytes;
  std::vector<std::uint32_t> ends;  ///< end offset of line i in `bytes`
  std::vector<ServeOp> ops;
  /// Line i is a solve_k whose signature no earlier line carried.
  std::vector<bool> fresh_key;

  std::size_t size() const { return ends.size(); }
  std::string_view line(std::size_t i) const;
};

struct ServeInputs {
  std::vector<RequestScript> clients;
  /// solve_k lines that put every popular signature (and the subscribe
  /// signature) into the daemon's cache before timing starts.
  std::vector<std::string> warmup;
};

/// Per client: 50% solve_k (90% popular signatures, 10% never-seen ones),
/// 10% oci, 10% checkpoint_now, 25% pair_whatif at the paper working point
/// (1000 h, default reps, k from the cache, a fresh seed per request), 5%
/// subscribe (100 h, reps = 2). Request ids are unique across clients.
ServeInputs make_serve_inputs(std::uint64_t seed, std::size_t clients,
                              std::size_t per_client);

// ------------------------------------------------------------- regime-sweep

/// The four (delta_LW, delta_HW) pairs, in seconds, swept per scenario.
struct DeltaPair {
  double lw = 0.0;
  double hw = 0.0;
};
const std::vector<DeltaPair>& sweep_delta_pairs();

/// `n` distinct 64-bit seeds derived from `seed` — one per pass or cell
/// iteration, so repeated passes replay different failure streams.
std::vector<std::uint64_t> derived_seeds(std::uint64_t seed, std::size_t n,
                                         std::uint64_t stream);

// ---------------------------------------------------------------- fleet-10k

/// The exp_fleet_campaign arrival streams: `njobs` jobs from the fleet
/// catalog, Poisson and bursty, mean inter-arrival `interarrival_hours`.
struct FleetStreams {
  std::vector<shiraz::sched::BatchJobSpec> poisson;
  std::vector<shiraz::sched::BatchJobSpec> bursty;
};
FleetStreams make_fleet_streams(std::uint64_t seed, std::size_t njobs,
                                double interarrival_hours);

}  // namespace perfbench
