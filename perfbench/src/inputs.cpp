#include "inputs.h"

#include "common/json.h"
#include "common/rng.h"
#include "common/units.h"
#include "sched/arrivals.h"

namespace perfbench {

using shiraz::JsonWriter;
using shiraz::Rng;

const char* serve_op_name(ServeOp op) {
  switch (op) {
    case ServeOp::kSolveK: return "solve_k";
    case ServeOp::kOci: return "oci";
    case ServeOp::kCheckpointNow: return "checkpoint_now";
    case ServeOp::kPairWhatif: return "pair_whatif";
    case ServeOp::kSubscribe: return "subscribe";
  }
  return "?";
}

const std::vector<Signature>& popular_signatures() {
  static const std::vector<Signature> kSignatures = {
      {5.0, 18.0, 1800.0},  {5.0, 72.0, 1800.0},  {5.0, 18.0, 7200.0},
      {20.0, 18.0, 1800.0}, {20.0, 72.0, 7200.0}, {5.0, 6.0, 600.0},
      {20.0, 6.0, 600.0},   {5.0, 36.0, 3600.0},
  };
  return kSignatures;
}

std::string_view RequestScript::line(std::size_t i) const {
  const std::size_t begin = i == 0 ? 0 : ends[i - 1];
  return std::string_view(bytes).substr(begin, ends[i] - begin);
}

namespace {

void put_signature(JsonWriter& w, const Signature& s) {
  w.kv("mtbf_hours", s.mtbf_hours);
  w.kv("delta_lw_s", s.delta_lw_s);
  w.kv("delta_hw_s", s.delta_hw_s);
}

/// The subscribe signature: the working point on a 100 h horizon.
void put_subscribe(JsonWriter& w) {
  put_signature(w, popular_signatures().front());
  w.kv("t_total_hours", 100.0);
}

}  // namespace

ServeInputs make_serve_inputs(std::uint64_t seed, std::size_t clients,
                              std::size_t per_client) {
  const std::vector<Signature>& popular = popular_signatures();
  ServeInputs in;
  for (const Signature& s : popular) {
    JsonWriter w(0);
    w.begin_object();
    w.kv("op", "solve_k");
    put_signature(w, s);
    w.end_object();
    in.warmup.push_back(w.str());
  }
  {
    JsonWriter w(0);
    w.begin_object();
    w.kv("op", "solve_k");
    put_subscribe(w);
    w.end_object();
    in.warmup.push_back(w.str());
  }

  // Whatif seeds stay below 2^53 so they survive the protocol's doubles.
  const std::uint64_t seed_base = (seed & 0xFFFFF) << 24;
  in.clients.resize(clients);
  for (std::size_t c = 0; c < clients; ++c) {
    RequestScript& script = in.clients[c];
    // Sized once (lines average ~100 bytes) so that growth leaves no freed
    // buffers behind to blur the run's peak resident set.
    script.bytes.reserve(128 * per_client);
    script.ends.reserve(per_client);
    script.ops.reserve(per_client);
    script.fresh_key.reserve(per_client);
    Rng rng = Rng(seed).fork(1000 + c);
    for (std::size_t i = 0; i < per_client; ++i) {
      const std::uint64_t serial = c * per_client + i;
      const double u = rng.uniform();
      const Signature& sig = popular[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(popular.size()) - 1))];
      bool fresh = false;
      JsonWriter w(0);
      w.begin_object();
      ServeOp op;
      if (u < 0.50) {
        op = ServeOp::kSolveK;
        w.kv("op", "solve_k");
        if (rng.uniform() < 0.9) {
          put_signature(w, sig);
        } else {
          // Fractional delta_HW values no popular (integral) signature and
          // no other request carries: a guaranteed cache miss.
          fresh = true;
          put_signature(w, Signature{5.0, 18.0,
                                     1800.25 + 1e-3 * static_cast<double>(serial)});
        }
      } else if (u < 0.60) {
        op = ServeOp::kOci;
        w.kv("op", "oci");
        w.kv("mtbf_hours", sig.mtbf_hours);
        w.kv("delta_s", sig.delta_hw_s);
      } else if (u < 0.70) {
        op = ServeOp::kCheckpointNow;
        w.kv("op", "checkpoint_now");
        w.kv("mtbf_hours", sig.mtbf_hours);
        w.kv("delta_s", sig.delta_hw_s);
        w.kv("since_ckpt_s", 3600.0 * rng.uniform());
      } else if (u < 0.95) {
        op = ServeOp::kPairWhatif;
        w.kv("op", "pair_whatif");
        put_signature(w, popular.front());
        w.kv("seed", seed_base + serial);
      } else {
        op = ServeOp::kSubscribe;
        w.kv("op", "subscribe");
        put_subscribe(w);
        w.kv("reps", std::uint64_t{2});
        w.kv("seed", seed_base + serial);
      }
      w.kv("id", static_cast<double>(serial));
      w.end_object();
      script.bytes += w.str();
      script.ends.push_back(static_cast<std::uint32_t>(script.bytes.size()));
      script.ops.push_back(op);
      script.fresh_key.push_back(fresh);
    }
  }
  return in;
}

const std::vector<DeltaPair>& sweep_delta_pairs() {
  static const std::vector<DeltaPair> kPairs = {
      {18.0, 1800.0}, {6.0, 600.0}, {36.0, 3600.0}, {72.0, 7200.0}};
  return kPairs;
}

std::vector<std::uint64_t> derived_seeds(std::uint64_t seed, std::size_t n,
                                         std::uint64_t stream) {
  std::vector<std::uint64_t> out;
  out.reserve(n);
  const Rng root = Rng(seed).fork(stream);
  for (std::size_t i = 0; i < n; ++i) out.push_back(root.fork(i).seed());
  return out;
}

FleetStreams make_fleet_streams(std::uint64_t seed, std::size_t njobs,
                                double interarrival_hours) {
  using namespace shiraz::sched;
  const std::vector<JobClass> catalog = fleet_catalog();
  FleetStreams out;
  for (const ArrivalRegime regime :
       {ArrivalRegime::kPoisson, ArrivalRegime::kBursty}) {
    ArrivalConfig acfg;
    acfg.regime = regime;
    acfg.mean_interarrival = shiraz::hours(interarrival_hours);
    // exp_fleet_campaign's stream derivation, so a seed names the same jobs.
    Rng rng = Rng(seed).fork(regime == ArrivalRegime::kPoisson ? 101 : 102);
    (regime == ArrivalRegime::kPoisson ? out.poisson : out.bursty) =
        generate_arrivals(catalog, acfg, njobs, rng);
  }
  return out;
}

}  // namespace perfbench
