/// Seeded inputs: the interactive request pool with its reference
/// answers, the grid-job sequence, and result digests.

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "arch/modern.hpp"
#include "arch/registry.hpp"
#include "bench.hpp"
#include "core/classifier.hpp"
#include "core/taxonomy_index.hpp"

namespace perfbench {

namespace {

using mpct::explore::Requirements;

std::vector<mpct::arch::ArchitectureSpec> all_specs() {
  std::vector<mpct::arch::ArchitectureSpec> specs;
  for (const auto& spec : mpct::arch::surveyed_architectures()) {
    specs.push_back(spec);
  }
  for (const auto& spec : mpct::arch::modern_examples()) {
    specs.push_back(spec);
  }
  return specs;
}

std::vector<mpct::MachineClass> implementable_classes() {
  std::vector<mpct::MachineClass> classes;
  for (const auto& row : mpct::taxonomy_index().rows()) {
    if (row.implementable) classes.push_back(row.machine);
  }
  return classes;
}

mpct::MachineClass class_named(const char* text) {
  const auto name = mpct::parse_taxonomic_name(text);
  const auto machine = name ? mpct::canonical_class(*name) : std::nullopt;
  if (!machine) throw std::runtime_error(std::string("no class ") + text);
  return *machine;
}

/// Deterministic choice of entry @p k's request: its kind is k % kKinds
/// (kKindNames order), the seed picks the parameters.
svc::Request pool_request(std::uint64_t seed, std::uint64_t k,
                          const std::vector<mpct::arch::ArchitectureSpec>& specs,
                          const std::vector<mpct::MachineClass>& classes,
                          const std::vector<mpct::MachineClass>& sim_targets) {
  const std::uint64_t h = splitmix(seed * 0x9E3779B97F4A7C15ull + k);
  const std::uint64_t kind = k % kKinds;
  if (kind < 2) {
    // A surveyed spec under a per-entry name: distinct cache keys, same
    // classification work as the original.
    mpct::arch::ArchitectureSpec spec = specs[h % specs.size()];
    spec.name += "/" + std::to_string(k);
    if (kind == 0) return svc::ClassifyRequest::of(std::move(spec));
    return svc::ClassifyRequest::of_adl(mpct::arch::to_adl(spec));
  }
  if (kind == 2) {
    svc::CostRequest cost;
    cost.target = classes[h % classes.size()];
    cost.options.n = 2 + static_cast<std::int64_t>((h >> 8) % 1023);
    cost.options.m = 2 + static_cast<std::int64_t>((h >> 18) % 63);
    cost.options.v = 64 + static_cast<std::int64_t>((h >> 24) % 1024);
    return cost;
  }
  if (kind == 3) {
    svc::RecommendRequest recommend;
    recommend.requirements.n = 2 + static_cast<std::int64_t>(h % 1023);
    recommend.requirements.lut_budget =
        64 + static_cast<std::int64_t>((h >> 10) % 4096);
    recommend.requirements.objective = ((h >> 22) & 1)
                                           ? Requirements::Objective::MinArea
                                           : Requirements::Objective::MinConfigBits;
    recommend.requirements.min_flexibility = static_cast<int>((h >> 23) % 3);
    recommend.top_k = 5;
    return recommend;
  }
  // "Small" simulate: a 4x4 problem, one iteration, width-4 fabric.
  // The size is an assumption, not taken from recorded traffic.
  svc::SimulateRequest simulate;
  simulate.workload.kernel = static_cast<mpct::workload::Kernel>(h % 3);
  simulate.workload.size = 4;
  simulate.workload.iterations = 1;
  simulate.target = sim_targets[(h >> 8) % sim_targets.size()];
  simulate.options.width = 4;
  simulate.seed = k;
  return simulate;
}

}  // namespace

std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

std::uint32_t Pool::draw(std::mt19937_64& rng) const {
  const double u = static_cast<double>(rng() >> 11) * 0x1.0p-53;
  const auto it = std::upper_bound(cdf.begin(), cdf.end(), u);
  const std::size_t rank = std::min<std::size_t>(
      static_cast<std::size_t>(it - cdf.begin()), cdf.size() - 1);
  return by_rank[rank];
}

Pool make_pool(std::uint64_t seed) {
  const auto specs = all_specs();
  const auto classes = implementable_classes();
  const std::vector<mpct::MachineClass> sim_targets = {
      class_named("IUP"), class_named("IAP-IV"), class_named("IMP-IV"),
      class_named("DMP-IV")};

  svc::QueryEngine reference(inline_engine_options());

  Pool pool;
  pool.entries.reserve(kPoolSize);
  for (std::size_t k = 0; k < kPoolSize; ++k) {
    svc::Request request = pool_request(seed, k, specs, classes, sim_targets);
    svc::QueryResponse answer = reference.execute(request);
    if (!answer.ok()) {
      throw std::runtime_error("pool entry " + std::to_string(k) +
                               " has no reference answer: " +
                               answer.status.to_string());
    }
    pool.entries.push_back({std::move(request), std::move(answer.payload), k % kKinds});
  }

  double total = 0;
  pool.cdf.resize(kPoolSize);
  for (std::size_t r = 0; r < kPoolSize; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), kZipfExponent);
    pool.cdf[r] = total;
  }
  for (double& c : pool.cdf) c /= total;

  // Entry k's kind is k % kKinds, so shuffling within each residue
  // class keeps rank r's kind fixed.
  pool.by_rank.resize(kPoolSize);
  std::mt19937_64 rng(splitmix(seed ^ 0x5EEDu));
  for (std::size_t b = 0; b < kKinds; ++b) {
    std::vector<std::uint32_t> members;
    for (std::size_t k = b; k < kPoolSize; k += kKinds) {
      members.push_back(static_cast<std::uint32_t>(k));
    }
    for (std::size_t i = members.size() - 1; i > 0; --i) {
      std::swap(members[i], members[rng() % (i + 1)]);
    }
    for (std::size_t i = 0; i < members.size(); ++i) pool.by_rank[b + kKinds * i] = members[i];
  }
  return pool;
}

svc::Request grid_job(std::uint64_t seed, std::uint64_t j,
                      const GridSize& size) {
  const std::uint64_t h = splitmix(seed * 0xD1B54A32D192ED03ull + j);
  if (j % 2 == 0) {
    // The first LUT budget is unique per job, so no two sweeps share a
    // cache key; the axes only shift, so every sweep costs the same.
    svc::SweepRequest sweep;
    const std::int64_t n0 = 2 + static_cast<std::int64_t>(h % 8);
    const std::int64_t n_step = 1 + static_cast<std::int64_t>((h >> 8) % 3);
    const std::int64_t lut0 = 16 + static_cast<std::int64_t>(j / 2);
    const std::int64_t lut_step = 8 + static_cast<std::int64_t>((h >> 16) % 8);
    for (int i = 0; i < size.n_values; ++i) {
      sweep.grid.n_values.push_back(n0 + i * n_step);
    }
    for (int i = 0; i < size.lut_budgets; ++i) {
      sweep.grid.lut_budgets.push_back(lut0 + i * lut_step);
    }
    sweep.grid.objectives = {Requirements::Objective::MinConfigBits,
                             Requirements::Objective::MinArea};
    return sweep;
  }
  // One machine class for every curve (trial cost depends on it); the
  // Monte-Carlo seed is unique per job.
  svc::FaultSweepRequest curve;
  curve.spec.machine = mpct::taxonomy_index().by_serial(40)->machine;
  for (int i = 0; i < size.fault_rates; ++i) {
    curve.spec.fault_rates.push_back(0.4 * i / std::max(1, size.fault_rates - 1));
  }
  curve.spec.trials_per_rate = size.trials;
  curve.spec.seed = (seed << 32) ^ (j + 1);
  return curve;
}

namespace {

/// 64-bit FNV-1a, local to the benchmark so that digesting responses
/// never times a library function.
struct Fnv {
  std::uint64_t h = 14695981039346656037ull;

  template <typename T>
  void pod(const T& value) {
    const auto* p = reinterpret_cast<const unsigned char*>(&value);
    for (std::size_t i = 0; i < sizeof value; ++i) h = (h ^ p[i]) * 1099511628211ull;
  }
};

void mix_point(Fnv& f, const mpct::explore::SweepPoint& p) {
  f.pod(p.n);
  f.pod(p.lut_budget);
  f.pod(static_cast<int>(p.objective));
  f.pod(p.feasible);
  f.pod(static_cast<int>(p.best.machine_type));
  f.pod(static_cast<int>(p.best.processing_type));
  f.pod(p.best.subtype);
  f.pod(p.flexibility);
  f.pod(p.area_kge);
  f.pod(p.config_bits);
}

std::uint64_t digest(const mpct::explore::SweepResult& result) {
  Fnv f;
  f.pod(result.points.size());
  for (const auto& p : result.points) mix_point(f, p);
  f.pod(result.pareto_front.size());
  for (const auto& p : result.pareto_front) mix_point(f, p);
  f.pod(result.candidate_classes);
  return f.h;
}

std::uint64_t digest(const mpct::fault::CurveResult& result) {
  Fnv f;
  const auto& spec = result.spec;
  f.pod(static_cast<int>(spec.machine.granularity));
  f.pod(static_cast<int>(spec.machine.ips));
  f.pod(static_cast<int>(spec.machine.dps));
  for (auto s : spec.machine.switches) f.pod(static_cast<int>(s));
  f.pod(spec.bindings.n);
  f.pod(spec.bindings.m);
  f.pod(spec.bindings.v);
  f.pod(spec.bindings.include_ip_dp_switch);
  f.pod(spec.noc_width);
  f.pod(spec.noc_height);
  for (double r : spec.fault_rates) f.pod(r);
  f.pod(spec.trials_per_rate);
  f.pod(spec.seed);
  f.pod(result.points.size());
  for (const auto& p : result.points) {
    f.pod(p.fault_rate);
    f.pod(p.trials);
    f.pod(p.yield);
    f.pod(p.mean_flexibility);
    f.pod(p.mean_connectivity);
    f.pod(p.mean_survival);
  }
  return f.h;
}

}  // namespace

std::uint64_t digest(const svc::QueryResponse& response) {
  if (!response.ok() || response.sampled) return 0;
  if (const auto* sweep = response.sweep()) return digest(sweep->result);
  if (const auto* curve = response.fault_sweep()) return digest(curve->result);
  return 0;
}

std::uint64_t reference_digest(const svc::Request& request) {
  if (const auto* sweep = std::get_if<svc::SweepRequest>(&request)) {
    return digest(mpct::explore::sweep(sweep->grid));
  }
  if (const auto* curve = std::get_if<svc::FaultSweepRequest>(&request)) {
    return digest(mpct::fault::evaluate_curve(curve->spec));
  }
  throw std::logic_error("reference_digest: not a grid request");
}

std::vector<std::uint64_t> fingerprint_sequence(const std::string& workload,
                                                std::uint64_t seed,
                                                std::size_t count) {
  std::vector<std::uint64_t> out;
  if (workload == "batch") {
    const GridSize size{8, 8, 3, 4};
    for (std::size_t j = 0; j < count; ++j) {
      out.push_back(svc::fingerprint(grid_job(seed, j, size)));
    }
    return out;
  }
  const Pool pool = make_pool(seed);
  std::mt19937_64 rng(splitmix(seed));
  for (std::size_t i = 0; i < count; ++i) {
    out.push_back(svc::fingerprint(pool.entries[pool.draw(rng)].request));
  }
  return out;
}

}  // namespace perfbench
