#pragma once

// One field list per wire type.  Each `fields(v, x)` below names the
// fields of one type in wire order, once; every walk over a request or a
// response goes through it:
//
//   * wire::Writer / wire::Reader (src/wire/protocol.cpp) encode and
//     decode frames,
//   * MinBytes (below) gives each list element's smallest encoding, the
//     bound the decoder checks an announced element count against,
//   * the fingerprint (service/fingerprint.cpp) hashes a request for the
//     result cache and the cluster's hash ring.
//
// A visitor derives from Visitor<Derived> and supplies one handler per
// field kind; Visitor::operator() sorts each field into its kind:
//
//   kind         wire encoding                      handler
//   scalar       bool/u8/u16/u32/u64 or IEEE f64,   scalar(x)
//                little-endian, sizeof(x) bytes
//   enum         one byte, at most enum_range().max enumeration(x, range)
//   string       u32 length + bytes                 text(x)
//   optional     bool flag + the value when set     optional(x)
//   list         u32 count + elements               list(x)
//   variant      u8 alternative index + that        variant(x)
//                alternative; kSinceVersion gates
//                the index by frame version
//
// std::array fields are their elements back to back, a struct is its own
// field list, and std::chrono durations travel as their tick count.
//
// Types that rebuild on decode keep that in their one fields function
// (branching on V::kReads): arch::Count through its factories,
// fault::FaultSet through its canonicalising constructor, Status with
// its code-range check and trace::ExportSpan with its kInstant check.
// docs/NET.md describes how to add a field or a type.

#include <algorithm>
#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <type_traits>
#include <variant>
#include <vector>

#include "qos/priority.hpp"
#include "service/request.hpp"
#include "trace/export.hpp"

namespace mpct::service::schema {

// ---------------------------------------------------------------------------
// Enum ranges: a decoder rejects a byte above `max` as Malformed, so a
// bit-flipped frame cannot materialise an out-of-domain enumerator.

struct EnumRange {
  std::uint8_t max;
  const char* name;
};

constexpr EnumRange enum_range(Granularity) { return {1, "Granularity"}; }
constexpr EnumRange enum_range(Multiplicity) { return {3, "Multiplicity"}; }
constexpr EnumRange enum_range(SwitchKind) { return {2, "SwitchKind"}; }
constexpr EnumRange enum_range(MachineType) { return {2, "MachineType"}; }
constexpr EnumRange enum_range(ProcessingType) {
  return {3, "ProcessingType"};
}
constexpr EnumRange enum_range(ConnectivityRole) {
  return {kConnectivityRoleCount - 1, "ConnectivityRole"};
}
constexpr EnumRange enum_range(explore::Requirements::Objective) {
  return {1, "Requirements::Objective"};
}
constexpr EnumRange enum_range(fault::FaultKind) {
  return {fault::kFaultKindCount - 1, "FaultKind"};
}
constexpr EnumRange enum_range(workload::Kernel) {
  return {workload::kKernelCount - 1, "Kernel"};
}
constexpr EnumRange enum_range(workload::Paradigm) {
  return {workload::kParadigmCount - 1, "Paradigm"};
}
constexpr EnumRange enum_range(trace::Category) {
  return {trace::kCategoryCount - 1, "Category"};
}
constexpr EnumRange enum_range(qos::PriorityClass) {
  return {qos::kPriorityClassCount - 1, "PriorityClass"};
}

// ---------------------------------------------------------------------------
// Variants.  A variant alternative may carry the wire version that
// introduced it: a frame of an older version that names it is
// Malformed, since no peer of that version could have sent it.

template <class T>
inline constexpr std::uint16_t kSinceVersion = 1;
template <>
inline constexpr std::uint16_t kSinceVersion<SweepChunkRequest> = 2;
template <>
inline constexpr std::uint16_t kSinceVersion<FaultChunkRequest> = 2;
template <>
inline constexpr std::uint16_t kSinceVersion<SimulateRequest> = 2;
template <>
inline constexpr std::uint16_t kSinceVersion<SweepChunkResponse> = 2;
template <>
inline constexpr std::uint16_t kSinceVersion<FaultChunkResponse> = 2;
template <>
inline constexpr std::uint16_t kSinceVersion<SimulateResponse> = 2;

/// Name of a variant field in decode error messages.
template <class Variant>
inline constexpr const char* kVariantName = "variant";
template <>
inline constexpr const char* kVariantName<Request> = "RequestType";
template <>
inline constexpr const char* kVariantName<ResponsePayload> =
    "ResponsePayload";
template <>
inline constexpr const char*
    kVariantName<std::variant<arch::ArchitectureSpec, std::string>> =
        "ClassifyRequest input";
template <>
inline constexpr const char*
    kVariantName<std::variant<MachineClass, arch::ArchitectureSpec>> =
        "target";

// ---------------------------------------------------------------------------
// Field lists, in wire order.

template <class V>
void fields(V& v, arch::Count& count) {
  // The fields are private: read all three, then rebuild through the
  // factories, which leave unused fields at their defaults — so a
  // rebuild is ==-faithful to any factory-built original.
  auto kind = static_cast<std::uint8_t>(count.kind());
  std::int64_t value = count.value();  // fixed value or scale factor
  auto symbol = static_cast<std::uint8_t>(count.symbol());
  v(kind, value, symbol);
  if constexpr (V::kReads) {
    if (!v.ok()) return;
    const char letter = static_cast<char>(symbol);
    switch (static_cast<arch::Count::Kind>(kind)) {
      case arch::Count::Kind::Fixed:
        count = arch::Count::fixed(value);
        return;
      case arch::Count::Kind::Symbolic:
        count = arch::Count::symbolic(letter);
        return;
      case arch::Count::Kind::ScaledSymbolic:
        count = arch::Count::scaled_symbolic(value, letter);
        return;
      case arch::Count::Kind::Variable:
        count = arch::Count::variable();
        return;
    }
    v.fail("bad Count kind " + std::to_string(kind));
  }
}

template <class V>
void fields(V& v, arch::ConnectivityExpr& expr) {
  v(expr.kind, expr.left, expr.right);
}

template <class V>
void fields(V& v, arch::ArchitectureSpec& spec) {
  v(spec.name, spec.citation, spec.description, spec.year, spec.category,
    spec.granularity, spec.ips, spec.dps, spec.connectivity,
    spec.paper_name, spec.paper_flexibility);
}

template <class V>
void fields(V& v, MachineClass& mc) {
  v(mc.granularity, mc.ips, mc.dps, mc.switches);
}

template <class V>
void fields(V& v, TaxonomicName& name) {
  v(name.machine_type, name.processing_type, name.subtype);
}

template <class V>
void fields(V& v, Classification& classification) {
  v(classification.name, classification.implementable, classification.note);
}

template <class V>
void fields(V& v, FlexibilityBreakdown& flex) {
  v(flex.many_ips, flex.many_dps, flex.crossbar_switches,
    flex.variability_bonus);
}

template <class V>
void fields(V& v, explore::Requirements& req) {
  v(req.min_flexibility, req.paradigm, req.needs_independent_programs,
    req.needs_pe_exchange, req.needs_shared_memory, req.n, req.lut_budget,
    req.objective);
}

template <class V>
void fields(V& v, explore::Recommendation& rec) {
  v(rec.name, rec.flexibility, rec.area_kge, rec.config_bits, rec.rationale);
}

template <class V>
void fields(V& v, cost::EstimateOptions& options) {
  v(options.n, options.m, options.v, options.include_ip_dp_switch);
}

template <class V>
void fields(V& v, cost::AreaEstimate& area) {
  v(area.ip_blocks, area.im_blocks, area.dp_blocks, area.dm_blocks,
    area.lut_blocks, area.ip_ip_switch, area.ip_im_switch, area.ip_dp_switch,
    area.dp_dm_switch, area.dp_dp_switch, area.n_ips, area.n_dps,
    area.n_ims, area.n_dms, area.n_luts);
}

template <class V>
void fields(V& v, cost::ConfigBitsEstimate& bits) {
  v(bits.ip_blocks, bits.im_blocks, bits.dp_blocks, bits.dm_blocks,
    bits.lut_blocks, bits.ip_ip_switch, bits.ip_im_switch, bits.ip_dp_switch,
    bits.dp_dm_switch, bits.dp_dp_switch);
}

template <class V>
void fields(V& v, explore::SweepGrid& grid) {
  v(grid.base, grid.n_values, grid.lut_budgets, grid.objectives);
}

template <class V>
void fields(V& v, explore::SweepPoint& point) {
  v(point.n, point.lut_budget, point.objective, point.feasible, point.best,
    point.flexibility, point.area_kge, point.config_bits);
}

template <class V>
void fields(V& v, explore::SweepResult& result) {
  v(result.points, result.pareto_front, result.candidate_classes);
}

template <class V>
void fields(V& v, fault::CurveSpec& spec) {
  v(spec.machine, spec.bindings, spec.noc_width, spec.noc_height,
    spec.fault_rates, spec.trials_per_rate, spec.seed);
}

template <class V>
void fields(V& v, fault::CurvePoint& point) {
  v(point.fault_rate, point.trials, point.yield, point.mean_flexibility,
    point.mean_connectivity, point.mean_survival);
}

template <class V>
void fields(V& v, fault::CurveResult& result) {
  v(result.spec, result.points);
}

template <class V>
void fields(V& v, fault::TrialOutcome& outcome) {
  v(outcome.alive, outcome.degraded_score, outcome.flexibility_retention,
    outcome.component_survival, outcome.connectivity);
}

template <class V>
void fields(V& v, fault::Fault& fault) {
  v(fault.kind, fault.role, fault.index, fault.index2);
}

template <class V>
void fields(V& v, fault::FaultSet& set) {
  if constexpr (V::kReads) {
    // The constructor canonicalises (sorts, dedups), so a peer that sent
    // the faults in any order still decodes to an equal set.
    std::vector<fault::Fault> faults;
    v(faults);
    set = fault::FaultSet(std::move(faults));
  } else {
    std::span<const fault::Fault> faults = set.faults();
    v(faults);
  }
}

template <class V>
void fields(V& v, workload::WorkloadSpec& spec) {
  v(spec.kernel, spec.size, spec.iterations, spec.alpha);
}

template <class V>
void fields(V& v, workload::RunOptions& options) {
  v(options.width, options.max_cycles);
}

template <class V>
void fields(V& v, workload::WorkloadResult& r) {
  v(r.paradigm, r.machine, r.cycles, r.instructions, r.halted,
    r.output_words, r.output_checksum, r.matches_reference,
    r.memory_accesses, r.messages, r.energy_pj, r.noc_reachable_fraction);
}

template <class V>
void fields(V& v, Status& status) {
  // retry_after_ms is not here: it rides the v2 response trailer.
  auto code = static_cast<std::int32_t>(status.code);
  v(code);
  if constexpr (V::kReads) {
    if (v.ok() &&
        (code < 0 || code > static_cast<std::int32_t>(StatusCode::Cancelled))) {
      v.fail("bad StatusCode value " + std::to_string(code));
    }
    status.code = static_cast<StatusCode>(code);
  }
  v(status.message);
}

template <class V>
void fields(V& v, ClassifyRequest& request) {
  v(request.input);
}

template <class V>
void fields(V& v, RecommendRequest& request) {
  v(request.requirements, request.top_k);
}

template <class V>
void fields(V& v, CostRequest& request) {
  v(request.target, request.options, request.n_sweep);
}

template <class V>
void fields(V& v, SweepRequest& request) {
  v(request.grid);
}

template <class V>
void fields(V& v, FaultSweepRequest& request) {
  v(request.spec);
}

template <class V>
void fields(V& v, SweepChunkRequest& request) {
  v(request.grid, request.begin, request.end);
}

template <class V>
void fields(V& v, FaultChunkRequest& request) {
  v(request.spec, request.begin, request.end);
}

template <class V>
void fields(V& v, SimulateRequest& request) {
  v(request.workload, request.target, request.options, request.faults,
    request.seed);
}

template <class V>
void fields(V& v, ClassifyResponse& response) {
  v(response.spec, response.classification, response.flexibility);
}

template <class V>
void fields(V& v, RecommendResponse& response) {
  v(response.recommendations);
}

template <class V>
void fields(V& v, CostResponse::Point& point) {
  v(point.n, point.area, point.config_bits);
}

template <class V>
void fields(V& v, CostResponse& response) {
  v(response.points);
}

template <class V>
void fields(V& v, SweepResponse& response) {
  v(response.result);
}

template <class V>
void fields(V& v, FaultSweepResponse& response) {
  v(response.result);
}

template <class V>
void fields(V& v, SweepChunkResponse& response) {
  v(response.points, response.candidate_classes);
}

template <class V>
void fields(V& v, FaultChunkResponse& response) {
  v(response.outcomes);
}

template <class V>
void fields(V& v, SimulateResponse& response) {
  v(response.result);
}

template <class V>
void fields(V& v, QueryResponse& response) {
  // A null payload travels as alternative 0 (monostate) and decodes back
  // to null.  `sampled` and the retry-after hint ride the v2 trailer.
  if constexpr (V::kReads) {
    auto payload = std::make_shared<ResponsePayload>();
    v(response.status, response.cache_hit, response.latency, *payload);
    if (payload->index() != 0) response.payload = std::move(payload);
  } else {
    static const ResponsePayload kNone;
    v(response.status, response.cache_hit, response.latency,
      response.payload ? *response.payload : kNone);
  }
}

template <class V>
void fields(V& v, trace::ExportSpan& span) {
  v(span.name, span.arg_name, span.arg, span.id, span.parent, span.trace_id,
    span.thread, span.category, span.start_ns, span.dur_ns);
  if constexpr (V::kReads) {
    if (span.dur_ns < trace::Span::kInstant) {
      v.fail("span duration below kInstant");
    }
  }
}

template <class V>
void fields(V& v, trace::SpanBatch& batch) {
  v(batch.node, batch.send_ns, batch.dropped, batch.spans);
}

// ---------------------------------------------------------------------------
// Visitors.

template <class T>
struct IsList : std::false_type {};
template <class T>
struct IsList<std::vector<T>> : std::true_type {};
template <class T>
struct IsList<std::span<T>> : std::true_type {};

template <class T>
struct IsArray : std::false_type {};
template <class T, std::size_t N>
struct IsArray<std::array<T, N>> : std::true_type {};

template <class T>
struct IsOptional : std::false_type {};
template <class T>
struct IsOptional<std::optional<T>> : std::true_type {};

template <class T>
struct IsVariant : std::false_type {};
template <class... Ts>
struct IsVariant<std::variant<Ts...>> : std::true_type {};

template <class T>
struct IsDuration : std::false_type {};
template <class Rep, class Period>
struct IsDuration<std::chrono::duration<Rep, Period>> : std::true_type {};

/// Sorts each field into its kind and hands it to Derived's handler.
/// Derived declares `static constexpr bool kReads`: true only for the
/// decoder, the one visitor that writes into the fields it visits.  The
/// others may be handed const objects, which this base walks as
/// non-const so that every type needs one fields() function, not two;
/// they never modify what they visit.
template <class Derived>
class Visitor {
 public:
  template <class... Ts>
  void operator()(Ts&... xs) {
    (visit(xs), ...);
  }

 private:
  template <class T>
  void visit(T& x) {
    static_assert(!(Derived::kReads && std::is_const_v<T>),
                  "a decoder needs mutable fields");
    using U = std::remove_const_t<T>;
    U& field = const_cast<U&>(x);
    Derived& self = static_cast<Derived&>(*this);
    if constexpr (std::is_enum_v<U>) {
      self.enumeration(field, enum_range(U{}));
    } else if constexpr (std::is_arithmetic_v<U>) {
      self.scalar(field);
    } else if constexpr (std::is_same_v<U, std::string>) {
      self.text(field);
    } else if constexpr (std::is_same_v<U, std::monostate>) {
      // no fields
    } else if constexpr (IsOptional<U>::value) {
      self.optional(field);
    } else if constexpr (IsList<U>::value) {
      self.list(field);
    } else if constexpr (IsArray<U>::value) {
      for (auto& element : field) visit(element);
    } else if constexpr (IsVariant<U>::value) {
      self.variant(field);
    } else if constexpr (IsDuration<U>::value) {
      auto ticks = field.count();
      self.scalar(ticks);
      if constexpr (Derived::kReads) field = U(ticks);
    } else {
      fields(self, field);
    }
  }
};

template <class T>
std::size_t min_bytes();

/// Smallest encoding of a type: the bound wire::Reader checks each list's
/// announced element count against, so a hostile count can never drive
/// a large allocation.  Lists, strings and optionals count as empty; a
/// variant as its smallest alternative.
class MinBytes : public Visitor<MinBytes> {
 public:
  static constexpr bool kReads = false;
  std::size_t total = 0;

  template <class T>
  void scalar(T&) {
    total += sizeof(T);
  }
  template <class E>
  void enumeration(E&, EnumRange) {
    total += 1;
  }
  void text(std::string&) { total += 4; }
  template <class T>
  void optional(std::optional<T>&) {
    total += 1;
  }
  template <class L>
  void list(L&) {
    total += 4;
  }
  template <class... Ts>
  void variant(std::variant<Ts...>&) {
    total += 1 + std::min({min_bytes<Ts>()...});
  }
};

template <class T>
std::size_t min_bytes() {
  static const std::size_t bytes = [] {
    MinBytes sizer;
    T value{};
    sizer(value);
    return sizer.total;
  }();
  return bytes;
}

}  // namespace mpct::service::schema
