#pragma once
/// Per-layer measurements of the traced run (layers.cpp).

#include <utility>
#include <vector>

#include "bench.hpp"

namespace perfbench {

/// Per-request-type wire metrics: name suffix and unit.
inline constexpr std::pair<const char*, const char*> kWireMetrics[] = {
    {"request_encode_ns", "ns"},  {"request_decode_ns", "ns"},
    {"response_encode_ns", "ns"}, {"response_decode_ns", "ns"},
    {"request_bytes", "B"},       {"response_bytes", "B"}};
inline constexpr const char* kInteractiveTypes[] = {"classify", "recommend",
                                                    "cost", "simulate"};
inline constexpr const char* kGridTypes[] = {"sweep", "fault_sweep"};
inline constexpr const char* kChunkTypes[] = {"sweep_chunk", "fault_chunk"};

/// A request with the response the server would send for it.
struct Example {
  svc::Request request;
  svc::QueryResponse response;
};

void na_wire(Report& report, const std::string& type, const std::string& reason);

/// wire.* of the examples' request type: encode/decode time per frame
/// and mean frame size.
void wire_layers(Report& report, const std::vector<Example>& examples);

/// service.execute_us.<type>: inline QueryEngine::execute, cache off.
void execute_layers(Report& report, const std::vector<const svc::Request*>& requests);

/// service.fingerprint_ns: service::fingerprint over @p requests.
void fingerprint_layer(Report& report, const std::vector<const svc::Request*>& requests,
                       const std::string& what);

/// Layers the point queries cross: wire and execute per type,
/// fingerprint, core/arch/cost/workload library calls.
void pool_layers(Report& report, const Pool& pool);

struct GridTimes {
  double sweep_ns_per_cell = 0;
  double curve_ns_per_trial = 0;
};

/// Single-thread library cost of the grid jobs (explore / fault), their
/// inline execute time and, when @p chunks > 0 (the fleet's scatter
/// factor), the wire cost of whole and chunk frames plus the merge cost.
GridTimes grid_layers(Report& report, std::uint64_t seed, const GridSize& size,
                      std::size_t chunks);

/// submit_async -> callback time of one request on @p engine.
double engine_round_trip_us(svc::QueryEngine& engine, const svc::Request& request,
                            const svc::ResponsePayload* reference,
                            Verdict& verdict);

}  // namespace perfbench
