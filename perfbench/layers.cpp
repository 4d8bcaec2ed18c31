// The traced run of the rcons benchmark: layer timers for rcons_cli.
//
// This file has no main(). CMakeLists.txt links it with the object file of
// the shipped rcons_cli (tools/rcons_cli.cpp, compiled by the rcons build
// itself) into rcons_cli_traced, and passes the linker --wrap for every
// symbol named by a WRAPPED_* macro below. A call from one translation
// unit of the libraries into one of these public functions then lands in
// the __wrap_ function here, which times the real function and counts it.
// The traced binary therefore runs exactly the code paths, options and
// defaults of the shipped CLI; only the timers are added.
//
// At exit the totals are appended as one JSON line to the file named by
// $PERFBENCH_LAYERS_OUT (nothing is written when it is unset).
//
// Times are exclusive: a wrapped call made while another wrapped layer is
// running counts toward the outer layer only, so the layer times can be
// summed. campaign::walk_box is the exception: it calls back into the
// campaign for every genome, so its own time is its total minus the
// callbacks and the canonicalisations it makes.
//
// A wrapped function whose signature changes no longer links (the
// __real_ symbol is missing), so the traced build fails instead of
// timing something else. A call that stops crossing a translation-unit
// boundary is no longer seen; run.py's consistency checks catch that.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <string>
#include <vector>

#include "analysis/static_bounds/static_bounds.hpp"
#include "campaign/checkpoint.hpp"
#include "campaign/enumerate.hpp"
#include "hierarchy/discerning.hpp"
#include "hierarchy/recording.hpp"
#include "reduction/type_canon.hpp"
#include "valency/model_checker.hpp"

// The wrapped symbols (Itanium mangling). CMakeLists.txt reads this list.
#define WRAPPED_WALK_BOX \
  "_ZN5rcons8campaign8walk_boxERKNS0_3BoxEmRKSt8functionIFbRKNS0_9CandidateEEE"
#define WRAPPED_CANONICALIZE_TYPE \
  "_ZN5rcons9reduction17canonicalize_typeERKNS_4spec10ObjectTypeEm"
#define WRAPPED_WRITE_CHECKPOINT \
  "_ZN5rcons8campaign16write_checkpointERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEERKNS0_15ShardCheckpointEPS6_"
#define WRAPPED_ANALYZE_STATIC_BOUNDS \
  "_ZN5rcons8analysis21analyze_static_boundsERKNS_4spec10ObjectTypeERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEE"
#define WRAPPED_CHECK_DISCERNING \
  "_ZN5rcons9hierarchy16check_discerningERKNS_4spec10ObjectTypeEiNS0_12SymmetryModeEiPKNS1_11PackedDeltaE"
#define WRAPPED_CHECK_RECORDING \
  "_ZN5rcons9hierarchy15check_recordingERKNS_4spec10ObjectTypeEiNS0_12SymmetryModeEiPKNS1_11PackedDeltaE"
#define WRAPPED_CHECK_SAFETY \
  "_ZN5rcons7valency12check_safetyERKNS_4exec8ProtocolERKSt6vectorIiSaIiEERKNS0_13SafetyOptionsE"
#define WRAPPED_CHECK_RECOVERABLE_WAIT_FREEDOM \
  "_ZN5rcons7valency30check_recoverable_wait_freedomERKNS_4exec8ProtocolERKSt6vectorIiSaIiEERKNS0_15LivenessOptionsE"

namespace {

using namespace rcons;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// One layer's exclusive time and call count.
struct Layer {
  double seconds = 0;
  long long calls = 0;
};

struct Totals {
  Layer walk, canon, bounds, discerning, recording, checkpoint, safety,
      liveness;
  long long genomes = 0;
  long long checkpoint_bytes = 0;
  long long states = 0;
  long long configs_probed = 0;

  // Writes the totals when the traced process exits.
  ~Totals() {
    const char* path = std::getenv("PERFBENCH_LAYERS_OUT");
    if (path == nullptr || *path == '\0') return;
    std::FILE* out = std::fopen(path, "a");
    if (out == nullptr) return;
    std::fprintf(out, "{");
    const std::pair<const char*, const Layer*> layers[] = {
        {"walk", &walk},          {"canon", &canon},
        {"bounds", &bounds},      {"discerning", &discerning},
        {"recording", &recording}, {"checkpoint", &checkpoint},
        {"safety", &safety},      {"liveness", &liveness}};
    for (const auto& [name, layer] : layers) {
      std::fprintf(out, "\"%s_s\":%.9f,\"%s_calls\":%lld,", name,
                   layer->seconds, name, layer->calls);
    }
    std::fprintf(out,
                 "\"genomes\":%lld,\"checkpoint_bytes\":%lld,"
                 "\"states\":%lld,\"configs_probed\":%lld}\n",
                 genomes, checkpoint_bytes, states, configs_probed);
    std::fclose(out);
  }
};

Totals totals;
thread_local int depth = 0;  // wrapped layers running on this thread

/// Times the scope into `layer` unless an outer layer is already timing.
class Scope {
 public:
  explicit Scope(Layer* layer)
      : layer_(depth == 0 ? layer : nullptr), start_(Clock::now()) {
    ++depth;
  }
  ~Scope() {
    --depth;
    if (layer_ != nullptr) {
      layer_->seconds += seconds_since(start_);
      layer_->calls += 1;
    }
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Layer* layer_;
  Clock::time_point start_;
};

}  // namespace

// The real functions under their __real_ names, and the wrappers under
// their __wrap_ names. Each wrapper forwards its arguments unchanged.

void real_walk_box(const campaign::Box&, std::uint64_t,
                   const std::function<bool(const campaign::Candidate&)>&)
    __asm__("__real_" WRAPPED_WALK_BOX);
void wrap_walk_box(const campaign::Box& box, std::uint64_t from,
                   const std::function<bool(const campaign::Candidate&)>& fn)
    __asm__("__wrap_" WRAPPED_WALK_BOX);
void wrap_walk_box(const campaign::Box& box, std::uint64_t from,
                   const std::function<bool(const campaign::Candidate&)>& fn) {
  const auto start = Clock::now();
  const double canon_before = totals.canon.seconds;
  double callbacks_s = 0, canon_in_callbacks_s = 0;
  real_walk_box(box, from, [&](const campaign::Candidate& c) {
    const auto t0 = Clock::now();
    const double c0 = totals.canon.seconds;
    const bool more = fn(c);
    canon_in_callbacks_s += totals.canon.seconds - c0;
    callbacks_s += seconds_since(t0);
    totals.genomes += 1;
    return more;
  });
  const double canon_in_walk_s =
      totals.canon.seconds - canon_before - canon_in_callbacks_s;
  totals.walk.seconds += seconds_since(start) - callbacks_s - canon_in_walk_s;
  totals.walk.calls += 1;
}

reduction::CanonicalForm real_canonicalize_type(const spec::ObjectType&,
                                                std::size_t)
    __asm__("__real_" WRAPPED_CANONICALIZE_TYPE);
reduction::CanonicalForm wrap_canonicalize_type(const spec::ObjectType& type,
                                                std::size_t budget)
    __asm__("__wrap_" WRAPPED_CANONICALIZE_TYPE);
reduction::CanonicalForm wrap_canonicalize_type(const spec::ObjectType& type,
                                                std::size_t budget) {
  Scope scope(&totals.canon);
  return real_canonicalize_type(type, budget);
}

bool real_write_checkpoint(const std::string&, const campaign::ShardCheckpoint&,
                           std::string*)
    __asm__("__real_" WRAPPED_WRITE_CHECKPOINT);
bool wrap_write_checkpoint(const std::string& path,
                           const campaign::ShardCheckpoint& checkpoint,
                           std::string* error)
    __asm__("__wrap_" WRAPPED_WRITE_CHECKPOINT);
bool wrap_write_checkpoint(const std::string& path,
                           const campaign::ShardCheckpoint& checkpoint,
                           std::string* error) {
  bool ok;
  {
    Scope scope(&totals.checkpoint);
    ok = real_write_checkpoint(path, checkpoint, error);
  }
  // The snapshot's size, read outside the timed call.
  std::error_code ec;
  const auto bytes = std::filesystem::file_size(path, ec);
  if (ok && !ec) totals.checkpoint_bytes += static_cast<long long>(bytes);
  return ok;
}

analysis::BoundsReport real_analyze_static_bounds(const spec::ObjectType&,
                                                  const std::string&)
    __asm__("__real_" WRAPPED_ANALYZE_STATIC_BOUNDS);
analysis::BoundsReport wrap_analyze_static_bounds(
    const spec::ObjectType& type, const std::string& subject)
    __asm__("__wrap_" WRAPPED_ANALYZE_STATIC_BOUNDS);
analysis::BoundsReport wrap_analyze_static_bounds(
    const spec::ObjectType& type, const std::string& subject) {
  Scope scope(&totals.bounds);
  return real_analyze_static_bounds(type, subject);
}

hierarchy::DiscerningResult real_check_discerning(const spec::ObjectType&, int,
                                                  hierarchy::SymmetryMode, int,
                                                  const spec::PackedDelta*)
    __asm__("__real_" WRAPPED_CHECK_DISCERNING);
hierarchy::DiscerningResult wrap_check_discerning(
    const spec::ObjectType& type, int n, hierarchy::SymmetryMode mode,
    int threads, const spec::PackedDelta* packed)
    __asm__("__wrap_" WRAPPED_CHECK_DISCERNING);
hierarchy::DiscerningResult wrap_check_discerning(
    const spec::ObjectType& type, int n, hierarchy::SymmetryMode mode,
    int threads, const spec::PackedDelta* packed) {
  Scope scope(&totals.discerning);
  return real_check_discerning(type, n, mode, threads, packed);
}

hierarchy::RecordingResult real_check_recording(const spec::ObjectType&, int,
                                                hierarchy::SymmetryMode, int,
                                                const spec::PackedDelta*)
    __asm__("__real_" WRAPPED_CHECK_RECORDING);
hierarchy::RecordingResult wrap_check_recording(
    const spec::ObjectType& type, int n, hierarchy::SymmetryMode mode,
    int threads, const spec::PackedDelta* packed)
    __asm__("__wrap_" WRAPPED_CHECK_RECORDING);
hierarchy::RecordingResult wrap_check_recording(
    const spec::ObjectType& type, int n, hierarchy::SymmetryMode mode,
    int threads, const spec::PackedDelta* packed) {
  Scope scope(&totals.recording);
  return real_check_recording(type, n, mode, threads, packed);
}

valency::SafetyResult real_check_safety(const exec::Protocol&,
                                        const std::vector<int>&,
                                        const valency::SafetyOptions&)
    __asm__("__real_" WRAPPED_CHECK_SAFETY);
valency::SafetyResult wrap_check_safety(const exec::Protocol& protocol,
                                        const std::vector<int>& inputs,
                                        const valency::SafetyOptions& options)
    __asm__("__wrap_" WRAPPED_CHECK_SAFETY);
valency::SafetyResult wrap_check_safety(const exec::Protocol& protocol,
                                        const std::vector<int>& inputs,
                                        const valency::SafetyOptions& options) {
  const bool outermost = depth == 0;
  valency::SafetyResult result;
  {
    Scope scope(&totals.safety);
    result = real_check_safety(protocol, inputs, options);
  }
  if (outermost) totals.states += static_cast<long long>(result.states_visited);
  return result;
}

valency::LivenessResult real_check_recoverable_wait_freedom(
    const exec::Protocol&, const std::vector<int>&,
    const valency::LivenessOptions&)
    __asm__("__real_" WRAPPED_CHECK_RECOVERABLE_WAIT_FREEDOM);
valency::LivenessResult wrap_check_recoverable_wait_freedom(
    const exec::Protocol& protocol, const std::vector<int>& inputs,
    const valency::LivenessOptions& options)
    __asm__("__wrap_" WRAPPED_CHECK_RECOVERABLE_WAIT_FREEDOM);
valency::LivenessResult wrap_check_recoverable_wait_freedom(
    const exec::Protocol& protocol, const std::vector<int>& inputs,
    const valency::LivenessOptions& options) {
  const bool outermost = depth == 0;
  valency::LivenessResult result;
  {
    Scope scope(&totals.liveness);
    result = real_check_recoverable_wait_freedom(protocol, inputs, options);
  }
  if (outermost) {
    totals.configs_probed += static_cast<long long>(result.configs_probed);
  }
  return result;
}
