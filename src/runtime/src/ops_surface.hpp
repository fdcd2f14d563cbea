// OpsSurface: the one live introspection plane of the serving runtime. It
// owns the obs::OpsServer listener and the /profilez SampleProfiler and
// renders every endpoint listed at StreamOpsConfig over a list of shard
// servers: a StreamServer passes itself as its only shard, the sharded front
// door the shard servers of its current serve. Each shard's per-serve state
// is read through StreamServer::with_obs(), never a bare pointer.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>

#include "avd/runtime/stream_server.hpp"

namespace avd::runtime {

class OpsSurface {
 public:
  /// Calls its argument on every shard server, in shard order, under the
  /// lock that guards the owner's shard list.
  using ShardWalk =
      std::function<void(const std::function<void(const StreamServer&)>&)>;
  /// What /statusz says about the owner. `config` is every shard's serving
  /// config; its ops.profiler and ops.max_profile_seconds shape /profilez.
  struct Owner {
    const char* role;  ///< "stream-server" | "sharded-front-door"
    const StreamServerConfig* config;
    int shards;
    double fleet_pressure_fraction;
    const std::atomic<std::uint64_t>* serves;
  };

  /// Starts the listener; throws std::runtime_error when it cannot bind.
  OpsSurface(Owner owner, const obs::OpsServerConfig& server, ShardWalk walk);
  ~OpsSurface();  ///< stops the listener first: its handlers walk the shards

  [[nodiscard]] obs::OpsServer* server() const { return server_.get(); }
  [[nodiscard]] obs::SampleProfiler* profiler() const {
    return profiler_.get();
  }

 private:
  Owner owner_;
  ShardWalk walk_;
  double max_profile_seconds_;
  std::unique_ptr<obs::SampleProfiler> profiler_;
  std::unique_ptr<obs::OpsServer> server_;
};

}  // namespace avd::runtime
