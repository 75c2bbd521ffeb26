// Thread-local shard index for the sharded (PDES) World engine.
//
// When a World is sharded (see docs/parallel-simulation.md), each shard's
// event loop runs on its own thread; components that cache per-shard
// state (metric handles, per-shard registries) index it by the calling
// thread's shard.  The default of 0 makes every unsharded path — tests,
// examples, --shards 1 — behave exactly as before sharding existed: slot 0
// is the whole world.
//
// The window boundary of the engine (cross-shard outbox merge, ping-pong
// rendezvous synthesis) runs on whichever shard thread reaches the barrier
// last; it sets the shard index explicitly around work done on a shard's
// behalf and restores the thread's own index afterwards.
#pragma once

namespace hcs::sim {

namespace detail {
inline thread_local int tl_current_shard = 0;
}

/// Shard whose event loop the calling thread is executing (0 when unsharded).
inline int current_shard() noexcept { return detail::tl_current_shard; }

/// Set by each shard's thread at startup and by the engine's window boundary.
inline void set_current_shard(int shard) noexcept { detail::tl_current_shard = shard; }

}  // namespace hcs::sim
