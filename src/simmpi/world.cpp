#include "simmpi/world.hpp"

#include <algorithm>
#include <atomic>
#include <barrier>
#include <cmath>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "replay/feed.hpp"
#include "replay/record.hpp"
#include "simmpi/comm.hpp"

namespace hcs::simmpi {

namespace {
std::atomic<int> g_default_shards{1};

// NOTE: awaiters are co_await'ed as named locals, never as brace-init
// temporaries: GCC 12 destroys such temporaries twice at the resume point
// when they have non-trivially-destructible members (sibling of the "array
// used as initializer" bug; see util/vec.hpp).

// Resumes at absolute sim-time `when`.  schedule_at clamps past times to
// "now", so recorded absolute times resume exactly — a relative
// delay(t - now) could drift by an ulp.
struct ResumeAt {
  sim::Simulation* sim;
  sim::Time when;
  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) { sim->schedule_at(when, h); }
  void await_resume() const noexcept {}
};

// Parks the suspended coroutine's handle in `slot` for whoever resumes it
// (a burst's first arriver waiting for its partner).
struct ParkIn {
  std::coroutine_handle<>* slot;
  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) { *slot = h; }
  void await_resume() const noexcept {}
};
}  // namespace

void set_default_shards(int shards) noexcept {
  g_default_shards.store(shards < 1 ? 1 : shards, std::memory_order_relaxed);
}

int default_shards() noexcept { return g_default_shards.load(std::memory_order_relaxed); }

// ---------------------------------------------------------------- RankCtx --

RankCtx::RankCtx(World& world, int rank)
    : world_(&world), rank_(rank), comm_world_(std::make_unique<Comm>(Comm::world_comm(world, rank))) {}

RankCtx::~RankCtx() = default;

void RankCtx::reset_comm() { *comm_world_ = Comm::world_comm(*world_, rank_); }

vclock::ClockPtr RankCtx::base_clock() const { return world_->base_clock(rank_); }

sim::Simulation& RankCtx::sim() const { return world_->sim_of(rank_); }

// ------------------------------------------------------------------ World --

World::World(topology::MachineConfig machine, std::uint64_t seed, fault::FaultPlan fault_plan,
             int shards)
    : machine_(std::move(machine)),
      network_(machine_.topo, machine_.net, seed ^ 0x9e3779b97f4a7c15ULL) {
  const int nodes = machine_.topo.nodes();
  if (shards <= 0) shards = default_shards();
  nshards_ = std::clamp(shards, 1, nodes);
  lookahead_ = network_.min_inter_node_latency();

  // Contiguous node ranges per shard; shards never split a node, so every
  // intra-node structure (mailboxes, NIC state, hardware clocks, the burst
  // fast path) stays confined to one shard's thread.
  node_of_rank_.resize(static_cast<std::size_t>(size()));
  for (int r = 0; r < size(); ++r) {
    node_of_rank_[static_cast<std::size_t>(r)] = machine_.topo.locate(r).node;
  }
  shard_of_node_.resize(static_cast<std::size_t>(nodes));
  for (int n = 0; n < nodes; ++n) {
    shard_of_node_[static_cast<std::size_t>(n)] =
        static_cast<int>((static_cast<std::int64_t>(n) * nshards_) / nodes);
  }

  sims_.reserve(static_cast<std::size_t>(nshards_));
  for (int s = 0; s < nshards_; ++s) sims_.push_back(std::make_unique<sim::Simulation>());
  shard_states_.resize(static_cast<std::size_t>(nshards_));
  open_bursts_.resize(static_cast<std::size_t>(size()));

  // One model bank per shard: sync algorithms append learned models to their
  // own shard's bank, so appends are single-threaded and append order is
  // deterministic (row indices are unobservable either way).
  model_banks_.reserve(static_cast<std::size_t>(nshards_));
  for (int s = 0; s < nshards_; ++s) {
    model_banks_.push_back(std::make_shared<vclock::LinearModelBank>());
  }

  // Hardware clocks: seed chain unchanged from the unsharded engine (clock
  // paths must not depend on the shard count).  Each clock reads "now" from
  // the simulation of the shard owning its ranks; a time source is at most
  // node-wide (topology.cpp), so it can never span shards.
  const int sources = machine_.topo.num_time_sources();
  std::vector<int> source_shard(static_cast<std::size_t>(sources), 0);
  for (int r = size() - 1; r >= 0; --r) {
    source_shard[static_cast<std::size_t>(machine_.topo.time_source_id(r))] = shard_of_rank(r);
  }
  hw_clocks_.reserve(static_cast<std::size_t>(sources));
  std::uint64_t sm = seed ^ 0xd1b54a32d192ed03ULL;
  for (int s = 0; s < sources; ++s) {
    hw_clocks_.push_back(std::make_shared<vclock::HardwareClock>(
        *sims_[static_cast<std::size_t>(source_shard[static_cast<std::size_t>(s)])],
        machine_.clocks, sim::splitmix64(sm)));
  }
  mailboxes_.resize(static_cast<std::size_t>(size()));

  // Observability: the parent tracer/registry stay bound to the constructing
  // thread; sharded runs record into per-shard buffers that ~World absorbs
  // in shard-index order (the record paths are not thread-safe).
  parent_tracer_ = trace::active_tracer();
  parent_metrics_ = trace::active_metrics();

  // Record/replay: a Recorder installed on the constructing thread gets one
  // section per World, keyed by everything needed to rebuild an identical
  // World for replay (docs/record-replay.md).  The section's per-rank
  // buffers are sized up front, so recording appends stay confined to each
  // rank's own shard thread.
  if (replay::Recorder* recorder = replay::active_recorder()) {
    replay::WorldInfo info;
    info.seed = seed;
    info.nranks = size();
    info.fault_seed = fault_plan.seed();
    info.machine = machine_.describe();
    if (!fault_plan.empty()) info.fault_plan = fault_plan.describe();
    record_section_ = &recorder->begin_world(std::move(info));
  }
  time_source_.sim = sims_[0].get();
  if (parent_tracer_) {
    parent_tracer_->set_time_source(&time_source_, trace::TimeSourceKind::kSimTime);
  }
  std::vector<trace::MetricsRegistry*> regs(static_cast<std::size_t>(nshards_), nullptr);
  if (nshards_ == 1) {
    regs[0] = parent_metrics_;
  } else {
    for (int s = 0; s < nshards_; ++s) {
      if (parent_tracer_) {
        auto ts = std::make_unique<SimTimeSource>();
        ts->sim = sims_[static_cast<std::size_t>(s)].get();
        auto tracer = std::make_unique<trace::Tracer>(parent_tracer_->ring_capacity());
        tracer->set_time_source(ts.get(), trace::TimeSourceKind::kSimTime);
        shard_time_sources_.push_back(std::move(ts));
        shard_tracers_.push_back(std::move(tracer));
      }
      if (parent_metrics_) {
        shard_registries_.push_back(std::make_unique<trace::MetricsRegistry>());
        regs[static_cast<std::size_t>(s)] = shard_registries_.back().get();
      }
    }
  }
  world_metrics_.reserve(regs.size());
  for (trace::MetricsRegistry* r : regs) world_metrics_.push_back(resolve_metrics(r));
  if (nshards_ > 1) network_.bind_shards(regs);

  if (!fault_plan.empty()) {
    // The injector's streams derive from the World seed (plus the plan's own
    // seed, mixed in by the injector), never from the network/clock RNGs:
    // fault decisions cannot perturb the fault-free random sequences.
    fault_ = std::make_unique<fault::FaultInjector>(fault_plan, seed ^ 0xa0761d6478bd642fULL,
                                                    size());
    network_.set_fault_injector(fault_.get());
    if (nshards_ > 1) fault_->bind_shards(regs);
    seq_tracking_ = fault_->net_active();
    if (fault_->crash_active()) {
      detector_ = std::make_unique<FailureDetector>(*fault_, network_, size());
    }
    if (seq_tracking_) send_seq_.resize(static_cast<std::size_t>(size()));
    if (fault_->crash_active()) {
      // One member list per membership epoch, shared by every view on every
      // shard; is_down cannot change inside an epoch, so its start instant
      // stands for all of it.
      const std::vector<sim::Time>& transitions = fault_->membership_transitions();
      view_members_.resize(transitions.size() + 1);
      for (std::size_t e = 0; e < view_members_.size(); ++e) {
        const sim::Time at = e == 0 ? 0.0 : transitions[e - 1];
        auto up = std::make_shared<std::vector<int>>();
        for (int r = 0; r < size(); ++r) {
          if (!fault_->is_down(r, at)) up->push_back(r);
        }
        if (static_cast<int>(up->size()) < size()) view_members_[e] = std::move(up);
      }
    }
    for (const fault::ClockFault& cf : fault_->clock_faults()) {
      // A clock fault targets the rank's time source; co-located ranks that
      // share the source are affected together, as on a real node.
      auto& hw = hw_clocks_[static_cast<std::size_t>(machine_.topo.time_source_id(cf.rank))];
      if (cf.kind == fault::FaultKind::kClockStep) {
        hw->inject_step(cf.at, cf.delta);
      } else {
        hw->inject_frequency_jump(cf.at, cf.delta);
      }
    }
  }
}

World::~World() {
  // Fold per-shard observability into the parent exactly once, in shard
  // order: the resulting streams match what a 1-shard run records directly.
  if (parent_tracer_) {
    for (const auto& t : shard_tracers_) parent_tracer_->absorb(*t);
  }
  if (parent_metrics_) {
    for (const auto& r : shard_registries_) parent_metrics_->merge_from(*r);
  }
  trace::Tracer* tracer = trace::active_tracer();
  if (tracer && tracer->time_source() == &time_source_) tracer->set_time_source(nullptr);
}

World::WorldMetrics World::resolve_metrics(trace::MetricsRegistry* registry) {
  WorldMetrics out;
  if (!registry) return out;
  out.rtt = &registry->histogram("sync.rtt");
  out.pingpongs = &registry->counter("sync.pingpongs");
  out.burst_retries = &registry->histogram("sync.burst_retries", trace::MetricUnit::kNone);
  out.exchanges_lost = &registry->counter("sync.exchanges_lost");
  out.dup_absorbed = &registry->counter("fault.net.dup_absorbed");
  return out;
}

vclock::ClockPtr World::base_clock(int rank) const {
  return hw_clocks_[static_cast<std::size_t>(machine_.topo.time_source_id(rank))];
}

RankCtx& World::ctx(int rank) {
  if (ctxs_.empty()) {
    ctxs_.reserve(static_cast<std::size_t>(size()));
    for (int r = 0; r < size(); ++r) ctxs_.push_back(std::make_unique<RankCtx>(*this, r));
  }
  return *ctxs_[static_cast<std::size_t>(rank)];
}

namespace {
// Under the crash model a victim rank unwinds via RankCrashed at its next
// transport operation; the guard absorbs it so the process finishes cleanly
// (no deadlock report, no result) while real errors still propagate.
sim::Task<void> run_rank_guarded(World::RankFn fn, RankCtx& ctx) {
  try {
    co_await fn(ctx);
  } catch (const RankCrashed&) {
  }
}
}  // namespace

void World::launch(const RankFn& fn) {
  // Single-rank replay runs only the target rank; every peer interaction is
  // answered from the recorded log instead of a simulated partner.
  const int first = replay_feed_ ? replay_rank_ : 0;
  const int end = replay_feed_ ? replay_rank_ + 1 : size();
  const bool guard = detector_ != nullptr;
  for (int r = first; r < end; ++r) {
    if (fault_ && fault_->has_churn(r)) {
      // Churning ranks run under a supervisor that restarts each scheduled
      // incarnation; pure-crash ranks keep the plain guarded path, so a
      // churn-free plan schedules exactly as before.
      sim_of(r).spawn(churn_supervisor(fn, ctx(r)));
    } else if (guard) {
      sim_of(r).spawn(run_rank_guarded(fn, ctx(r)));
    } else {
      sim_of(r).spawn(fn(ctx(r)));
    }
  }
}

void World::purge_mailbox(int rank) {
  Mailbox& mb = mailboxes_[static_cast<std::size_t>(rank)];
  mb.unexpected.clear();
  mb.posted.clear();
  // Held-back out-of-order messages from the previous life are stale too.
  // expected_seq is deliberately kept: sender-side counters keep running
  // across the restart, so channel FIFO repair stays consistent.
  mb.held.clear();
}

// churn_supervisor lives in the record/replay section below (it replays
// membership markers).

// ----------------------------------------------------------------- engine --

std::uint64_t World::total_events() const noexcept {
  std::uint64_t total = 0;
  for (const auto& s : sims_) total += s->events_processed();
  return total;
}

// One window-boundary step, run while every shard is parked: collect
// errors, drain cross-shard traffic into the shards' boundary lists, pick the
// next window.  Returns false when the run is over (all queues and lists
// empty, or a fatal error).
bool World::serial_phase(std::uint64_t max_events) {
  for (int s = 0; s < nshards_; ++s) {
    if (auto error = sims_[static_cast<std::size_t>(s)]->take_error()) {
      if (!fatal_) fatal_ = error;
    }
    ShardState& ss = shard_states_[static_cast<std::size_t>(s)];
    if (ss.error && !fatal_) fatal_ = ss.error;
    ss.error = nullptr;
  }
  if (fatal_) return false;
  try {
    drain_outboxes();
    drain_burst_halves();
  } catch (...) {
    fatal_ = std::current_exception();
    sim::set_current_shard(0);
    return false;
  }
  sim::Time first = sim::kTimeInfinity;
  for (int s = 0; s < nshards_; ++s) {
    const sim::Simulation& sim = *sims_[static_cast<std::size_t>(s)];
    if (!sim.idle()) first = std::min(first, sim.next_event_time());
    first = std::min(first, shard_states_[static_cast<std::size_t>(s)].first_pending);
  }
  if (first == sim::kTimeInfinity) return false;
  const std::uint64_t done = total_events();
  if (done >= max_events) {
    fatal_ = std::make_exception_ptr(
        std::runtime_error("Simulation::run: event budget exceeded (" +
                           std::to_string(max_events) + " events)"));
    return false;
  }
  // Each shard is capped at its own lifetime count plus the global remainder;
  // concurrent windows can overshoot by at most (shards - 1) * remainder,
  // and with one shard the cap is exactly max_events, like the old engine.
  const std::uint64_t remaining = max_events - done;
  shard_caps_.resize(static_cast<std::size_t>(nshards_));
  for (int s = 0; s < nshards_; ++s) {
    shard_caps_[static_cast<std::size_t>(s)] =
        sims_[static_cast<std::size_t>(s)]->events_processed() + remaining;
  }
  window_end_ = first + lookahead_;
  if (!(window_end_ > first)) {
    // Degenerate lookahead (zero inter-node latency): single-event windows.
    window_end_ = std::nextafter(first, sim::kTimeInfinity);
  }
  last_window_end_ = window_end_;
  return true;
}

// A shard's side of one window, on its own thread: apply the boundary lists
// (every frame they spawn is born on this thread, and dies here), then run
// the window.  Never throws, like Simulation::run_window.
void World::run_shard_window(int shard) noexcept {
  ShardState& ss = shard_states_[static_cast<std::size_t>(shard)];
  sim::Simulation& s = *sims_[static_cast<std::size_t>(shard)];
  try {
    for (Delivery& d : ss.inbox) s.spawn(deliver_later(d.dst, d.at, std::move(d.msg)));
    ss.inbox.clear();
    for (const Resume& r : ss.resumes) s.schedule_at(r.at, r.handle);
    ss.resumes.clear();
    ss.first_pending = sim::kTimeInfinity;
  } catch (...) {
    ss.error = std::current_exception();
    return;
  }
  s.run_window(window_end_, shard_caps_[static_cast<std::size_t>(shard)]);
}

void World::run(std::uint64_t max_events) {
  fatal_ = nullptr;
  sim::set_current_shard(0);
  const std::uint64_t events_before = total_events();
  if (nshards_ == 1) {
    std::vector<IngressRecord>& outbox = shard_states_[0].outbox;
    for (;;) {
      std::sort(outbox.begin(), outbox.end());
      if (!serial_phase(max_events)) break;
      run_shard_window(0);
    }
  } else {
    run_sharded(max_events);
  }
  if (fatal_) {
    auto error = fatal_;
    fatal_ = nullptr;
    std::rethrow_exception(error);
  }
  std::size_t spawned = 0, finished = 0;
  sim::Time virtual_now = 0.0;
  for (const auto& s : sims_) {
    spawned += s->processes_spawned();
    finished += s->processes_finished();
    virtual_now = std::max(virtual_now, s->now());
  }
  if (finished != spawned) {
    throw std::runtime_error("World::run: deadlock — " + std::to_string(spawned - finished) +
                             " of " + std::to_string(spawned) + " processes still blocked");
  }
  HCS_METRIC_ADD("sim.events_processed", total_events() - events_before);
  HCS_METRIC_SET("sim.virtual_time_s", virtual_now);
  HCS_METRIC_SET("sim.processes_spawned", static_cast<double>(spawned));
}

// One thread per shard — the caller runs shard 0 — and one barrier crossing
// per window.  Each shard sorts its own outbox before it arrives; the window
// boundary is the barrier's completion step, so it runs on the last shard to
// arrive while the others are parked, under the parent observability context
// (as on the calling thread), and hands that thread back its shard index.
void World::run_sharded(std::uint64_t max_events) {
  bool stop = false;
  auto boundary = [this, max_events, &stop]() noexcept {
    const int shard = sim::current_shard();
    trace::ScopedTracer tracer_guard(parent_tracer_);
    trace::ScopedMetrics metrics_guard(parent_metrics_);
    sim::set_current_shard(0);
    stop = !serial_phase(max_events);
    sim::set_current_shard(shard);
  };
  std::barrier gate(static_cast<std::ptrdiff_t>(nshards_), boundary);
  auto shard_loop = [this, &gate, &stop](int s) {
    sim::set_current_shard(s);
    trace::ScopedTracer tracer_guard(
        shard_tracers_.empty() ? nullptr : shard_tracers_[static_cast<std::size_t>(s)].get());
    trace::ScopedMetrics metrics_guard(
        shard_registries_.empty() ? nullptr
                                  : shard_registries_[static_cast<std::size_t>(s)].get());
    std::vector<IngressRecord>& outbox = shard_states_[static_cast<std::size_t>(s)].outbox;
    for (;;) {
      std::sort(outbox.begin(), outbox.end());
      gate.arrive_and_wait();
      if (stop) break;
      run_shard_window(s);
    }
  };
  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(nshards_ - 1));
  for (int s = 1; s < nshards_; ++s) workers.emplace_back(shard_loop, s);
  shard_loop(0);
  sim::set_current_shard(0);
  for (auto& w : workers) w.join();
}

void World::run_all(const RankFn& fn, std::uint64_t max_events) {
  launch(fn);
  run(max_events);
}

// -------------------------------------------------------------------- p2p --

bool World::crash_dropped(int dst, const Message& msg) {
  if (!detector_ || crash_delivered(msg.src, dst, msg.sent_at, msg.arrived_at)) return false;
  // The crash rule trumps the reliable transport's "final retransmission
  // always lands": a dead endpoint or severed link loses the message for
  // good, in-flight copies included.
  fault_->count_crash_drop();
  return true;
}

void World::deliver_at_arrival(int dst, Message msg) {
  if (crash_dropped(dst, msg)) return;
  sim::Simulation& s = sim_of(dst);
  const sim::Time at = s.now() + (msg.arrived_at - s.now());
  s.spawn(deliver_later(dst, at, std::move(msg)));
}

// `at` is msg.arrived_at as the relative delay now + (arrived_at - now)
// rounds it.  `now` must be a clock every shard layout agrees on: the current
// event's time inside a window, the World's latest event time at a window
// boundary — never a shard's own clock there, which depends on the layout.
sim::Task<void> World::deliver_later(int dst, sim::Time at, Message msg) {
  ResumeAt arrival{&sim_of(dst), at};
  co_await arrival;
  deliver_now(dst, std::move(msg));
}

void World::push_ingress(int src, int dst, sim::Time depart_ready, sim::Time port_time,
                         Message msg) {
  ShardState& ss = shard_states_[static_cast<std::size_t>(shard_of_rank(src))];
  IngressRecord record;
  record.src = src;
  record.dst = dst;
  record.depart_ready = depart_ready;
  record.port_time = port_time;
  record.order = ss.outbox_seq++;
  record.msg = std::move(msg);
  ss.outbox.push_back(std::move(record));
}

// Window-boundary admission of all parked inter-node messages, in a merge
// order that no shard layout can change: (port arrival, src, dst, sender
// push index).  Ingress NIC admission therefore evolves identically for any
// shard count — the crux of the determinism guarantee.  Each outbox arrives
// sorted by its own shard, so the order is a k-way merge of the runs; the
// admitted messages go to their destination shard's inbox in that order.
void World::drain_outboxes() {
  struct Run {
    IngressRecord* next;
    IngressRecord* end;
  };
  std::vector<Run> runs;
  for (ShardState& ss : shard_states_) {
    if (!ss.outbox.empty()) runs.push_back({ss.outbox.data(), ss.outbox.data() + ss.outbox.size()});
  }
  const auto later = [](const Run& a, const Run& b) { return *b.next < *a.next; };
  std::make_heap(runs.begin(), runs.end(), later);
  // The latest event time of the whole World: what a single shard's clock
  // reads here, whatever the layout (each shard's clock is its own latest).
  sim::Time now = 0.0;
  for (const auto& sim : sims_) now = std::max(now, sim->now());
  while (!runs.empty()) {
    std::pop_heap(runs.begin(), runs.end(), later);
    IngressRecord& r = *runs.back().next;
    if (++runs.back().next == runs.back().end) {
      runs.pop_back();
    } else {
      std::push_heap(runs.begin(), runs.end(), later);
    }
    const int dshard = shard_of_rank(r.dst);
    sim::set_current_shard(dshard);
    sim::Time arrive = network_.ingress_admit(r.dst, r.msg.bytes, r.port_time, r.depart_ready);
    if (fault_) arrive = fault_->release_time(r.dst, arrive);
    r.msg.arrived_at = arrive;
    if (crash_dropped(r.dst, r.msg)) continue;
    ShardState& ds = shard_states_[static_cast<std::size_t>(dshard)];
    const sim::Time at = now + (arrive - now);
    ds.first_pending = std::min(ds.first_pending, at);
    ds.inbox.push_back({r.dst, at, std::move(r.msg)});
  }
  for (ShardState& ss : shard_states_) ss.outbox.clear();
  sim::set_current_shard(0);
}

// Hands one message to the network: fault evaluation (drops absorbed by the
// network's bounded retransmission), pause-window translation at both
// endpoints, channel sequencing, and the optional duplicate copy.  Shared by
// p2p_send and p2p_isend.  Intra-node messages deliver directly inside the
// sender's shard; inter-node messages pay egress + wire now (sender-side
// state only) and park in the outbox for ingress at the window boundary —
// at every shard count, so the timeline never depends on the shard layout.
void World::dispatch_message(int src, int dst, std::vector<double> data, std::int64_t bytes,
                             std::int64_t tag, sim::Time ready) {
  if (fault_) ready = fault_->release_time(src, ready);
  if (replay_feed_) {
    // Replay: the message has no receiver to reach; verify the send against
    // the log (same spot record mode logs it, after pause translation) and
    // drop it.
    replay_feed_->expect({.kind = replay::EventKind::kSend, .peer = dst, .tag = tag, .at = ready,
                          .bytes = bytes, .payload = &data});
    return;
  }
  if (record_section_ != nullptr) {
    record_section_->append(src, replay::encode_send(dst, tag, bytes, ready, data));
  }
  Message msg;
  msg.src = src;
  msg.tag = tag;
  msg.data = std::move(data);
  msg.bytes = bytes;
  msg.sent_at = ready;
  if (fault_ && fault_->churn_active()) msg.view = fault_->membership_epoch(ready);
  if (seq_tracking_) {
    msg.seq = send_seq_[static_cast<std::size_t>(src)][dst]++;
  }
  DeliveryFaults df;
  if (node_of_rank_[static_cast<std::size_t>(src)] != node_of_rank_[static_cast<std::size_t>(dst)]) {
    const sim::Time port = network_.transit_time(src, dst, bytes, ready,
                                                 seq_tracking_ ? &df : nullptr);
    if (df.duplicate) {
      // The second copy rides the network fault-blind (no recursive faults)
      // and keeps the original sequence number, so the receiving mailbox
      // absorbs whichever copy arrives second.
      Message copy = msg;
      const sim::Time dup_port = network_.transit_time(src, dst, bytes, ready);
      push_ingress(src, dst, ready, dup_port, std::move(copy));
    }
    push_ingress(src, dst, ready, port, std::move(msg));
    return;
  }
  // Intra-node: same shard as src (shards don't split nodes).
  sim::Time arrive = network_.deliver_time(src, dst, bytes, ready, seq_tracking_ ? &df : nullptr);
  if (fault_) arrive = fault_->release_time(dst, arrive);
  msg.arrived_at = arrive;
  if (df.duplicate) {
    Message copy = msg;
    copy.arrived_at = network_.deliver_time(src, dst, bytes, ready);
    if (fault_) copy.arrived_at = fault_->release_time(dst, copy.arrived_at);
    deliver_at_arrival(dst, std::move(copy));
  }
  deliver_at_arrival(dst, std::move(msg));
}

bool World::crash_delivered(int src, int dst, sim::Time send, sim::Time arrive) const noexcept {
  if (fault_->is_down(src, arrive) || fault_->is_down(dst, arrive) ||
      arrive >= fault_->link_down_time(src, dst)) {
    return false;
  }
  // Stale-view rejection: under churn a message may not cross an endpoint
  // restart in flight — both ends must be in the same incarnation at send
  // and at arrival.  With no churn every incarnation is 0, so pure crash
  // plans keep the exact historical rule (arrive before both crash times).
  if (fault_->churn_active()) {
    if (fault_->incarnation(src, send) != fault_->incarnation(src, arrive)) return false;
    if (fault_->incarnation(dst, send) != fault_->incarnation(dst, arrive)) return false;
  }
  return true;
}

sim::Task<void> World::p2p_send(int src, int dst, std::int64_t tag, std::vector<double> data,
                                std::int64_t bytes) {
  if (dst < 0 || dst >= size()) throw std::out_of_range("p2p_send: bad destination rank");
  check_crash(src);
  if (bytes <= 0) bytes = static_cast<std::int64_t>(data.size() * sizeof(double));
  if (bytes <= 0) bytes = 8;
  sim::Simulation& s = sim_of(src);
  co_await s.delay(network_.send_overhead());
  check_crash(src);  // a crash inside the send overhead kills the message too
  dispatch_message(src, dst, std::move(data), bytes, tag, s.now());
}

void World::deliver_now(int dst, Message msg) {
  if (!seq_tracking_) {
    match_or_enqueue(dst, std::move(msg));
    return;
  }
  // Channel repair: absorb duplicates and hold back out-of-order messages so
  // the MPI layer keeps its per-channel FIFO guarantee under fault plans
  // that can reorder deliveries (tested in tests/fault/).
  Mailbox& mb = mailboxes_[static_cast<std::size_t>(dst)];
  std::uint64_t& expected = mb.expected_seq[msg.src];
  if (msg.seq < expected) {
    if (trace::Counter* m = my_metrics().dup_absorbed) m->inc();
    return;
  }
  if (msg.seq > expected) {
    if (!mb.held.emplace(std::make_pair(msg.src, msg.seq), std::move(msg)).second) {
      if (trace::Counter* m = my_metrics().dup_absorbed) m->inc();
    }
    return;
  }
  const int src = msg.src;
  match_or_enqueue(dst, std::move(msg));
  ++expected;
  for (auto it = mb.held.find({src, expected}); it != mb.held.end();
       it = mb.held.find({src, expected})) {
    Message next = std::move(it->second);
    mb.held.erase(it);
    match_or_enqueue(dst, std::move(next));
    ++expected;
  }
}

void World::match_or_enqueue(int dst, Message msg) {
  Mailbox& mb = mailboxes_[static_cast<std::size_t>(dst)];
  const auto it = std::find_if(mb.posted.begin(), mb.posted.end(), [&](const RecvRequest& r) {
    return r->src == msg.src && r->tag == msg.tag;
  });
  if (it == mb.posted.end()) {
    mb.unexpected.push_back(std::move(msg));
    return;
  }
  const RecvRequest request = *it;
  mb.posted.erase(it);
  request->msg = std::move(msg);
  request->complete = true;
  if (request->waiter) {
    sim::Simulation& s = sim_of(dst);
    s.schedule_at(s.now(), request->waiter);
    request->waiter = nullptr;
  }
}

RecvRequest World::p2p_irecv(int me, int src, std::int64_t tag) {
  Mailbox& mb = mailboxes_[static_cast<std::size_t>(me)];
  auto request = std::make_shared<RecvState>();
  request->src = src;
  request->tag = tag;
  request->owner = me;
  const auto it = std::find_if(mb.unexpected.begin(), mb.unexpected.end(), [&](const Message& m) {
    return m.src == src && m.tag == tag;
  });
  if (it != mb.unexpected.end()) {
    request->msg = std::move(*it);
    mb.unexpected.erase(it);
    request->complete = true;
    return request;
  }
  mb.posted.push_back(request);
  return request;
}

void World::cancel_recv(const RecvRequest& request) {
  if (request->owner < 0) return;
  Mailbox& mb = mailboxes_[static_cast<std::size_t>(request->owner)];
  const auto it = std::find(mb.posted.begin(), mb.posted.end(), request);
  if (it != mb.posted.end()) mb.posted.erase(it);
}

// Resumes a blocked receive when the crash model resolves it without a
// message: the owner's own crash (crash_kind), or the give-up deadline.
// A request that completed (or was resolved by the sibling watchdog) first
// makes this a no-op.
sim::Task<void> World::recv_watchdog(RecvRequest request, sim::Time when, bool crash_kind) {
  sim::Simulation& s = sim_of(request->owner);
  co_await s.delay(when - s.now());
  if (request->complete || request->timed_out || request->owner_crashed) co_return;
  if (crash_kind) {
    request->owner_crashed = true;
  } else {
    request->timed_out = true;
  }
  cancel_recv(request);
  if (request->waiter) {
    s.schedule_at(s.now(), request->waiter);
    request->waiter = nullptr;
  }
}

// Suspends until the request completes or a watchdog resolves it.  `deadline`
// is absolute; kTimeInfinity means "wait for the message" (plus, under the
// crash model, the owner's own crash).
sim::Task<void> World::block_on_recv(RecvRequest request, sim::Time deadline) {
  sim::Simulation& s = sim_of(request->owner);
  if (!request->complete && detector_) {
    const sim::Time now = s.now();
    const sim::Time own_crash = fault_->next_down(request->owner, now);
    if (now >= own_crash) {
      request->owner_crashed = true;
      cancel_recv(request);
      co_return;
    }
    if (now >= deadline) {
      request->timed_out = true;
      cancel_recv(request);
      co_return;
    }
    if (own_crash < sim::kTimeInfinity) {
      s.spawn(recv_watchdog(request, own_crash, /*crash_kind=*/true));
    }
    if (deadline < sim::kTimeInfinity) {
      s.spawn(recv_watchdog(request, deadline, /*crash_kind=*/false));
    }
  }
  if (!request->complete && !request->timed_out && !request->owner_crashed) {
    struct Suspend {
      RecvState* state;
      bool await_ready() const noexcept {
        return state->complete || state->timed_out || state->owner_crashed;
      }
      void await_suspend(std::coroutine_handle<> h) { state->waiter = h; }
      void await_resume() const noexcept {}
    };
    // NOTE: named awaiter on purpose (GCC 12 temporary-awaiter bug).
    Suspend suspend{request.get()};
    co_await suspend;
  }
}

sim::Task<Message> World::await_recv(RecvRequest request) {
  if (replay_feed_) {
    cancel_recv(request);  // no peer will ever complete it
    co_await replay_step(request->owner, {.kind = replay::EventKind::kRecv,
                                          .peer = request->src, .tag = request->tag});
    co_return replay::decode_recv(replay_feed_->last());
  }
  // Even a plain receive gets a bound under the crash model: blocking on a
  // peer the detector has declared dead is turned into a loud error (and
  // the liveness net turns any remaining cross-wait into one too) instead
  // of a silent world deadlock.
  sim::Simulation& s = sim_of(request->owner);
  sim::Time deadline = sim::kTimeInfinity;
  if (detector_ && !request->complete && request->src >= 0 && request->owner >= 0) {
    deadline = std::min(detector_->detect_time_after(request->owner, request->src, s.now()),
                        s.now() + kLivenessTimeout);
  }
  co_await block_on_recv(request, deadline);
  if (request->owner_crashed) throw RankCrashed{request->owner, s.now()};
  if (request->timed_out) {
    throw std::runtime_error("recv on rank " + std::to_string(request->owner) + " from rank " +
                             std::to_string(request->src) +
                             " abandoned: peer declared dead (use the fault-tolerant receive "
                             "path for quorum collectives)");
  }
  co_await s.delay(network_.recv_overhead());
  if (record_section_ != nullptr) {
    record_section_->append(request->owner, replay::encode_recv(request->msg, s.now()));
  }
  co_return std::move(request->msg);
}

sim::Task<std::optional<Message>> World::await_recv_until(RecvRequest request,
                                                          sim::Time deadline) {
  if (replay_feed_) {
    cancel_recv(request);  // no peer will ever complete it
    co_await replay_step(request->owner,
                         {.kind = replay::EventKind::kRecv, .peer = request->src,
                          .tag = request->tag, .or_timeout = true});
    if (replay_feed_->last().kind == replay::EventKind::kRecvTimeout) co_return std::nullopt;
    co_return replay::decode_recv(replay_feed_->last());
  }
  sim::Simulation& s = sim_of(request->owner);
  co_await block_on_recv(request, deadline);
  if (request->owner_crashed) throw RankCrashed{request->owner, s.now()};
  if (request->timed_out) {
    if (record_section_ != nullptr) {
      record_section_->append(request->owner,
                              replay::encode_recv_timeout(request->src, request->tag, s.now()));
    }
    co_return std::nullopt;
  }
  co_await s.delay(network_.recv_overhead());
  if (record_section_ != nullptr) {
    record_section_->append(request->owner, replay::encode_recv(request->msg, s.now()));
  }
  co_return std::move(request->msg);
}

sim::Task<Message> World::p2p_recv(int me, int src, std::int64_t tag) {
  co_return co_await await_recv(p2p_irecv(me, src, tag));
}

SendRequest World::p2p_isend(int src, int dst, std::int64_t tag, std::vector<double> data,
                             std::int64_t bytes) {
  if (dst < 0 || dst >= size()) throw std::out_of_range("p2p_isend: bad destination rank");
  check_crash(src);
  if (bytes <= 0) bytes = static_cast<std::int64_t>(data.size() * sizeof(double));
  if (bytes <= 0) bytes = 8;
  auto request = std::make_shared<SendState>();
  request->owner = src;
  // The NIC takes over immediately; the rank's own overhead marks when the
  // send buffer is reusable (MPI_Wait on the isend).
  request->complete_at = sim_of(src).now() + network_.send_overhead();
  dispatch_message(src, dst, std::move(data), bytes, tag, request->complete_at);
  return request;
}

sim::Task<void> World::await_send(SendRequest request) {
  sim::Simulation& s = request->owner >= 0 ? sim_of(request->owner) : *sims_[0];
  const sim::Time now = s.now();
  if (request->complete_at > now) co_await s.delay(request->complete_at - now);
}

// ------------------------------------------------------------------ burst --

struct World::BurstState {
  struct Half {
    int rank = -1;
    vclock::Clock* clock = nullptr;
    sim::Time ready = 0.0;  // when the caller entered the burst
    sim::Time done = 0.0;   // when it resumes (set by synthesize_burst)
  };
  Half client;
  Half ref;
  int partner = -1;  // of the first arriver, who opened the state
  bool first_is_client = false;
  std::coroutine_handle<> first_handle = nullptr;
  int nexchanges = 0;
  std::int64_t bytes = 0;
  int readers = 1;  // callers yet to take `result`; the last one moves it
  BurstResult result;

  Half& half(bool is_client) { return is_client ? client : ref; }

  /// The caller's copy of the result: a copy while another caller still
  /// reads this state, the result itself for the last one.
  BurstResult take_result() { return --readers == 0 ? std::move(result) : result; }
};

std::uint64_t World::pair_key(int a, int b, int world_size) {
  const auto lo = static_cast<std::uint64_t>(std::min(a, b));
  const auto hi = static_cast<std::uint64_t>(std::max(a, b));
  return lo * static_cast<std::uint64_t>(world_size) + hi;
}

void World::synthesize_burst(BurstState& st) {
  // Attempts per exchange under an active fault plan: 1 original +
  // (kMaxPingAttempts - 1) retries; an exchange still unanswered after that
  // is abandoned and reported via BurstResult::lost (the sync layer marks
  // the rank degraded rather than hanging).
  constexpr int kMaxPingAttempts = 3;
  constexpr double kPingTimeoutFactor = 10.0;  // of the expected round-trip time

  WorldMetrics& metrics = my_metrics();
  const double o_s = network_.send_overhead();
  const double o_r = network_.recv_overhead();
  sim::Time tc = st.client.ready;  // client's process-time cursor
  sim::Time tr = st.ref.ready;     // reference's process-time cursor
  const bool faulty = fault_ && fault_->net_active();
  const bool pausing = fault_ && fault_->pause_active();
  const bool crashy = detector_ != nullptr;
  // Crash-era bounds for this pair: the client stops once it would run past
  // its own crash time, and gives up on the whole burst once its detector
  // declares the reference dead (individual pings obey the uniform
  // crash-delivery rule below).
  sim::Time client_crash = sim::kTimeInfinity;
  sim::Time abandon_at = sim::kTimeInfinity;
  if (crashy) {
    client_crash = fault_->next_down(st.client.rank, st.client.ready);
    abandon_at = detector_->detect_time_after(st.client.rank, st.ref.rank, st.client.ready);
  }
  // Both directions resolved once: their streams belong to different
  // senders, so neither lookup can move the other's stream.
  const NetworkModel::Route ping_route = network_.route(st.client.rank, st.ref.rank);
  const NetworkModel::Route pong_route = network_.route(st.ref.rank, st.client.rank);
  const double timeout = kPingTimeoutFactor * (2.0 * network_.expected_delay(ping_route.level,
                                                                             st.bytes) +
                                               2.0 * (o_s + o_r));
  st.result.requested = st.nexchanges;
  st.result.samples.reserve(static_cast<std::size_t>(st.nexchanges));
  bool aborted = false;
  for (int i = 0; i < st.nexchanges && !aborted; ++i) {
    for (int attempt = 0;; ++attempt) {
      if (crashy && (tc >= client_crash || tc >= abandon_at)) {
        // Dead client, or reference declared dead: this exchange and every
        // remaining one are lost; the waiter resolves the crash on resume.
        st.result.lost += st.nexchanges - i;
        aborted = true;
        break;
      }
      if (pausing) tc = fault_->release_time(st.client.rank, tc);
      const sim::Time attempt_start = tc;
      // The timeout guards against message loss, not partner lateness: the
      // reference may legitimately enter the burst long after the client
      // (Alg. 6 sleeps wait_time between rounds; serial schedules like JK
      // make client j wait for j-1 predecessors), so the deadline only
      // starts once both peers could be exchanging messages.
      const sim::Time deadline = std::max(attempt_start, st.ref.ready) + timeout;
      PingSample s;
      s.client_send = st.client.clock->at(tc);
      fault::NetFaultDecision ping_fd;
      const sim::Time arrive_ref = network_.deliver_time_uncontended(
          ping_route, st.bytes, tc + o_s, faulty ? &ping_fd : nullptr);
      bool timed_out = ping_fd.drop;
      if (crashy && !crash_delivered(st.client.rank, st.ref.rank, tc, arrive_ref)) {
        timed_out = true;
      }
      if (!timed_out) {
        sim::Time stamp_time = std::max(arrive_ref, tr) + o_r;
        if (pausing) stamp_time = fault_->release_time(st.ref.rank, stamp_time);
        s.ref_reply = st.ref.clock->at(stamp_time);
        const sim::Time reply_depart = stamp_time + o_s;
        tr = reply_depart;  // the reference served this ping whether or not the pong survives
        fault::NetFaultDecision pong_fd;
        const sim::Time arrive_client = network_.deliver_time_uncontended(
            pong_route, st.bytes, reply_depart, faulty ? &pong_fd : nullptr);
        // `faulty` gate: fault-free this branch must be taken unconditionally
        // so the synthesized schedule stays bit-identical to the seed model.
        // The crash rule also covers the reference dying mid-service: a
        // reply departing after its crash necessarily arrives after it.
        if (pong_fd.drop || (faulty && arrive_client + o_r > deadline) ||
            (crashy && !crash_delivered(st.ref.rank, st.client.rank, reply_depart,
                                        arrive_client))) {
          timed_out = true;  // pong lost, or it arrived after the client gave up
        } else {
          const sim::Time recv_time = arrive_client + o_r;
          s.client_recv = st.client.clock->at(recv_time);
          st.result.samples.push_back(s);
          if (metrics.rtt) metrics.rtt->observe(recv_time - attempt_start);
          tc = recv_time;
          break;
        }
      }
      tc = deadline;  // client resumes at its timeout deadline
      if (attempt + 1 >= kMaxPingAttempts) {
        ++st.result.lost;
        break;
      }
      ++st.result.retries;
    }
  }
  st.client.done = tc;
  st.ref.done = tr;
  if (metrics.pingpongs) metrics.pingpongs->inc(static_cast<std::uint64_t>(st.nexchanges));
  if (faulty) {
    if (metrics.burst_retries) metrics.burst_retries->observe(st.result.retries);
    if (metrics.exchanges_lost && st.result.lost > 0) {
      metrics.exchanges_lost->inc(static_cast<std::uint64_t>(st.result.lost));
    }
  }
  if (trace::Tracer* tracer = trace::active_tracer()) {
    // Explicit timestamps: the burst is synthesized, so "now" would misplace
    // it.  This span is where HCA3 spends its RTT budget.
    tracer->record_complete(st.client.rank, trace::Category::kNet, "pingpong_burst",
                            st.client.ready, st.client.done - st.client.ready, st.nexchanges);
  }
}

// Resolves a first-arriver wait the partner will never complete: at `when`
// (the waiter's own crash time, or the moment its detector declares the
// partner dead) the burst is reported fully lost and the waiter resumed —
// it re-checks its own crash on resume.  A burst that paired in the
// meantime cleared first_handle, making this a no-op.  A state still open
// in its owner's pairing slot is withdrawn from it; a cross-node half not
// yet drained is skipped by the rendezvous drain instead.
sim::Task<void> World::burst_watchdog(std::shared_ptr<BurstState> st, sim::Time when) {
  const int owner = st->half(st->first_is_client).rank;
  sim::Simulation& s = sim_of(owner);
  if (when > s.now()) co_await s.delay(when - s.now());
  if (!st->first_handle) co_return;
  st->result.requested = st->nexchanges;
  st->result.lost = st->nexchanges;
  if (fault_) fault_->count_crash_drop();
  auto& slot = open_bursts_[static_cast<std::size_t>(owner)];
  if (slot == st) slot.reset();
  s.schedule_at(s.now(), st->first_handle);
  st->first_handle = nullptr;
}

// One coroutine per side.  The second intra-node arriver finds its partner's
// state in the partner's pairing slot, synthesizes the burst inline, wakes
// the partner at its done time and resumes at its own.  Every other caller
// opens a state and parks: intra-node first arrivers in their own slot,
// cross-node callers as a half for the window-boundary rendezvous
// (drain_burst_halves), which runs at every shard count (including 1), so
// pairing and synthesis order never depend on the shard layout.
sim::Task<BurstResult> World::pingpong_burst(int me, int partner, bool i_am_client,
                                             vclock::Clock& my_clock, int nexchanges,
                                             std::int64_t bytes) {
  if (nexchanges < 1) throw std::invalid_argument("pingpong_burst: nexchanges must be >= 1");
  if (me == partner) throw std::invalid_argument("pingpong_burst: self ping-pong");
  check_crash(me);
  if (replay_feed_) {
    co_await replay_step(me, {.kind = replay::EventKind::kBurst, .peer = partner,
                              .role = i_am_client});
    co_return replay::decode_burst(replay_feed_->last());
  }
  const bool same_node = node_of_rank_[static_cast<std::size_t>(me)] ==
                         node_of_rank_[static_cast<std::size_t>(partner)];
  auto& partner_slot = open_bursts_[static_cast<std::size_t>(partner)];
  std::shared_ptr<BurstState> st;
  if (same_node && partner_slot && partner_slot->partner == me) {
    sim::Simulation& s = sim_of(me);
    st = std::move(partner_slot);
    if (st->nexchanges != nexchanges || st->first_is_client == i_am_client) {
      throw std::logic_error("pingpong_burst: mismatched burst call between partners");
    }
    st->half(i_am_client) = {me, &my_clock, s.now()};
    synthesize_burst(*st);
    s.schedule_at(st->half(st->first_is_client).done, st->first_handle);
    st->first_handle = nullptr;  // burst watchdogs must not resume it again
    ++st->readers;
    ResumeAt resume_at{&s, st->half(i_am_client).done};
    co_await resume_at;
    check_crash(me);
  } else {
    st = open_burst(me, partner, i_am_client, my_clock, nexchanges, bytes);
    if (st->result.lost == 0) {  // else the partner was already declared dead
      if (same_node) {
        open_bursts_[static_cast<std::size_t>(me)] = st;
      } else {
        shard_states_[static_cast<std::size_t>(shard_of_rank(me))].halves.push_back(
            PendingHalf{pair_key(me, partner, size()), i_am_client, st});
      }
      ParkIn wait_for_partner{&st->first_handle};
      co_await wait_for_partner;
      check_crash(me);
    }
  }
  BurstResult result = st->take_result();
  if (record_section_ != nullptr) {
    // Recorded at the caller's resume point (its own shard thread, at the
    // clamped done time — both shard-count-invariant), never from the
    // window boundary's rendezvous drain.
    record_section_->append(me,
                            replay::encode_burst(result, partner, i_am_client, sim_of(me).now()));
  }
  co_return result;
}

std::shared_ptr<World::BurstState> World::open_burst(int me, int partner, bool i_am_client,
                                                     vclock::Clock& my_clock, int nexchanges,
                                                     std::int64_t bytes) {
  sim::Simulation& s = sim_of(me);
  auto st = std::make_shared<BurstState>();
  st->partner = partner;
  st->nexchanges = nexchanges;
  st->bytes = bytes;
  st->first_is_client = i_am_client;
  st->half(i_am_client) = {me, &my_clock, s.now()};
  if (!detector_) return st;
  const sim::Time partner_dead = detector_->detect_time_after(me, partner, s.now());
  if (partner_dead <= s.now()) {
    // Resolved without suspending: a watchdog due "now" would fire before
    // the caller's suspend publishes the waiter handle.
    st->result.requested = nexchanges;
    st->result.lost = nexchanges;
    fault_->count_crash_drop();
    return st;
  }
  // The caller's check_crash guarantees now < own crash time, so both
  // watchdogs fire strictly in the future, after the handle is published.
  const sim::Time own_crash = fault_->next_down(me, s.now());
  if (own_crash < sim::kTimeInfinity) s.spawn(burst_watchdog(st, own_crash));
  if (partner_dead < sim::kTimeInfinity) s.spawn(burst_watchdog(st, partner_dead));
  return st;
}

// Window-boundary rendezvous for cross-node bursts.  Halves are paired in
// (key, role) sort order: a half meets its partner's half parked in the
// partner's pairing slot, or parks in its own.  A half whose watchdog
// already resolved it is skipped (the "watchdog wins within its window"
// rule — both the watchdog's firing time and the window boundaries are
// shard-count-invariant, so which one wins never depends on the layout).
// Synthesis runs under the client shard's observability context, and both
// callers resume no earlier than the end of the window just finished.
void World::drain_burst_halves() {
  std::vector<PendingHalf> halves;
  for (auto& ss : shard_states_) {
    for (auto& h : ss.halves) halves.push_back(std::move(h));
    ss.halves.clear();
  }
  if (halves.empty()) return;
  std::sort(halves.begin(), halves.end(), [](const PendingHalf& a, const PendingHalf& b) {
    if (a.key != b.key) return a.key < b.key;
    return a.is_client && !b.is_client;
  });
  for (PendingHalf& h : halves) {
    if (!h.st->first_handle) continue;  // watchdog resolved it this window
    const BurstState::Half& mine = h.st->half(h.is_client);
    auto& partner_slot = open_bursts_[static_cast<std::size_t>(h.st->partner)];
    if (!partner_slot || partner_slot->partner != mine.rank) {
      open_bursts_[static_cast<std::size_t>(mine.rank)] = h.st;
      continue;
    }
    const auto st = std::move(partner_slot);
    if (st->nexchanges != h.st->nexchanges || st->first_is_client == h.is_client) {
      sim::set_current_shard(0);
      throw std::logic_error("pingpong_burst: mismatched burst call between partners");
    }
    st->half(h.is_client) = mine;
    const int client_shard = shard_of_rank(st->client.rank);
    {
      sim::set_current_shard(client_shard);
      trace::ScopedTracer tracer_guard(
          shard_tracers_.empty() ? parent_tracer_
                                 : shard_tracers_[static_cast<std::size_t>(client_shard)].get());
      trace::ScopedMetrics metrics_guard(
          shard_registries_.empty()
              ? parent_metrics_
              : shard_registries_[static_cast<std::size_t>(client_shard)].get());
      synthesize_burst(*st);
    }
    h.st->result = st->result;  // the burst's one samples copy
    const BurstState::Half& first_half = st->half(st->first_is_client);
    post_resume(first_half.rank, first_half.done, st->first_handle);
    st->first_handle = nullptr;
    const BurstState::Half& second_half = st->half(h.is_client);
    post_resume(second_half.rank, second_half.done, h.st->first_handle);
    h.st->first_handle = nullptr;
  }
  sim::set_current_shard(0);
}

// Queues a burst caller's resume on its shard's boundary list.  Resumes clamp
// to the end of the window that just ran: a reference whose service finished
// early may not re-enter its shard mid-window.  The clamp time is itself
// shard-count-invariant, so so are the resumes.  No clamp to the shard's
// clock is needed: it is always below that window end.
void World::post_resume(int rank, sim::Time done, std::coroutine_handle<> handle) {
  ShardState& ss = shard_states_[static_cast<std::size_t>(shard_of_rank(rank))];
  const sim::Time at = std::max(done, last_window_end_);
  ss.first_pending = std::min(ss.first_pending, at);
  ss.resumes.push_back({at, handle});
}

// ------------------------------------------------------ communicator split --
//
// Comm::split's (color, key) exchange goes through a board per split instead
// of the allgather payload, so no rank ever holds the 2p values; the
// allgather still runs, with empty payloads, to model the exchange's cost.

void World::split_post(SplitId id, int members, int my_index, int world_rank, int color,
                       int key) {
  if (replay_feed_) return;  // the replayed rank's outcome comes from the log
  const std::lock_guard<std::mutex> lock(split_mutex_);
  SplitBoard& board = split_boards_[id];
  if (board.entries.empty()) {
    board.entries.resize(static_cast<std::size_t>(members));
    board.unread = members;
  }
  board.entries[static_cast<std::size_t>(my_index)] = {color, key, world_rank};
  ++board.posted;
}

// One O(p log p) sort by (color, key, parent rank) — MPI_Comm_split's order —
// then one shared list per color.  Undefined-color members get none.
void World::build_split_outcomes(SplitBoard& board) {
  const auto& entries = board.entries;
  std::vector<int> order(entries.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    const SplitBoard::Entry& ea = entries[static_cast<std::size_t>(a)];
    const SplitBoard::Entry& eb = entries[static_cast<std::size_t>(b)];
    if (ea.color != eb.color) return ea.color < eb.color;
    if (ea.key != eb.key) return ea.key < eb.key;
    return a < b;
  });
  board.outcomes.resize(entries.size());
  std::shared_ptr<std::vector<int>> list;
  for (std::size_t i = 0; i < order.size(); ++i) {
    const auto member = static_cast<std::size_t>(order[i]);
    const int color = entries[member].color;
    if (color == Comm::kUndefined) continue;
    if (i == 0 || entries[static_cast<std::size_t>(order[i - 1])].color != color) {
      list = std::make_shared<std::vector<int>>();
    }
    board.outcomes[member] = {list, static_cast<int>(list->size())};
    list->push_back(entries[member].world_rank);
  }
}

sim::Task<SplitResult> World::split_result(int me, SplitId id, int my_index, int color) {
  const sim::Time now = sim_of(me).now();
  if (replay_feed_) {
    co_await replay_step(me, {.kind = replay::EventKind::kSplit, .tag = color, .at = now});
    SplitResult recorded = replay::decode_split(replay_feed_->last());
    const bool placed =
        recorded.index < 0
            ? color == Comm::kUndefined
            : color != Comm::kUndefined &&
                  static_cast<std::size_t>(recorded.index) < recorded.members->size() &&
                  (*recorded.members)[static_cast<std::size_t>(recorded.index)] == me;
    if (!placed) replay_feed_->diverge("recorded split outcome does not place this rank");
    co_return recorded;
  }
  SplitResult result;
  {
    const std::lock_guard<std::mutex> lock(split_mutex_);
    const auto it = split_boards_.find(id);
    if (it == split_boards_.end() ||
        it->second.posted != static_cast<int>(it->second.entries.size())) {
      throw std::logic_error("Comm::split: board read before every member posted");
    }
    SplitBoard& board = it->second;
    if (board.outcomes.empty()) build_split_outcomes(board);
    result = board.outcomes[static_cast<std::size_t>(my_index)];
    if (--board.unread == 0) split_boards_.erase(it);
  }
  if (record_section_ != nullptr) {
    record_section_->append(me, replay::encode_split(result, color, now));
  }
  co_return result;
}

// -------------------------------------------------- record / replay --------
//
// Recording appends one event per rank-visible transport completion (and per
// hooked clock read) to this World's section of the installed Recorder, each
// built by one replay::encode_* call; replay re-runs one rank against such a
// log, resuming it at the recorded absolute sim-times and verifying
// everything it emits against the recorded stream (docs/record-replay.md).

void World::attach_replay(replay::ReplayFeed* feed, int rank) {
  if (nshards_ != 1) {
    throw std::invalid_argument(
        "attach_replay: single-rank replay requires an unsharded World (--shards 1)");
  }
  if (feed == nullptr) throw std::invalid_argument("attach_replay: null feed");
  if (rank < 0 || rank >= size()) {
    throw std::out_of_range("attach_replay: rank " + std::to_string(rank) +
                            " not in a World of " + std::to_string(size()) + " ranks");
  }
  replay_feed_ = feed;
  replay_rank_ = rank;
  record_section_ = nullptr;  // a replay run is never itself recorded
}

double World::clock_read_hook(int rank, vclock::Clock& clock) {
  const sim::Time now = sim_of(rank).now();
  if (replay_feed_) {
    return replay::decode_clock_read(
        replay_feed_->expect({.kind = replay::EventKind::kClockRead, .at = now}));
  }
  const double value = clock.now();
  if (record_section_ != nullptr) {
    record_section_->append(rank, replay::encode_clock_read(value, now));
  }
  return value;
}

// Checks before it consumes, so a divergence names the mismatching event.
// A recorded departure marker at the head kills the rank there instead, as
// record mode did (the churn supervisor resumes the next incarnation).  The
// recording of a crash-stopped rank simply ends at its last completed
// operation, so an exhausted log means: advance to the failure model's crash
// time and die exactly as record mode did — or, when this rank never
// crashes, the replayed program out-ran the recording.
sim::Task<void> World::replay_step(int me, replay::Expected want) {
  sim::Simulation& s = sim_of(me);
  check_crash(me);
  if (replay_feed_->peek() == nullptr) {
    const sim::Time crash = detector_ ? fault_->next_down(me, s.now()) : sim::kTimeInfinity;
    if (crash >= sim::kTimeInfinity) {
      replay_feed_->diverge(
          "recorded event log exhausted (the replayed program performed more operations than "
          "the recording)");
    }
    if (crash > s.now()) {
      ResumeAt resume{&s, crash};
      co_await resume;
    }
    throw RankCrashed{me, s.now()};
  }
  const auto* departure = replay_feed_->take_departure();
  ResumeAt resume{&s, departure ? departure->time : replay_feed_->expect(want).time};
  co_await resume;
  if (departure) throw RankCrashed{me, s.now()};
  check_crash(me);
}

// One process per churning rank for the whole run: each scheduled up-period
// runs `fn` as a child coroutine (process accounting sees one spawn, like
// the guarded path), a RankCrashed unwind ends the incarnation, and the
// next one starts — with a purged mailbox and a fresh communicator — at the
// plan's restart time.  A program that completes normally ends the rank for
// good, so churn events scheduled beyond the last operation change nothing
// (the armed-but-unfired guarantee extends to churn plans).
sim::Task<void> World::churn_supervisor(RankFn fn, RankCtx& ctx) {
  const int rank = ctx.rank();
  sim::Simulation& s = sim_of(rank);
  const int incarnations = fault_->incarnation_count(rank);
  for (int k = 0; k < incarnations; ++k) {
    sim::Time start = fault_->up_start(rank, k);
    if (start >= sim::kTimeInfinity) break;           // a final crash: no restart
    if (fault_->up_end(rank, k) <= start) continue;   // empty slot (join: down from 0)
    if (replay_feed_ && k > 0) {
      // The restart instant was recorded as a membership "up" marker; resume
      // exactly there (and verify the plan still schedules this restart).
      if (replay_feed_->peek() == nullptr) co_return;  // recording ended while down
      start = replay_feed_->expect({.kind = replay::EventKind::kMembership, .role = true}).time;
    }
    if (start > s.now()) {
      if (replay_feed_) {
        ResumeAt resume{&s, start};
        co_await resume;
      } else {
        co_await s.delay(start - s.now());
      }
    }
    if (k > 0) {
      purge_mailbox(rank);
      ctx.reset_comm();
      if (record_section_ != nullptr) {
        record_section_->append(rank, replay::encode_membership(/*up=*/true, k, s.now()));
      }
    }
    try {
      co_await fn(ctx);
      co_return;  // normal completion: later churn events never fire
    } catch (const RankCrashed&) {
      // When the oracle check (not the feed) raised the crash, the recorded
      // down marker is still at the head: consume it so the restart below
      // sees the matching up marker.
      if (replay_feed_) replay_feed_->take_departure();
      if (record_section_ != nullptr) {
        record_section_->append(rank, replay::encode_membership(/*up=*/false, k, s.now()));
      }
    }
  }
}

}  // namespace hcs::simmpi
