#include "cluster/cluster.h"

#include <algorithm>

#include "util/jobtrace.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace pdm {

namespace {

double seconds(std::chrono::steady_clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

// Hold-queue depth on both telemetry planes: a counter track in the trace
// (renders as a graph in Perfetto) and a gauge in the metrics registry.
void note_hold_depth(usize depth) {
  PDM_TRACE_COUNTER("cluster", "hold_depth", depth);
  metrics::Registry::global().gauge("cluster.hold_depth").set(
      static_cast<i64>(depth));
}

}  // namespace

Cluster::Cluster(BackendFactory make_backend, ClusterConfig cfg)
    : make_backend_(std::move(make_backend)),
      cfg_(cfg),
      jobs_per_shard_(cfg.shards, 0) {
  // Mirror span durations into the metrics registry so metrics_text()
  // shows per-phase totals next to the trace (idempotent).
  metrics::install_span_histograms();
  PDM_CHECK(cfg.shards > 0, "Cluster needs at least one shard");
  PDM_CHECK(make_backend_ != nullptr, "Cluster needs a backend factory");
  PDM_CHECK(cfg.shard_configs.empty() || cfg.shard_configs.size() == cfg.shards,
            "shard_configs must be empty or have one entry per shard");
  slots_.reserve(cfg.shards);
  for (usize i = 0; i < cfg.shards; ++i) {
    ServiceConfig sc =
        cfg.shard_configs.empty() ? cfg.shard : cfg.shard_configs[i];
    slots_.push_back(Slot{make_service(static_cast<u32>(i), std::move(sc)),
                          SlotState::kActive});
    active_.push_back(static_cast<u32>(i));
  }
}

Cluster::~Cluster() {
  // Coordinator threads first, before anything stops: they only wait on
  // ordinary sub-jobs, which the still-live shards finish normally.
  std::vector<std::thread> coords;
  {
    std::lock_guard g(mu_);
    for (auto& [token, t] : dist_threads_) coords.push_back(std::move(t));
    dist_threads_.clear();
    dist_finished_threads_.clear();
  }
  for (auto& t : coords) {
    if (t.joinable()) t.join();
  }
  {
    std::lock_guard g(mu_);
    stopping_ = true;  // pumps and new submissions stop
  }
  // Disconnect the capacity callbacks so shard workers stop calling into
  // a dying cluster; an invocation already in flight blocks on mu_, sees
  // stopping_, and returns before the services (and then mu_) go away.
  for (auto& slot : slots_) {
    if (slot.service) slot.service->set_capacity_callback(nullptr);
  }
}

std::shared_ptr<SortService> Cluster::make_service(u32 id, ServiceConfig sc) {
  sc.shard_id = id;
  auto backend = make_backend_(id);
  PDM_CHECK(backend != nullptr, "backend factory returned null");
  auto svc = std::make_shared<SortService>(std::move(backend), sc);
  svc->set_capacity_callback([this] { on_capacity_freed(); });
  return svc;
}

bool Cluster::is_active_locked(u32 id) const {
  return std::binary_search(active_.begin(), active_.end(), id);
}

void Cluster::add_record_locked(JobId id, JobInfo rec) {
  records_.emplace(id, std::move(rec));
  record_fifo_.push_back(id);
  if (cfg_.retain_cluster_records_max == 0) return;
  // FIFO entries may be stale (forget() erases records without scrubbing
  // the queue); popping a stale id just advances the cursor.
  while (records_.size() > cfg_.retain_cluster_records_max &&
         !record_fifo_.empty()) {
    records_.erase(record_fifo_.front());
    record_fifo_.pop_front();
  }
}

JobInfo Cluster::held_snapshot(const HeldJob& h, JobState state) {
  JobInfo out;
  out.id = h.id;
  out.shard = h.home;
  out.name = h.job.spec.name;
  out.state = state;
  out.n = h.job.n;
  out.priority = h.job.spec.priority;
  out.trace_id = h.job.spec.trace_id;
  out.parent_trace_id = h.job.spec.parent_trace_id;
  out.queue_s = seconds(Clock::now() - h.t_submit);
  return out;
}

bool Cluster::held_before(const HeldJob& a, const HeldJob& b) {
  if (a.job.spec.priority != b.job.spec.priority) {
    return a.job.spec.priority > b.job.spec.priority;
  }
  if (a.deadline_abs != b.deadline_abs) return a.deadline_abs < b.deadline_abs;
  return a.id < b.id;
}

void Cluster::on_capacity_freed() {
  std::lock_guard g(mu_);
  if (stopping_) return;
  pump_locked();
}

void Cluster::pump_locked() {
  if (stopping_ || hold_.empty()) return;
  // Fresh headroom snapshot (each load() briefly takes its shard's
  // mutex; lock order is always cluster -> shard).
  std::vector<ShardLoad> loads(slots_.size());
  for (u32 s : active_) loads[s] = slots_[s].service->load();
  // The lowest-score active shard passing `ok` (ties to the lowest id),
  // or kHeldShard if none does.
  auto lowest_score = [&](auto ok) {
    u32 best = kHeldShard;
    for (u32 s : active_) {
      if (ok(s) && (best == kHeldShard ||
                    loads[s].score() < loads[best].score())) {
        best = s;
      }
    }
    return best;
  };

  auto& flight = jobtrace::FlightRecorder::instance();
  for (usize i = 0; i < hold_.size();) {
    HeldJob& h = hold_[i];
    // Stamp this iteration's instants/retro-spans with the held job's id.
    jobtrace::Scope trace_scope(h.job.spec.trace_id,
                                h.job.spec.parent_trace_id);
    auto carve_on = [&](u32 s) {
      return slots_[s].service->admission_carve(h.job.spec,
                                                h.job.record_bytes, h.job.n);
    };
    auto reject = [&](std::string why) {
      JobInfo rec = held_snapshot(h, JobState::kRejected);
      rec.error = std::move(why);
      flight.note_end(h.job.spec.trace_id, jobtrace::EventKind::kRejected,
                      rec.error.c_str(), /*bad=*/true, h.home);
      add_record_locked(h.id, std::move(rec));
      jobs_.erase(h.id);
      ++held_rejected_;
      hold_.erase(hold_.begin() + static_cast<std::ptrdiff_t>(i));
    };
    // The placement rule, applied on the job's first pump and again only
    // if its home has left the active set since: the pin while its shard
    // is active, else the lowest-score shard whose budget can hold the
    // carve.
    const u32 pin = h.job.spec.target_shard;
    const bool pinned =
        pin != SortJobSpec::kAnyShard && is_active_locked(pin);
    if (!is_active_locked(h.home)) {
      h.home = pinned ? pin : lowest_score([&](u32 s) {
        return carve_on(s) <= loads[s].budget_limit;
      });
    }
    const usize home_carve = h.home == kHeldShard ? 0 : carve_on(h.home);
    if (h.home == kHeldShard || home_carve > loads[h.home].budget_limit) {
      reject(
          "admission control: no active shard can fit the job's memory "
          "carve");
      continue;
    }
    // Home if it can start the job now, else (unpinned) the lowest-score
    // shard that can: a steal.
    u32 target = kHeldShard;
    usize target_carve = home_carve;
    if (loads[h.home].fits_now(home_carve)) {
      target = h.home;
    } else if (!pinned) {
      target = lowest_score(
          [&](u32 s) { return loads[s].fits_now(carve_on(s)); });
      if (target != kHeldShard) target_carve = carve_on(target);
    }
    // Deadline pump admission: a job that waits (or has waited) here and
    // whose calibrated run estimate no longer fits inside the time it has
    // left can only be dispatched to miss — reject it instead of holding
    // it or burning a shard slot on a hopeless run. A job dispatched by
    // its own submit's pump meets only the shard-side check, which this
    // one front-runs: same deadline_admission gate, same calibration EMA
    // (deadline_cal).
    if ((h.parked || target == kHeldShard) && h.job.spec.deadline_s > 0 &&
        slots_[h.home].service->config().deadline_admission) {
      SortService& svc = *slots_[h.home].service;
      const double est =
          svc.estimate_run_s(h.job.spec, h.job.record_bytes, h.job.n);
      const double ratio = svc.deadline_cal();
      const double cal = ratio > 0 ? ratio : 1.0;
      const double remaining =
          h.job.spec.deadline_s - seconds(Clock::now() - h.t_submit);
      if (est > 0 && est * cal > remaining) {
        PDM_TRACE_INSTANT_ARG("cluster", "held_rejected_deadline", "job",
                              h.id);
        ++held_rejected_deadline_;
        reject("deadline admission (pump): calibrated run estimate " +
               std::to_string(est * cal) +
               "s exceeds the deadline's remaining " +
               std::to_string(std::max(0.0, remaining)) + "s");
        continue;
      }
    }
    if (target == kHeldShard) {
      if (!h.parked) {
        // Still here after its own submit's pump: the job waits.
        h.parked = true;
        h.park_reason = pinned ? "pinned shard has no headroom"
                               : "no shard has headroom";
        flight.record(h.job.spec.trace_id, jobtrace::EventKind::kParked,
                      h.park_reason.c_str(), h.home);
        PDM_TRACE_INSTANT_ARG("cluster", "job_parked", "job", h.id);
        ++held_total_;
      }
      ++i;  // a capacity callback will retry
      continue;
    }
    // Dispatch. Deadlines are wall-clock promises made at submission:
    // charge the time spent in the cluster against the relative deadline
    // the serving shard sees.
    const double parked_s = seconds(Clock::now() - h.t_submit);
    if (h.job.spec.deadline_s > 0) {
      h.job.spec.deadline_s = std::max(1e-9, h.job.spec.deadline_s - parked_s);
    }
    if (target != h.home) {
      // Steal: record both shard ids — the home and where the job went.
      flight.record(h.job.spec.trace_id, jobtrace::EventKind::kStolen,
                    nullptr, h.home, target);
      trace::TraceLog::instance().instant("cluster", "job_stolen", "from",
                                          h.home, "to", target);
      ++stolen_;
    }
    if (h.parked) {
      const u64 parked_ns =
          parked_s > 0 ? static_cast<u64>(parked_s * 1e9) : 0;
      metrics::Registry::global().histogram("cluster.hold_park_ns").record(
          parked_ns);
      if (trace::TraceLog::instance().enabled()) {
        // Retro-span covering the park: submission to this dispatch.
        const u64 now_ns = trace::TraceLog::now_ns();
        const u64 dur = std::min(now_ns, parked_ns);
        trace::TraceLog::instance().complete("cluster", "hold_park",
                                             now_ns - dur, dur, "job", h.id);
      }
      flight.record(h.job.spec.trace_id, jobtrace::EventKind::kDispatched,
                    nullptr, target);
    }
    const JobId local =
        slots_[target].service->submit_prepared(std::move(h.job));
    jobs_[h.id] = Placement{target, local};
    ++jobs_per_shard_[target];
    // Reflect the job in our load copy so later holds in this pump see
    // the shard as (possibly) full again.
    loads[target].queued += 1;
    loads[target].reserved_bytes += target_carve;
    hold_.erase(hold_.begin() + static_cast<std::ptrdiff_t>(i));
  }
  note_hold_depth(hold_.size());
  place_cv_.notify_all();
}

JobId Cluster::submit_prepared(PreparedJob job) {
  PDM_CHECK(job.run != nullptr, "submit_prepared: empty job");
  // Everything a shard would refuse to queue is refused here, before the
  // job is registered: the pump hands jobs to shards and must not throw.
  // (NaN alpha would also break the shards' plan-cache ordering, which
  // placement reads through admission_carve.)
  check_job(job.spec, job.n);
  // Cluster admission is the id minting point for submitted jobs (range
  // sub-jobs arrive with ids already assigned by submit_distributed).
  if (job.spec.trace_id == 0) job.spec.trace_id = jobtrace::mint();
  jobtrace::Scope trace_scope(job.spec.trace_id, job.spec.parent_trace_id);
  // Placement cost = lock wait + the pump that places the job.
  trace::TraceSpan place_span("cluster", "placement", "n", job.n);
  std::lock_guard g(mu_);
  PDM_CHECK(!stopping_, "Cluster is shutting down");
  HeldJob h;
  h.id = next_id_++;
  h.t_submit = Clock::now();
  h.deadline_abs = deadline_at(h.t_submit, job.spec.deadline_s);
  h.job = std::move(job);
  const JobId id = h.id;
  hold_.insert(std::upper_bound(hold_.begin(), hold_.end(), h, held_before),
               std::move(h));
  jobs_.emplace(id, Placement{});  // kHeldShard until the pump places it
  pump_locked();
  maybe_prune_locked();
  return id;
}

u32 Cluster::add_shard() { return add_shard(cfg_.shard); }

u32 Cluster::add_shard(ServiceConfig sc) {
  std::lock_guard topo(topo_mu_);
  u32 id = 0;
  {
    std::lock_guard g(mu_);
    PDM_CHECK(!stopping_, "Cluster is shutting down");
    id = static_cast<u32>(slots_.size());
  }
  // Build the service outside the cluster mutex (its workers start
  // immediately); topo_mu_ keeps the id reservation safe.
  auto svc = make_service(id, std::move(sc));
  std::lock_guard g(mu_);
  slots_.push_back(Slot{std::move(svc), SlotState::kActive});
  jobs_per_shard_.push_back(0);
  active_.push_back(id);  // ids only grow: the list stays sorted
  ++shards_added_;
  // The newcomer takes parked backlog right away.
  pump_locked();
  place_cv_.notify_all();
  return id;
}

void Cluster::drain_shard(u32 id) {
  std::lock_guard topo(topo_mu_);
  std::shared_ptr<SortService> svc;
  {
    std::lock_guard g(mu_);
    PDM_CHECK(id < slots_.size(), "drain_shard: unknown shard");
    PDM_CHECK(slots_[id].state == SlotState::kActive,
              "drain_shard: shard is not active");
    PDM_CHECK(active_.size() > 1,
              "drain_shard: cannot drain the last active shard");
    // Graceful-shrink guard: a shard that owns an in-flight distributed
    // range cannot retire — pinned ranges run nowhere else. Checked under
    // mu_ BEFORE any state changes (dist_begin assigns targets under the
    // same mutex, so the fence cannot be raced), so a veto leaves the
    // topology untouched.
    for (const auto& [did, dj] : dist_jobs_) {
      for (u32 owner : dj.info.range_shards) {
        PDM_CHECK(owner != id,
                  "drain_shard: shard owns an in-flight range of "
                  "distributed job '" +
                      dj.info.name + "' (id " + std::to_string(did) +
                      "); distributed_wait() it before retiring the shard");
      }
    }
    // Step 1: leave the active set. Pumps stop picking the shard, and
    // held jobs homed on it re-home at this pump (a pinned one may now
    // start elsewhere).
    slots_[id].state = SlotState::kDraining;
    std::erase(active_, id);
    svc = slots_[id].service;
    pump_locked();
  }
  // Step 2: the jobs the shard already accepted finish there. Only a
  // pump hands a shard jobs, so none arrive from here on.
  svc->drain();
  // Step 3: move the shard's terminal records and final stats into
  // cluster-held storage, then retire the slot. Waiters still blocked
  // inside svc->wait() hold their own shared_ptr — the service object
  // outlives them.
  {
    std::lock_guard g(mu_);
    std::map<JobId, JobId> to_cluster;
    for (const auto& [cid, p] : jobs_) {
      if (p.shard == id) to_cluster[p.local] = cid;
    }
    for (JobInfo ji : svc->jobs()) {
      auto found = to_cluster.find(ji.id);
      if (found == to_cluster.end()) continue;  // submitted to the shard
      ji.id = found->second;
      const JobId cid = found->second;
      add_record_locked(cid, std::move(ji));
      jobs_.erase(cid);
    }
    // Placements still pointing here belong to records the shard's
    // retention policy evicted before the drain: drop them, so lookups
    // throw "unknown job id" exactly as post-eviction lookups always
    // have (instead of dangling on a retired slot).
    for (auto it = jobs_.begin(); it != jobs_.end();) {
      it = it->second.shard == id ? jobs_.erase(it) : ++it;
    }
    ServiceStats fin = svc->stats();
    fin.retained = 0;  // its records are cluster-held now
    retired_stats_.emplace(id, std::move(fin));
    slots_[id].service.reset();  // svc still holds a ref; dtor runs below
    slots_[id].state = SlotState::kRetired;
    ++shards_drained_;
    place_cv_.notify_all();
  }
  svc->set_capacity_callback(nullptr);
  // svc's destructor (joining the shard's idle workers) runs here if we
  // held the last reference — outside every lock.
}

bool Cluster::shard_active(u32 id) const {
  std::lock_guard g(mu_);
  return id < slots_.size() && slots_[id].state == SlotState::kActive;
}

std::vector<u32> Cluster::active_shards() const {
  std::lock_guard g(mu_);
  return active_;
}

usize Cluster::num_shards() const {
  std::lock_guard g(mu_);
  return slots_.size();
}

SortService& Cluster::shard(usize i) {
  std::lock_guard g(mu_);
  PDM_CHECK(i < slots_.size(), "cluster: unknown shard");
  PDM_CHECK(slots_[i].service != nullptr, "cluster: shard is retired");
  return *slots_[i].service;
}

Cluster::Placement Cluster::placement_of(JobId id) const {
  std::lock_guard g(mu_);
  auto it = jobs_.find(id);
  PDM_CHECK(it != jobs_.end(), "cluster: unknown job id");
  return it->second;
}

JobInfo Cluster::wait(JobId id) {
  std::unique_lock lock(mu_);
  for (;;) {
    if (auto r = records_.find(id); r != records_.end()) return r->second;
    auto it = jobs_.find(id);
    PDM_CHECK(it != jobs_.end(), "cluster: unknown job id");
    const Placement p = it->second;
    if (p.shard != kHeldShard) {
      // A placement never moves; a retirement that publishes the record
      // meanwhile leaves the service (held by svc) answering.
      auto svc = slots_[p.shard].service;
      lock.unlock();
      JobInfo info = svc->wait(p.local);
      info.id = id;
      return info;
    }
    place_cv_.wait(lock);  // parked: wait for its dispatch or its record
  }
}

JobInfo Cluster::info(JobId id) const {
  std::shared_ptr<SortService> svc;
  JobId local = 0;
  {
    std::lock_guard g(mu_);
    if (auto r = records_.find(id); r != records_.end()) return r->second;
    auto it = jobs_.find(id);
    PDM_CHECK(it != jobs_.end(), "cluster: unknown job id");
    if (it->second.shard == kHeldShard) {
      // Synthesize a queued snapshot from the hold entry.
      auto held = std::find_if(hold_.begin(), hold_.end(),
                               [&](const HeldJob& h) { return h.id == id; });
      PDM_ASSERT(held != hold_.end(), "held placement without a hold entry");
      return held_snapshot(*held, JobState::kQueued);
    }
    svc = slots_[it->second.shard].service;
    local = it->second.local;
  }
  JobInfo out = svc->info(local);
  out.id = id;
  return out;
}

bool Cluster::cancel(JobId id) {
  {
    std::lock_guard g(mu_);
    if (dist_records_.count(id) != 0) return false;  // terminal distributed
  }
  if (dist_cancel(id)) return true;
  std::shared_ptr<SortService> svc;
  JobId local = 0;
  {
    std::lock_guard g(mu_);
    if (records_.count(id) != 0) return false;  // already terminal
    auto held = std::find_if(hold_.begin(), hold_.end(),
                             [&](const HeldJob& h) { return h.id == id; });
    if (held != hold_.end()) {
      jobtrace::FlightRecorder::instance().note_end(
          held->job.spec.trace_id, jobtrace::EventKind::kCancelled,
          "cancelled while parked", /*bad=*/true, held->home);
      add_record_locked(id, held_snapshot(*held, JobState::kCancelled));
      hold_.erase(held);
      note_hold_depth(hold_.size());
      jobs_.erase(id);  // the record answers lookups from here on
      ++held_cancelled_;
      place_cv_.notify_all();
      return true;
    }
    auto it = jobs_.find(id);
    if (it == jobs_.end()) return false;
    PDM_ASSERT(it->second.shard != kHeldShard,
               "held placement without a hold entry");
    svc = slots_[it->second.shard].service;
    local = it->second.local;
  }
  return svc->cancel(local);
}

bool Cluster::forget(JobId id) {
  std::unique_lock lock(mu_);
  if (auto r = records_.find(id); r != records_.end()) {
    records_.erase(r);
    jobs_.erase(id);
    return true;
  }
  if (auto d = dist_records_.find(id); d != dist_records_.end()) {
    dist_records_.erase(d);
    place_cv_.notify_all();  // racing distributed_wait()ers must throw
    return true;
  }
  if (dist_jobs_.count(id) != 0) return false;  // coordinator still live
  auto it = jobs_.find(id);
  if (it == jobs_.end()) return false;
  const Placement p = it->second;
  if (p.shard == kHeldShard) return false;  // still queued (held)
  auto svc = slots_[p.shard].service;
  lock.unlock();
  // The shard refuses while the job is queued/running; a record the
  // shard's retention policy already dropped counts as forgotten.
  const bool dropped = svc->forget(p.local) || !svc->known(p.local);
  if (!dropped) return false;
  lock.lock();
  // A retirement in between may have copied the record to cluster level.
  records_.erase(id);
  jobs_.erase(id);
  return true;
}

void Cluster::maybe_prune_locked() {
  if (++submits_since_prune_ < kPruneInterval) return;
  submits_since_prune_ = 0;
  // Amortized O(1) per submit: without this, shard-side retention would
  // leave the cluster's id map growing one dead mapping per evicted job.
  for (auto it = jobs_.begin(); it != jobs_.end();) {
    const Placement& p = it->second;
    if (p.shard != kHeldShard && slots_[p.shard].service != nullptr &&
        !slots_[p.shard].service->known(p.local)) {
      it = jobs_.erase(it);
    } else {
      ++it;
    }
  }
}

void Cluster::drain() {
  for (;;) {
    {
      std::unique_lock lock(mu_);
      place_cv_.wait(lock,
                     [&] { return hold_.empty() && dist_jobs_.empty(); });
    }
    // Everything is dispatched; drain the active shards (outside mu_ —
    // capacity callbacks must be able to pump while we block).
    std::vector<std::shared_ptr<SortService>> svcs;
    {
      std::lock_guard g(mu_);
      for (const Slot& s : slots_) {
        if (s.state == SlotState::kActive) svcs.push_back(s.service);
      }
    }
    for (auto& s : svcs) s->drain();
    std::lock_guard g(mu_);
    if (hold_.empty() && dist_jobs_.empty()) return;
  }
}

double Cluster::seconds_since(Clock::time_point t0) {
  return seconds(Clock::now() - t0);
}

Cluster::DistBegin Cluster::dist_begin(const std::string& name,
                                       const RangePartitionStats& pst,
                                       u64 trace_id) {
  std::lock_guard g(mu_);
  PDM_CHECK(!stopping_, "Cluster is shutting down");
  PDM_CHECK(!active_.empty(), "submit_distributed: no active shards");
  DistBegin b;
  b.id = next_id_++;
  b.targets.reserve(pst.ranges);
  for (u32 r = 0; r < pst.ranges; ++r) {
    b.targets.push_back(active_[r % active_.size()]);
  }
  DistJob dj;
  dj.info.id = b.id;
  dj.info.name = name;
  dj.info.trace_id = trace_id;
  dj.info.state = JobState::kRunning;
  dj.info.n = pst.n;
  dj.info.oversample = pst.oversample;
  dj.info.skew = pst.skew;
  dj.info.range_shards = b.targets;
  dj.info.sub_jobs.assign(pst.ranges, 0);
  dj.info.range_records = pst.sizes;
  dj.info.range_reports.resize(pst.ranges);
  dist_jobs_.emplace(b.id, std::move(dj));
  ++dist_submitted_;
  return b;
}

void Cluster::dist_set_sub(JobId dist, u32 range, JobId sub) {
  bool cancel_now = false;
  {
    std::lock_guard g(mu_);
    auto it = dist_jobs_.find(dist);
    PDM_ASSERT(it != dist_jobs_.end(), "dist_set_sub: unknown job");
    it->second.info.sub_jobs[range] = sub;
    cancel_now = it->second.cancel_requested;
  }
  // cancel() raced the submission loop: the latch covers the gap.
  if (cancel_now) cancel(sub);
}

void Cluster::dist_spawn(JobId dist, std::function<void()> body) {
  std::vector<std::thread> reap;
  {
    std::lock_guard g(mu_);
    PDM_CHECK(!stopping_, "Cluster is shutting down");
    auto dj = dist_jobs_.find(dist);
    PDM_ASSERT(dj != dist_jobs_.end(), "dist_spawn: unknown job");
    const u64 trace_id = dj->second.info.trace_id;
    reap = reap_dist_threads_locked();
    const u64 token = next_dist_thread_++;
    dist_threads_.emplace(
        token, std::thread([this, token, trace_id, b = std::move(body)] {
          trace::TraceLog::instance().set_thread_name("dist-coord");
          {
            // The coordinator works on the distributed job's behalf:
            // dist_coordinate and the dist_concat inside the body carry
            // its id.
            jobtrace::Scope scope(trace_id);
            trace::TraceSpan span("cluster", "dist_coordinate");
            b();
          }
          // Last touch of the cluster: queue this thread for reaping by
          // the next dist_spawn (or the destructor, which joins the
          // whole registry regardless).
          std::lock_guard done(mu_);
          dist_finished_threads_.push_back(token);
        }));
  }
  for (auto& t : reap) t.join();
}

std::vector<std::thread> Cluster::reap_dist_threads_locked() {
  std::vector<std::thread> done;
  done.reserve(dist_finished_threads_.size());
  for (u64 token : dist_finished_threads_) {
    if (auto it = dist_threads_.find(token); it != dist_threads_.end()) {
      done.push_back(std::move(it->second));
      dist_threads_.erase(it);
    }
  }
  dist_finished_threads_.clear();
  return done;
}

DistributedInfo Cluster::dist_seal(JobId dist, JobState fin,
                                   std::vector<SortReport> reports,
                                   std::string error, double wall_s) {
  std::lock_guard g(mu_);
  auto it = dist_jobs_.find(dist);
  PDM_ASSERT(it != dist_jobs_.end(), "dist_seal: unknown job");
  DistributedInfo& info = it->second.info;
  info.state = fin;
  if (reports.size() == info.range_reports.size()) {
    info.range_reports = std::move(reports);
  }
  info.error = std::move(error);
  info.wall_s = wall_s;
  return info;
}

void Cluster::dist_publish(JobId dist) {
  std::lock_guard g(mu_);
  auto it = dist_jobs_.find(dist);
  PDM_ASSERT(it != dist_jobs_.end(), "dist_publish: unknown job");
  DistributedInfo info = std::move(it->second.info);
  switch (info.state) {
    case JobState::kDone: ++dist_completed_; break;
    case JobState::kCancelled: ++dist_cancelled_; break;
    default: ++dist_failed_; break;
  }
  jobtrace::FlightRecorder::instance().note_end(
      info.trace_id,
      info.state == JobState::kCancelled ? jobtrace::EventKind::kCancelled
                                         : jobtrace::EventKind::kFinished,
      job_state_name(info.state), /*bad=*/info.state != JobState::kDone);
  dist_last_range_records_ = info.range_records;
  dist_last_skew_ = info.skew;
  dist_max_skew_ = std::max(dist_max_skew_, info.skew);
  dist_jobs_.erase(it);
  dist_records_.emplace(dist, std::move(info));
  place_cv_.notify_all();  // distributed_wait()ers and drain()
}

bool Cluster::dist_cancel(JobId id) {
  std::vector<JobId> subs;
  {
    std::lock_guard g(mu_);
    auto it = dist_jobs_.find(id);
    if (it == dist_jobs_.end()) return false;
    it->second.cancel_requested = true;
    for (JobId s : it->second.info.sub_jobs) {
      if (s != 0) subs.push_back(s);
    }
  }
  // Sub-job cancellation outside mu_ (cancel() relocks it). Best effort:
  // ranges already past their last checkpoint finish regardless.
  for (JobId s : subs) cancel(s);
  return true;
}

DistributedInfo Cluster::distributed_wait(JobId id) {
  std::unique_lock lock(mu_);
  PDM_CHECK(dist_jobs_.count(id) != 0 || dist_records_.count(id) != 0,
            "cluster: unknown distributed job id");
  // "No longer live" also covers a record forget() dropped mid-wait —
  // without it a forgotten id would block here forever.
  place_cv_.wait(lock, [&] {
    return dist_records_.count(id) != 0 || dist_jobs_.count(id) == 0;
  });
  auto it = dist_records_.find(id);
  PDM_CHECK(it != dist_records_.end(),
            "cluster: distributed job record was forgotten");
  return it->second;
}

DistributedInfo Cluster::distributed_info(JobId id) const {
  std::lock_guard g(mu_);
  if (auto r = dist_records_.find(id); r != dist_records_.end()) {
    return r->second;
  }
  auto it = dist_jobs_.find(id);
  PDM_CHECK(it != dist_jobs_.end(), "cluster: unknown distributed job id");
  return it->second.info;
}

u32 Cluster::shard_of(JobId id) const {
  {
    std::lock_guard g(mu_);
    if (auto r = records_.find(id); r != records_.end()) {
      return r->second.shard;
    }
  }
  return placement_of(id).shard;
}

ClusterStats Cluster::stats() const {
  ClusterStats c;
  // Live shard snapshots are taken outside the cluster lock (each
  // stats() takes its shard's mutex); retired snapshots and the
  // cluster-side counters come after, under it.
  std::vector<std::shared_ptr<SortService>> svcs;
  {
    std::lock_guard g(mu_);
    svcs.reserve(slots_.size());
    for (const Slot& s : slots_) svcs.push_back(s.service);
  }
  std::vector<ServiceStats> per_shard(svcs.size());
  for (usize i = 0; i < svcs.size(); ++i) {
    if (svcs[i]) per_shard[i] = svcs[i]->stats();
  }
  {
    std::lock_guard g(mu_);
    c.shards = slots_.size();
    c.active = active_.size();
    for (usize i = 0; i < slots_.size(); ++i) {
      if (auto it = retired_stats_.find(static_cast<u32>(i));
          it != retired_stats_.end()) {
        per_shard[i] = it->second;  // final snapshot of a drained shard
      }
    }
    c.jobs_per_shard = jobs_per_shard_;
    c.held_now = hold_.size();
    c.held_total = held_total_;
    c.held_cancelled = held_cancelled_;
    c.held_rejected = held_rejected_;
    c.held_rejected_deadline = held_rejected_deadline_;
    c.stolen = stolen_;
    c.shards_added = shards_added_;
    c.shards_drained = shards_drained_;
    c.cluster_records = records_.size();
    c.distributed_jobs = dist_submitted_;
    c.distributed_active = dist_jobs_.size();
    c.distributed_completed = dist_completed_;
    c.distributed_cancelled = dist_cancelled_;
    c.distributed_failed = dist_failed_;
    c.dist_range_records = dist_last_range_records_;
    c.dist_skew = dist_last_skew_;
    c.dist_skew_max = dist_max_skew_;
  }
  c.per_shard = std::move(per_shard);
  c.io.reset(0);
  double max_window = 0;
  for (const ServiceStats& s : c.per_shard) {
    c.submitted += s.submitted;
    c.completed += s.completed;
    c.failed += s.failed;
    c.cancelled += s.cancelled;
    c.rejected += s.rejected;
    c.deadline_missed += s.deadline_missed;
    c.retained += s.retained;
    c.batches_run += s.batches_run;
    c.peak_memory_bytes += s.peak_memory_bytes;
    max_window = std::max(max_window, s.busy_window_s);
    c.io.read_ops += s.io.read_ops;
    c.io.write_ops += s.io.write_ops;
    c.io.blocks_read += s.io.blocks_read;
    c.io.blocks_written += s.io.blocks_written;
    c.io.sim_time_s += s.io.sim_time_s;
    c.io.disk_reads.insert(c.io.disk_reads.end(), s.io.disk_reads.begin(),
                           s.io.disk_reads.end());
    c.io.disk_writes.insert(c.io.disk_writes.end(), s.io.disk_writes.begin(),
                            s.io.disk_writes.end());
    c.blocks_per_shard.push_back(s.io.total_blocks());
  }
  // Hold-queue terminals never reached a shard; parked jobs have not
  // yet: account them cluster-side so submitted = terminal sums + live.
  c.submitted += c.held_now + c.held_cancelled + c.held_rejected;
  c.cancelled += c.held_cancelled;
  c.rejected += c.held_rejected;
  c.retained += c.cluster_records;
  if (c.completed > 0 && max_window > 0) {
    c.jobs_per_sec = static_cast<double>(c.completed) / max_window;
  }
  c.job_imbalance = imbalance_ratio(c.jobs_per_shard);
  c.io_imbalance = imbalance_ratio(c.blocks_per_shard);
  return c;
}

std::string Cluster::metrics_text() const {
  {
    std::lock_guard g(mu_);
    note_hold_depth(hold_.size());
  }
  return metrics::Registry::global().text();
}

introspect::StateDump Cluster::dump_state() const {
  introspect::StateDump d;
  auto& flight = jobtrace::FlightRecorder::instance();
  {
    std::lock_guard g(mu_);
    // Reverse-map local shard ids to cluster ids so the dump's job ids
    // answer to wait()/info()/cancel().
    std::vector<std::map<JobId, JobId>> to_cluster(slots_.size());
    for (const auto& [cid, p] : jobs_) {
      if (p.shard != kHeldShard) to_cluster[p.shard][p.local] = cid;
    }
    for (usize i = 0; i < slots_.size(); ++i) {
      const Slot& slot = slots_[i];
      introspect::ShardSnapshot ss;
      ss.shard = static_cast<u32>(i);
      ss.active = slot.state == SlotState::kActive;
      if (slot.service) {
        // Shard calls under mu_ follow the established cluster -> shard
        // lock order (same as pump_locked's load() polls).
        const ShardLoad l = slot.service->load();
        ss.queued = l.queued;
        ss.running = l.running;
        ss.workers = l.workers;
        ss.reserved_bytes = l.reserved_bytes;
        ss.budget_limit = l.budget_limit;
        ss.cpu_in_use = l.cpu_in_use;
        ss.cpu_total = l.cpu_total;
        for (const JobInfo& ji : slot.service->jobs()) {
          if (job_state_terminal(ji.state)) continue;
          introspect::JobSnapshot js;
          auto found = to_cluster[i].find(ji.id);
          js.id = found != to_cluster[i].end() ? found->second : ji.id;
          js.trace_id = ji.trace_id;
          js.name = ji.name;
          js.shard = static_cast<u32>(i);
          js.state = job_state_name(ji.state);
          js.phase = flight.last_event_name(ji.trace_id);
          js.n = ji.n;
          js.priority = ji.priority;
          js.queue_s = ji.queue_s;
          js.run_s = ji.run_s;
          d.in_flight.push_back(std::move(js));
        }
      }
      d.shards.push_back(ss);
    }
    for (const HeldJob& h : hold_) {
      introspect::HeldSnapshot hs;
      hs.id = h.id;
      hs.trace_id = h.job.spec.trace_id;
      hs.name = h.job.spec.name;
      hs.home = h.home;
      hs.park_reason = h.park_reason;
      hs.n = h.job.n;
      hs.priority = h.job.spec.priority;
      hs.parked_s = seconds(Clock::now() - h.t_submit);
      d.held.push_back(std::move(hs));
    }
    d.distributed_active = dist_jobs_.size();
    note_hold_depth(hold_.size());
  }
  // Registry text after releasing mu_ (it refreshes trace gauges and
  // takes its own lock).
  d.metrics = metrics::Registry::global().text();
  return d;
}

std::string Cluster::introspect_text() const {
  return introspect::to_text(dump_state());
}

}  // namespace pdm
