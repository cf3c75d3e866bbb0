#include "runtime/residency.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <utility>

#include "common/logging.h"

namespace harmony::runtime {

void Residency::Reset(const core::TaskGraph& graph, const StepProgram& program,
                      std::span<const Bytes> capacities, trace::TraceBus* bus,
                      trace::MetricsSink* metrics,
                      fault::FaultInjector* injector,
                      fault::ChaosDriver* reliable) {
  graph_ = &graph;
  program_ = &program;
  bus_ = bus;
  metrics_ = metrics;
  injector_ = injector;
  reliable_ = reliable;
  traced_ = bus != nullptr && bus->active();
  tensor_events_ = traced_ && bus->tensor_events();
  num_devices_ = static_cast<int>(capacities.size());
  if (mem_.size() < capacities.size()) {
    mem_.resize(capacities.size());
    alloc_queue_.resize(capacities.size());
  }
  for (int d = 0; d < num_devices_; ++d) {
    mem_[d].Reset(capacities[d], program.tensors.size());
    alloc_queue_[d].clear();
  }
  evictions_in_flight_.assign(capacities.size(), 0);
  table_.Reset(program.tensors.size());
  host_bytes_ = 0;
}

void Residency::DropWaiters() {
  for (TensorId id = 0; id < table_.size(); ++id) {
    TensorState& st = table_.Get(id);
    st.creation_waiters.DropAll(env_.engine);
    st.arrival_waiters.DropAll(env_.engine);
    st.host_waiters.DropAll(env_.engine);
  }
}

// ---------------------------------------------------------------------------
// Trace plumbing
// ---------------------------------------------------------------------------

void Residency::Publish(trace::EventKind kind, trace::Lane lane, int device,
                        Bytes bytes, const char* detail) {
  trace::Event e;
  e.kind = kind;
  e.lane = lane;
  e.device = device;
  e.time = env_.engine->now();
  e.bytes = bytes;
  e.detail = detail;
  bus_->Emit(e);
}

void Residency::PublishTensor(TensorId id, const char* detail, int device) {
  trace::Event e;
  e.kind = trace::EventKind::kTensor;
  e.lane = trace::Lane::kAlloc;
  e.device = device;
  e.time = env_.engine->now();
  e.detail = detail;
  tensor_name_ = KeyOf(id).ToString();
  e.name = tensor_name_.c_str();
  bus_->Emit(e);
}

// ---------------------------------------------------------------------------
// Host accounting
// ---------------------------------------------------------------------------

void Residency::SetStaticHostBytes(Bytes bytes) {
  host_bytes_ = bytes;
  EmitInstant(trace::EventKind::kHostBytes, trace::Lane::kHost, -1,
              host_bytes_);
}

void Residency::AddHostBuffer(TensorState* st) {
  host_bytes_ += st->bytes;
  EmitInstant(trace::EventKind::kHostBytes, trace::Lane::kHost, -1,
              host_bytes_);
}

void Residency::DropHostBuffer(TensorState* st) {
  host_bytes_ -= st->bytes;
  EmitInstant(trace::EventKind::kHostBytes, trace::Lane::kHost, -1,
              host_bytes_);
}

// ---------------------------------------------------------------------------
// Tensor lifetime
// ---------------------------------------------------------------------------

bool Residency::AutoCreate(TensorId id, Bytes bytes) {
  const TensorKey& key = KeyOf(id);
  const bool creatable =
      key.kind == TensorKind::kWeight || key.kind == TensorKind::kOptState ||
      (key.kind == TensorKind::kActivation && key.layer == 0);
  if (!creatable) return false;
  TensorState& st = table_.Get(id);
  st.bytes = bytes;
  st.exists = true;
  st.on_host = true;
  if (key.kind == TensorKind::kActivation) {
    // Loader data occupies host memory until consumed; persistent state
    // (weights, optimizer) is counted in the static host footprint.
    AddHostBuffer(&st);
    st.refs_remaining = RefCount(id);
  }
  return true;
}

void Residency::FreeTensor(TensorId id) {
  TensorState& st = table_.Get(id);
  TraceTensor(id, "free", -1);
  for (uint32_t rem = st.resident_gpus; rem != 0; rem &= rem - 1) {
    const int d = std::countr_zero(rem);
    if (st.EvictingOn(d) || mem_[d].IsPinned(id)) {
      // An eviction or an in-flight host-copy flow still holds this copy;
      // its completion handler releases the residency once `exists` is
      // false.
      continue;
    }
    mem_[d].RemoveResident(id);
    st.SetResident(d, false);
  }
  const TensorKind kind = KeyOf(id).kind;
  if (st.on_host &&
      (kind == TensorKind::kActivation || kind == TensorKind::kGradAct ||
       kind == TensorKind::kStash || kind == TensorKind::kGrad)) {
    DropHostBuffer(&st);
    st.on_host = false;
  }
  st.exists = false;
  st.fault_evicted_gpus = 0;  // a freed tensor has nothing left to heal
  st.fault_host_copy = false;
}

void Residency::HostArrived(TensorId id) {
  table_.Get(id).host_waiters.RunAll(env_.engine);
}

// ---------------------------------------------------------------------------
// Allocation & eviction
// ---------------------------------------------------------------------------

void Residency::AllocForProduce(const ProduceSpec& p, StepToken token) {
  table_.Get(p.id).bytes = p.bytes;
  RequestAlloc(token.device, AllocReq{p.id, p.bytes, token});
}

void Residency::RequestAlloc(int d, const AllocReq& req) {
  TraceTensor(req.id, "alloc-request", d);
  alloc_queue_[d].push_back(req);
  PumpAllocator(d);
}

void Residency::Grant(int d, const AllocReq& req) {
  if (req.fetch) {
    StartFetch(req.id, req.src, req.token);
    return;
  }
  HARMONY_DCHECK_EQ(d, req.token.device);
  env_.committed(req.token);
  env_.arrived(req.token);
}

void Residency::PumpAllocator(int d) {
  if (env_.failed()) return;
  while (!alloc_queue_[d].empty()) {
    // Valid until something queues a request: each branch copies what it
    // needs before Grant, and does not read `req` after StartEviction.
    AllocReq& req = alloc_queue_[d].front();
    if (req.fault_waiting) return;  // the backoff retry timer owns this slot
    if (mem_[d].IsResident(req.id)) {
      TensorState& st = table_.Get(req.id);
      if (st.EvictingOn(d)) {
        // The previous copy is on its way out (e.g. a gradient push); its
        // completion re-pumps this queue.
        return;
      }
      // Re-produced accumulation buffer whose copy survived on-device:
      // reuse the existing allocation.
      TraceTensor(req.id, "alloc-reuse", d);
      mem_[d].Pin(req.id);
      const AllocReq granted = req;
      alloc_queue_[d].pop_front();
      Grant(d, granted);
      continue;
    }
    if (req.bytes <= mem_[d].free_bytes()) {
      if (injector_ != nullptr && injector_->AllocFails()) {
        // Injected transient allocation failure (fragmentation): retry with
        // jittered backoff, fatal only once the plan's budget is spent.
        EmitFault(trace::EventKind::kFaultInjected, d, req.bytes,
                  "alloc-failure");
        if (req.fault_attempts >= injector_->plan().max_alloc_retries) {
          env_.fail(Status::OutOfMemory(
              "injected alloc-failure for " + KeyOf(req.id).ToString() +
              " on device " + std::to_string(d) + " persisted past " +
              std::to_string(req.fault_attempts) + " retries (chaos " +
              injector_->plan().Describe() + ")"));
          return;
        }
        const TimeSec delay = injector_->BackoffDelay(req.fault_attempts);
        ++req.fault_attempts;
        req.fault_waiting = true;
        env_.engine->After(delay, [this, d]() {
          if (env_.failed() || alloc_queue_[d].empty()) return;
          alloc_queue_[d].front().fault_waiting = false;
          PumpAllocator(d);
        });
        return;
      }
      if (req.fault_attempts > 0) {
        EmitFault(trace::EventKind::kFaultRecovered, d, 0, "alloc-failure");
      }
      TraceTensor(req.id, "alloc-grant", d);
      mem_[d].AddResident(req.id, req.bytes);
      mem_[d].Pin(req.id);
      EmitInstant(trace::EventKind::kDeviceBytes, trace::Lane::kAlloc, d,
                  mem_[d].used());
      const AllocReq granted = req;
      alloc_queue_[d].pop_front();
      Grant(d, granted);
      continue;
    }
    const Bytes deficit = req.bytes - mem_[d].free_bytes();
    // Harmony's memory manager evicts just enough, coldest-first. LMS-style
    // virtualization (the per-GPU-swap baselines) instead swaps out *all*
    // inactive tensors once the limit is hit — the eviction storms behind
    // the paper's 100-300x baseline swap volumes (Fig 10).
    const Bytes want = graph_->flags.smart_eviction
                           ? deficit
                           : std::numeric_limits<Bytes>::max();
    mem_[d].PickVictims(want, &victims_);
    if (victims_.empty()) {
      if (evictions_in_flight_[d] > 0) {
        // Retry when one lands.
        EmitInstant(trace::EventKind::kAllocStall, trace::Lane::kAlloc, d,
                    deficit);
        return;
      }
      if (env_.steps_in_flight(d)) {
        // Another in-flight step will finish and unpin its tensors; the
        // allocator is re-pumped from the executor's step completion.
        EmitInstant(trace::EventKind::kAllocStall, trace::Lane::kAlloc, d,
                    deficit);
        return;
      }
      if (mem_[d].pressure() > 0) {
        // An injected pressure spike is squatting on the capacity this
        // allocation needs: wait it out (the spike's release re-pumps this
        // queue) instead of declaring a working-set OOM the fault-free run
        // would never hit. The watchdog converts a permanent spike into
        // diagnostics.
        EmitInstant(trace::EventKind::kAllocStall, trace::Lane::kAlloc, d,
                    deficit);
        return;
      }
      env_.fail(Status::OutOfMemory(
          "device " + std::to_string(d) + " cannot fit " +
          KeyOf(req.id).ToString() + " (" + FormatBytes(req.bytes) +
          "): working set exceeds capacity"));
      return;
    }
    const Bytes free_before = mem_[d].free_bytes();
    // Evictions forced purely by an injected pressure spike are recovery
    // actions the fault-free run never makes: classify each victim against
    // the deficit that would exist with the spike's bytes given back. With
    // smart_eviction off the fault-free run evicts everything inactive
    // anyway, so every victim stays semantic.
    const bool classify =
        graph_->flags.smart_eviction && mem_[d].pressure() > 0;
    Bytes natural_deficit = std::max<Bytes>(
        0, req.bytes - (mem_[d].free_bytes() + mem_[d].pressure()));
    for (const TensorId v : victims_) {
      const bool recovery = classify && natural_deficit <= 0;
      natural_deficit =
          std::max<Bytes>(0, natural_deficit - table_.Get(v).bytes);
      StartEviction(d, v, recovery);
    }
    if (mem_[d].free_bytes() > free_before) continue;  // clean drops freed space
    return;  // all victims are async transfers; resume from their completions
  }
}

void Residency::StartEviction(int d, TensorId id, bool fault_recovery) {
  TensorState& st = table_.Get(id);
  HARMONY_CHECK(st.ResidentOn(d))
      << "evicting " << KeyOf(id).ToString() << " with no copy on device " << d;
  TraceTensor(id, fault_recovery ? "fault-evict-start" : "evict-start", d);
  mem_[d].Pin(id);  // exclude from further victim picks
  st.SetEvicting(d, true);
  if (fault_recovery) st.SetFaultEvicted(d, true);
  // Harmony's state machine drops copies that are backed elsewhere without a
  // transfer; LMS-style baselines always write the victim to host.
  const bool backed = st.on_host || st.NumResident() > 1;
  if (backed && graph_->flags.smart_eviction) {
    // Dropped synchronously; the caller (PumpAllocator) observes the freed
    // space — no re-entrant pump, which would double-evict from its stale
    // victim list.
    if (fault_recovery) {
      EmitFault(trace::EventKind::kFaultRecovered, d, 0, "mem-pressure");
    } else {
      EmitInstant(trace::EventKind::kCleanDrop, trace::Lane::kAlloc, d,
                  st.bytes);
    }
    st.SetResident(d, false);
    st.SetEvicting(d, false);
    mem_[d].Unpin(id);
    mem_[d].RemoveResident(id);
    return;
  }
  ++evictions_in_flight_[d];
  const Bytes bytes = st.bytes;
  sim::Condition* flow_done =
      swapout(d).Push({}, [this, d, bytes](sim::Stream::Done done) {
        Transfer(env_.net->SwapOutPath(d), bytes, d, done);
      });
  flow_done->OnFire([this, d, id, fault_recovery]() {
    TensorState& st = table_.Get(id);
    if (fault_recovery) {
      // The emergency eviction's transfer is recovery traffic, and the host
      // copy it writes exists only because of the fault (unless a semantic
      // write-back claimed the bytes while this was in flight).
      EmitFault(trace::EventKind::kFaultRecovered, d, st.bytes,
                "mem-pressure");
      if (st.FaultEvictedOn(d) && st.exists && !st.on_host) {
        st.fault_host_copy = true;
      }
    } else {
      EmitInstant(trace::EventKind::kSwapOutIssued, trace::Lane::kSwapOut, d,
                  st.bytes);
      EmitInstant(trace::EventKind::kEvict, trace::Lane::kAlloc, d, st.bytes);
      st.fault_host_copy = false;  // the host copy is semantic now
    }
    if (st.exists && !st.on_host) {
      AddHostBuffer(&st);
      st.on_host = true;
      st.gpu_dirty = false;
    }
    st.SetResident(d, false);
    st.SetEvicting(d, false);
    mem_[d].Unpin(id);
    mem_[d].RemoveResident(id);
    --evictions_in_flight_[d];
    if (st.exists) HostArrived(id);
    PumpAllocator(d);
  });
}

// ---------------------------------------------------------------------------
// Fault hooks
// ---------------------------------------------------------------------------

Bytes Residency::ApplyFaultPressure(int d, double fraction) {
  const Bytes steal =
      static_cast<Bytes>(static_cast<double>(mem_[d].capacity()) * fraction);
  mem_[d].SetPressure(steal);
  // Emergency eviction: reclaim the overdraft right away so the spike
  // behaves like a real co-tenant allocation rather than a lazy debt. Every
  // victim is recovery-classified — the fault-free run keeps them resident.
  if (mem_[d].free_bytes() < 0) {
    mem_[d].PickVictims(-mem_[d].free_bytes(), &victims_);
    for (const TensorId v : victims_) {
      StartEviction(d, v, /*fault_recovery=*/true);
    }
  }
  PumpAllocator(d);
  return steal;
}

Bytes Residency::ReleaseFaultPressure(int d) {
  const Bytes steal = mem_[d].pressure();
  mem_[d].SetPressure(0);
  PumpAllocator(d);
  return steal;
}

// ---------------------------------------------------------------------------
// Fetching
// ---------------------------------------------------------------------------

void Residency::EnsureResident(const NeedSpec& need, StepToken token) {
  if (env_.failed()) return;
  const int d = token.device;
  const TensorId id = need.id;
  // Every wait re-runs this with the same (need, token): the need lives in
  // the borrowed program, so the waiter is three words, held inline.
  auto retry = [this, need = &need, token]() { EnsureResident(*need, token); };
  TensorState& state = table_.Get(id);
  if (!state.exists) {
    if (!AutoCreate(id, need.bytes)) {
      state.creation_waiters.Add(env_.engine, retry);  // wait for the producer
      return;
    }
  }
  if (state.UsableOn(d)) {
    TraceTensor(id, "need-hit", d);
    mem_[d].Pin(id);
    mem_[d].Touch(id);
    env_.committed(token);
    env_.arrived(token);
    return;
  }
  if (state.fetch_in_flight) {
    // Another consumer is already pulling a copy; join and re-evaluate when
    // it lands.
    state.arrival_waiters.Add(env_.engine, retry);
    return;
  }
  if (state.ResidentOn(d)) {
    // Our copy is being evicted; wait for the host copy and fetch it back.
    state.host_waiters.Add(env_.engine, retry);
    return;
  }
  // Pick a source: the host copy when available (and mandatory for
  // checkpoint reads via the message-passing channel), else a stable peer
  // copy for a p2p transfer.
  int src = -1;
  if (!state.on_host) {
    if (need.from_host) {
      state.host_waiters.Add(env_.engine, retry);  // the producer's copy is coming
      return;
    }
    src = state.StableGpu();
    if (src < 0) {
      // All copies are mid-eviction: the data will surface on host.
      state.host_waiters.Add(env_.engine, retry);
      return;
    }
  }
  state.fetch_in_flight = true;
  state.inflight_dst = d;
  if (src >= 0) mem_[src].Pin(id);  // hold the source copy during transfer

  AllocReq req{id, state.bytes, token};
  req.fetch = true;
  req.src = src;
  RequestAlloc(d, req);
}

void Residency::StartFetch(TensorId id, int src, StepToken token) {
  const int d = token.device;
  env_.committed(token);
  TensorState& st = table_.Get(id);
  const Bytes bytes = st.bytes;
  // Chaos classification: a refetch healing a fault eviction on this
  // device is recovery traffic (the fault-free run would have hit in
  // device memory); a fetch forced through a fault-created host copy
  // instead accounts the transfer the fault-free run would have made from
  // the evicted device.
  const bool heal = st.FaultEvictedOn(d);
  int ghost_src = -1;
  if (heal) {
    st.SetFaultEvicted(d, false);
  } else if (src < 0 && st.fault_host_copy && st.fault_evicted_gpus != 0) {
    ghost_src = std::countr_zero(st.fault_evicted_gpus);
  }
  if (src < 0) {
    // Host -> device swap-in.
    HARMONY_CHECK(st.on_host) << KeyOf(id).ToString() << " has no source copy";
    if (heal) {
      EmitFault(trace::EventKind::kFaultRecovered, d, bytes, "mem-pressure");
    } else if (ghost_src >= 0) {
      // Physical host swap-in standing in for the p2p (or host bounce)
      // the fault-free run would have made from the evicted device.
      if (graph_->flags.p2p_transfers) {
        EmitInstant(trace::EventKind::kP2pIssued, trace::Lane::kP2pIn, d,
                    bytes);
      } else {
        EmitInstant(trace::EventKind::kSwapOutIssued, trace::Lane::kSwapOut,
                    ghost_src, bytes);
        EmitInstant(trace::EventKind::kSwapInIssued, trace::Lane::kSwapIn, d,
                    bytes);
      }
      EmitFault(trace::EventKind::kFaultRecovered, d, 0, "mem-pressure");
    } else {
      EmitInstant(trace::EventKind::kSwapInIssued, trace::Lane::kSwapIn, d,
                  bytes);
    }
    swapin(d).Push({}, [this, id, token, bytes](sim::Stream::Done done) {
      Transfer(env_.net->SwapInPath(token.device), bytes, token.device,
               [this, id, token, done]() {
                 FinishFetch(id, -1, token);
                 done();
               });
    });
    return;
  }
  if (graph_->flags.p2p_transfers) {
    if (heal) {
      EmitFault(trace::EventKind::kFaultRecovered, d, bytes, "mem-pressure");
    } else {
      EmitInstant(trace::EventKind::kP2pIssued, trace::Lane::kP2pIn, d, bytes);
    }
    p2pin(d).Push({}, [this, id, src, token,
                             bytes](sim::Stream::Done done) {
      Transfer(env_.net->P2pPath(src, token.device), bytes, token.device,
               [this, id, src, token, done]() {
                 FinishFetch(id, src, token);
                 done();
               });
    });
    return;
  }
  // p2p disabled: bounce through host memory as two swaps.
  if (heal) {
    EmitFault(trace::EventKind::kFaultRecovered, d, bytes, "mem-pressure");
  } else {
    EmitInstant(trace::EventKind::kSwapOutIssued, trace::Lane::kSwapOut, src,
                bytes);
    EmitInstant(trace::EventKind::kSwapInIssued, trace::Lane::kSwapIn, d,
                bytes);
  }
  swapout(src).Push({}, [this, id, src, token,
                               bytes](sim::Stream::Done done) {
    Transfer(env_.net->SwapOutPath(src), bytes, src, [this, id, src, token,
                                                      bytes, done]() {
      TensorState& st = table_.Get(id);
      if (!st.on_host) {
        AddHostBuffer(&st);
        st.on_host = true;
      }
      swapin(token.device).Push(
          {}, [this, id, src, token, bytes](sim::Stream::Done in_done) {
            Transfer(env_.net->SwapInPath(token.device), bytes, token.device,
                     [this, id, src, token, in_done]() {
                       FinishFetch(id, src, token);
                       in_done();
                     });
          });
      done();
    });
  });
}

void Residency::FinishFetch(TensorId id, int src, StepToken token) {
  const int d = token.device;
  TensorState& st = table_.Get(id);
  TraceTensor(id, "fetch-arrive", d);
  if (src >= 0) mem_[src].Unpin(id);  // source copy stays (it's a copy)
  st.SetResident(d, true);
  st.fetch_in_flight = false;
  st.inflight_dst = -1;
  // Detached before the step hears of the arrival: waiters that register
  // while it reacts wait for the next arrival.
  sim::WaiterList waiters = std::move(st.arrival_waiters);
  env_.arrived(token);
  waiters.RunAll(env_.engine);
}

// ---------------------------------------------------------------------------
// Step-completion actions
// ---------------------------------------------------------------------------

void Residency::UnpinNeed(int d, TensorId id) {
  TraceTensor(id, "need-unpin", d);
  if (mem_[d].IsResident(id)) mem_[d].Unpin(id);
}

void Residency::FinalizeProduce(int d, const ProduceSpec& p) {
  TensorState& st = table_.Get(p.id);
  st.SetResident(d, true);  // the allocator reserved this copy at issue
  st.SetFaultEvicted(d, false);  // fresh data supersedes any pending heal
  st.gpu_dirty = true;
  if (!st.exists) {
    st.exists = true;
    st.refs_remaining = RefCount(p.id);
    st.creation_waiters.RunAll(env_.engine);
  }
  TraceTensor(p.id, "produce-unpin", d);
  mem_[d].Unpin(p.id);
  const TensorKind kind = KeyOf(p.id).kind;
  const bool data_tensor = kind == TensorKind::kActivation ||
                           kind == TensorKind::kGradAct ||
                           kind == TensorKind::kStash;
  if (data_tensor && st.refs_remaining == 0) FreeTensor(p.id);
}

void Residency::MarkDirty(TensorId id) {
  TensorState& st = table_.Get(id);
  st.gpu_dirty = true;
  st.on_host = false;  // host copy (if any) is stale now
  st.fault_host_copy = false;
}

void Residency::CopyToHost(int d, TensorId id) {
  TensorState& st = table_.Get(id);
  TraceTensor(id, "copy-to-host", d);
  if (!st.ResidentOn(d) || st.EvictingOn(d)) {
    if (st.FaultEvictedOn(d)) {
      // A fault eviction already moved (or is moving) these bytes to host;
      // account the checkpoint copy the fault-free run would have issued.
      // The copy semantically persists on-device, so the heal tag stays.
      EmitInstant(trace::EventKind::kSwapOutIssued, trace::Lane::kSwapOut, d,
                  st.bytes);
      st.fault_host_copy = false;  // the host copy is semantic now
    }
    return;  // already freed, or a pending eviction writes host anyway
  }
  mem_[d].Pin(id);
  const Bytes bytes = st.bytes;
  EmitInstant(trace::EventKind::kSwapOutIssued, trace::Lane::kSwapOut, d,
              bytes);
  swapout(d).Push({}, [this, d, id, bytes](sim::Stream::Done done) {
    Transfer(env_.net->SwapOutPath(d), bytes, d, [this, d, id, done]() {
      TensorState& st = table_.Get(id);
      if (st.exists && !st.on_host) {
        AddHostBuffer(&st);
        st.on_host = true;
        st.gpu_dirty = false;
      }
      mem_[d].Unpin(id);
      if (!st.exists) {
        // All consumers drained during the copy; finish the deferred free.
        if (!mem_[d].IsPinned(id) && st.ResidentOn(d)) {
          mem_[d].RemoveResident(id);
          st.SetResident(d, false);
        }
      } else {
        HostArrived(id);
      }
      done();
    });
  });
}

void Residency::MoveToHost(int d, TensorId id) {
  TensorState& st = table_.Get(id);
  // An LRU eviction already in flight produces the same host copy; a second
  // transfer would double-release the residency.
  if (!st.ResidentOn(d) || st.EvictingOn(d)) {
    if (st.FaultEvictedOn(d)) {
      // A fault eviction already performed this push's transfer: account
      // the semantic move and release the heal claim — after a move the
      // fault-free run holds no device copy either, so later fetches are
      // semantic in both worlds.
      EmitInstant(trace::EventKind::kSwapOutIssued, trace::Lane::kSwapOut, d,
                  st.bytes);
      st.SetFaultEvicted(d, false);
      st.fault_host_copy = false;
      if (st.exists && st.on_host) HostArrived(id);
    }
    return;
  }
  mem_[d].Pin(id);
  st.SetEvicting(d, true);
  const Bytes bytes = st.bytes;
  EmitInstant(trace::EventKind::kSwapOutIssued, trace::Lane::kSwapOut, d,
              bytes);
  swapout(d).Push({}, [this, d, id, bytes](sim::Stream::Done done) {
    Transfer(env_.net->SwapOutPath(d), bytes, d, [this, d, id, done]() {
      TensorState& st = table_.Get(id);
      if (st.exists && !st.on_host) {
        AddHostBuffer(&st);
        st.on_host = true;
        st.gpu_dirty = false;
      }
      st.SetResident(d, false);
      st.SetEvicting(d, false);
      mem_[d].Unpin(id);
      mem_[d].RemoveResident(id);
      if (st.exists) HostArrived(id);
      PumpAllocator(d);
      done();
    });
  });
}

void Residency::Deref(TensorId id) {
  TensorState& st = table_.Get(id);
  if (--st.refs_remaining == 0) FreeTensor(id);
}

}  // namespace harmony::runtime
