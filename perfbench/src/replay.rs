//! Per-layer replays for the traced run. The host keeps its layers
//! private, so each layer is re-driven here through its own public type
//! with the traced repetition's inputs: the calendar with the fleet's
//! rate grids, the tenant frontends with the fleet's programs, and a
//! shard pool of the same geometry with the generated requests and the
//! run's dummy count. The figures are attributions, not measurements of
//! the run itself: caches, interleaving and queueing differ from inside
//! `step_round`.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

use otc_crypto::SplitMix64;
use otc_host::{CalendarQueue, HostConfig, HostReport, ShardedOram, TenantTraffic, TrafficPull};
use otc_sim::AccessKind;

use crate::plan::TenantPlan;

/// Calendar replay result.
#[derive(Debug, Clone, Copy)]
pub struct CalendarReplay {
    /// Mean host time of one `pop_due` plus the re-`insert`, ns.
    pub pop_insert_ns: f64,
    /// Most entries parked in the overflow wheel at a round boundary.
    pub overflow_resident: usize,
}

/// Replays `rounds` rounds of calendar traffic: every tenant still
/// active at the end of the run, on its final rate's grid, popped when
/// due and re-inserted one period later, exactly as the round loop
/// does.
pub fn calendar(cfg: &HostConfig, report: &HostReport, olat: u64, rounds: u64) -> CalendarReplay {
    let periods: Vec<u64> = report
        .tenants
        .iter()
        .filter(|t| t.is_active())
        .map(|t| t.final_rate + olat)
        .collect();
    let mut cal = CalendarQueue::new(cfg.calendar_bucket_width, cfg.calendar_buckets);
    for (key, &p) in periods.iter().enumerate() {
        // Spread first slots over one period, as staggered admissions
        // and rate changes leave them.
        cal.insert(key, (key as u64).wrapping_mul(0x9E37_79B9) % p);
    }
    let mut ops = 0u64;
    let mut overflow = 0usize;
    let mut frontier = 0u64;
    let t = Instant::now();
    for _ in 0..rounds {
        frontier += cfg.quantum;
        while let Some((key, at)) = cal.pop_due(frontier, |k| k) {
            cal.insert(key, at + periods[key]);
            ops += 1;
        }
        overflow = overflow.max(cal.overflow_resident());
    }
    let ns = t.elapsed().as_secs_f64() * 1e9;
    CalendarReplay {
        pop_insert_ns: ns / ops.max(1) as f64,
        overflow_resident: overflow,
    }
}

/// One request generated by the traffic replay.
#[derive(Debug, Clone, Copy)]
pub struct GenRequest {
    /// Index of the tenant in the fleet.
    pub tenant: usize,
    /// Cache-line address.
    pub line_addr: u64,
    /// Read or writeback.
    pub kind: AccessKind,
}

/// Traffic replay result.
#[derive(Debug, Clone)]
pub struct TrafficReplay {
    /// Host time spent in `poll` per generated request, µs.
    pub poll_us: f64,
    /// Mean host time of a closed-loop `complete`, µs (0 when open).
    pub complete_us: f64,
    /// The generated requests, in arrival order.
    pub requests: Vec<GenRequest>,
    /// Instructions the replayed programs retired.
    pub instructions: u64,
    /// Host time of all polls and completes, µs.
    pub total_us: f64,
}

/// Re-drives the fleet's `TenantTraffic` frontends, interleaved in
/// arrival order, until each has produced as many requests as its
/// tenant served real slots in the run (scaled down so at most
/// `max_requests` are generated). Closed-loop reads complete one OLAT
/// after they arrive, i.e. without the slot wait and queueing the host
/// adds.
pub fn traffic(
    fleet: &[TenantPlan],
    report: &HostReport,
    olat: u64,
    max_requests: u64,
) -> TrafficReplay {
    // The initial fleet holds ids 0..fleet.len().
    let real = || report.tenants[..fleet.len()].iter().map(|t| t.real_served);
    let total: u64 = real().sum();
    let mut left: Vec<u64> = real()
        .map(|n| (n as u128 * max_requests.min(total) as u128 / total.max(1) as u128) as u64)
        .collect();
    let mut frontends: Vec<TenantTraffic> = fleet
        .iter()
        .map(|t| TenantTraffic::with_mode(t.spec.benchmark, t.spec.instructions, t.mode))
        .collect();
    let mut heap = BinaryHeap::new();
    let mut poll_s = 0.0;
    let mut complete_s = 0.0;
    let mut completes = 0u64;
    let mut poll = |f: &mut TenantTraffic| {
        let t = Instant::now();
        let pull = f.poll();
        poll_s += t.elapsed().as_secs_f64();
        match pull {
            TrafficPull::Request(r) => Some(r),
            TrafficPull::AwaitingService | TrafficPull::Exhausted => None,
        }
    };
    for (i, f) in frontends.iter_mut().enumerate() {
        if left[i] > 0 {
            if let Some(r) = poll(f) {
                heap.push(Reverse((r.at, i, r.line_addr, r.kind == AccessKind::Write)));
            }
        }
    }
    let mut requests = Vec::new();
    while let Some(Reverse((at, i, line_addr, write))) = heap.pop() {
        let kind = if write {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        requests.push(GenRequest {
            tenant: i,
            line_addr,
            kind,
        });
        let f = &mut frontends[i];
        if f.is_closed_loop() && kind == AccessKind::Read {
            let t = Instant::now();
            f.complete(at + olat);
            complete_s += t.elapsed().as_secs_f64();
            completes += 1;
        }
        left[i] -= 1;
        if left[i] > 0 {
            if let Some(r) = poll(f) {
                heap.push(Reverse((r.at, i, r.line_addr, r.kind == AccessKind::Write)));
            }
        }
    }
    let n = requests.len().max(1) as f64;
    TrafficReplay {
        poll_us: poll_s * 1e6 / n,
        complete_us: complete_s * 1e6 / completes.max(1) as f64,
        instructions: frontends.iter().map(TenantTraffic::retired).sum(),
        total_us: (poll_s + complete_s) * 1e6,
        requests,
    }
}

/// Shard-pool replay result.
#[derive(Debug, Clone, Copy, Default)]
pub struct ShardReplay {
    /// Mean host time of a real read, µs.
    pub read_us: f64,
    /// Mean host time of a real writeback, µs.
    pub write_us: f64,
    /// Mean host time of a dummy access, µs.
    pub dummy_us: f64,
    /// Mean host time per eviction of the closing background drain, µs.
    pub drain_us: f64,
    /// Reads, writes and dummies issued.
    pub reads: u64,
    /// See `reads`.
    pub writes: u64,
    /// See `reads`.
    pub dummies: u64,
    /// Σ `RecursivePathOram::stats` over the pool's shards.
    pub real_accesses: u64,
    /// See `real_accesses`.
    pub dummy_accesses: u64,
    /// See `real_accesses`.
    pub bytes_moved: u64,
    /// Largest stash peak of any shard.
    pub stash_peak: usize,
    /// See `real_accesses`.
    pub eviction_drains: u64,
}

/// Feeds a fresh pool of the run's geometry `ops` accesses spaced evenly
/// over `horizon`: real ones from `requests` (in order, routed by a
/// per-tenant address tag as the host does) interleaved evenly with
/// dummies on round-robin shards, so the real share matches the run's.
pub fn shard(
    cfg: &HostConfig,
    requests: &[GenRequest],
    real_share: f64,
    ops: u64,
    horizon: u64,
    seed: u64,
) -> ShardReplay {
    let mut pool = if cfg.shard_mix.is_empty() {
        ShardedOram::with_pipeline(&cfg.oram, &cfg.ddr, cfg.n_shards, cfg.pipeline)
    } else {
        ShardedOram::with_mix(&cfg.shard_mix, &cfg.ddr, cfg.n_shards)
    }
    .expect("the run's pool builds");
    let n_shards = pool.n_shards();
    let mut out = ShardReplay::default();
    let (mut read_s, mut write_s, mut dummy_s) = (0.0, 0.0, 0.0);
    let mut next_real = 0usize;
    let zeros = [0u8; 64];
    for i in 0..ops {
        let at = (i as u128 * horizon as u128 / ops.max(1) as u128) as u64;
        // Bresenham: issue a real access whenever the running real share
        // falls behind the run's.
        let want_real = ((i + 1) as f64 * real_share) as usize;
        // Requests are reused cyclically when the replayed frontends
        // produced fewer than the run served (tenants admitted by churn
        // are not replayed).
        let real = (next_real < want_real && !requests.is_empty())
            .then(|| requests[next_real % requests.len()]);
        let t = Instant::now();
        match real {
            Some(r) => {
                let addr = r.line_addr ^ SplitMix64::new(seed ^ (r.tenant as u64 + 1)).next_u64();
                next_real += 1;
                match r.kind {
                    AccessKind::Read => {
                        pool.read_discard(addr, at);
                        read_s += t.elapsed().as_secs_f64();
                        out.reads += 1;
                    }
                    AccessKind::Write => {
                        pool.write(addr, &zeros, at);
                        write_s += t.elapsed().as_secs_f64();
                        out.writes += 1;
                    }
                }
            }
            None => {
                pool.dummy_access(i as usize % n_shards, at);
                dummy_s += t.elapsed().as_secs_f64();
                out.dummies += 1;
            }
        }
    }
    let drained_before = pool.drained_evictions();
    let t = Instant::now();
    pool.drain_evictions();
    let drain_s = t.elapsed().as_secs_f64();
    let drained = pool.drained_evictions() - drained_before;
    out.read_us = read_s * 1e6 / out.reads.max(1) as f64;
    out.write_us = write_s * 1e6 / out.writes.max(1) as f64;
    out.dummy_us = dummy_s * 1e6 / out.dummies.max(1) as f64;
    out.drain_us = drain_s * 1e6 / drained.max(1) as f64;
    for s in 0..n_shards {
        let st = pool.shard(s).stats();
        out.real_accesses += st.real_accesses;
        out.dummy_accesses += st.dummy_accesses;
        out.bytes_moved += st.bytes_moved;
        out.stash_peak = out.stash_peak.max(st.stash_peak);
        out.eviction_drains += st.eviction_drains;
    }
    out
}
