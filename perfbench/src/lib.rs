//! Seeded fleet benchmark for the `otc-host` serving stack.
//!
//! One process runs one workload on one seed: it repeats the workload
//! on a fresh serial-spine host until the time budget is spent, checks
//! that every repetition produced the same simulated digest, and prints
//! the end-to-end metrics (host time and simulated time) or, traced,
//! the per-layer metrics. `README.md` defines every metric and workload.

pub mod plan;
pub mod rep;
pub mod replay;

use std::time::Instant;

use plan::{Plan, Scale, Workload, MAIN_SEED};
use rep::{Digest, Rep};

/// The digest hash recorded at full scale for [`MAIN_SEED`]. A mismatch
/// is reported, not failed: it means the simulated outcome moved, which
/// a change must then say it meant to do.
pub fn recorded_digest(workload: Workload) -> u64 {
    match workload {
        Workload::FleetIdle => 0x78d1_bf88_12e7_cec1,
        Workload::CoresClosed => 0x6b88_f77a_33ee_8dae,
        Workload::ChurnStaged => 0xff1c_e6ae_52cd_7b4b,
    }
}

/// Set-up samples each run takes at least, for a steady `setup_s`.
const MIN_SETUPS: usize = 8;

/// One named metric with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What one run produced.
#[derive(Debug)]
pub struct Outcome {
    /// Every check passed and every repetition agreed.
    pub correct: bool,
    /// Operations attempted (admissions, evictions, resizes,
    /// repetitions).
    pub attempted: u64,
    /// Refused operations plus repetitions whose digest diverged.
    pub failed: u64,
    /// End-to-end metrics, always computed.
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics, traced runs only.
    pub per_layer: Vec<Metric>,
    /// The (warm-up) first repetition's digest.
    pub digest: Digest,
    /// Human-readable notes: checks that failed, the record comparison,
    /// sample counts.
    pub notes: Vec<String>,
}

/// A process's resident-memory figure from `/proc/self/status`
/// (`VmRSS` now, `VmHWM` peak), in MB; 0 where unavailable.
pub fn rss_mb(field: &str) -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Nearest-rank percentile of `sorted` (ascending, non-empty).
fn percentile(sorted: &[f64], p: f64) -> f64 {
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 50.0)
}

/// Rounds the timed set must hold so that at least ten round times lie
/// beyond its p99.
const MIN_ROUND_SAMPLES: usize = 1100;

/// The repetitions the host-time metrics are taken from: the slower half
/// of `reps` (which all served the same slots), widened with the next
/// slowest until it holds [`MIN_ROUND_SAMPLES`] rounds or every
/// repetition.
///
/// The host this runs on is shared, and its memory system is contended
/// in phases of seconds to minutes: these ORAM-walking workloads run in
/// two regimes about a third apart, while a CPU-only loop stays flat.
/// Every run spends time in the contended regime, but how much time the
/// uncontended one gets varies from run to run, so a median over all
/// repetitions flips between the two. The slower half stays in the
/// contended regime. A slower program slows every repetition, so this
/// hides no regression.
fn timed_set(reps: &[Rep]) -> Vec<&Rep> {
    let mut v: Vec<&Rep> = reps.iter().collect();
    v.sort_by(|a, b| b.serve_s.total_cmp(&a.serve_s));
    let mut keep = v.len().div_ceil(2);
    while keep < v.len()
        && v[..keep].iter().map(|r| r.round_ms.len()).sum::<usize>() < MIN_ROUND_SAMPLES
    {
        keep += 1;
    }
    v.truncate(keep);
    v
}

/// Median slots served per host-second over `reps`.
fn slots_per_s(reps: &[&Rep]) -> f64 {
    median(
        &reps
            .iter()
            .map(|r| r.digest.slots as f64 / r.serve_s)
            .collect::<Vec<_>>(),
    )
}

/// Runs reps of `plan` while another one fits in `budget_s` seconds,
/// judging by the longest so far (at least one).
fn reps_for(plan: &Plan, budget_s: f64, trace: bool) -> Vec<Rep> {
    let start = Instant::now();
    let mut reps = Vec::new();
    let mut longest = 0.0f64;
    while reps.is_empty() || start.elapsed().as_secs_f64() + longest < budget_s {
        let t = Instant::now();
        reps.push(rep::run(plan, trace));
        longest = longest.max(t.elapsed().as_secs_f64());
    }
    reps
}

/// Runs `workload` on `seed` for about `seconds` of measurement. With
/// `trace`, half the budget serves untraced, half traced, then the
/// per-layer replays run on the last traced repetition's inputs.
pub fn run(workload: Workload, seed: u64, seconds: f64, trace: bool, scale: Scale) -> Outcome {
    let plan = Plan::new(workload, seed, scale);
    // The process's first repetition pays one-time costs (fresh pages,
    // allocator growth) that no later one does; it is checked but not
    // timed.
    let warmup = rep::run(&plan, false);
    let untraced = reps_for(&plan, if trace { seconds / 2.0 } else { seconds }, false);
    let traced = if trace {
        reps_for(&plan, seconds / 2.0, true)
    } else {
        Vec::new()
    };
    let mut setups: Vec<f64> = untraced.iter().map(|r| r.setup_s).collect();
    while setups.len() < MIN_SETUPS {
        let t = Instant::now();
        drop(rep::setup(&plan));
        setups.push(t.elapsed().as_secs_f64());
    }
    let peak_rss_mb = rss_mb("VmHWM");

    let first = &warmup;
    let all: Vec<&Rep> = std::iter::once(first)
        .chain(&untraced)
        .chain(&traced)
        .collect();
    let mut notes = Vec::new();
    let mut correct = true;
    let mut attempted = 0u64;
    let mut failed = 0u64;
    for r in &all {
        attempted += r.attempted + 1;
        failed += r.refused;
        if r.digest != first.digest {
            failed += 1;
            correct = false;
            notes.push(format!("digest diverged: {} vs {}", r.digest, first.digest));
        }
        for p in &r.problems {
            correct = false;
            if !notes.contains(p) {
                notes.push(p.clone());
            }
        }
    }
    if seed == MAIN_SEED && scale == Scale::Full {
        let recorded = recorded_digest(workload);
        notes.push(if recorded == first.digest.hash() {
            "digest matches the recorded main-seed digest".into()
        } else {
            format!(
                "digest {:016x} differs from the recorded main-seed digest {recorded:016x}: \
                 the simulated outcome moved",
                first.digest.hash()
            )
        });
    }

    let timed = timed_set(&untraced);
    let mut rounds: Vec<f64> = timed
        .iter()
        .flat_map(|r| r.round_ms.iter().copied())
        .collect();
    rounds.sort_by(f64::total_cmp);
    let beyond = rounds.len() - ((0.99 * rounds.len() as f64).ceil() as usize).max(1);
    notes.push(format!(
        "{} timed untraced repetition(s) of {} rounds after one warm-up; host times from \
         the slower {}; round_ms over {} samples, {} beyond p99",
        untraced.len(),
        plan.rounds,
        timed.len(),
        rounds.len(),
        beyond
    ));
    notes.push(format!(
        "slots/s per timed repetition: {}",
        untraced
            .iter()
            .map(|r| format!("{:.0}", r.digest.slots as f64 / r.serve_s))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    let d = first.digest;
    let sps = slots_per_s(&timed);
    let end_to_end = vec![
        m("slots_per_s", sps, "slots/s"),
        m(
            "sim_minstr_per_s",
            sps * d.instructions as f64 / d.slots as f64 / 1e6,
            "Minstr/s",
        ),
        m("round_ms_p50", percentile(&rounds, 50.0), "ms"),
        m("round_ms_p99", percentile(&rounds, 99.0), "ms"),
        m("setup_s", median(&setups), "s"),
        m("peak_rss_mb", peak_rss_mb, "MB"),
        m(
            "ops_failed_frac",
            failed as f64 / attempted.max(1) as f64,
            "fraction",
        ),
        m("sim_service_p99_cycles", d.service_p99 as f64, "cycles"),
        m(
            "sim_ipc",
            d.instructions as f64 / first.tenant_cycles.max(1) as f64,
            "instr/cycle",
        ),
        m("leak_bits", first.report.fleet_spent_bits, "bits"),
    ];
    let per_layer = match traced.last() {
        Some(last) => layers(&plan, &untraced, &traced, last),
        None => Vec::new(),
    };
    Outcome {
        correct,
        attempted,
        failed,
        end_to_end,
        per_layer,
        digest: d,
        notes,
    }
}

/// The per-layer metrics: spans from the traced repetitions, counts
/// from the run, and replay attributions.
fn layers(plan: &Plan, untraced: &[Rep], traced: &[Rep], last: &Rep) -> Vec<Metric> {
    let timed = timed_set(traced);
    let spans = || traced.iter().filter_map(|r| r.spans.as_ref());
    let rounds = plan.rounds as f64;
    let d = last.digest;
    let step_round_ms = mean(timed.iter().flat_map(|r| r.round_ms.iter().copied()));

    let cal = replay::calendar(&plan.cfg, &last.report, last.olat, plan.rounds);
    let traffic = replay::traffic(&last.fleet, &last.report, last.olat, 200_000);
    let real_share = d.real_slots as f64 / d.slots.max(1) as f64;
    let shard_ops = d.slots.min(60_000);
    let horizon = d.horizon * shard_ops / d.slots.max(1);
    let shard = replay::shard(
        &plan.cfg,
        &traffic.requests,
        real_share,
        shard_ops,
        horizon,
        plan.cfg.seed,
    );

    // Attribute one round's host time to the replayed layers at the
    // run's per-round counts; the rest is the spine's own time.
    let slots_per_round = d.slots as f64 / rounds;
    let real_per_round = d.real_slots as f64 / rounds;
    let requests = traffic.requests.len().max(1) as f64;
    let real_us = (shard.read_us * shard.reads as f64 + shard.write_us * shard.writes as f64)
        / (shard.reads + shard.writes).max(1) as f64;
    let drains_per_round = last.report.background_eviction_drains as f64 / rounds;
    let calendar_ms = cal.pop_insert_ns * slots_per_round / 1e6;
    let traffic_ms = traffic.total_us / requests * real_per_round / 1e3;
    let oram_real_ms = real_us * real_per_round / 1e3;
    let oram_dummy_ms = shard.dummy_us * (slots_per_round - real_per_round) / 1e3;
    let oram_drain_ms = shard.drain_us * drains_per_round / 1e3;
    let spine_self_ms =
        step_round_ms - calendar_ms - traffic_ms - oram_real_ms - oram_dummy_ms - oram_drain_ms;
    let pct = |ms: f64| 100.0 * ms / step_round_ms;
    let untraced_sps = slots_per_s(&timed_set(untraced));

    vec![
        m("host.step_round_ms", step_round_ms, "ms"),
        m(
            "host.admit_us",
            mean(spans().flat_map(|s| s.admit_us.iter().copied())),
            "us",
        ),
        m(
            "host.evict_us",
            mean(spans().flat_map(|s| s.evict_us.iter().copied())),
            "us",
        ),
        m(
            "host.resize_ms",
            mean(spans().flat_map(|s| s.resize_ms.iter().copied())),
            "ms",
        ),
        m("host.report_ms", mean(spans().map(|s| s.report_ms)), "ms"),
        m("host.spine_self_ms", spine_self_ms, "ms"),
        m("host.rounds", rounds, "count"),
        m("host.slots", d.slots as f64, "count"),
        m("host.real_slots", d.real_slots as f64, "count"),
        m("host.denials", last.denials as f64, "count"),
        m("calendar.pop_insert_ns", cal.pop_insert_ns, "ns"),
        m(
            "calendar.overflow_resident",
            cal.overflow_resident as f64,
            "count",
        ),
        m("traffic.poll_us", traffic.poll_us, "us"),
        m("traffic.complete_us", traffic.complete_us, "us"),
        m("traffic.requests", traffic.requests.len() as f64, "count"),
        m("traffic.instructions", traffic.instructions as f64, "count"),
        m("shard.read_us", shard.read_us, "us"),
        m("shard.write_us", shard.write_us, "us"),
        m("shard.dummy_us", shard.dummy_us, "us"),
        m("shard.drain_us", shard.drain_us, "us"),
        m("oram.real_accesses", shard.real_accesses as f64, "count"),
        m("oram.dummy_accesses", shard.dummy_accesses as f64, "count"),
        m("oram.bytes_moved", shard.bytes_moved as f64, "bytes"),
        m("oram.stash_peak", shard.stash_peak as f64, "blocks"),
        m(
            "oram.eviction_drains",
            shard.eviction_drains as f64,
            "count",
        ),
        m("perf.encode_ms", mean(spans().map(|s| s.encode_ms)), "ms"),
        m("perf.decode_ms", mean(spans().map(|s| s.decode_ms)), "ms"),
        m(
            "perf.session_bytes",
            mean(spans().map(|s| s.session_bytes as f64)),
            "bytes",
        ),
        m("core.transitions", d.transitions as f64, "count"),
        m("ledger.spent_bits", last.report.fleet_spent_bits, "bits"),
        m(
            "mem.after_setup_mb",
            median(
                &traced
                    .iter()
                    .map(|r| r.rss_after_setup_mb)
                    .collect::<Vec<_>>(),
            ),
            "MB",
        ),
        m("attr.calendar_pct", pct(calendar_ms), "%"),
        m("attr.traffic_pct", pct(traffic_ms), "%"),
        m("attr.oram_real_pct", pct(oram_real_ms), "%"),
        m("attr.oram_dummy_pct", pct(oram_dummy_ms), "%"),
        m("attr.oram_drain_pct", pct(oram_drain_ms), "%"),
        m("attr.spine_self_pct", pct(spine_self_ms), "%"),
        m(
            "trace.overhead_pct",
            100.0 * (untraced_sps - slots_per_s(&timed)) / untraced_sps,
            "%",
        ),
    ]
}

/// Mean of `values`; 0 when empty (a call the workload never makes).
fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = values.fold((0.0, 0usize), |(s, n), x| (s + x, n + 1));
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// The result line: one JSON object with `correct`, `attempted`,
/// `failed` and `metrics` (each metric's value and unit).
pub fn result_json(o: &Outcome, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|x| {
            let v = if x.value.is_finite() { x.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                x.name, x.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct,
        o.attempted.max(1),
        o.failed,
        body.join(", ")
    )
}
