//! One repetition: build the host, admit the initial fleet, serve the
//! plan's rounds (applying its churn), then check and digest the
//! simulated outcome. Host time is measured around public calls only.

use std::time::Instant;

use otc_host::{HostReport, MultiTenantHost, SessionFile};

use crate::plan::{churn_tenant, Op, Plan, TenantPlan, Workload};

/// The simulated outcome of one repetition. Every field is a pure
/// function of the plan: repetitions on one seed must agree exactly,
/// and a simulator-only speed-up must leave it unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    /// Slots served (real + dummy), evicted tenants included.
    pub slots: u64,
    /// Slots that carried a real request.
    pub real_slots: u64,
    /// Instructions the tenants' programs retired.
    pub instructions: u64,
    /// Simulated cycles the host advanced.
    pub horizon: u64,
    /// Σ shard service time over every access (cycles): moves with any
    /// change in routing or queueing.
    pub service_cycles: u64,
    /// Fleet median shard service time (cycles).
    pub service_p50: u64,
    /// Fleet 99th-percentile shard service time (cycles).
    pub service_p99: u64,
    /// Fleet leakage spent, in thousandths of a bit.
    pub leak_millibits: u64,
    /// Epoch rate transitions taken across the fleet.
    pub transitions: u64,
    /// FNV-1a hash of the encoded perf session (0 when none is
    /// recorded).
    pub session_hash: u64,
}

impl Digest {
    /// One 64-bit fingerprint over every field.
    pub fn hash(&self) -> u64 {
        let fields = [
            self.slots,
            self.real_slots,
            self.instructions,
            self.horizon,
            self.service_cycles,
            self.service_p50,
            self.service_p99,
            self.leak_millibits,
            self.transitions,
            self.session_hash,
        ];
        fnv1a(fields.iter().flat_map(|f| f.to_le_bytes()))
    }
}

impl std::fmt::Display for Digest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:016x} (slots={} real={} instructions={} horizon={} service_cycles={} service_p50={} \
             service_p99={} leak_millibits={} transitions={} session_hash={:016x})",
            self.hash(),
            self.slots,
            self.real_slots,
            self.instructions,
            self.horizon,
            self.service_cycles,
            self.service_p50,
            self.service_p99,
            self.leak_millibits,
            self.transitions,
            self.session_hash
        )
    }
}

fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Host-time spans around the public calls a repetition makes, kept
/// only on traced repetitions.
#[derive(Debug, Clone, Default)]
pub struct Spans {
    /// Each churn `admit` call, µs.
    pub admit_us: Vec<f64>,
    /// Each churn `evict` call, µs.
    pub evict_us: Vec<f64>,
    /// Each `resize_shards` call, ms.
    pub resize_ms: Vec<f64>,
    /// The closing `report` call, ms.
    pub report_ms: f64,
    /// `PerfSession::to_bytes`, ms.
    pub encode_ms: f64,
    /// `SessionFile::from_bytes`, ms.
    pub decode_ms: f64,
    /// Encoded session size.
    pub session_bytes: u64,
}

/// Everything one repetition measured.
#[derive(Debug)]
pub struct Rep {
    /// `MultiTenantHost::new` plus the initial admissions, seconds.
    pub setup_s: f64,
    /// The serve phase: rounds, churn, closing report and the perf
    /// session round trip, seconds.
    pub serve_s: f64,
    /// Wall time of each `step_round` call, ms.
    pub round_ms: Vec<f64>,
    /// The simulated outcome.
    pub digest: Digest,
    /// The closing fleet report.
    pub report: HostReport,
    /// Σ over tenants of their serving lifetime, in cycles (the
    /// denominator of `sim_ipc`).
    pub tenant_cycles: u64,
    /// Admissions denied over the run (`MultiTenantHost::admissions_denied`).
    pub denials: u64,
    /// Operations attempted: admissions, evictions and resizes.
    pub attempted: u64,
    /// Operations the host refused.
    pub refused: u64,
    /// Broken invariants; non-empty makes the run incorrect.
    pub problems: Vec<String>,
    /// Resident memory right after set-up, MB.
    pub rss_after_setup_mb: f64,
    /// Spans, when traced.
    pub spans: Option<Spans>,
    /// The initial fleet, in admission (= id) order.
    pub fleet: Vec<TenantPlan>,
    /// The pool's ORAM latency, cycles.
    pub olat: u64,
}

/// Builds the host and admits the plan's initial fleet. Returns the
/// host, the fleet, and the problems met (an initial admission must
/// never be refused).
pub fn setup(plan: &Plan) -> (MultiTenantHost, Vec<TenantPlan>, Vec<String>) {
    let mut problems = Vec::new();
    let mut host = MultiTenantHost::new(plan.cfg.clone()).expect("benchmark host config builds");
    let fleet = plan.initial_fleet(&host);
    for t in &fleet {
        if let Err(e) = host.admit(&t.spec, t.mode) {
            problems.push(format!("initial admission of {} refused: {e}", t.spec.name));
        }
    }
    if fleet.is_empty() {
        problems.push("the initial fleet is empty".into());
    }
    (host, fleet, problems)
}

/// Times `f` into `sink` (in units of `scale` per second) when tracing.
fn timed<T>(sink: Option<&mut Vec<f64>>, scale: f64, f: impl FnOnce() -> T) -> T {
    match sink {
        None => f(),
        Some(v) => {
            let t = Instant::now();
            let out = f();
            v.push(t.elapsed().as_secs_f64() * scale);
            out
        }
    }
}

/// Runs one repetition of `plan`; `trace` keeps per-call spans.
pub fn run(plan: &Plan, trace: bool) -> Rep {
    let t0 = Instant::now();
    let (mut host, fleet, mut problems) = setup(plan);
    let setup_s = t0.elapsed().as_secs_f64();
    let mut attempted = fleet.len() as u64;
    let rss_after_setup_mb = crate::rss_mb("VmRSS");
    let mut spans = trace.then(Spans::default);
    let mut refused = 0u64;
    let mut round_ms = Vec::with_capacity(plan.rounds as usize);

    let serve = Instant::now();
    if plan.record_session {
        host.record_perf_session(plan.workload.name());
    }
    // Program of each tenant id, and of the tenant evicted last.
    let mut programs: Vec<_> = fleet.iter().map(|t| t.spec.benchmark).collect();
    let mut freed = None;
    let mut ops = plan.ops.iter().peekable();
    for round in 0..plan.rounds {
        while let Some((_, op)) = ops.next_if(|(r, _)| *r <= round) {
            attempted += 1;
            let ok = match op {
                Op::Admit { name } => match freed.take() {
                    Some(program) => {
                        let t = churn_tenant(name.clone(), program);
                        let admitted = timed(spans.as_mut().map(|s| &mut s.admit_us), 1e6, || {
                            host.admit(&t.spec, t.mode)
                        });
                        admitted.map(|_| programs.push(program)).is_ok()
                    }
                    None => false,
                },
                Op::Evict => match (0..host.tenant_count()).find(|&id| host.tenant_active(id)) {
                    Some(victim) => {
                        freed = Some(programs[victim]);
                        timed(spans.as_mut().map(|s| &mut s.evict_us), 1e6, || {
                            host.evict(victim).is_ok()
                        })
                    }
                    None => false,
                },
                Op::Resize(n) => timed(spans.as_mut().map(|s| &mut s.resize_ms), 1e3, || {
                    host.resize_shards(*n).is_ok()
                }),
            };
            if !ok {
                refused += 1;
            }
        }
        let t = Instant::now();
        host.step_round();
        round_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let mut report_ms = Vec::new();
    let report = timed(trace.then_some(&mut report_ms), 1e3, || host.report());
    let session_hash = if plan.record_session {
        session_round_trip(&mut host, plan, spans.as_mut(), &mut problems)
    } else {
        0
    };
    let serve_s = serve.elapsed().as_secs_f64();
    if let Some(s) = spans.as_mut() {
        s.report_ms = report_ms[0];
    }

    let digest = Digest {
        slots: report.tenants.iter().map(|t| t.slots_served).sum(),
        real_slots: report.tenants.iter().map(|t| t.real_served).sum(),
        instructions: report.tenants.iter().map(|t| t.instructions_retired).sum(),
        horizon: report.horizon,
        service_cycles: report.shard_service_cycles,
        service_p50: report.p50_service_cycles,
        service_p99: report.p99_service_cycles,
        leak_millibits: (report.fleet_spent_bits * 1000.0).round() as u64,
        transitions: report.tenants.iter().map(|t| t.transitions).sum(),
        session_hash,
    };
    let tenant_cycles = report
        .tenants
        .iter()
        .map(|t| t.evicted_at.unwrap_or(report.horizon) - t.admitted_at)
        .sum();
    check(plan, &host, &report, &digest, &mut problems);
    Rep {
        setup_s,
        serve_s,
        round_ms,
        digest,
        report,
        tenant_cycles,
        denials: host.admissions_denied(),
        attempted,
        refused,
        problems,
        rss_after_setup_mb,
        spans,
        fleet,
        olat: host.capacity_model().olat(),
    }
}

/// Takes the recorded session, encodes and decodes it, checks the
/// round trip, and returns the hash of the encoded bytes.
fn session_round_trip(
    host: &mut MultiTenantHost,
    plan: &Plan,
    spans: Option<&mut Spans>,
    problems: &mut Vec<String>,
) -> u64 {
    let session = host.take_perf_session().expect("recording was enabled");
    let t = Instant::now();
    let bytes = session.to_bytes();
    let encode_ms = t.elapsed().as_secs_f64() * 1e3;
    let hash = fnv1a(bytes.iter().copied());
    let len = bytes.len() as u64;
    let t = Instant::now();
    let decoded = SessionFile::from_bytes(bytes);
    let decode_ms = t.elapsed().as_secs_f64() * 1e3;
    match decoded {
        Ok(file) => {
            if file.len() as u64 != plan.rounds || file.summary() != &session.summary {
                problems.push(format!(
                    "decoded perf session disagrees: {} rounds (want {})",
                    file.len(),
                    plan.rounds
                ));
            }
        }
        Err(e) => problems.push(format!("perf session failed to decode: {e}")),
    }
    if let Some(s) = spans {
        s.encode_ms = encode_ms;
        s.decode_ms = decode_ms;
        s.session_bytes = len;
    }
    hash
}

/// Invariants every repetition must hold.
fn check(
    plan: &Plan,
    host: &MultiTenantHost,
    report: &HostReport,
    d: &Digest,
    problems: &mut Vec<String>,
) {
    if host.rounds() != plan.rounds {
        problems.push(format!(
            "served {} rounds, want {}",
            host.rounds(),
            plan.rounds
        ));
    }
    let shard_accesses = report.shard_accesses.iter().sum::<u64>() + report.retired_shard_accesses;
    if shard_accesses != d.slots {
        problems.push(format!(
            "slot conservation broken: tenants served {} slots, shards {} accesses",
            d.slots, shard_accesses
        ));
    }
    if d.real_slots > d.slots || d.slots == 0 {
        problems.push(format!(
            "implausible slot counts {} real of {}",
            d.real_slots, d.slots
        ));
    }
    if !report.all_within_budget() {
        problems.push("a tenant exceeded its leakage budget".into());
    }
    // The workload's reason to exist: an (almost) all-dummy fleet.
    if plan.workload == Workload::FleetIdle && d.real_slots * 20 > d.slots {
        problems.push(format!(
            "fleet-idle is not idle: {} of {} slots real (> 5%)",
            d.real_slots, d.slots
        ));
    }
}
