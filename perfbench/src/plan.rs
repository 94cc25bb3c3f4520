//! Workload definitions: everything a repetition feeds the host is a
//! pure function of `(workload, seed, scale)`.

use otc_core::RatePolicy;
use otc_crypto::SplitMix64;
use otc_host::{
    parse_scheme, CapacityKind, HostConfig, LoopMode, MultiTenantHost, PipelineConfig, ShardClass,
    TenantSpec,
};
use otc_oram::OramConfig;
use otc_workloads::SpecBenchmark;

/// The seed whose digests [`crate::recorded_digest`] holds.
pub const MAIN_SEED: u64 = 1;
/// A seed kept out of tuning: the self-test checks that it moves every
/// digest, so a digest that ignores its inputs cannot pass.
pub const HELD_OUT_SEED: u64 = 0x0D15_EA5E;

/// Shards of every workload's initial pool (paper geometry).
const SHARDS: usize = 16;

/// The benchmark's workloads (see `README.md` for why each exists and
/// which layers it loads).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// K=1024 static open-loop tenants whose programs end after a few
    /// instructions: the all-dummy fleet.
    FleetIdle,
    /// Closed-loop SPEC-mix tenants whose programs never finish: every
    /// real slot is driven by a suspended simulated core.
    CoresClosed,
    /// Staged+serial pool, cadence pricing, dynamic-rate tenants and a
    /// seeded admit/evict/resize schedule with a recorded perf session.
    ChurnStaged,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::FleetIdle,
        Workload::CoresClosed,
        Workload::ChurnStaged,
    ];

    /// The name the command line and the results use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FleetIdle => "fleet-idle",
            Workload::CoresClosed => "cores-closed",
            Workload::ChurnStaged => "churn-staged",
        }
    }

    /// Looks a workload up by [`Workload::name`].
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// How much work one repetition does. `Tiny` exists for the self-test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The measured configuration.
    Full,
    /// A few tenants and rounds: same code paths, seconds not minutes.
    Tiny,
}

impl Scale {
    /// Looks a scale up by name (`full` or `tiny`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "full" => Some(Scale::Full),
            "tiny" => Some(Scale::Tiny),
            _ => None,
        }
    }
}

/// One tenant the plan admits.
#[derive(Debug, Clone)]
pub struct TenantPlan {
    /// What the tenant asks for.
    pub spec: TenantSpec,
    /// Open or closed loop.
    pub mode: LoopMode,
}

/// A churn operation applied between rounds.
#[derive(Debug, Clone)]
pub enum Op {
    /// Admit a tenant named `name` running the program of the tenant
    /// evicted last, so churn never shifts the fleet's program mix.
    Admit {
        /// The new tenant's name.
        name: String,
    },
    /// Evict the longest-serving active tenant (the lowest active id).
    /// Evicting by age, not at random, keeps the fleet's age profile,
    /// and with it the instructions its warmed caches retire, the same
    /// on every seed.
    Evict,
    /// Resize the shard pool.
    Resize(usize),
}

/// A fully generated workload instance.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Which workload this is.
    pub workload: Workload,
    /// The seed it was generated from.
    pub seed: u64,
    /// Host configuration (always the serial spine).
    pub cfg: HostConfig,
    /// Scheduling rounds per repetition.
    pub rounds: u64,
    /// Churn operations as `(round, op)`, applied before that round.
    pub ops: Vec<(u64, Op)>,
    /// Whether the repetition records, encodes and decodes a perf
    /// session.
    pub record_session: bool,
    fleet: Fleet,
}

/// How the initial fleet is drawn.
#[derive(Debug, Clone)]
enum Fleet {
    /// `k` static open-loop tenants at OLAT-multiple rates.
    Idle { k: usize },
    /// As many closed-loop tenants at a static `rate` as the ceiling
    /// admits.
    Closed { rate: u64, max: usize },
    /// Dynamic tenants filling the ceiling of the shrunk pool, minus
    /// `headroom` tenants kept free for churn admissions.
    Dynamic {
        shrunk: usize,
        headroom: usize,
        max: usize,
    },
}

/// Static base rates of `fleet-idle`, as OLAT multiples: slow enough
/// that K=1024 fits a 16-shard pool, spread so calendar buckets load
/// unevenly (the `otc bench --spine` fleet).
const IDLE_RATE_OLATS: [u64; 4] = [64, 96, 128, 192];
/// Instructions retired per `cores-closed`/`churn-staged` program: far
/// more than a repetition can simulate, so programs never finish.
const ENDLESS: u64 = 1 << 40;
/// The SPEC programs of `cores-closed` and `churn-staged`: the ones
/// whose LLC misses never stop. A program whose working set fits the
/// LLC (hmmer, perlbench.splitmail) or whose footprint scales with its
/// instruction budget (h264ref, astar.biglakes) goes quiet once warm,
/// and a quiet endless program makes the host simulate it until the
/// next miss inside one `step_round`: millions of instructions.
const STEADY_MIX: [SpecBenchmark; 8] = [
    SpecBenchmark::Mcf,
    SpecBenchmark::Libquantum,
    SpecBenchmark::Omnetpp,
    SpecBenchmark::AstarRivers,
    SpecBenchmark::Gobmk,
    SpecBenchmark::Sjeng,
    SpecBenchmark::PerlbenchDiffmail,
    SpecBenchmark::Bzip2,
];
/// `churn-staged` runs the first this-many programs of [`STEADY_MIX`]:
/// its fleet holds a multiple of four tenants, so every seed runs the
/// same program mix.
const CHURN_PROGRAMS: usize = 4;
/// The dynamic scheme of `churn-staged` tenants.
const CHURN_SCHEME: &str = "dynamic_R4_E4";

impl Plan {
    /// Generates the workload instance for `seed`.
    pub fn new(workload: Workload, seed: u64, scale: Scale) -> Plan {
        let tiny = scale == Scale::Tiny;
        let mut rng = SplitMix64::new(seed ^ salt(workload));
        let base = HostConfig::builder()
            .oram(OramConfig::paper())
            .shards(SHARDS)
            .seed(rng.next_u64());
        let (cfg, rounds, fleet, record_session) = match workload {
            Workload::FleetIdle => (
                base,
                if tiny { 256 } else { 384 },
                Fleet::Idle {
                    k: if tiny { 48 } else { 1024 },
                },
                false,
            ),
            Workload::CoresClosed => (
                base,
                if tiny { 12 } else { 160 },
                Fleet::Closed {
                    rate: 3000,
                    max: if tiny { 6 } else { usize::MAX },
                },
                false,
            ),
            Workload::ChurnStaged => (
                base.shard_mix(vec![
                    ShardClass {
                        oram: OramConfig::paper(),
                        pipeline: PipelineConfig::staged(),
                    },
                    ShardClass {
                        oram: OramConfig::paper(),
                        pipeline: PipelineConfig::serial(),
                    },
                ])
                .capacity(CapacityKind::Cadence),
                if tiny { 48 } else { 256 },
                Fleet::Dynamic {
                    shrunk: SHARDS - 2,
                    headroom: 2,
                    max: if tiny { 6 } else { usize::MAX },
                },
                true,
            ),
        };
        let cfg = cfg.build().expect("benchmark host configs are valid");
        let ops = if workload == Workload::ChurnStaged {
            churn_schedule(&mut rng, rounds, tiny)
        } else {
            Vec::new()
        };
        Plan {
            workload,
            seed,
            cfg,
            rounds,
            ops,
            record_session,
            fleet,
        }
    }

    /// The initial fleet for a freshly built `host`: sized from the
    /// host's own capacity model so every admission fits under the
    /// ceiling.
    pub fn initial_fleet(&self, host: &MultiTenantHost) -> Vec<TenantPlan> {
        let model = host.capacity_model();
        let olat = model.olat();
        match self.fleet {
            Fleet::Idle { k } => {
                // Exactly k/4 tenants per base rate, dealt by a seeded
                // shuffle, each stretched by a seeded 0-12.5%. Tenants
                // admitted together start in phase: unstretched, every
                // tenant of a rate fires in the same rounds, and the p99
                // round lands on a handful of rounds where the four
                // rates coincide.
                let mut bases: Vec<u64> = (0..k).map(|i| IDLE_RATE_OLATS[i % 4] * olat).collect();
                let mut deal = self.tenant_rng(usize::MAX);
                for i in (1..k).rev() {
                    bases.swap(i, deal.next_below(i as u64 + 1) as usize);
                }
                (0..k)
                    .map(|i| {
                        let mut r = self.tenant_rng(i);
                        TenantPlan {
                            spec: TenantSpec {
                                name: format!("t{i}"),
                                benchmark: self.bench(i),
                                policy: RatePolicy::Static {
                                    rate: bases[i] + r.next_below(bases[i] / 8),
                                },
                                // A few instructions, so a few LLC misses:
                                // nearly every slot is a dummy.
                                instructions: 4 + r.next_below(13),
                            },
                            mode: LoopMode::Open,
                        }
                    })
                    .collect()
            }
            Fleet::Closed { rate, max } => {
                let k = fit(host.capacity(), model.slot_utilization(rate)).min(max);
                (0..k)
                    .map(|i| TenantPlan {
                        spec: TenantSpec {
                            name: format!("t{i}"),
                            benchmark: self.bench(i),
                            policy: RatePolicy::Static { rate },
                            instructions: ENDLESS,
                        },
                        mode: LoopMode::Closed,
                    })
                    .collect()
            }
            Fleet::Dynamic {
                shrunk,
                headroom,
                max,
            } => {
                let policy = parse_scheme(CHURN_SCHEME).expect("valid scheme");
                let util = model.slot_utilization(policy.fastest_rate());
                let ceiling = shrunk as f64 * self.cfg.max_shard_utilization;
                let k = fit(ceiling, util).saturating_sub(headroom).min(max);
                (0..k)
                    .map(|i| churn_tenant(format!("t{i}"), self.bench(i)))
                    .collect()
            }
        }
    }

    /// SPEC program of tenant slot `i`, round-robin over the workload's
    /// mix: the program mix is part of the workload's definition, not of
    /// its seed (`fleet-idle` programs end after a few instructions, so
    /// it takes the host's default tenant mix).
    fn bench(&self, i: usize) -> SpecBenchmark {
        match self.workload {
            Workload::FleetIdle => SpecBenchmark::tenant_mix(8)[i % 8],
            Workload::CoresClosed => STEADY_MIX[i % STEADY_MIX.len()],
            Workload::ChurnStaged => STEADY_MIX[i % CHURN_PROGRAMS],
        }
    }

    fn tenant_rng(&self, i: usize) -> SplitMix64 {
        SplitMix64::new(self.seed ^ salt(self.workload) ^ (i as u64).wrapping_mul(0x9E37_79B9))
    }
}

/// The admission check's own arithmetic: how many tenants of `util`
/// each fit under `ceiling` (the host refuses when `demand > ceiling`).
fn fit(ceiling: f64, util: f64) -> usize {
    let mut demand = 0.0;
    let mut k = 0;
    while demand + util <= ceiling {
        demand += util;
        k += 1;
    }
    k
}

/// A `churn-staged` tenant: dynamic rates, open loop, endless program.
pub fn churn_tenant(name: String, benchmark: SpecBenchmark) -> TenantPlan {
    TenantPlan {
        spec: TenantSpec {
            name,
            benchmark,
            policy: parse_scheme(CHURN_SCHEME).expect("valid scheme"),
            instructions: ENDLESS,
        },
        mode: LoopMode::Open,
    }
}

/// Per-workload salt so one seed gives the three workloads unrelated
/// draws.
fn salt(w: Workload) -> u64 {
    match w {
        Workload::FleetIdle => 0x1D1E,
        Workload::CoresClosed => 0xC10_5ED,
        Workload::ChurnStaged => 0xC4_0257,
    }
}

/// The `churn-staged` schedule: an admit or evict every few rounds
/// (alternating, so the fleet stays near its initial size and every
/// admission fits), and a shrink-to-14 / grow-to-16 resize pair at a
/// fixed cadence. The seed jitters each operation's round.
fn churn_schedule(rng: &mut SplitMix64, rounds: u64, tiny: bool) -> Vec<(u64, Op)> {
    let (every, resize_every) = if tiny { (6, 16) } else { (8, 64) };
    let mut ops = Vec::new();
    let mut admitted = 0usize;
    let mut evict_next = true;
    let mut r = every;
    while r < rounds {
        let round = r - rng.next_below(every / 2);
        if evict_next {
            ops.push((round, Op::Evict));
        } else {
            let name = format!("c{admitted}");
            ops.push((round, Op::Admit { name }));
            admitted += 1;
        }
        evict_next = !evict_next;
        r += every;
    }
    let mut shrink = true;
    let mut r = resize_every;
    while r < rounds {
        ops.push((r, Op::Resize(if shrink { SHARDS - 2 } else { SHARDS })));
        shrink = !shrink;
        r += resize_every;
    }
    // Stable: an admit/evict and a resize due the same round keep that
    // order.
    ops.sort_by_key(|(round, _)| *round);
    ops
}
