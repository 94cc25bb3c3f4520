//! `perfbench --workload NAME --seed N --seconds S --trace 0|1 [--scale full|tiny]`
//!
//! Prints every metric by name and unit, the simulated digest and the
//! run's notes, then, as the last line, one JSON object: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! Exits 2 on bad arguments; a failed check prints `"correct": false`.

use perfbench::plan::{Scale, Workload};

/// End-to-end metrics carried in the result line. `ops_failed_frac`
/// travels as the line's own `attempted`/`failed`, and `leak_bits` is 0
/// on the static-rate workloads, so both are printed but not carried.
const RESULT_END_TO_END: [&str; 8] = [
    "slots_per_s",
    "sim_minstr_per_s",
    "round_ms_p50",
    "round_ms_p99",
    "setup_s",
    "peak_rss_mb",
    "sim_service_p99_cycles",
    "sim_ipc",
];

fn usage(why: &str) -> ! {
    eprintln!(
        "perfbench: {why}\nusage: perfbench --workload fleet-idle|cores-closed|churn-staged \
         --seed N --seconds S --trace 0|1 [--scale full|tiny]"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut scale = Scale::Full;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            usage(&format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).unwrap_or_else(|| usage("unknown workload")))
            }
            "--seed" => seed = Some(value.parse::<u64>().unwrap_or_else(|_| usage("bad --seed"))),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0 && s.is_finite())
                        .unwrap_or_else(|| usage("bad --seconds")),
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                })
            }
            "--scale" => scale = Scale::parse(value).unwrap_or_else(|| usage("bad --scale")),
            other => usage(&format!("unknown flag {other}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        usage("--workload, --seed, --seconds and --trace are required")
    };

    let mut o = perfbench::run(workload, seed, seconds, trace, scale);
    println!(
        "perfbench {} seed={seed} scale={scale:?} trace={}",
        workload.name(),
        u8::from(trace)
    );
    for x in o.end_to_end.iter().chain(&o.per_layer) {
        println!("  {:<28} {:>16.6} {}", x.name, x.value, x.unit);
        if !x.value.is_finite() {
            o.correct = false;
            o.notes.push(format!("{} is not a finite number", x.name));
        }
    }
    println!("  digest {}", o.digest);
    for n in &o.notes {
        println!("  note: {n}");
    }
    let carried: Vec<_> = if trace {
        o.per_layer.clone()
    } else {
        o.end_to_end
            .iter()
            .filter(|x| RESULT_END_TO_END.contains(&x.name))
            .cloned()
            .collect()
    };
    println!("{}", perfbench::result_json(&o, &carried));
}
