//! Tiny-scale self-test of the benchmark: every workload prints every
//! metric `BENCHMARK.json` declares, with its unit, and a correct result
//! line; the simulated digest repeats on one seed and moves on the
//! held-out seed.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::process::Command;

use perfbench::plan::{Plan, Scale, Workload, HELD_OUT_SEED, MAIN_SEED};
use perfbench::rep;

/// End-to-end metrics printed on every run but carried in the result
/// line only as `attempted`/`failed` (`ops_failed_frac`) or not at all
/// (`leak_bits`, 0 on static-rate fleets).
const PRINTED_ONLY: [(&str, &str); 2] = [("ops_failed_frac", "fraction"), ("leak_bits", "bits")];

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json sits beside the benchmark directory");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    let field = |obj: &str, key: &str| -> String {
        let at = obj.find(&format!("\"{key}\": \"")).expect("field present") + key.len() + 5;
        obj[at..at + obj[at..].find('"').expect("closing quote")].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|obj| (field(obj, "name"), field(obj, "unit")))
        .collect()
}

/// Runs the benchmark binary at tiny scale and returns its stdout.
fn run(workload: Workload, trace: bool) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload.name(),
            "--seed",
            &MAIN_SEED.to_string(),
        ])
        .args(["--seconds", "0.3", "--trace", if trace { "1" } else { "0" }])
        .args(["--scale", "tiny"])
        .output()
        .expect("benchmark binary runs");
    assert!(
        out.status.success(),
        "{} exited with {}",
        workload.name(),
        out.status
    );
    String::from_utf8(out.stdout).expect("utf-8 output")
}

/// Whether a human-readable line prints `name value unit`.
fn printed(stdout: &str, name: &str, unit: &str) -> bool {
    stdout.lines().any(|l| {
        let t: Vec<&str> = l.split_whitespace().collect();
        t.len() == 3 && t[0] == name && t[1].parse::<f64>().is_ok() && t[2] == unit
    })
}

#[test]
fn every_workload_prints_every_metric_with_its_unit() {
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    assert!(end_to_end.iter().any(|(n, u)| n == "setup_s" && u == "s"));
    for w in Workload::ALL {
        for (trace, carried) in [(false, &end_to_end), (true, &per_layer)] {
            let stdout = run(w, trace);
            let last = stdout.lines().last().expect("a result line");
            assert!(
                last.starts_with("{\"correct\": true, \"attempted\": "),
                "{} trace={trace}: {stdout}",
                w.name()
            );
            for (name, unit) in carried.iter() {
                let entry = format!("\"{name}\": {{\"value\": ");
                let at = last
                    .find(&entry)
                    .unwrap_or_else(|| panic!("{} result line lacks {name}", w.name()));
                let rest = &last[at + entry.len()..];
                let value = &rest[..rest.find('}').expect("metric entry closes")];
                assert!(
                    value.ends_with(&format!("\"unit\": \"{unit}\"")),
                    "{name} is not in {unit}: {value}"
                );
            }
            for (name, unit) in end_to_end
                .iter()
                .map(|(n, u)| (n.as_str(), u.as_str()))
                .chain(PRINTED_ONLY)
            {
                assert!(
                    printed(&stdout, name, unit),
                    "{} lacks {name} {unit}",
                    w.name()
                );
            }
            if trace {
                for (name, unit) in &per_layer {
                    assert!(
                        printed(&stdout, name, unit),
                        "{} lacks {name} {unit}",
                        w.name()
                    );
                }
            }
        }
    }
}

#[test]
fn digest_repeats_on_a_seed_and_moves_on_the_held_out_seed() {
    for w in Workload::ALL {
        let plan = Plan::new(w, MAIN_SEED, Scale::Tiny);
        let a = rep::run(&plan, false);
        let b = rep::run(&plan, true);
        assert!(a.problems.is_empty(), "{}: {:?}", w.name(), a.problems);
        assert_eq!(
            a.digest,
            b.digest,
            "{}: tracing or repetition moved the digest",
            w.name()
        );
        let held_out = rep::run(&Plan::new(w, HELD_OUT_SEED, Scale::Tiny), false);
        assert!(
            held_out.problems.is_empty(),
            "{}: {:?}",
            w.name(),
            held_out.problems
        );
        assert_ne!(
            a.digest.hash(),
            held_out.digest.hash(),
            "{}: the held-out seed left the digest unchanged",
            w.name()
        );
    }
}
