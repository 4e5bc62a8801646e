//! A tiny-size run of every workload: its digest matches the pinned one,
//! traced and untraced repetitions agree, and every metric that
//! `BENCHMARK.json` names is printed. Run with
//! `cargo test --release --manifest-path simbench/Cargo.toml`.

use std::process::Command;

const WORKLOADS: [&str; 3] = ["dc_burst", "fleet_frames", "fleet_reactive"];

/// Metric names listed in one section (`end_to_end` or `per_layer`) of
/// the repository's `BENCHMARK.json`.
fn listed(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("quoted name")].to_string())
        .collect()
}

fn run(workload: &str, trace: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_simbench"))
        .args(["--workload", workload, "--seed", "1", "--size", "tiny"])
        .args(["--repeat", "1", "--trace", trace])
        .output()
        .expect("benchmark runs");
    assert!(out.status.success(), "{workload}: exit {:?}", out.status);
    String::from_utf8(out.stdout).expect("utf-8 report")
}

fn check(trace: &str, section: &str) {
    let names = listed(section);
    assert!(!names.is_empty());
    for w in WORKLOADS {
        let report = run(w, trace);
        assert!(
            report.contains("(matches pinned)"),
            "{w}: digest not pinned:\n{report}"
        );
        let last = report.lines().last().expect("a result line");
        assert!(last.starts_with("{\"correct\": true, "), "{w}: {last}");
        assert!(last.contains("\"failed\": 0, "), "{w}: {last}");
        for name in &names {
            assert!(
                last.contains(&format!("\"{name}\": {{\"value\": ")),
                "{w}: {name} missing from {last}"
            );
        }
    }
}

#[test]
fn untraced_runs_print_every_end_to_end_metric() {
    check("0", "end_to_end");
}

#[test]
fn traced_runs_match_untraced_and_print_every_per_layer_metric() {
    check("1", "per_layer");
}

#[test]
fn bad_arguments_fail_without_a_result() {
    for args in [
        &["--workload", "no_such_workload"][..],
        &["--workload", "dc_burst", "--repeat", "0"],
        &["--workload", "dc_burst", "--trace", "2"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_simbench"))
            .args(args)
            .output()
            .expect("benchmark runs");
        assert!(!out.status.success(), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
