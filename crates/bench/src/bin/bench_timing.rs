//! `cargo bench`-style timing harness for the experiment suite: runs every
//! paper artifact at its regression-test scale, times each one, and writes
//! `BENCH_experiments.json` so consecutive PRs accumulate a perf
//! trajectory.
//!
//! ```sh
//! cargo run --release -p tiptop-bench --bin bench_timing \
//!     [-- [--check] [--only <experiment>]... [out.json]]
//! ```
//!
//! `--only <experiment>` (repeatable) times just the named experiments, so
//! one layer can be measured without the full sweep; an unknown name is a
//! usage error. The [`cache_model`] micro-bench runs as the experiment
//! `cache_model` and also writes its ns/access per stream (L1-resident,
//! L3-resident, thrashing) into the JSON under `cache_model_ns_per_access`.
//!
//! With `--check` the harness also compares each experiment against its
//! per-experiment wall-time budget (the release baseline recorded by the
//! PR 3 trajectory, +30% regression allowance and a small absolute slack
//! for sub-second experiments) and exits non-zero on any breach — the CI
//! regression gate. Budgets are calibrated for the release profile; in a
//! debug build `--check` only reports, it never fails.
//!
//! The JSON is written by hand (the offline `serde` stub has no
//! serializer): a flat object of per-experiment wall seconds plus totals —
//! trivially diffable between commits.
//!
//! The harness also drives the [`scaling`] throughput curve (the full
//! worker-thread sweep at every point). A plain run refreshes the
//! committed `BENCH_cluster.json`; with `--check` the file is left
//! untouched and instead acts as the regression anchor — CI fails if the
//! fresh 100-machine frames/sec, at **either** the single-thread or the
//! 8-thread arm, falls more than 30% below the committed curve.

use std::time::Instant;

use tiptop_bench::cache_model;
use tiptop_bench::experiments::{
    fig01_snapshot, fig03_evolution, fig06_07_phases, fig08_ipc_vs_instructions, fig09_compilers,
    fig10_datacenter, fig11_interference, fleet, grid, pipelines, policy_lab, reactive, scaling,
    table1_fp_micro, tournament, validation,
};

/// Release-profile wall-second baselines, seeded from the PR 3 trajectory
/// (`BENCH_experiments.json`; `grid`, `reactive` and `tournament` from the
/// PRs that introduced them — `reactive` pays for its run *plus* the
/// scripted grid baseline it compares against, `tournament` for its four
/// detector×mode cells). The six cache-bound experiments (`fig10`,
/// `fig11`, `grid`, `reactive`, `tournament`, `policy_lab`) were since
/// scaled by the median before/after ratio of the division-free cache
/// sampling path, measured in alternating pairs on one host. A budget
/// breach means the experiment regressed by more than
/// [`REGRESSION_ALLOWANCE`] against this trajectory.
const BASELINE_SECONDS: [(&str, f64); 17] = [
    ("fig01_snapshot", 0.400),
    ("table1_fp_micro", 0.002),
    ("fig03_evolution", 0.206),
    ("fig06_07_phases", 0.288),
    ("fig08_ipc_vs_insns", 0.069),
    ("fig09_compilers", 0.049),
    ("fig10_datacenter", 2.232),
    ("fig11_interference", 1.421),
    ("fleet", 0.078),
    ("grid", 1.956),
    ("reactive", 3.820),
    ("tournament", 6.815),
    // Nine policy×scenario cells; the three `fleet` cells carry four
    // endless background jobs each, so the grid costs ~2.6× the
    // tournament's four cells.
    ("policy_lab", 17.580),
    // Four three-machine pipelines (chain, fan-out, shuffle, random DAG)
    // through the cluster's lockstep driver.
    ("pipelines", 0.020),
    ("validation", 0.009),
    // The thread sweep runs the batched arm four times per point (1/2/4/8
    // workers) plus one single-threaded baseline arm; the lane/loser-tree
    // merge and the per-machine memory diet still bring the whole curve in
    // under the old two-arm budget.
    ("scaling", 1.500),
    // 3 × 500 timed epochs of 4096 sampled accesses, plus warm-up:
    // 0.61–0.66 s on a 2-CPU host where `fig10_datacenter` takes ~1.6× its
    // baseline, scaled down by that factor like the rest of this table.
    ("cache_model", 0.400),
];

/// The committed scaling curve; `--check` compares the fresh 100-machine
/// throughput against it and fails on a >30% regression. Refreshed by a
/// plain (non-`--check`) run, so CI never dirties the tree.
const CLUSTER_JSON: &str = "BENCH_cluster.json";

/// Allowed relative throughput loss at the 100-machine anchors.
const CLUSTER_REGRESSION_ALLOWANCE: f64 = 0.30;

/// The numeric value following `key` in `s`.
fn scan_value(s: &str, key: &str) -> Option<f64> {
    let rest = &s[s.find(key)? + key.len()..];
    let end = rest.find([',', '}'])?;
    rest[..end].trim().parse().ok()
}

/// The committed 100-machine `frames_per_sec` at `threads` workers out of
/// `BENCH_cluster.json` (hand-rolled scan — the offline serde stub has no
/// deserializer either). Schema `/2` carries one arm per swept thread
/// count; a legacy `/1` file only answers for `threads == 1` (its single
/// measured arm).
fn anchor_fps(json: &str, threads: usize) -> Option<f64> {
    let at = json.find("\"machines\": 100,")?;
    let rest = &json[at..];
    // Confine the scan to this point's span so an arm from the next point
    // can never answer for this one.
    let span_end = rest[1..]
        .find("\"machines\": ")
        .map(|i| i + 1)
        .unwrap_or(rest.len());
    let span = &rest[..span_end];
    if json.contains("\"schema\": \"tiptop-bench-cluster/1\"") {
        if threads != 1 {
            return None;
        }
        return scan_value(span, "\"frames_per_sec\": ");
    }
    let tkey = format!("\"threads\": {threads},");
    let arm = &span[span.find(&tkey)?..];
    scan_value(arm, "\"frames_per_sec\": ")
}

/// Budgeted relative regression before `--check` fails.
const REGRESSION_ALLOWANCE: f64 = 0.30;
/// Absolute slack so millisecond-scale experiments don't fail on noise.
const ABSOLUTE_SLACK_SECONDS: f64 = 0.25;

fn budget_for(name: &str) -> Option<f64> {
    BASELINE_SECONDS
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, base)| base * (1.0 + REGRESSION_ALLOWANCE) + ABSOLUTE_SLACK_SECONDS)
}

const USAGE: &str = "usage: bench_timing [--check] [--only <experiment>]... [out.json]";

fn usage_error(msg: &str) -> ! {
    eprintln!("bench_timing: {msg}\n{USAGE}");
    std::process::exit(2);
}

fn main() {
    let mut check = false;
    let mut only: Vec<String> = Vec::new();
    let mut out_path = "BENCH_experiments.json".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--check" => check = true,
            "--only" => match args.next() {
                Some(name) => only.push(name),
                None => usage_error("--only needs an experiment name"),
            },
            _ if arg.starts_with("--") => usage_error(&format!("unknown flag '{arg}'")),
            _ => out_path = arg,
        }
    }

    if let Some(bad) = only.iter().find(|o| budget_for(o).is_none()) {
        let names: Vec<&str> = BASELINE_SECONDS.iter().map(|(n, _)| *n).collect();
        usage_error(&format!(
            "unknown experiment '{bad}' (one of: {})",
            names.join(", ")
        ));
    }

    let mut entries: Vec<(&'static str, f64)> = Vec::new();
    let mut time = |name: &'static str, f: &mut dyn FnMut()| {
        if !only.is_empty() && !only.iter().any(|o| o == name) {
            return;
        }
        let t0 = Instant::now();
        f();
        let dt = t0.elapsed().as_secs_f64();
        eprintln!("{name:>24}  {dt:7.2}s");
        entries.push((name, dt));
    };

    // Same seeds/scales as the regression tests, so these timings track
    // exactly what CI pays for.
    time("fig01_snapshot", &mut || {
        fig01_snapshot::run(3, 30, 5);
    });
    time("table1_fp_micro", &mut || {
        table1_fp_micro::run(5);
    });
    time("fig03_evolution", &mut || {
        fig03_evolution::run(7, 0.001);
    });
    time("fig06_07_phases", &mut || {
        fig06_07_phases::run(11, 0.02);
    });
    time("fig08_ipc_vs_insns", &mut || {
        fig08_ipc_vs_instructions::run(13, 0.02);
    });
    time("fig09_compilers", &mut || {
        fig09_compilers::run(17, 0.02);
    });
    time("fig10_datacenter", &mut || {
        fig10_datacenter::run(19, 0.01);
    });
    time("fig11_interference", &mut || {
        fig11_interference::run(23);
    });
    time("fleet", &mut || {
        fleet::run(31, 0.02);
    });
    time("grid", &mut || {
        grid::run(37, 0.01);
    });
    time("reactive", &mut || {
        reactive::run(41, 0.01);
    });
    time("tournament", &mut || {
        tournament::run(43, 0.01);
    });
    time("policy_lab", &mut || {
        policy_lab::run(53, 0.01);
    });
    time("pipelines", &mut || {
        pipelines::run(7);
    });
    time("validation", &mut || {
        validation::run(29);
    });
    let mut scaling_result = None;
    time("scaling", &mut || {
        scaling_result = Some(scaling::run(47));
    });
    let mut cache_model_result = None;
    time("cache_model", &mut || {
        cache_model_result = Some(cache_model::run(59, 500));
    });
    if let Some(r) = &cache_model_result {
        eprintln!("{}", r.report());
    }

    // The scaling curve and its throughput gates exist only if it ran.
    let committed = std::fs::read_to_string(CLUSTER_JSON).ok();
    let prior_anchor_1t = committed.as_deref().and_then(|s| anchor_fps(s, 1));
    let prior_anchor_8t = committed.as_deref().and_then(|s| anchor_fps(s, 8));
    if let Some(r) = &scaling_result {
        eprintln!("{}", r.report());
        if !check {
            std::fs::write(CLUSTER_JSON, r.to_json()).expect("write cluster json");
            println!("wrote {CLUSTER_JSON}");
        }
    }

    let total: f64 = entries.iter().map(|(_, t)| t).sum();
    let mut json = String::from("{\n");
    json.push_str(&format!(
        "  \"schema\": \"tiptop-bench-timing/1\",\n  \"profile\": \"{}\",\n",
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        }
    ));
    json.push_str("  \"experiments\": {\n");
    for (i, (name, t)) in entries.iter().enumerate() {
        let comma = if i + 1 < entries.len() { "," } else { "" };
        json.push_str(&format!("    \"{name}\": {t:.3}{comma}\n"));
    }
    json.push_str("  },\n");
    if let Some(r) = &cache_model_result {
        json.push_str(&format!(
            "  \"cache_model_ns_per_access\": {},\n",
            r.to_json()
        ));
    }
    json.push_str(&format!("  \"total_seconds\": {total:.3}\n}}\n"));

    std::fs::write(&out_path, &json).expect("write timing json");
    eprintln!("{:>24}  {total:7.2}s", "total");
    println!("wrote {out_path}");

    if check {
        let enforce = !cfg!(debug_assertions);
        if !enforce {
            eprintln!("--check: budgets are calibrated for release; reporting only");
        }
        let mut breaches = 0usize;
        for (name, measured) in &entries {
            let Some(budget) = budget_for(name) else {
                eprintln!("--check: no budget for '{name}' — add it to BASELINE_SECONDS");
                breaches += 1;
                continue;
            };
            if *measured > budget {
                eprintln!(
                    "--check: {name} took {measured:.3}s, budget {budget:.3}s \
                     (baseline +{:.0}% +{ABSOLUTE_SLACK_SECONDS}s)",
                    REGRESSION_ALLOWANCE * 100.0
                );
                breaches += 1;
            }
        }
        // Cluster throughput gates: the fresh 100-machine frames/sec must
        // stay within the allowance of the committed curve at both the
        // single-thread and the 8-thread arm (the latter guards the lane +
        // merge path specifically). Throughput (like the wall-time
        // budgets) is calibrated for release. An 8-thread anchor missing
        // from a legacy `/1` committed file is reported, not failed — the
        // next plain release run upgrades the file to `/2`.
        if let (true, Some(scaling_result)) = (enforce, &scaling_result) {
            let mut gate = |threads: usize, prior: Option<f64>, required: bool| match (
                prior,
                scaling_result.anchor_fps(threads),
            ) {
                (Some(prior), Some(fresh)) => {
                    let floor = prior * (1.0 - CLUSTER_REGRESSION_ALLOWANCE);
                    if fresh < floor {
                        eprintln!(
                            "--check: scaling 100-machine {threads}-thread throughput \
                                 {fresh:.0} f/s fell below {floor:.0} f/s \
                                 (committed {prior:.0} f/s -{:.0}%)",
                            CLUSTER_REGRESSION_ALLOWANCE * 100.0
                        );
                        breaches += 1;
                    }
                }
                _ if required => {
                    eprintln!(
                        "--check: no committed 100-machine {threads}-thread anchor in \
                             {CLUSTER_JSON} — refresh it with a plain (non---check) release run"
                    );
                    breaches += 1;
                }
                _ => {
                    eprintln!(
                        "--check: 100-machine {threads}-thread anchor unavailable \
                             (legacy {CLUSTER_JSON}?); gate skipped"
                    );
                }
            };
            gate(1, prior_anchor_1t, true);
            gate(8, prior_anchor_8t, prior_anchor_8t.is_some());
        }

        if breaches == 0 {
            eprintln!("--check: all {} experiments within budget", entries.len());
        } else if enforce {
            eprintln!("--check: {breaches} budget breach(es)");
            std::process::exit(1);
        }
    }
}
