//! The benchmark's own tests: a short smoke run of every workload
//! (untraced and traced), and proof that a wrong checksum or a
//! corrupted response body fails the run instead of producing a result.

use std::process::{Command, Output};

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_lwtbench"))
        .args(args)
        .output()
        .expect("spawn lwtbench")
}

fn last_line(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .last()
        .unwrap_or_default()
        .to_string()
}

/// Metric names of one section of BENCHMARK.json, in file order.
fn declared(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    let start = doc
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &doc[start..];
    let body = &body[..body.find(']').expect("section closes")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("name closes")].to_string())
        .collect()
}

fn assert_result(out: &Output, section: &str) {
    assert!(
        out.status.success(),
        "exit {:?}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let json = last_line(out);
    assert!(
        json.starts_with("{\"correct\": true, \"attempted\": "),
        "{json}"
    );
    assert!(json.contains("\"failed\": 0,"), "{json}");
    for name in declared(section) {
        assert!(
            json.contains(&format!("\"{name}\": {{\"value\": ")),
            "{name} missing: {json}"
        );
    }
    assert_eq!(
        json.matches("\"value\"").count(),
        declared(section).len(),
        "{json}"
    );
}

fn smoke(workload: &str) {
    let out = run(&[
        "--workload",
        workload,
        "--seed",
        "7",
        "--seconds",
        "0.3",
        "--trace",
        "0",
    ]);
    assert_result(&out, "end_to_end");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("# fingerprint {\"nproc\": "), "{text}");
    assert!(text.contains("fail_frac"), "{text}");
}

#[test]
fn forkjoin_smoke() {
    smoke("forkjoin");
}

#[test]
fn rpc_smoke() {
    smoke("rpc");
}

#[test]
fn accept_smoke() {
    smoke("accept");
}

#[test]
fn traced_run_prints_every_per_layer_metric() {
    let out = run(&[
        "--workload",
        "rpc",
        "--seed",
        "7",
        "--seconds",
        "0.4",
        "--trace",
        "1",
    ]);
    assert_result(&out, "per_layer");
}

fn assert_fails(out: &Output) {
    assert!(!out.status.success(), "a wrong output must fail the run");
    assert!(
        !String::from_utf8_lossy(&out.stdout).contains("\"correct\""),
        "a failing run must not print a result"
    );
    assert!(String::from_utf8_lossy(&out.stderr).contains("correctness failure"));
}

#[test]
fn wrong_checksum_fails_the_run() {
    assert_fails(&run(&[
        "--workload",
        "forkjoin",
        "--seed",
        "7",
        "--seconds",
        "0.2",
        "--trace",
        "0",
        "--fault",
        "checksum",
    ]));
}

#[test]
fn corrupted_body_fails_the_run() {
    for workload in ["rpc", "accept"] {
        assert_fails(&run(&[
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "0.3",
            "--trace",
            "0",
            "--fault",
            "body",
        ]));
    }
}

#[test]
fn bad_arguments_are_refused() {
    let out = run(&["--workload", "nope", "--seed", "1"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
