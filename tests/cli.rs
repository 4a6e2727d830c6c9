//! The `scq` binary end to end, beside the batch service it fronts: one
//! defect-spec rule and one QASM width cap in both, and a quiet exit
//! when the reader of its output goes away.

use std::io::Read;
use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

use scq::serve::{parse_request_line, BatchRunner, ServeError};

/// A six-qubit chain with teleports on the planar backend.
const CHAIN: &str = "qubits 6\nh q0\nt q1\ncnot q0, q1\ncnot q1, q2\ncnot q2, q3\nt q3\n\
                     cnot q3, q4\ncnot q4, q5\ncnot q0, q5\nt q5\n";

/// A map sized to [`CHAIN`]'s planar mesh (3x4, never its braid mesh)
/// whose flaky links draw transient faults.
const PLANAR_FLAKY_MAP: &str = "dims 3 4\n\
     flaky 0 1 1 1 0.5\nflaky 1 1 2 1 0.5\nflaky 0 2 1 2 0.5\nflaky 1 2 2 2 0.5\n\
     flaky 1 1 1 2 0.5\nflaky 0 1 0 2 0.5\nflaky 2 1 2 2 0.5\nflaky 0 0 0 1 0.4\n\
     flaky 1 0 1 1 0.4\nflaky 2 0 2 1 0.4\nflaky 0 2 0 3 0.4\nflaky 1 2 1 3 0.4\n\
     flaky 2 2 2 3 0.4\n";

/// Writes `text` to a file of this test binary's scratch directory.
fn scratch_file(name: &str, text: &str) -> String {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::write(&path, text).expect("scratch directory is writable");
    path.to_string_lossy().into_owned()
}

fn scq(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_scq"))
        .args(args)
        .output()
        .expect("the scq binary runs")
}

#[test]
fn heatmap_into_a_reader_that_stops_early_exits_quietly() {
    // 4900 qubits lay out on a 70x70 grid: the heatmap is ~79 KB, more
    // than a 64 KiB pipe buffer holds, so the writer is still writing
    // when the reader goes away.
    let qasm = scratch_file("wide.qasm", "qubits 4900\nh q0\ncnot q0, q1\n");
    let mut child = Command::new(env!("CARGO_BIN_EXE_scq"))
        .args(["heatmap", &qasm])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("the scq binary runs");
    let mut stdout = child.stdout.take().expect("piped stdout");
    let mut head = [0u8; 100];
    stdout.read_exact(&mut head).expect("100 bytes of heatmap");
    drop(stdout);
    let out = child.wait_with_output().expect("scq exits");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(out.status.success(), "{:?}: {stderr}", out.status);
    assert!(stderr.is_empty(), "{stderr}");
}

#[test]
fn a_map_that_fits_no_mesh_is_the_same_error_in_heatmap_and_serve() {
    let qasm = scratch_file("chain-heatmap.qasm", CHAIN);
    let map = scratch_file("planar-only.map", PLANAR_FLAKY_MAP);
    let expected = format!("defect map {map} is 3x4 but the braid mesh is 7x5");
    let out = scq(&["heatmap", &qasm, "--defect-map", &map]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(stderr.trim_end(), format!("error: {expected}"));
    assert!(out.stdout.is_empty());
    // A braid request names one backend, so the map fits no mesh of its
    // run either; as a planar request it applies.
    let request = |backend: &str| {
        let line = format!("qasm={qasm} backend={backend} defect-map={map}");
        let request = parse_request_line(&line).unwrap().unwrap();
        BatchRunner::new(4).run_one(&request).outcome
    };
    assert_eq!(request("braid").unwrap_err(), ServeError::Invalid(expected));
    assert!(request("planar").is_ok());
}

#[test]
fn schedule_rejects_a_defect_rate_beside_a_defect_map() {
    let qasm = scratch_file("chain-exclusive.qasm", CHAIN);
    let map = scratch_file("exclusive.map", PLANAR_FLAKY_MAP);
    let out = scq(&[
        "schedule",
        &qasm,
        "--defect-rate",
        "0.02",
        "--defect-map",
        &map,
    ]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("mutually exclusive"), "{stderr}");
}

/// The transient-fault count `scq schedule` reports for its planar run.
fn cli_planar_faults(qasm: &str, map: &str, seed: u64) -> u64 {
    let out = scq(&[
        "schedule",
        qasm,
        "--defect-map",
        map,
        "--defect-seed",
        &seed.to_string(),
    ]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    stdout
        .lines()
        .find_map(|l| l.trim().strip_prefix("transient faults: "))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse().ok())
        .unwrap_or(0)
}

/// The `faults=` field of a served planar request on `map`.
fn served_planar_faults(qasm: &str, map: &str, seed: u64) -> u64 {
    let line = format!("qasm={qasm} backend=planar defect-map={map} defect-seed={seed}");
    let request = parse_request_line(&line).unwrap().unwrap();
    let outcome = BatchRunner::new(4).run_one(&request).outcome.unwrap();
    outcome
        .summary
        .split_whitespace()
        .find_map(|f| f.strip_prefix("faults="))
        .and_then(|n| n.parse().ok())
        .expect("planar summaries carry faults=")
}

#[test]
fn served_map_requests_draw_transient_faults_from_their_seed_like_the_cli() {
    let qasm = scratch_file("chain-faults.qasm", CHAIN);
    let map = scratch_file("flaky.map", PLANAR_FLAKY_MAP);
    // Seeds 0 and 1 draw different fault counts on this map, so a
    // request that dropped its seed would disagree with the CLI.
    assert_ne!(
        cli_planar_faults(&qasm, &map, 0),
        cli_planar_faults(&qasm, &map, 1)
    );
    for seed in [0, 1, 2] {
        let served = served_planar_faults(&qasm, &map, seed);
        assert!(served > 0, "seed {seed}: the flaky map drew no faults");
        assert_eq!(served, cli_planar_faults(&qasm, &map, seed), "seed {seed}");
    }
}

#[test]
fn an_over_wide_qubits_header_is_an_error_in_schedule_and_serve() {
    // Scheduling this header would allocate 32 GB in the dependency
    // DAG; the parser turns it away first.
    let qasm = scratch_file("over-wide.qasm", "qubits 4000000000\nh q0\n");
    let out = scq(&["schedule", &qasm]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.starts_with("error: "), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(
        stderr.contains("line 1: 4000000000 qubits exceed the limit of 65536"),
        "{stderr}"
    );
    let request = parse_request_line(&format!("qasm={qasm}"))
        .unwrap()
        .unwrap();
    let outcome = BatchRunner::new(4).run_one(&request).outcome;
    assert!(
        matches!(&outcome, Err(ServeError::Invalid(m)) if m.contains("exceed the limit")),
        "{outcome:?}"
    );
}
