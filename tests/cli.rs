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

#[test]
fn a_distance_past_the_cap_is_the_same_error_in_schedule_and_serve() {
    let qasm = scratch_file("chain-distance.qasm", CHAIN);
    let expected = "distance 2147483649 exceeds the limit of 1001";
    let out = scq(&["schedule", &qasm, "6", "2147483649"]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(stderr.trim_end(), format!("error: {expected}"));
    for backend in ["braid", "planar"] {
        let line = format!("app=gse backend={backend} distance=2147483649");
        let err = parse_request_line(&line).unwrap_err();
        assert_eq!(err.to_string(), expected, "{line}");
    }
    // The cap itself still schedules, on both surfaces.
    let out = scq(&["schedule", &qasm, "6", "1001"]);
    assert!(out.status.success(), "{out:?}");
    let line = format!("qasm={qasm} backend=planar distance=1001");
    let request = parse_request_line(&line).unwrap().unwrap();
    assert!(BatchRunner::new(4).run_one(&request).outcome.is_ok());
}

#[test]
fn check_fails_on_a_dead_anchor_of_its_materialized_map() {
    // The 6-qubit chain fills its 3x2 braid tile grid, so the router
    // at (1, 1) anchors a used qubit. The map fits only the braid mesh:
    // the check passes materialize it there and run planar clean.
    let qasm = scratch_file("chain-dead-anchor.qasm", CHAIN);
    let map = scratch_file("dead-anchor.map", "dims 7 5\nnode 1 1\n");
    let out = scq(&["check", &qasm, "--defect-map", &map]);
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stdout.contains("pass static-admission"), "{stdout}");
    assert!(
        stdout.contains("[static-admission] braid: anchor of q"),
        "{stdout}"
    );
    assert!(stderr.starts_with("note: "), "{stderr}");
    assert!(
        stderr.contains("error: unnamed failed certification"),
        "{stderr}"
    );
}

#[test]
fn a_dead_anchor_of_an_unused_qubit_fails_neither_check_nor_schedule() {
    // The chain without its q5 gates: q5 is declared but unused, and
    // the router at (5, 1) anchors it on the 3x2 braid tile grid. The
    // check and the braid engine both judge only the qubits gates use.
    let qasm = scratch_file(
        "chain-unused-q5.qasm",
        "qubits 6\nh q0\nt q1\ncnot q0, q1\ncnot q1, q2\ncnot q2, q3\nt q3\ncnot q3, q4\n",
    );
    let map = scratch_file("unused-anchor.map", "dims 7 5\nnode 5 1\n");
    for command in ["check", "schedule"] {
        let out = scq(&[command, &qasm, "--defect-map", &map]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(out.status.success(), "{command}: {out:?}");
        assert!(
            stdout.contains("defects (braid mesh 7x5): 1 dead tiles"),
            "{command}: {stdout}"
        );
    }
}

/// A planar-mesh map (3x4, never the braid mesh) whose one dead tile,
/// `(0, 1)`, is the first data cell of the row-major floorplan.
const PLANAR_DEAD_TILE_MAP: &str = "dims 3 4\nnode 0 1\n";

#[test]
fn check_judges_the_floorplan_the_planar_backend_places_around_dead_tiles() {
    // Five qubits leave a spare data cell on the 3x2 block, so the
    // planar backend places them on the five live cells and q0 avoids
    // the dead tile; check admits what schedule then certifies.
    let qasm = scratch_file(
        "five-dead-tile.qasm",
        "qubits 5\nh q0\nt q1\ncnot q0, q1\ncnot q1, q2\ncnot q2, q3\nt q3\ncnot q3, q4\n\
         cnot q0, q4\n",
    );
    let map = scratch_file("planar-dead-tile.map", PLANAR_DEAD_TILE_MAP);
    for command in ["check", "schedule"] {
        let out = scq(&[command, &qasm, "--defect-map", &map]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(out.status.success(), "{command}: {out:?}");
        assert!(
            stdout.contains("defects (planar mesh 3x4): 1 dead tiles"),
            "{command}: {stdout}"
        );
    }
}

#[test]
fn a_planar_map_too_dead_to_place_on_fails_check_and_schedule_alike() {
    // Six qubits need all six data cells of the 3x2 block.
    let qasm = scratch_file("chain-dead-tile.qasm", CHAIN);
    let map = scratch_file("chain-dead-tile.map", PLANAR_DEAD_TILE_MAP);
    for command in ["check", "schedule"] {
        let out = scq(&[command, &qasm, "--defect-map", &map]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{command}: {stderr}");
        assert!(stderr.starts_with("note: "), "{command}: {stderr}");
        assert_eq!(
            stderr.lines().last(),
            Some("error: cannot place 6 data tiles on 5 live cells"),
            "{command}"
        );
        assert!(
            stdout.contains("defects (planar mesh 3x4): 1 dead tiles"),
            "{command}: {stdout}"
        );
    }
}

#[test]
fn wide_two_gate_circuits_keep_their_layout_hashes() {
    // Two gates over many declared qubits: nearly all of the layout
    // pass bisects isolated vertices, and up to the 65,536-qubit cap
    // its placement must not move.
    for (qubits, hash) in [
        (5_000, "0da7409eda81961e"),
        (20_000, "b16a316e20b9dbd1"),
        (65_536, "afe2c08e36cb018f"),
    ] {
        let qasm = scratch_file(
            &format!("two-gates-{qubits}.qasm"),
            &format!("qubits {qubits}\ncnot q0, q1\nh q1\n"),
        );
        let out = scq(&["schedule", &qasm, "--timings"]);
        assert!(out.status.success(), "{qubits} qubits: {out:?}");
        let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
        let layout = stdout
            .lines()
            .find_map(|l| l.trim_start().strip_prefix("layout "))
            .unwrap_or_else(|| panic!("{qubits} qubits: no layout hash in {stdout}"));
        assert_eq!(
            layout.split_whitespace().next(),
            Some(hash),
            "{qubits} qubits"
        );
    }
}

/// `text` with each `pass` line cut after the pass name: the padding
/// before a duration varies with the duration's width.
fn without_durations(text: &str) -> String {
    let mut kept = String::new();
    for line in text.lines() {
        let body = line.trim_start();
        match body.strip_prefix("pass ") {
            Some(rest) => {
                let indent = &line[..line.len() - body.len()];
                let name = rest.split_whitespace().next().unwrap_or_default();
                kept.push_str(&format!("{indent}pass {name}"));
            }
            None => kept.push_str(line),
        }
        kept.push('\n');
    }
    kept
}

/// `scq check` on [`CHAIN`].
const CHECK_CLEAN: &str = "\
pass normalize-ir
pass code-distance
pass interaction-analysis
pass layout
pass dag-acyclicity
pass def-use
pass duplicate-anchor
pass static-admission
check: unnamed passed (0 warning(s))
";

/// `scq check` on [`CHAIN`] with `--defect-rate 0.05 --defect-seed 3`.
const CHECK_DEFECTED: &str = "\
defects (braid mesh 7x5): 0 dead tiles, 3 dead links, 3 flaky links
defects (planar mesh 3x4): 0 dead tiles, 0 dead links, 0 flaky links
pass normalize-ir
pass code-distance
pass interaction-analysis
pass layout
pass dag-acyclicity
pass def-use
pass duplicate-anchor
pass static-admission
check: unnamed passed (0 warning(s))
";

/// `scq schedule --timings` on [`CHAIN`] with
/// `--defect-rate 0.02 --defect-seed 7`.
const SCHEDULE_DEFECTED: &str = "\
defects (braid mesh 7x5): 1 dead tiles, 0 dead links, 1 flaky links
double-defect (Policy 6, d=5): 90 cycles (CP 90, ratio 1.00), utilization 4.5%
  certified: 15 braid invariants hold
defects (planar mesh 3x4): 1 dead tiles, 0 dead links, 0 flaky links
planar (Multi-SIMD): 23 cycles, 10 teleports, peak 10 live EPR pairs
  certified: 10 EPR flights replayed clean
per-pass timings:
  pass normalize-ir
  pass code-distance
  pass interaction-analysis
  pass layout
  pass braid-schedule
  pass certify-braid
  pass planar-schedule
  pass certify-planar
artifact hashes:
  normalized-ir        4c73514c89e0c775  [normalize-ir]
  circuit-stats        6d616e95c9a3e1d6  [normalize-ir]
  code-distance        9a341bb97c5488c9  [code-distance]
  interaction-graph    b15a3d5b9d2979dc  [interaction-analysis]
  layout               4f4ae02145f986f0  [layout]
  braid-schedule       971b4f6c020bd1b3  [braid-schedule]
  planar-schedule      45d2510cc8021d67  [planar-schedule]
";

/// `scq schedule --timings` on [`CHAIN`].
const SCHEDULE_CLEAN: &str = "\
double-defect (Policy 6, d=5): 90 cycles (CP 90, ratio 1.00), utilization 4.5%
  certified: 15 braid invariants hold
planar (Multi-SIMD): 19 cycles, 10 teleports, peak 10 live EPR pairs
  certified: 10 EPR flights replayed clean
per-pass timings:
  pass normalize-ir
  pass code-distance
  pass interaction-analysis
  pass layout
  pass braid-schedule
  pass certify-braid
  pass planar-schedule
  pass certify-planar
artifact hashes:
  normalized-ir        4c73514c89e0c775  [normalize-ir]
  circuit-stats        6d616e95c9a3e1d6  [normalize-ir]
  code-distance        9a341bb97c5488c9  [code-distance]
  interaction-graph    b15a3d5b9d2979dc  [interaction-analysis]
  layout               4f4ae02145f986f0  [layout]
  braid-schedule       971b4f6c020bd1b3  [braid-schedule]
  planar-schedule      c5811c910b55ff7f  [planar-schedule]
";

#[test]
fn check_and_schedule_print_their_pinned_reports() {
    let qasm = scratch_file("chain-pinned.qasm", CHAIN);
    for (args, expected) in [
        (vec!["check"], CHECK_CLEAN),
        (
            vec!["check", "--defect-rate", "0.05", "--defect-seed", "3"],
            CHECK_DEFECTED,
        ),
        (
            vec![
                "schedule",
                "--timings",
                "--defect-rate",
                "0.02",
                "--defect-seed",
                "7",
            ],
            SCHEDULE_DEFECTED,
        ),
        (vec!["schedule", "--timings"], SCHEDULE_CLEAN),
    ] {
        let mut argv = vec![args[0], qasm.as_str()];
        argv.extend(&args[1..]);
        let out = scq(&argv);
        assert!(out.status.success(), "{argv:?}: {out:?}");
        let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
        assert_eq!(without_durations(&stdout), expected, "{argv:?}");
    }
}

/// `scq compare examples/wide_mesh.qasm <p>` at three error rates, one
/// each where the Fowler law picks d = 13, 5 and 3.
const COMPARE_WIDE_MESH: [(&str, &str); 3] = [
    (
        "5e-3",
        "\
at p_physical = 5.0e-3, 1500 logical ops:
  planar: d=13, 7.03e6 physical qubits, 1.90e-5 s
  double-defect: d=13, 2.22e6 physical qubits, 2.70e-4 s
  space-time ratio (dd/planar): 4.46 -> use planar encoding
",
    ),
    (
        "2e-3",
        "\
at p_physical = 2.0e-3, 1500 logical ops:
  planar: d=5, 5.25e5 physical qubits, 1.49e-5 s
  double-defect: d=5, 3.28e5 physical qubits, 1.16e-4 s
  space-time ratio (dd/planar): 4.84 -> use planar encoding
",
    ),
    (
        "1e-6",
        "\
at p_physical = 1.0e-6, 1500 logical ops:
  planar: d=3, 1.06e5 physical qubits, 1.35e-5 s
  double-defect: d=3, 1.18e5 physical qubits, 7.70e-5 s
  space-time ratio (dd/planar): 6.32 -> use planar encoding
",
    ),
];

#[test]
fn compare_prints_its_pinned_estimates() {
    // The one CLI path through `AppProfile::from_circuit` and
    // `estimate_both`: the code distance, both estimates and the
    // verdict are pinned whole.
    let qasm = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/wide_mesh.qasm");
    for (p, expected) in COMPARE_WIDE_MESH {
        let out = scq(&["compare", qasm, p]);
        assert!(out.status.success(), "{p}: {out:?}");
        let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
        assert_eq!(stdout, expected, "p = {p}");
    }
}

#[test]
fn bad_options_are_usage_errors_not_panics() {
    let qasm = scratch_file("chain-usage.qasm", CHAIN);
    // Every schedule is certified, so the retired opt-in flag is an
    // unknown flag like any other.
    let mut cases = vec![(
        vec!["schedule", &qasm, "--verify"],
        "unknown flag `--verify`".to_string(),
    )];
    for rate in ["0", "1", "NaN", "inf", "-1e-3"] {
        let expected = format!("error rate `{rate}` is not in (0, 1)");
        cases.push((vec!["compare", &qasm, rate], expected));
    }
    for (args, expected) in cases {
        let out = scq(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert_eq!(stderr.trim_end(), format!("error: {expected}"), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
