//! Golden digests of the route-aware EPR fabric: the event loop behind
//! `simulate_epr_on_fabric(_with)` must keep producing *byte-identical*
//! results whatever structures it runs on.
//!
//! Each entry is the `KeyHasher` digest of the `Debug` rendering of a
//! whole [`FabricEprResult`] (pipeline metrics, stall and hop counts,
//! event and queue-depth counters, the per-link heatmap). The clean
//! grid covers every reduced scale-tier trace, cut to its first
//! [`PREFIX`] requests, under three launch policies. One defected run
//! adds flaky links and a transcript: its hop records are kept in
//! completion order, so the transcript digest pins the event order
//! itself, transient-fault retries included. A deliberate change to
//! the fabric's semantics must regenerate them.

use scq_bench::scale_workloads;
use scq_core::KeyHasher;
use scq_mesh::DefectMap;
use scq_teleport::{
    simulate_epr_on_fabric, simulate_epr_on_fabric_with, DistributionPolicy, EprRequest, FabricRun,
};

/// Requests kept from the front of each trace (still sorted by time).
const PREFIX: usize = 4096;

/// The launch policies of every clean point: the scale tier's JIT
/// window, a window tight enough to gate launches, and eager prefetch
/// (every launch due at cycle 0, the deepest pending queue).
const POLICIES: [DistributionPolicy; 3] = [
    DistributionPolicy::JustInTime { window: 64 },
    DistributionPolicy::JustInTime { window: 4 },
    DistributionPolicy::EagerPrefetch,
];

/// `Debug` digest per reduced scale trace (rows, in
/// `scale_workloads(true)` order) × policy (columns, in [`POLICIES`]
/// order).
const CLEAN_GOLDEN: [[u64; 3]; 4] = [
    [
        0xeb54_2641_e716_4b40,
        0x7454_8a43_c523_49ec,
        0xbee1_0b9f_b0d6_ab29,
    ],
    [
        0x5257_18b2_7398_d75a,
        0x2565_f1fb_cbf7_33f7,
        0xca37_810f_c7fb_5d69,
    ],
    [
        0xc4e5_860f_15d2_658a,
        0x3ac0_c93e_0751_c4af,
        0x88e2_64eb_78c5_3c98,
    ],
    [
        0x9231_382e_9b5e_f9cd,
        0x5ed5_4a39_f286_5b2d,
        0x3464_1513_d639_79da,
    ],
];

/// Defect rate and seed of the defected run's sampled map.
const DEFECT_RATE: f64 = 0.03;
const DEFECT_SEED: u64 = 20_702;
/// Seed of the defected run's transient-fault draws.
const FAULT_SEED: u64 = 11;

/// `(result Debug digest, transcript Debug digest)` of the defected
/// run.
const DEFECTED_GOLDEN: (u64, u64) = (0xa2be_00d4_f8af_d62d, 0x880e_3ed0_be0c_0cb9);

fn digest(text: &str) -> u64 {
    let mut h = KeyHasher::new();
    h.write_str(text);
    h.finish()
}

#[test]
fn clean_scale_traces_keep_their_digests() {
    let workloads = scale_workloads(true);
    assert_eq!(workloads.len(), CLEAN_GOLDEN.len(), "reduced grid changed");
    let mut failures = Vec::new();
    for (w, golden) in workloads.iter().zip(&CLEAN_GOLDEN) {
        let requests = &w.requests[..PREFIX.min(w.requests.len())];
        for (&policy, &want) in POLICIES.iter().zip(golden) {
            let result = simulate_epr_on_fabric(requests, policy, &w.config, w.topology);
            let got = digest(&format!("{result:?}"));
            if got != want {
                failures.push(format!(
                    "{} {policy:?}: {got:#018x} != {want:#018x}",
                    w.name
                ));
            }
        }
    }
    assert!(
        failures.is_empty(),
        "digests moved:\n{}",
        failures.join("\n")
    );
}

#[test]
fn defected_run_keeps_its_result_and_transcript_digests() {
    let w = &scale_workloads(true)[0];
    let map = DefectMap::sample(w.topology, DEFECT_RATE, DEFECT_SEED);
    assert!(
        map.flaky_link_count() > 0,
        "the sampled map has no flaky link"
    );
    // Keep the requests the map can route: a dead endpoint has none.
    let requests: Vec<EprRequest> = w.requests[..PREFIX]
        .iter()
        .filter(|r| map.route_avoiding(r.src, r.dst).is_some())
        .copied()
        .collect();
    assert!(requests.len() > PREFIX / 2, "too few routable requests");
    let run = FabricRun {
        defects: Some(&map),
        fault_seed: FAULT_SEED,
        transcript: true,
    };
    let (result, transcript) = simulate_epr_on_fabric_with(
        &requests,
        DistributionPolicy::JustInTime { window: 64 },
        &w.config,
        w.topology,
        &run,
    )
    .expect("every kept request routes");
    let transcript = transcript.expect("a transcript was requested");
    assert!(result.transient_faults > 0, "no flaky hop failed");
    assert!(transcript.hops.iter().any(|h| h.failed));
    let got = (
        digest(&format!("{result:?}")),
        digest(&format!("{transcript:?}")),
    );
    assert_eq!(
        got, DEFECTED_GOLDEN,
        "defected digests moved: result {:#018x}, transcript {:#018x}",
        got.0, got.1
    );
}
