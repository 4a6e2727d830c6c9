//! Golden-digest certification of the toolflow: the pipeline behind
//! `run_toolflow` must keep producing *byte-identical* reports — same
//! schedules, same estimates — across the fig6 app grid × every policy,
//! scaled instances, and pinned code distances, and the same errors at
//! the same stage.
//!
//! Each golden entry is the `KeyHasher` digest of the `Debug` rendering
//! of the whole [`ToolflowReport`] (which covers every field of every
//! artifact, recursively) and of its user-facing `Display` rendering.
//! The digests were taken from the pre-pipeline call chain the pass
//! pipeline replaced, so they keep certifying that the refactor was a
//! pure re-plumbing. A deliberate change to scheduling semantics must
//! regenerate them.

use scq_apps::Benchmark;
use scq_braid::Policy;
use scq_core::{
    run_toolflow, CommBackend, KeyHasher, TeleportBackend, ToolflowConfig, ToolflowError,
    ToolflowReport,
};
use scq_ir::{Circuit, DependencyDag};
use scq_surface::Technology;
use scq_teleport::{schedule_planar_with, CongestionAwarePlacement, FabricRun, PlanarConfig};

/// The four fig6 applications.
const FIG6: [Benchmark; 4] = [
    Benchmark::Gse,
    Benchmark::SquareRoot,
    Benchmark::Sha1,
    Benchmark::IsingFull,
];

/// `(Debug digest, Display digest)` per fig6 app (rows, in [`FIG6`]
/// order) × policy (columns, in `Policy::ALL` order).
const FIG6_GOLDEN: [[(u64, u64); 7]; 4] = [
    [
        (0x23c9_7e40_02f9_353f, 0xdc08_460a_f000_7162),
        (0x23c9_7e40_02f9_353f, 0xdc08_460a_f000_7162),
        (0x7970_774b_cf72_9ff0, 0x9fde_503b_70f2_85fd),
        (0xb0f6_5504_e987_2a27, 0xd5ca_3d61_3783_31f0),
        (0xb0f6_5504_e987_2a27, 0xd5ca_3d61_3783_31f0),
        (0xb0f6_5504_e987_2a27, 0xd5ca_3d61_3783_31f0),
        (0xb0f6_5504_e987_2a27, 0xd5ca_3d61_3783_31f0),
    ],
    [
        (0x12d5_6589_29ad_f5ab, 0x7b58_115a_ff36_ca6d),
        (0x8a38_8b3c_383a_aa07, 0x6b82_6481_0e8f_d701),
        (0x78be_b5ae_8c7d_576c, 0xf11e_95ba_04d0_3822),
        (0x6de8_279b_10b6_6ddb, 0x9fc3_9d4b_e7e6_052e),
        (0x9977_f854_2f3f_09cb, 0x62ef_8600_626e_6185),
        (0xabf8_4cde_ea5f_1639, 0x4396_fc18_5767_302f),
        (0x072f_284c_f762_df22, 0xf545_12b6_d331_2b58),
    ],
    [
        (0x286f_0620_46cc_a411, 0x5c41_0816_d1e4_0b8b),
        (0x7c12_d911_98a8_7fd9, 0xa0f7_6baa_e3dc_c2e4),
        (0xa38a_e256_108e_d440, 0xffb7_03fc_5ba3_ab3f),
        (0x7946_105e_be00_7e0d, 0x757b_5183_cfa4_e234),
        (0xabde_59fa_e8e3_ccb3, 0x47dd_3563_8cf3_faf0),
        (0x0b7b_c1a6_fe12_027e, 0x0fe6_0982_feb4_4a2d),
        (0xae21_2ab4_62a9_ebe9, 0x45a6_454f_56fd_8397),
    ],
    [
        (0xe350_9c48_ec82_08eb, 0xd6ef_7d7e_474a_ed7a),
        (0xa054_20c8_85f1_69f8, 0x94f7_2892_3d00_be35),
        (0xbe3d_7477_4a04_ba50, 0x9101_0082_9770_99b9),
        (0xf20b_4fc6_1546_0b8e, 0x24b6_40ff_2131_ed7d),
        (0x3e31_d857_caf0_9ff8, 0x84a4_3292_72fe_eca7),
        (0x1580_2d66_e894_379e, 0x9d07_335d_ce18_3931),
        (0x1738_51cc_f648_0954, 0x17c5_c3e5_d9a0_9d8e),
    ],
];

/// GSE at `scale: Some(0)` and `Some(1)`.
const GSE_SCALED_GOLDEN: [(u32, (u64, u64)); 2] = [
    (0, (0xb0f6_5504_e987_2a27, 0xd5ca_3d61_3783_31f0)),
    (1, (0x2245_160b_a27a_6886, 0x8c07_90c7_2a91_b032)),
];

/// GSE with the code distance pinned to 3 and 7.
const GSE_PINNED_GOLDEN: [(u32, (u64, u64)); 2] = [
    (3, (0xb0f6_5504_e987_2a27, 0xd5ca_3d61_3783_31f0)),
    (7, (0xbf46_73c3_b493_dea0, 0x9f70_260d_13f9_770c)),
];

fn digest(text: &str) -> u64 {
    let mut h = KeyHasher::new();
    h.write_str(text);
    h.finish()
}

fn assert_golden(report: &ToolflowReport, golden: (u64, u64), label: &str) {
    let got = (digest(&format!("{report:?}")), digest(&report.to_string()));
    assert_eq!(
        got, golden,
        "{label}: report bytes diverged from the golden digests (got {:#018x}, {:#018x})",
        got.0, got.1
    );
}

#[test]
fn fig6_grid_matches_the_golden_digests_under_every_policy() {
    for (app, row) in FIG6.into_iter().zip(FIG6_GOLDEN) {
        for (policy, golden) in Policy::ALL.into_iter().zip(row) {
            let config = ToolflowConfig {
                policy,
                ..Default::default()
            };
            let report = run_toolflow(app, &config).unwrap();
            assert_golden(&report, golden, &format!("{app} {policy}"));
        }
    }
}

#[test]
fn scaled_instances_match_the_golden_digests() {
    for (scale, golden) in GSE_SCALED_GOLDEN {
        let config = ToolflowConfig {
            scale: Some(scale),
            ..Default::default()
        };
        let report = run_toolflow(Benchmark::Gse, &config).unwrap();
        assert_golden(&report, golden, &format!("GSE@{scale}"));
    }
}

#[test]
fn pinned_code_distance_is_respected_and_matches_the_golden_digests() {
    // The CLI pins the code distance instead of deriving it.
    for (d, golden) in GSE_PINNED_GOLDEN {
        let config = ToolflowConfig {
            code_distance: Some(d),
            ..Default::default()
        };
        let report = run_toolflow(Benchmark::Gse, &config).unwrap();
        assert_eq!(report.code_distance, d);
        assert_golden(&report, golden, &format!("GSE pinned d={d}"));
    }
}

#[test]
fn threshold_errors_stop_at_code_distance() {
    // A technology above threshold fails in `code-distance` — before
    // any placement or scheduling — on every app.
    let config = ToolflowConfig {
        technology: Technology::default().with_error_rate(0.02),
        ..Default::default()
    };
    for app in FIG6 {
        let err = run_toolflow(app, &config).unwrap_err();
        assert!(matches!(err, ToolflowError::Threshold(_)), "{app}: {err}");
    }
}

#[test]
fn optimized_teleport_backend_matches_the_direct_engine_call() {
    // `TeleportBackend::schedule_optimized` must equal the planar
    // engine run directly with the congestion-aware placement.
    let mut b = Circuit::builder("opt", 12);
    for q in 0..12u32 {
        b.h(q);
    }
    for _ in 0..4 {
        for q in [0u32, 3, 6, 9] {
            b.cnot(q, (q + 3) % 12).t(q);
        }
    }
    let c = b.finish();
    let dag = DependencyDag::from_circuit(&c);
    let config = PlanarConfig {
        link_capacity: 1,
        ..Default::default()
    };
    let via_backend = TeleportBackend::new(config)
        .schedule_optimized(&c, &dag)
        .unwrap();
    let (direct, _) = schedule_planar_with(
        &c,
        &dag,
        &config,
        &CongestionAwarePlacement::default(),
        &FabricRun::default(),
    )
    .unwrap();
    assert_eq!(
        format!("{:?}", via_backend.detail.as_teleport().unwrap()),
        format!("{direct:?}"),
        "schedule_optimized diverged from the direct engine call"
    );
}
