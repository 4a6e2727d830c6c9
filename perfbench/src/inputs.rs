//! Seeded input generation for the three workloads.
//!
//! Everything the benchmark feeds the program is a pure function of the
//! `--seed` argument: the order of the toolflow points, the request
//! files of the batch workload, and the order of the fabric traces. The
//! *set* of distinct operations never depends on the seed, so one golden
//! file covers every seed and each pass over a workload does the same
//! total work. The warm-up pass is the same for every seed.

use scq_apps::Benchmark;

/// A small deterministic PRNG (SplitMix64): the benchmark's only source
/// of randomness, so inputs repeat byte for byte for a given seed.
#[derive(Clone, Debug)]
struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream` so that, for
    /// example, pass 3 of seed 1 and pass 1 of seed 3 draw differently.
    fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform index in `0..n` (`n > 0`).
    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher-Yates shuffle.
    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// The seed pass 0, the untimed warm-up pass, is drawn from whatever
/// the run's seed: set-up time and memory then do not depend on it.
const WARMUP_SEED: u64 = 0;

/// The seed pass `pass` of a run with seed `seed` is drawn from.
fn pass_seed(seed: u64, pass: usize) -> u64 {
    if pass == 0 {
        WARMUP_SEED
    } else {
        seed
    }
}

/// A seeded permutation of `0..n` for pass `pass` of a workload.
pub fn pass_order(seed: u64, pass: usize, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    Rng::new(pass_seed(seed, pass), pass as u64).shuffle(&mut order);
    order
}

/// One `run_toolflow` point: a benchmark at a problem-size step.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ToolflowPoint {
    /// The application.
    pub bench: Benchmark,
    /// Problem-size step passed as `ToolflowConfig::scale`.
    pub scale: u32,
}

impl ToolflowPoint {
    /// The golden-file key, e.g. `SHA-1@2`.
    pub fn key(&self) -> String {
        format!("{}@{}", self.bench.name(), self.scale)
    }
}

/// The 15 toolflow points: `Benchmark::ALL` x scale {0, 1, 2}.
pub fn toolflow_points() -> Vec<ToolflowPoint> {
    Benchmark::ALL
        .iter()
        .flat_map(|&bench| (0..3).map(move |scale| ToolflowPoint { bench, scale }))
        .collect()
}

/// Backend named by a request line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// `backend=braid`.
    Braid,
    /// `backend=planar`.
    Planar,
}

/// One distinct request of the batch workload, before it is written out
/// as a request-file line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RequestSpec {
    /// Request-file alias of the application (`app=`).
    pub app: &'static str,
    /// Problem-size step (`scale=`).
    pub scale: u32,
    /// Target backend.
    pub backend: Backend,
    /// Braid policy index; planar requests carry none.
    pub policy: Option<u32>,
    /// Code distance (`distance=`).
    pub distance: u32,
    /// Defect-sampling seed of a `defect-rate=0.02` request.
    pub defect_seed: Option<u64>,
    /// Whether the line carries `verify`.
    pub verify: bool,
}

/// Dead-resource rate of every defected request.
const DEFECT_RATE: &str = "0.02";

impl RequestSpec {
    /// The request-file line.
    pub fn line(&self) -> String {
        let mut s = format!("app={} scale={}", self.app, self.scale);
        match self.backend {
            Backend::Braid => s.push_str(" backend=braid"),
            Backend::Planar => s.push_str(" backend=planar"),
        }
        if let Some(p) = self.policy {
            s.push_str(&format!(" policy={p}"));
        }
        s.push_str(&format!(" distance={}", self.distance));
        if let Some(seed) = self.defect_seed {
            s.push_str(&format!(" defect-rate={DEFECT_RATE} defect-seed={seed}"));
        }
        if self.verify {
            s.push_str(" verify");
        }
        s
    }

    /// The golden-file key: the line with tokens joined by `_`.
    pub fn key(&self) -> String {
        self.line().replace(' ', "_")
    }

    /// The dealing class, ordered from the costliest requests to the
    /// cheapest: larger scale first, braid before planar, then by app
    /// (SHA-1 schedules the longest), larger distance, the congestion
    /// policies 3-6 and verified requests first. Requests of one class
    /// cost about the same, so dealing classes in this order keeps the
    /// files of a pass close in cost.
    fn class(
        &self,
    ) -> (
        std::cmp::Reverse<u32>,
        bool,
        usize,
        std::cmp::Reverse<u32>,
        bool,
        bool,
    ) {
        let app_rank = COST_RANK
            .iter()
            .position(|&a| a == self.app)
            .expect("every app is ranked");
        (
            std::cmp::Reverse(self.scale),
            self.backend != Backend::Braid,
            app_rank,
            std::cmp::Reverse(self.distance),
            self.policy.is_some_and(|p| p < 3),
            !self.verify,
        )
    }
}

/// Apps from the costliest to schedule to the cheapest.
const COST_RANK: [&str; 5] = ["sha1", "sq", "im-semi", "im", "gse"];

/// The request-file aliases of `Benchmark::ALL`, in the same order.
const APP_ALIASES: [&str; 5] = ["gse", "sq", "sha1", "im-semi", "im"];

/// Defect-sampling seeds of the defected requests.
///
/// At a 2% dead-cell rate the planar machines have few spare cells, and
/// on many seeds placement fails ("cannot place 25 data tiles on 23
/// live cells"). The workload must be one on which no operation fails,
/// so these are seeds on which every app's planar machine at scale 0
/// and 1 keeps enough live cells at this commit.
pub const DEFECT_SEEDS: [u64; 16] = [1, 7, 13, 15, 22, 23, 24, 25, 32, 34, 37, 39, 42, 45, 53, 55];

/// Every distinct request of the batch workload: apps x scale {0, 1} x
/// distance {5, 7}, each as braid requests under policies 0-6, a clean
/// planar request and a defected planar request (180 in all). A fixed
/// rule marks 36 of them (20%) `verify`; 20 (11%) are defected. Braid
/// requests are never defected: at this commit every defected braid
/// request fails on a dead anchor tile.
pub fn batch_universe() -> Vec<RequestSpec> {
    let mut out = Vec::new();
    for (a, &app) in APP_ALIASES.iter().enumerate() {
        for scale in 0..2u32 {
            for (di, distance) in [5u32, 7].into_iter().enumerate() {
                let mix = a as u32 + scale + di as u32;
                for policy in 0..7u32 {
                    out.push(RequestSpec {
                        app,
                        scale,
                        backend: Backend::Braid,
                        policy: Some(policy),
                        distance,
                        defect_seed: None,
                        verify: (mix + policy).is_multiple_of(5),
                    });
                }
                out.push(RequestSpec {
                    app,
                    scale,
                    backend: Backend::Planar,
                    policy: None,
                    distance,
                    defect_seed: None,
                    verify: mix % 5 == 1,
                });
                out.push(RequestSpec {
                    app,
                    scale,
                    backend: Backend::Planar,
                    policy: None,
                    distance,
                    defect_seed: Some(
                        DEFECT_SEEDS[(4 * a + 2 * scale as usize + di) % DEFECT_SEEDS.len()],
                    ),
                    verify: mix % 5 == 3,
                });
            }
        }
    }
    out
}

/// Distinct requests dealt to each file of a pass.
const DISTINCT_PER_FILE: usize = 20;

/// One request file of the batch workload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RequestFile {
    /// The file text as `scq batch` would read it.
    pub text: String,
    /// Index into [`batch_universe`] of each request line, in order.
    pub specs: Vec<usize>,
}

/// The request files of pass `pass` for `seed`.
///
/// Each pass deals every distinct request of `universe` exactly once:
/// requests are sorted by cost class (shuffled within a class) and dealt
/// over the files in snake order (0, 1, .., n-1, n-1, .., 0, 0, ..,
/// through a shuffled file order). Every file then gets as many repeats
/// as it has distinct lines, each a random one of its own lines placed
/// at a random point after its first occurrence. A pass therefore
/// computes each distinct request exactly once, every repeat is a cache
/// hit or an in-flight dedup, and the files of a pass cost about the
/// same.
pub fn batch_pass(universe: &[RequestSpec], seed: u64, pass: usize) -> Vec<RequestFile> {
    let mut rng = Rng::new(pass_seed(seed, pass), 0x6261_7463_6800 + pass as u64);
    let files = universe.len().div_ceil(DISTINCT_PER_FILE);
    let mut order: Vec<usize> = (0..universe.len()).collect();
    rng.shuffle(&mut order);
    order.sort_by_key(|&i| universe[i].class());
    let mut file_order: Vec<usize> = (0..files).collect();
    rng.shuffle(&mut file_order);
    let mut dealt: Vec<Vec<usize>> = vec![Vec::new(); files];
    for (k, m) in order.into_iter().enumerate() {
        let lap = k % files;
        let slot = if (k / files).is_multiple_of(2) {
            lap
        } else {
            files - 1 - lap
        };
        dealt[file_order[slot]].push(m);
    }
    dealt
        .into_iter()
        .map(|mut distinct| {
            rng.shuffle(&mut distinct);
            let mut specs = distinct.clone();
            for _ in 0..distinct.len() {
                let original = distinct[rng.below(distinct.len())];
                let first = specs
                    .iter()
                    .position(|&s| s == original)
                    .expect("the original is in the file");
                let at = first + 1 + rng.below(specs.len() - first);
                specs.insert(at, original);
            }
            let mut text = String::new();
            for &s in &specs {
                text.push_str(&universe[s].line());
                text.push('\n');
            }
            RequestFile { text, specs }
        })
        .collect()
}
