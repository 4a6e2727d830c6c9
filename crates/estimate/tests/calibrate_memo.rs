//! `AppProfile::calibrate` under concurrent first calls.
//!
//! The only test in this binary, so every memo slot starts empty and
//! the threads released together race to fill it.

use std::sync::Barrier;

use scq_apps::Benchmark;
use scq_estimate::AppProfile;

#[test]
fn concurrent_first_calibrations_agree() {
    const THREADS: usize = 3;
    let start = Barrier::new(THREADS);
    let runs: Vec<Vec<String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                s.spawn(|| {
                    start.wait();
                    Benchmark::ALL
                        .iter()
                        .map(|&b| format!("{:?}", AppProfile::calibrate(b)))
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("calibration thread panicked"))
            .collect()
    });
    for run in &runs[1..] {
        assert_eq!(run, &runs[0]);
    }
}
