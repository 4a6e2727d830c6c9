//! The schedule-request model: sources, normalization, keying, and the
//! request-file grammar behind `scq batch`.
//!
//! A [`ScheduleRequest`] names *what* to schedule (a bundled benchmark,
//! a QASM program, or a programmatic [`Circuit`]) and *how* (backend,
//! policy, code distance, defect spec, verify flag). Normalization
//! ([`ScheduleRequest::normalize`]) resolves the source to a concrete
//! circuit and derives the request's content-addressed cache key — a
//! stable FNV-1a fingerprint over:
//!
//! ```text
//! engine version tag
//!   ++ normalized IR            (gate stream, name-independent)
//!   ++ backend tag
//!   ++ effective backend config (BraidConfig or PlanarConfig, every knob)
//!   ++ defect spec              (clean / sampled{rate, seed} / map text)
//!   ++ verify flag
//! ```
//!
//! Two requests that normalize identically — e.g. the same QASM text
//! loaded from different paths, or a renamed copy of the same program —
//! share one cache entry. A sampled defect spec and an explicit map
//! file are *always* distinct keys (different constructor tags), even
//! if the sample happens to reproduce the map: equality of effect is
//! the scheduler's business, not the cache's.
//!
//! # Request-file grammar
//!
//! One request per line; blank lines and `#` comments are skipped.
//! Tokens are whitespace-separated `key=value` pairs (plus the bare
//! `verify` flag):
//!
//! ```text
//! app=<gse|sq|sha1|im|im-semi> | qasm=<file.qasm>     (required, pick one)
//! scale=<0..4>        problem size for app= sources    (default 0)
//! backend=<braid|planar>                               (default braid)
//! policy=<0..6>       braid priority policy            (default 6)
//! distance=<odd >= 3> surface code distance            (default 5)
//! defect-rate=<R>     sample dead resources at R       (default clean)
//! defect-seed=<S>     sampling / transient-fault seed  (default 0)
//! defect-map=<file>   explicit defect map (excludes defect-rate; it
//!                     must fit the backend's mesh)
//! verify              certify the schedule with scq-verify
//! ```

use std::sync::Arc;

use scq_apps::Benchmark;
use scq_braid::BraidConfig;
use scq_core::{BackendKind, CacheKeyed, DefectSpec, KeyHasher};
use scq_ir::{circuit_from_qasm, Circuit, CliError};
use scq_teleport::PlanarConfig;

use crate::error::ServeError;
use crate::Policy;

/// Version tag folded into every cache key. Bump on any change to the
/// schedulers, the key recipe, or the memoized summary format: old keys
/// must not alias new results.
pub const ENGINE_VERSION: &str = "scq-serve/2";

/// Where a request's circuit comes from.
#[derive(Clone, Debug, PartialEq)]
pub enum RequestSource {
    /// A bundled benchmark at a problem-size step
    /// ([`Benchmark::scaled_circuit`]).
    Named {
        /// The benchmark application.
        bench: Benchmark,
        /// Problem-size step (0 = smallest).
        scale: u32,
    },
    /// QASM text (already loaded — the *content* is keyed, never the
    /// path it came from).
    Qasm {
        /// Display label (e.g. the originating path) for reports.
        label: String,
        /// The QASM program text.
        text: String,
    },
    /// A programmatic circuit (bench harnesses, embedding callers).
    Circuit(Arc<Circuit>),
}

/// One schedule request, as submitted.
#[derive(Clone, Debug, PartialEq)]
pub struct ScheduleRequest {
    /// The circuit to schedule.
    pub source: RequestSource,
    /// Target communication backend.
    pub backend: BackendKind,
    /// Braid priority policy (also selects the braid layout strategy;
    /// the planar backend has no policy knob, so normalization folds
    /// this field out of planar keys).
    pub policy: Policy,
    /// Surface code distance.
    pub code_distance: u32,
    /// Hardware defect specification.
    pub defects: DefectSpec,
    /// Certify the emitted schedule with `scq-verify`.
    pub verify: bool,
}

impl ScheduleRequest {
    /// A clean braid request at the bench defaults (policy 6, d = 5) —
    /// the starting point programmatic callers patch fields on.
    pub fn for_circuit(circuit: Arc<Circuit>) -> Self {
        ScheduleRequest {
            source: RequestSource::Circuit(circuit),
            backend: BackendKind::Braid,
            policy: Policy::P6,
            code_distance: 5,
            defects: DefectSpec::Clean,
            verify: false,
        }
    }

    /// Resolves the source to a concrete circuit, derives the effective
    /// backend configuration, and computes the content-addressed key.
    ///
    /// # Errors
    ///
    /// [`ServeError::Invalid`] when QASM text fails to parse.
    pub fn normalize(&self) -> Result<NormalizedRequest, ServeError> {
        let (circuit, label) = match &self.source {
            RequestSource::Named { bench, scale } => (
                Arc::new(bench.scaled_circuit(*scale)),
                format!("{}@{scale}", bench.name()),
            ),
            RequestSource::Qasm { label, text } => {
                let c = circuit_from_qasm(text)
                    .map_err(|e| ServeError::invalid(format!("{label}: {e}")))?;
                (Arc::new(c), label.clone())
            }
            RequestSource::Circuit(c) => (Arc::clone(c), c.name().to_string()),
        };
        let mut h = KeyHasher::new();
        h.write_str(ENGINE_VERSION);
        circuit.write_key(&mut h);
        match self.backend {
            BackendKind::Braid => {
                h.write_bytes(&[0]);
                self.braid_config().write_key(&mut h);
            }
            BackendKind::Planar => {
                h.write_bytes(&[1]);
                self.planar_config().write_key(&mut h);
            }
        }
        self.defects.write_key(&mut h);
        h.write_bool(self.verify);
        Ok(NormalizedRequest {
            circuit,
            label,
            key: h.finish(),
            request: self.clone(),
        })
    }

    /// The content key of the *placement artifact* this request's braid
    /// schedule runs on — deliberately coarser than the schedule key.
    ///
    /// Placement depends on the circuit and the policy's layout
    /// *strategy*, never on the policy index within a strategy or the
    /// code distance, so requests differing only in those reuse one
    /// cached placement (and skip its compute). The defect spec *is*
    /// keyed, conservatively: today's strategies are defect-blind, but
    /// a defect-aware placer (ROADMAP item 5) must never inherit a
    /// floorplan computed for different hardware.
    pub fn placement_key(&self, circuit: &Circuit) -> u64 {
        let mut h = KeyHasher::new();
        h.write_str("scq-serve/placement/1");
        circuit.write_key(&mut h);
        self.policy.layout_strategy().write_key(&mut h);
        self.defects.write_key(&mut h);
        h.finish()
    }

    /// The effective braid configuration of this request.
    pub fn braid_config(&self) -> BraidConfig {
        BraidConfig {
            policy: self.policy,
            code_distance: self.code_distance,
            ..Default::default()
        }
    }

    /// The effective planar configuration of this request. The braid
    /// `policy` field does not appear: it cannot change a planar
    /// schedule, so folding it away lets e.g. `policy=0` and `policy=6`
    /// planar requests share a cache entry.
    pub fn planar_config(&self) -> PlanarConfig {
        PlanarConfig {
            code_distance: self.code_distance,
            ..Default::default()
        }
    }
}

/// A normalized request: concrete circuit, display label, and the
/// content-addressed cache key.
#[derive(Clone, Debug)]
pub struct NormalizedRequest {
    /// The resolved circuit.
    pub circuit: Arc<Circuit>,
    /// Human-readable source label for reports.
    pub label: String,
    /// The content-addressed cache key.
    pub key: u64,
    /// The request this normalization came from.
    pub request: ScheduleRequest,
}

/// Maps a request-file application alias to a benchmark.
fn bench_from_alias(name: &str) -> Option<Benchmark> {
    match name.to_ascii_lowercase().as_str() {
        "gse" => Some(Benchmark::Gse),
        "sq" | "sqrt" => Some(Benchmark::SquareRoot),
        "sha1" | "sha-1" => Some(Benchmark::Sha1),
        "im" | "im-full" | "ising" => Some(Benchmark::IsingFull),
        "im-semi" | "ising-semi" => Some(Benchmark::IsingSemi),
        _ => None,
    }
}

/// Parses one request-file line. Returns `Ok(None)` for blank lines and
/// `#` comments.
///
/// QASM and defect-map paths are read *here*, so a parsed request is
/// self-contained (and its cache key covers file content, not names).
///
/// # Errors
///
/// [`CliError::Invalid`] naming the offending token, or
/// [`CliError::Io`] for an unreadable referenced file.
pub fn parse_request_line(line: &str) -> Result<Option<ScheduleRequest>, CliError> {
    let line = line.trim();
    if line.is_empty() || line.starts_with('#') {
        return Ok(None);
    }
    let mut source: Option<RequestSource> = None;
    let mut scale: Option<u32> = None;
    let mut backend = BackendKind::Braid;
    let mut policy = Policy::P6;
    let mut code_distance = 5u32;
    let mut rate: Option<f64> = None;
    let mut seed = 0u64;
    let mut map: Option<(String, String)> = None;
    let mut verify = false;

    for token in line.split_whitespace() {
        let (key, value) = match token.split_once('=') {
            Some((k, v)) => (k, v),
            None => (token, ""),
        };
        match key {
            "app" => {
                let bench = bench_from_alias(value).ok_or_else(|| {
                    CliError::invalid(format!(
                        "unknown app `{value}` (expected gse, sq, sha1, im, or im-semi)"
                    ))
                })?;
                set_source(&mut source, RequestSource::Named { bench, scale: 0 }, token)?;
            }
            "qasm" => {
                let text = std::fs::read_to_string(value).map_err(|e| CliError::io(value, &e))?;
                set_source(
                    &mut source,
                    RequestSource::Qasm {
                        label: value.to_string(),
                        text,
                    },
                    token,
                )?;
            }
            "scale" => {
                let s: u32 = value
                    .parse()
                    .map_err(|_| CliError::invalid(format!("bad scale `{value}`")))?;
                if s > 4 {
                    return Err(CliError::invalid(format!(
                        "scale must be 0..=4 (larger instances are not schedulable interactively), got {s}"
                    )));
                }
                scale = Some(s);
            }
            "backend" => {
                backend = match value {
                    "braid" => BackendKind::Braid,
                    "planar" => BackendKind::Planar,
                    other => {
                        return Err(CliError::invalid(format!(
                            "unknown backend `{other}` (expected braid or planar)"
                        )))
                    }
                };
            }
            "policy" => {
                let idx: usize = value
                    .parse()
                    .map_err(|_| CliError::invalid(format!("bad policy `{value}`")))?;
                policy = Policy::from_index(idx)
                    .ok_or_else(|| CliError::invalid(format!("policy {idx} out of range")))?;
            }
            "distance" => {
                let d: u32 = value
                    .parse()
                    .map_err(|_| CliError::invalid(format!("bad distance `{value}`")))?;
                if d.is_multiple_of(2) || d < 3 {
                    return Err(CliError::invalid(format!(
                        "distance must be odd and >= 3, got {d}"
                    )));
                }
                code_distance = d;
            }
            "defect-rate" => {
                rate = Some(
                    value
                        .parse()
                        .map_err(|_| CliError::invalid(format!("bad defect rate `{value}`")))?,
                );
            }
            "defect-seed" => {
                seed = value
                    .parse()
                    .map_err(|_| CliError::invalid(format!("bad defect seed `{value}`")))?;
            }
            "defect-map" => {
                let text = std::fs::read_to_string(value).map_err(|e| CliError::io(value, &e))?;
                map = Some((value.to_string(), text));
            }
            "verify" if value.is_empty() => verify = true,
            _ => {
                return Err(CliError::invalid(format!("unknown token `{token}`")));
            }
        }
    }

    let mut source = source.ok_or_else(|| {
        CliError::invalid("request needs a source: app=<name> or qasm=<file>".to_string())
    })?;
    if let Some(s) = scale {
        match &mut source {
            RequestSource::Named { scale, .. } => *scale = s,
            _ => {
                return Err(CliError::invalid(
                    "scale= only applies to app= sources".to_string(),
                ))
            }
        }
    }
    Ok(Some(ScheduleRequest {
        source,
        backend,
        policy,
        code_distance,
        defects: DefectSpec::from_options(rate, seed, map)?,
        verify,
    }))
}

fn set_source(
    slot: &mut Option<RequestSource>,
    source: RequestSource,
    token: &str,
) -> Result<(), CliError> {
    if slot.is_some() {
        return Err(CliError::invalid(format!(
            "`{token}`: request already has a source"
        )));
    }
    *slot = Some(source);
    Ok(())
}

/// Loads a request file: one request per line, blank lines and `#`
/// comments skipped.
///
/// # Errors
///
/// The first malformed line aborts the whole load with a
/// [`CliError`] naming the line number — a batch must be fully
/// well-formed before anything runs.
pub fn load_request_file(path: &str) -> Result<Vec<ScheduleRequest>, CliError> {
    let text = std::fs::read_to_string(path).map_err(|e| CliError::io(path, &e))?;
    parse_request_text(&text).map_err(|(lineno, e)| match e {
        CliError::Invalid(m) => CliError::invalid(format!("{path}:{lineno}: {m}")),
        other => other,
    })
}

/// [`load_request_file`] on in-memory text; errors carry the 1-based
/// line number.
///
/// # Errors
///
/// The first malformed line, as `(line_number, error)`.
pub fn parse_request_text(text: &str) -> Result<Vec<ScheduleRequest>, (usize, CliError)> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        match parse_request_line(line) {
            Ok(Some(req)) => out.push(req),
            Ok(None) => {}
            Err(e) => return Err((i + 1, e)),
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_circuit() -> Arc<Circuit> {
        let mut b = Circuit::builder("tiny", 4);
        b.h(0).cnot(0, 1).t(2).cnot(2, 3);
        Arc::new(b.finish())
    }

    #[test]
    fn key_is_stable_across_independent_normalizations() {
        let a = ScheduleRequest::for_circuit(tiny_circuit())
            .normalize()
            .unwrap();
        let b = ScheduleRequest::for_circuit(tiny_circuit())
            .normalize()
            .unwrap();
        assert_eq!(a.key, b.key);
        assert_ne!(a.key, 0);
    }

    #[test]
    fn key_ignores_circuit_name_and_qasm_label() {
        let mut b = Circuit::builder("completely-different-name", 4);
        b.h(0).cnot(0, 1).t(2).cnot(2, 3);
        let renamed = ScheduleRequest::for_circuit(Arc::new(b.finish()));
        assert_eq!(
            renamed.normalize().unwrap().key,
            ScheduleRequest::for_circuit(tiny_circuit())
                .normalize()
                .unwrap()
                .key
        );
    }

    #[test]
    fn key_sees_every_request_field() {
        let base = ScheduleRequest::for_circuit(tiny_circuit());
        let base_key = base.normalize().unwrap().key;
        let variants = [
            ScheduleRequest {
                backend: BackendKind::Planar,
                ..base.clone()
            },
            ScheduleRequest {
                policy: Policy::P0,
                ..base.clone()
            },
            ScheduleRequest {
                code_distance: 7,
                ..base.clone()
            },
            ScheduleRequest {
                defects: DefectSpec::Sampled {
                    rate: 0.02,
                    seed: 1,
                },
                ..base.clone()
            },
            ScheduleRequest {
                verify: true,
                ..base.clone()
            },
        ];
        for v in &variants {
            assert_ne!(
                v.normalize().unwrap().key,
                base_key,
                "field change missed: {v:?}"
            );
        }
        // And a different circuit, of course.
        let mut b = Circuit::builder("tiny", 4);
        b.h(0).cnot(0, 1).t(2).cnot(3, 2);
        assert_ne!(
            ScheduleRequest::for_circuit(Arc::new(b.finish()))
                .normalize()
                .unwrap()
                .key,
            base_key
        );
    }

    #[test]
    fn sampled_and_map_defects_never_share_a_key() {
        let base = ScheduleRequest::for_circuit(tiny_circuit());
        let sampled = ScheduleRequest {
            defects: DefectSpec::Sampled {
                rate: 0.02,
                seed: 7,
            },
            ..base.clone()
        };
        let mapped = ScheduleRequest {
            defects: DefectSpec::Map {
                label: "m.map".to_string(),
                text: "dims 4 4\n".to_string(),
                seed: 7,
            },
            ..base.clone()
        };
        let keys = [
            base.normalize().unwrap().key,
            sampled.normalize().unwrap().key,
            mapped.normalize().unwrap().key,
        ];
        assert_ne!(keys[0], keys[1]);
        assert_ne!(keys[0], keys[2]);
        assert_ne!(keys[1], keys[2]);
        // Seed changes move the sampled key too.
        let reseeded = ScheduleRequest {
            defects: DefectSpec::Sampled {
                rate: 0.02,
                seed: 8,
            },
            ..base
        };
        assert_ne!(reseeded.normalize().unwrap().key, keys[1]);
    }

    #[test]
    fn planar_keys_fold_the_irrelevant_braid_policy_away() {
        let base = ScheduleRequest {
            backend: BackendKind::Planar,
            ..ScheduleRequest::for_circuit(tiny_circuit())
        };
        let p0 = ScheduleRequest {
            policy: Policy::P0,
            ..base.clone()
        };
        assert_eq!(
            base.normalize().unwrap().key,
            p0.normalize().unwrap().key,
            "braid policy cannot change a planar schedule; keys must agree"
        );
    }

    #[test]
    fn parses_a_full_request_line() {
        let req = parse_request_line(
            "app=gse backend=braid policy=3 distance=7 defect-rate=0.01 defect-seed=9 verify",
        )
        .unwrap()
        .unwrap();
        assert_eq!(
            req.source,
            RequestSource::Named {
                bench: Benchmark::Gse,
                scale: 0
            }
        );
        assert_eq!(req.backend, BackendKind::Braid);
        assert_eq!(req.policy, Policy::P3);
        assert_eq!(req.code_distance, 7);
        assert_eq!(
            req.defects,
            DefectSpec::Sampled {
                rate: 0.01,
                seed: 9
            }
        );
        assert!(req.verify);
    }

    #[test]
    fn blank_lines_and_comments_are_skipped() {
        assert_eq!(parse_request_line("").unwrap(), None);
        assert_eq!(parse_request_line("   ").unwrap(), None);
        assert_eq!(parse_request_line("# app=gse").unwrap(), None);
    }

    #[test]
    fn malformed_lines_are_structured_errors() {
        for bad in [
            "backend=braid",                                    // no source
            "app=unknown-app",                                  // bad alias
            "app=gse backend=quantum",                          // bad backend
            "app=gse policy=99",                                // policy range
            "app=gse distance=4",                               // even distance
            "app=gse defect-rate=1.5",                          // rate range
            "app=gse frobnicate=1",                             // unknown token
            "app=gse app=sq",                                   // double source
            "qasm=/no/such/file.qasm",                          // unreadable file
            "app=gse defect-rate=0.1 defect-map=/also/missing", // excl. pair (io first)
        ] {
            assert!(parse_request_line(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn scale_applies_to_named_sources_only() {
        let req = parse_request_line("app=sq scale=1").unwrap().unwrap();
        assert_eq!(
            req.source,
            RequestSource::Named {
                bench: Benchmark::SquareRoot,
                scale: 1
            }
        );
        assert!(parse_request_line("app=gse scale=9").is_err());
    }

    #[test]
    fn request_text_reports_the_offending_line() {
        let (lineno, err) = parse_request_text("app=gse\n\n# fine\napp=bogus\n").unwrap_err();
        assert_eq!(lineno, 4);
        assert!(err.to_string().contains("bogus"));
    }
}
