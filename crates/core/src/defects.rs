//! The defect spec: which fabrication defects a run schedules on — one
//! rule for sampled maps, map files and their transient-fault seed,
//! shared by the CLI, the batch service and the bench drivers.

use std::error::Error;
use std::fmt;

use scq_ir::CliError;
use scq_mesh::{DefectMap, DefectParseError, Topology};

use crate::cachekey::{CacheKeyed, KeyHasher};
use crate::BackendKind;

/// The defect specification of a run.
///
/// Sampled and file-loaded maps key differently *by construction* (a
/// tag byte precedes the payload): a cache never has to decide whether
/// a sample at some seed happens to equal an explicit map.
#[derive(Clone, Debug, PartialEq)]
pub enum DefectSpec {
    /// Pristine hardware.
    Clean,
    /// Dead resources sampled at `rate` from `seed` at each backend's
    /// own mesh dimensions (`seed` also drives transient-fault draws).
    Sampled {
        /// Dead-resource rate in `[0, 1)`.
        rate: f64,
        /// PRNG seed.
        seed: u64,
    },
    /// An explicit defect-map file. It applies to the backends whose
    /// mesh matches its `dims` header.
    Map {
        /// Where the map came from (a path), for diagnostics only: the
        /// key covers the text, never the label.
        label: String,
        /// The map text in `scq_mesh::DefectMap` format.
        text: String,
        /// Seed of the transient-fault draws on its flaky links.
        seed: u64,
    },
}

impl DefectSpec {
    /// The spec defect options name: a sampled `rate` or a `map` file
    /// `(label, text)`, each drawing transient faults from `seed`.
    ///
    /// # Errors
    ///
    /// [`CliError::Invalid`] for a rate outside `[0, 1)`, or for both a
    /// rate and a map.
    pub fn from_options(
        rate: Option<f64>,
        seed: u64,
        map: Option<(String, String)>,
    ) -> Result<Self, CliError> {
        match (rate, map) {
            (Some(_), Some(_)) => Err(CliError::invalid(
                "defect-rate and defect-map are mutually exclusive",
            )),
            (Some(rate), None) if !(0.0..1.0).contains(&rate) => Err(CliError::invalid(format!(
                "defect rate must be in [0, 1), got {rate}"
            ))),
            (Some(rate), None) => Ok(DefectSpec::Sampled { rate, seed }),
            (None, Some((label, text))) => Ok(DefectSpec::Map { label, text, seed }),
            (None, None) => Ok(DefectSpec::Clean),
        }
    }

    /// The seed the planar pipeline draws transient faults from.
    pub(crate) fn fault_seed(&self) -> u64 {
        match self {
            DefectSpec::Clean => 0,
            DefectSpec::Sampled { seed, .. } | DefectSpec::Map { seed, .. } => *seed,
        }
    }

    /// Materializes the spec on the meshes of one run, as `(backend,
    /// dims)`: one map per mesh (`None` is clean; so is a zero rate),
    /// each sample drawn at its mesh's dimensions, and a note for each
    /// mesh a map file does not fit, which runs clean.
    ///
    /// # Errors
    ///
    /// A malformed map file, or one that fits none of `meshes`.
    pub(crate) fn materialize(
        &self,
        meshes: &[(BackendKind, (u32, u32))],
    ) -> Result<(Vec<Option<DefectMap>>, Vec<String>), DefectError> {
        match self {
            DefectSpec::Clean => Ok((vec![None; meshes.len()], Vec::new())),
            DefectSpec::Sampled { rate, seed } => {
                let maps = meshes
                    .iter()
                    .map(|&(_, (w, h))| {
                        (*rate > 0.0).then(|| DefectMap::sample(Topology::new(w, h), *rate, *seed))
                    })
                    .collect();
                Ok((maps, Vec::new()))
            }
            DefectSpec::Map { label, text, .. } => {
                let map =
                    DefectMap::from_text(text).map_err(|e| DefectError::Parse(label.clone(), e))?;
                let dims = (map.topology().width(), map.topology().height());
                if meshes.iter().all(|&(_, mesh)| mesh != dims) {
                    let (label, meshes) = (label.clone(), meshes.to_vec());
                    return Err(DefectError::NoMatchingMesh(label, dims, meshes));
                }
                let notes = meshes
                    .iter()
                    .filter(|&&(_, mesh)| mesh != dims)
                    .map(|&(backend, (w, h))| {
                        format!(
                            "defect map {label} is {}x{} but the {backend} mesh is {w}x{h}; \
                             running the {backend} backend clean",
                            dims.0, dims.1
                        )
                    })
                    .collect();
                let maps = meshes
                    .iter()
                    .map(|&(_, mesh)| (mesh == dims).then(|| map.clone()))
                    .collect();
                Ok((maps, notes))
            }
        }
    }
}

impl CacheKeyed for DefectSpec {
    fn write_key(&self, h: &mut KeyHasher) {
        match self {
            DefectSpec::Clean => h.write_bytes(&[0]),
            DefectSpec::Sampled { rate, seed } => {
                h.write_bytes(&[1]);
                h.write_f64(*rate);
                h.write_u64(*seed);
            }
            DefectSpec::Map { text, seed, .. } => {
                h.write_bytes(&[2]);
                h.write_str(text);
                h.write_u64(*seed);
            }
        }
    }
}

/// A defect spec that cannot be materialized for a run.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum DefectError {
    /// A malformed map file: its label (a path) and the parser's
    /// diagnostic.
    Parse(String, DefectParseError),
    /// A map whose `dims` header fits no mesh of the run: its label, its
    /// dimensions, and every mesh of the run as `(backend, dims)`.
    NoMatchingMesh(String, (u32, u32), Vec<(BackendKind, (u32, u32))>),
}

impl fmt::Display for DefectError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DefectError::Parse(label, e) => write!(f, "{label}: {e}"),
            DefectError::NoMatchingMesh(label, (w, h), meshes) => {
                write!(f, "defect map {label} is {w}x{h} but")?;
                for (i, (backend, (mw, mh))) in meshes.iter().enumerate() {
                    let and = if i == 0 { "" } else { " and" };
                    write!(f, "{and} the {backend} mesh is {mw}x{mh}")?;
                }
                Ok(())
            }
        }
    }
}

impl Error for DefectError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn map(text: &str, seed: u64) -> DefectSpec {
        DefectSpec::from_options(None, seed, Some(("test.map".into(), text.into()))).unwrap()
    }

    #[test]
    fn dims_mismatched_map_is_an_error() {
        let spec = map("dims 3 3\n", 0);
        let (maps, notes) = spec.materialize(&[(BackendKind::Braid, (3, 3))]).unwrap();
        assert!(maps[0].is_some() && notes.is_empty());
        let err = spec
            .materialize(&[(BackendKind::Braid, (5, 5)), (BackendKind::Planar, (2, 4))])
            .unwrap_err();
        assert_eq!(
            err.to_string(),
            "defect map test.map is 3x3 but the braid mesh is 5x5 and the planar mesh is 2x4"
        );
    }

    #[test]
    fn zero_rate_sample_materializes_clean() {
        let spec = DefectSpec::Sampled { rate: 0.0, seed: 3 };
        let (maps, _) = spec.materialize(&[(BackendKind::Planar, (4, 4))]).unwrap();
        assert!(maps[0].is_none());
    }

    #[test]
    fn a_map_keeps_its_seed_and_excludes_a_rate() {
        let file = Some(("f.map".to_string(), "dims 3 3\n".to_string()));
        let err = DefectSpec::from_options(Some(0.1), 0, file.clone()).unwrap_err();
        assert!(err.to_string().contains("mutually exclusive"));
        assert!(DefectSpec::from_options(Some(1.5), 0, None).is_err());
        assert_eq!(
            DefectSpec::from_options(None, 9, file)
                .unwrap()
                .fault_seed(),
            9
        );
        // The seed moves the key; the label, a path, does not.
        let file = Some(("elsewhere.map".into(), "dims 3 3\n".into()));
        let relabelled = DefectSpec::from_options(None, 0, file).unwrap();
        assert_eq!(relabelled.cache_key(), map("dims 3 3\n", 0).cache_key());
        assert_ne!(
            map("dims 3 3\n", 1).cache_key(),
            map("dims 3 3\n", 0).cache_key()
        );
    }
}
