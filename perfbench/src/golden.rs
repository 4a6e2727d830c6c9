//! The golden file: the simulated results every op must reproduce.
//!
//! One line per distinct op, `<kind> <key> <result>`, where `<result>`
//! is the op's canonical result string (cycles, code distance,
//! recommended encoding, a digest of the serve summary, fabric makespan
//! and events). The file is generated once with `--write-golden` and
//! compiled into the binary, so a run needs no file access to check
//! its outputs.

use std::collections::BTreeMap;

/// The committed golden results.
pub const GOLDEN_TEXT: &str = include_str!("../golden.txt");

/// Parsed golden results, keyed by `"<kind> <key>"`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Golden {
    entries: BTreeMap<String, String>,
}

impl Golden {
    /// Parses golden text; blank lines and `#` comments are skipped.
    pub fn parse(text: &str) -> Self {
        let entries = text
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .filter_map(|l| {
                let mut parts = l.splitn(3, ' ');
                let kind = parts.next()?;
                let key = parts.next()?;
                let result = parts.next().unwrap_or("");
                Some((format!("{kind} {key}"), result.to_string()))
            })
            .collect();
        Golden { entries }
    }

    /// The committed golden file.
    pub fn committed() -> Self {
        Self::parse(GOLDEN_TEXT)
    }

    /// Compares `result` with the golden entry for `kind`/`key`.
    ///
    /// # Errors
    ///
    /// A message naming the key when the entry is missing or differs.
    pub fn check(&self, kind: &str, key: &str, result: &str) -> Result<(), String> {
        match self.entries.get(&format!("{kind} {key}")) {
            None => Err(format!("{kind} {key}: no golden entry")),
            Some(expected) if expected == result => Ok(()),
            Some(expected) => Err(format!("{kind} {key}: got `{result}`, golden `{expected}`")),
        }
    }

    /// Whether an entry exists for `kind`/`key`.
    pub fn contains(&self, kind: &str, key: &str) -> bool {
        self.entries.contains_key(&format!("{kind} {key}"))
    }
}

/// 64-bit FNV-1a digest, printed as 16 hex digits: how serve summaries
/// (which can run to kilobytes for planar placements) are pinned.
pub fn digest(text: &str) -> String {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for b in text.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01B3);
    }
    format!("{h:016x}")
}
