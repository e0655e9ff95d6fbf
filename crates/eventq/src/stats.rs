//! Minimal statistics framework in the style of gem5's `Stats` package.
//!
//! Simulation objects contribute scalars and formulas to a [`StatDump`]
//! at the end of simulation, producing the `stats.txt`-like output users
//! of gem5 are familiar with.

use std::collections::BTreeMap;
use std::fmt;

/// A value recorded in a [`StatDump`].
#[derive(Debug, Clone, PartialEq)]
pub enum StatValue {
    /// Plain scalar.
    Scalar(f64),
    /// Ratio with an explanatory formula string, e.g. `"misses/accesses"`.
    Formula {
        /// Computed value.
        value: f64,
        /// Human-readable formula.
        formula: String,
    },
}

impl StatValue {
    /// Numeric value regardless of variant.
    pub fn value(&self) -> f64 {
        match self {
            StatValue::Scalar(v) => *v,
            StatValue::Formula { value, .. } => *value,
        }
    }
}

/// An ordered, hierarchical dump of statistics, keyed by dotted paths
/// (`"system.cpu.committedInsts"`), like gem5's `stats.txt`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StatDump {
    entries: BTreeMap<String, StatValue>,
}

impl StatDump {
    /// Creates an empty dump.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a scalar under `path`.
    pub fn scalar(&mut self, path: impl Into<String>, v: f64) {
        self.entries.insert(path.into(), StatValue::Scalar(v));
    }

    /// Records a formula value under `path`.
    pub fn formula(&mut self, path: impl Into<String>, value: f64, formula: impl Into<String>) {
        self.entries.insert(
            path.into(),
            StatValue::Formula {
                value,
                formula: formula.into(),
            },
        );
    }

    /// Looks up a value by exact path.
    pub fn get(&self, path: &str) -> Option<f64> {
        self.entries.get(path).map(StatValue::value)
    }

    /// Iterates over `(path, value)` pairs in path order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &StatValue)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the dump is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl fmt::Display for StatDump {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (k, v) in self.entries.iter() {
            match v {
                StatValue::Scalar(x) => writeln!(f, "{k:<60} {x:>16.6}")?,
                StatValue::Formula { value, formula } => {
                    writeln!(f, "{k:<60} {value:>16.6}  # {formula}")?
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dump_paths_sorted() {
        let mut d = StatDump::new();
        d.scalar("system.l1d.misses", 5.0);
        d.formula("system.l1d.miss_rate", 0.5, "misses/accesses");
        d.scalar("sim_ticks", 100.0);
        assert_eq!(d.get("system.l1d.misses"), Some(5.0));
        assert_eq!(d.get("system.l1d.miss_rate"), Some(0.5));
        assert_eq!(d.len(), 3);
        let keys: Vec<_> = d.iter().map(|(k, _)| k.to_string()).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
    }

    #[test]
    fn display_contains_formula_comment() {
        let mut d = StatDump::new();
        d.formula("ipc", 1.5, "insts/cycles");
        let out = d.to_string();
        assert!(out.contains("ipc"));
        assert!(out.contains("# insts/cycles"));
    }
}
