//! Per-component energy accounting.

use std::collections::BTreeMap;
use std::fmt;

/// Accumulates energy (joules) per named component.
///
/// A `BTreeMap` keeps report ordering deterministic.
///
/// # Example
///
/// ```
/// use genpip_sim::EnergyMeter;
///
/// let mut meter = EnergyMeter::new();
/// meter.add("basecaller", 1.5e-3);
/// meter.add("seeding", 0.5e-3);
/// meter.add("basecaller", 0.5e-3);
/// assert_eq!(meter.iter().next(), Some(("basecaller", 2e-3)));
/// assert_eq!(meter.total(), 2.5e-3);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EnergyMeter {
    joules: BTreeMap<String, f64>,
}

impl EnergyMeter {
    /// Creates an empty meter.
    pub fn new() -> EnergyMeter {
        EnergyMeter::default()
    }

    /// Adds `joules` to `component`.
    ///
    /// # Panics
    ///
    /// Panics on negative or non-finite energy.
    pub fn add(&mut self, component: &str, joules: f64) {
        assert!(
            joules.is_finite() && joules >= 0.0,
            "energy must be finite and non-negative, got {joules}"
        );
        *self.joules.entry(component.to_string()).or_insert(0.0) += joules;
    }

    /// Total energy across components.
    pub fn total(&self) -> f64 {
        self.joules.values().sum()
    }

    /// Iterates `(component, joules)` in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, f64)> {
        self.joules.iter().map(|(k, &v)| (k.as_str(), v))
    }
}

/// One `component: energy` line per entry plus a total.
impl fmt::Display for EnergyMeter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (k, v) in self.iter() {
            writeln!(f, "{k}: {v:.3e} J")?;
        }
        write!(f, "total: {:.3e} J", self.total())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates_per_component() {
        let mut m = EnergyMeter::new();
        m.add("a", 1.0);
        m.add("b", 2.0);
        m.add("a", 3.0);
        assert_eq!(m.joules.get("a"), Some(&4.0));
        assert_eq!(m.joules.get("b"), Some(&2.0));
        assert_eq!(m.joules.get("missing"), None);
        assert_eq!(m.total(), 6.0);
    }

    #[test]
    fn iteration_is_name_ordered() {
        let mut m = EnergyMeter::new();
        m.add("zeta", 1.0);
        m.add("alpha", 1.0);
        let names: Vec<&str> = m.iter().map(|(k, _)| k).collect();
        assert_eq!(names, vec!["alpha", "zeta"]);
    }

    #[test]
    fn display_mentions_total() {
        let mut m = EnergyMeter::new();
        m.add("a", 0.5);
        let s = m.to_string();
        assert!(s.contains("total"));
        assert!(s.contains("a:"));
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_energy_rejected() {
        EnergyMeter::new().add("a", -1.0);
    }
}
