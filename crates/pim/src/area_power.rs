//! Area and power breakdown — the paper's Table 2.
//!
//! Per-component power and area are synthesis/tool outputs in the paper
//! (Synopsys DC for logic, NVSim/NVSim-CAM/CACTI for the arrays, and the
//! Helix/PARC papers for components ➊ and ➎); they enter this model as
//! constants. The module subtotals and chip totals are *computed*, and the
//! tests check they reproduce the paper's 163.8 mm² / 147.2 W at 32 nm.

use std::fmt;

/// One row of Table 2: a hardware component with its specification, power
/// and area.
#[derive(Debug, Clone, PartialEq)]
pub struct ComponentBudget {
    /// Component name (e.g. `"PIM Basecaller"`).
    pub name: &'static str,
    /// Specification summary.
    pub spec: &'static str,
    /// Power in watts.
    pub power_w: f64,
    /// Area in mm².
    pub area_mm2: f64,
}

/// A module grouping of components (basecalling module, read-mapping module,
/// controller).
#[derive(Debug, Clone, PartialEq)]
pub struct ModuleBudget {
    /// Module name.
    pub name: &'static str,
    /// The module's components.
    pub components: Vec<ComponentBudget>,
}

impl ModuleBudget {
    /// Module power (sum of components).
    pub fn power_w(&self) -> f64 {
        self.components.iter().map(|c| c.power_w).sum()
    }

    /// Module area (sum of components).
    pub fn area_mm2(&self) -> f64 {
        self.components.iter().map(|c| c.area_mm2).sum()
    }
}

/// The full chip budget.
#[derive(Debug, Clone, PartialEq)]
pub struct Table2 {
    /// The three GenPIP modules.
    pub modules: Vec<ModuleBudget>,
}

impl Table2 {
    /// Chip power (sum of modules).
    pub fn total_power_w(&self) -> f64 {
        self.modules.iter().map(ModuleBudget::power_w).sum()
    }

    /// Chip area (sum of modules).
    pub fn total_area_mm2(&self) -> f64 {
        self.modules.iter().map(ModuleBudget::area_mm2).sum()
    }
}

impl fmt::Display for Table2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<42} {:>9} {:>11}",
            "Component (specification)", "Power W", "Area mm²"
        )?;
        for module in &self.modules {
            for c in &module.components {
                writeln!(
                    f,
                    "{:<42} {:>9.3} {:>11.4}",
                    format!("{} ({})", c.name, c.spec),
                    c.power_w,
                    c.area_mm2
                )?;
            }
            writeln!(
                f,
                "{:<42} {:>9.1} {:>11.1}",
                format!("{} — total", module.name),
                module.power_w(),
                module.area_mm2()
            )?;
        }
        write!(
            f,
            "{:<42} {:>9.1} {:>11.1}",
            "GenPIP total",
            self.total_power_w(),
            self.total_area_mm2()
        )
    }
}

/// The paper's GenPIP configuration (Table 2, 32 nm).
pub fn genpip_table2() -> Table2 {
    Table2 {
        modules: vec![
            ModuleBudget {
                name: "Basecalling module",
                components: vec![
                    ComponentBudget {
                        name: "PIM Basecaller",
                        spec: "168 tiles, 4 MB eDRAM",
                        power_w: 27.1,
                        area_mm2: 49.2,
                    },
                    ComponentBudget {
                        name: "PIM-CQS",
                        spec: "SOT-MRAM PIM, 16x1024 array",
                        power_w: 0.307,
                        area_mm2: 0.0256,
                    },
                ],
            },
            ModuleBudget {
                name: "Read mapping module",
                components: vec![
                    ComponentBudget {
                        name: "Seeding",
                        spec: "4096 units: 832x128 CAMs, 1 QSG/CAM, 8x16 KB RAM, 4 KB eDRAM",
                        power_w: 28.2,
                        area_mm2: 76.68,
                    },
                    ComponentBudget {
                        name: "RMC",
                        spec: "read mapping controller, 4 MB eDRAM",
                        power_w: 1.346,
                        area_mm2: 5.472,
                    },
                    ComponentBudget {
                        name: "DP",
                        spec: "1024 units",
                        power_w: 85.0,
                        area_mm2: 10.9,
                    },
                ],
            },
            ModuleBudget {
                name: "GenPIP controller module",
                components: vec![ComponentBudget {
                    name: "Controller",
                    spec: "12 MB eDRAM, AQS calculator, ER-QSR, ER-CMR",
                    power_w: 5.3,
                    area_mm2: 21.5,
                }],
            },
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Table2 {
        /// Returns a module by name.
        fn module(&self, name: &str) -> Option<&ModuleBudget> {
            self.modules.iter().find(|m| m.name == name)
        }
    }

    #[test]
    fn totals_match_the_paper() {
        let t = genpip_table2();
        assert!(
            (t.total_power_w() - 147.2).abs() < 0.5,
            "power {}",
            t.total_power_w()
        );
        assert!(
            (t.total_area_mm2() - 163.8).abs() < 0.5,
            "area {}",
            t.total_area_mm2()
        );
    }

    #[test]
    fn module_subtotals_match_the_paper() {
        let t = genpip_table2();
        let bc = t.module("Basecalling module").unwrap();
        assert!((bc.power_w() - 27.4).abs() < 0.05);
        assert!((bc.area_mm2() - 49.2).abs() < 0.05);
        let rm = t.module("Read mapping module").unwrap();
        assert!((rm.power_w() - 114.5).abs() < 0.1);
        assert!((rm.area_mm2() - 93.1).abs() < 0.1);
        let ctl = t.module("GenPIP controller module").unwrap();
        assert!((ctl.power_w() - 5.3).abs() < 0.01);
    }

    #[test]
    fn read_mapping_module_dominates() {
        // The paper's observation: the read-mapping module accounts for
        // ≈56.9 % of area and ≈77.8 % of power.
        let t = genpip_table2();
        let rm = t.module("Read mapping module").unwrap();
        let area_share = rm.area_mm2() / t.total_area_mm2();
        let power_share = rm.power_w() / t.total_power_w();
        assert!((area_share - 0.569).abs() < 0.01, "area share {area_share}");
        assert!(
            (power_share - 0.778).abs() < 0.01,
            "power share {power_share}"
        );
    }

    #[test]
    fn display_renders_all_rows() {
        let t = genpip_table2();
        let s = t.to_string();
        assert!(s.contains("PIM Basecaller"));
        assert!(s.contains("PIM-CQS"));
        assert!(s.contains("Seeding"));
        assert!(s.contains("GenPIP total"));
    }

    #[test]
    fn unknown_module_lookup_is_none() {
        assert!(genpip_table2().module("nope").is_none());
    }
}
