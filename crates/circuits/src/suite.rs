//! Suite assembly and the circuit model.

use crate::generators;
use hyde_logic::TruthTable;

/// Provenance of a benchmark circuit in this reproduction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Origin {
    /// The public functional specification, implemented exactly.
    ExactSpec,
    /// A same-flavour substitute (scaled or reconstructed), see `DESIGN.md`.
    Substitute,
}

/// A combinational benchmark circuit.
#[derive(Debug, Clone)]
pub struct Circuit {
    /// Benchmark name (matching the paper's tables).
    pub name: String,
    /// Number of primary inputs.
    pub inputs: usize,
    /// Output functions over the shared input space.
    pub outputs: Vec<TruthTable>,
    /// Whether the circuit is the exact public spec or a substitute.
    pub origin: Origin,
}

impl Circuit {
    /// Creates a circuit, checking that every output matches `inputs`.
    ///
    /// # Panics
    ///
    /// Panics if an output has the wrong arity or there are no outputs.
    pub fn new(name: &str, inputs: usize, outputs: Vec<TruthTable>, origin: Origin) -> Self {
        assert!(!outputs.is_empty(), "circuit {name} has no outputs");
        for (i, f) in outputs.iter().enumerate() {
            assert_eq!(
                f.vars(),
                inputs,
                "circuit {name} output {i} has arity {} != {inputs}",
                f.vars()
            );
        }
        Circuit {
            name: name.to_owned(),
            inputs,
            outputs,
            origin,
        }
    }

    /// Number of outputs.
    pub fn output_count(&self) -> usize {
        self.outputs.len()
    }

    /// Exports the circuit as a multi-output PLA (ISOP cover per output).
    pub fn to_pla(&self) -> hyde_logic::pla::Pla {
        use hyde_logic::pla::{OutputValue, Pla};
        use hyde_logic::SopCover;
        let mut rows: Vec<(hyde_logic::Cube, Vec<OutputValue>)> = Vec::new();
        for (o, f) in self.outputs.iter().enumerate() {
            for cube in SopCover::isop(f).iter() {
                let mut outs = vec![OutputValue::Off; self.outputs.len()];
                outs[o] = OutputValue::On;
                rows.push((cube.clone(), outs));
            }
        }
        Pla {
            inputs: self.inputs,
            input_names: (0..self.inputs).map(|i| format!("x{i}")).collect(),
            output_names: (0..self.outputs.len()).map(|o| format!("o{o}")).collect(),
            rows,
        }
    }
}

/// Builds one suite circuit.
type Generator = fn() -> Circuit;

/// Every suite circuit's name and generator, in the row order of the
/// paper's Table 1/2 union.
const SUITE: [(&str, Generator); 25] = [
    ("5xp1", generators::x5p1),
    ("9sym", generators::sym9),
    ("alu2", generators::alu2),
    ("alu4", generators::alu4),
    ("apex4", generators::apex4),
    ("apex6", generators::apex6),
    ("apex7", generators::apex7),
    ("b9", generators::b9),
    ("clip", generators::clip),
    ("count", generators::count),
    ("des", generators::des),
    ("duke2", generators::duke2),
    ("e64", generators::e64),
    ("f51m", generators::f51m),
    ("misex1", generators::misex1),
    ("misex2", generators::misex2),
    ("misex3", generators::misex3),
    ("rd73", generators::rd73),
    ("rd84", generators::rd84),
    ("rot", generators::rot),
    ("sao2", generators::sao2),
    ("vg2", generators::vg2),
    ("z4ml", generators::z4ml),
    ("C499", generators::c499),
    ("C880", generators::c880),
];

/// The full evaluation suite, in the row order of the paper's Table 1/2
/// union.
pub fn suite() -> Vec<Circuit> {
    SUITE.iter().map(|(_, generate)| generate()).collect()
}

/// The suite circuit called `name`, built alone (without the other 24),
/// or `None` if the suite has no such circuit.
pub fn by_name(name: &str) -> Option<Circuit> {
    SUITE
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, generate)| generate())
}

/// A fast subset for smoke tests and ablations (small input counts).
pub fn suite_small() -> Vec<Circuit> {
    vec![
        generators::x5p1(),
        generators::sym9(),
        generators::clip(),
        generators::misex1(),
        generators::rd73(),
        generators::rd84(),
        generators::z4ml(),
        generators::f51m(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_is_complete_and_well_formed() {
        let s = suite();
        assert_eq!(s.len(), 25);
        for c in &s {
            assert!(c.inputs <= 16, "{} too wide for truth tables", c.name);
            assert!(c.output_count() >= 1);
            // No constant-only circuits (they would trivialize flows).
            assert!(
                c.outputs.iter().any(|f| f.is_const().is_none()),
                "{} is constant",
                c.name
            );
        }
        let names: Vec<&str> = s.iter().map(|c| c.name.as_str()).collect();
        for expect in ["9sym", "alu4", "des", "rd84", "C880"] {
            assert!(names.contains(&expect), "missing {expect}");
        }
    }

    #[test]
    fn by_name_builds_the_suite_circuit_of_that_name() {
        for c in suite() {
            let one = by_name(&c.name).unwrap_or_else(|| panic!("{} not found", c.name));
            assert_eq!(one.name, c.name);
            assert_eq!(one.inputs, c.inputs);
            assert_eq!(one.outputs, c.outputs);
        }
        assert!(by_name("no-such-circuit").is_none());
        assert!(by_name("parity").is_none());
    }

    #[test]
    fn small_suite_is_subset_flavour() {
        for c in suite_small() {
            assert!(c.inputs <= 10, "{}", c.name);
        }
    }

    #[test]
    fn pla_export_roundtrip() {
        let c = crate::generators::rd73();
        let text = c.to_pla().to_text();
        let reparsed = hyde_logic::pla::Pla::parse(&text).unwrap();
        let tables = reparsed.output_tables();
        assert_eq!(tables, c.outputs);
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn circuit_validates_arity() {
        let _ = Circuit::new("bad", 3, vec![TruthTable::one(2)], Origin::Substitute);
    }
}
