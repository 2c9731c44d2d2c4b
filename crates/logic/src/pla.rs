//! Espresso-style PLA reader and writer.
//!
//! The MCNC two-level benchmarks the paper evaluates on are distributed in
//! this format; the reproduction's constructive circuit suite can be dumped
//! to PLA for inspection and re-read for round-trip tests.
//!
//! Supported directives: `.i`, `.o`, `.p` (optional), `.ilb`, `.ob`,
//! `.type fr|f` (defaults to `f`: unlisted minterms are off), `.e`/`.end`.
//! Output plane characters: `1` (on), `0`/`~` (off), `-`/`2` (don't care).

use crate::cube::{Cube, Literal};
use crate::truthtable::{Isf, TruthTable};
use crate::LogicError;

/// A parsed multi-output PLA.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pla {
    /// Number of inputs.
    pub inputs: usize,
    /// Input labels (generated as `x0..` when absent).
    pub input_names: Vec<String>,
    /// Output labels (generated as `f0..` when absent).
    pub output_names: Vec<String>,
    /// Rows: an input cube plus one output character per output.
    pub rows: Vec<(Cube, Vec<OutputValue>)>,
}

/// Output-plane entry of a PLA row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutputValue {
    /// The cube belongs to this output's on-set.
    On,
    /// The cube belongs to the off-set (only meaningful for `.type fr`).
    Off,
    /// The cube belongs to the don't-care set.
    DontCare,
}

impl Pla {
    /// Number of outputs.
    pub fn outputs(&self) -> usize {
        self.output_names.len()
    }

    /// Materializes output `o` as an incompletely specified function.
    ///
    /// Minterms covered by an `On` row are on; covered by a `DontCare` row
    /// (and not an `On` row) are don't care; everything else is off.
    ///
    /// # Panics
    ///
    /// Panics if `o >= self.outputs()` or `inputs > TruthTable::MAX_VARS`.
    pub fn output_isf(&self, o: usize) -> Isf {
        assert!(o < self.outputs(), "output index out of range");
        let mut on = TruthTable::zero(self.inputs);
        let mut dc = TruthTable::zero(self.inputs);
        for (cube, outs) in &self.rows {
            match outs[o] {
                OutputValue::On => on = &on | &cube.to_truth_table(),
                OutputValue::DontCare => dc = &dc | &cube.to_truth_table(),
                OutputValue::Off => {}
            }
        }
        Isf::new(on, dc).expect("arities agree by construction")
    }

    /// Materializes every output as a completely specified truth table
    /// (don't cares resolved to 0).
    pub fn output_tables(&self) -> Vec<TruthTable> {
        (0..self.outputs())
            .map(|o| self.output_isf(o).on_set().clone())
            .collect()
    }

    /// Parses PLA text.
    ///
    /// # Errors
    ///
    /// Returns [`LogicError::Parse`] on malformed input (bad directive
    /// arguments, wrong row widths, unknown plane characters, missing
    /// `.i`/`.o`).
    pub fn parse(text: &str) -> Result<Self, LogicError> {
        let mut inputs: Option<usize> = None;
        let mut outputs: Option<usize> = None;
        let mut input_names: Option<Vec<String>> = None;
        let mut output_names: Option<Vec<String>> = None;
        let mut rows: Vec<(Cube, Vec<OutputValue>)> = Vec::new();

        let err = |line: usize, message: String| LogicError::Parse { line, message };

        for (idx, raw) in text.lines().enumerate() {
            let lineno = idx + 1;
            let line = match raw.find('#') {
                Some(p) => &raw[..p],
                None => raw,
            }
            .trim();
            if line.is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix('.') {
                let mut parts = rest.split_whitespace();
                let dir = parts.next().unwrap_or("");
                match dir {
                    "i" => {
                        if !rows.is_empty() {
                            return Err(err(lineno, ".i after data rows".into()));
                        }
                        let n: usize = parts
                            .next()
                            .and_then(|s| s.parse().ok())
                            .ok_or_else(|| err(lineno, ".i needs a number".into()))?;
                        if n > TruthTable::MAX_VARS {
                            return Err(err(
                                lineno,
                                format!(
                                    ".i {n} exceeds the {}-variable truth-table limit",
                                    TruthTable::MAX_VARS
                                ),
                            ));
                        }
                        inputs = Some(n);
                    }
                    "o" => {
                        if !rows.is_empty() {
                            return Err(err(lineno, ".o after data rows".into()));
                        }
                        outputs = Some(
                            parts
                                .next()
                                .and_then(|s| s.parse().ok())
                                .ok_or_else(|| err(lineno, ".o needs a number".into()))?,
                        )
                    }
                    "p" | "e" | "end" | "type" | "phase" | "pair" => { /* informative */ }
                    "ilb" => input_names = Some(parts.map(str::to_owned).collect()),
                    "ob" => output_names = Some(parts.map(str::to_owned).collect()),
                    other => {
                        return Err(err(lineno, format!("unknown directive .{other}")));
                    }
                }
                continue;
            }
            // Data row.
            let ni = inputs.ok_or_else(|| err(lineno, "data before .i".into()))?;
            let no = outputs.ok_or_else(|| err(lineno, "data before .o".into()))?;
            let fields: Vec<&str> = line.split_whitespace().collect();
            let (in_part, out_part) = match fields.len() {
                2 => (fields[0].to_string(), fields[1].to_string()),
                1 if fields[0].len() == ni + no => {
                    (fields[0][..ni].to_string(), fields[0][ni..].to_string())
                }
                _ => return Err(err(lineno, format!("malformed row {line:?}"))),
            };
            if in_part.len() != ni {
                return Err(err(
                    lineno,
                    format!("input plane has {} chars, expected {ni}", in_part.len()),
                ));
            }
            if out_part.len() != no {
                return Err(err(
                    lineno,
                    format!("output plane has {} chars, expected {no}", out_part.len()),
                ));
            }
            let lits: Option<Vec<Literal>> = in_part.chars().map(Literal::from_char).collect();
            let cube = Cube::from_literals(
                lits.ok_or_else(|| err(lineno, format!("bad input plane {in_part:?}")))?,
            );
            let outs: Result<Vec<OutputValue>, LogicError> = out_part
                .chars()
                .map(|c| match c {
                    '1' | '4' => Ok(OutputValue::On),
                    '0' | '~' => Ok(OutputValue::Off),
                    '-' | '2' | '3' => Ok(OutputValue::DontCare),
                    other => Err(err(lineno, format!("bad output char {other:?}"))),
                })
                .collect();
            rows.push((cube, outs?));
        }

        let inputs = inputs.ok_or_else(|| err(0, "missing .i".into()))?;
        let outputs = outputs.ok_or_else(|| err(0, "missing .o".into()))?;
        let input_names =
            input_names.unwrap_or_else(|| (0..inputs).map(|i| format!("x{i}")).collect());
        let output_names =
            output_names.unwrap_or_else(|| (0..outputs).map(|o| format!("f{o}")).collect());
        if input_names.len() != inputs {
            return Err(err(0, ".ilb count does not match .i".into()));
        }
        if output_names.len() != outputs {
            return Err(err(0, ".ob count does not match .o".into()));
        }
        Ok(Pla {
            inputs,
            input_names,
            output_names,
            rows,
        })
    }

    /// Serializes back to PLA text (type `fd`: only on/dc rows written).
    pub fn to_text(&self) -> String {
        let mut s = String::new();
        #[expect(
            clippy::let_underscore_must_use,
            reason = "fmt::Write into a String is infallible"
        )]
        let _ = self.write_into(&mut s);
        s
    }

    fn write_into(&self, s: &mut String) -> std::fmt::Result {
        use std::fmt::Write as _;
        writeln!(s, ".i {}", self.inputs)?;
        writeln!(s, ".o {}", self.outputs())?;
        writeln!(s, ".ilb {}", self.input_names.join(" "))?;
        writeln!(s, ".ob {}", self.output_names.join(" "))?;
        writeln!(s, ".p {}", self.rows.len())?;
        for (cube, outs) in &self.rows {
            let outstr: String = outs
                .iter()
                .map(|o| match o {
                    OutputValue::On => '1',
                    OutputValue::Off => '0',
                    OutputValue::DontCare => '-',
                })
                .collect();
            writeln!(s, "{cube} {outstr}")?;
        }
        s.push_str(".e\n");
        Ok(())
    }

    /// Builds a single-output PLA from a truth table via ISOP.
    pub fn from_truth_table(name: &str, f: &TruthTable) -> Self {
        let sop = crate::cube::SopCover::isop(f);
        Pla {
            inputs: f.vars(),
            input_names: (0..f.vars()).map(|i| format!("x{i}")).collect(),
            output_names: vec![name.to_owned()],
            rows: sop
                .iter()
                .map(|c| (c.clone(), vec![OutputValue::On]))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const XOR_PLA: &str = "\
# two-input xor
.i 2
.o 1
.p 2
01 1
10 1
.e
";

    #[test]
    fn parse_xor() {
        let pla = Pla::parse(XOR_PLA).unwrap();
        assert_eq!(pla.inputs, 2);
        assert_eq!(pla.outputs(), 1);
        assert_eq!(pla.rows.len(), 2);
        let t = &pla.output_tables()[0];
        assert_eq!(*t, TruthTable::var(2, 0) ^ TruthTable::var(2, 1));
    }

    #[test]
    fn note_bit_order() {
        // PLA column j corresponds to variable j (string index = var index).
        let pla = Pla::parse(".i 2\n.o 1\n10 1\n.e\n").unwrap();
        let t = &pla.output_tables()[0];
        // Cube "10": var0=1, var1=0 -> minterm 0b01 = 1.
        assert!(t.eval(1));
        assert_eq!(t.count_ones(), 1);
    }

    #[test]
    fn multi_output_and_dont_cares() {
        let text = ".i 2\n.o 2\n11 1-\n00 -1\n";
        let pla = Pla::parse(text).unwrap();
        let f0 = pla.output_isf(0);
        assert_eq!(f0.value(3), Some(true));
        assert_eq!(f0.value(0), None); // dc row
        let f1 = pla.output_isf(1);
        assert_eq!(f1.value(0), Some(true));
        assert_eq!(f1.value(3), None);
    }

    #[test]
    fn labels_parsed() {
        let text = ".i 2\n.o 1\n.ilb a b\n.ob out\n11 1\n";
        let pla = Pla::parse(text).unwrap();
        assert_eq!(pla.input_names, vec!["a", "b"]);
        assert_eq!(pla.output_names, vec!["out"]);
    }

    #[test]
    fn concatenated_row_format() {
        // Some PLA writers omit the space between planes.
        let pla = Pla::parse(".i 3\n.o 1\n1-01\n").unwrap();
        assert_eq!(pla.rows.len(), 1);
        assert_eq!(pla.rows[0].0.to_string(), "1-0");
    }

    #[test]
    fn errors_are_reported_with_lines() {
        let e = Pla::parse(".i 2\n.o 1\n0z 1\n").unwrap_err();
        match e {
            LogicError::Parse { line, .. } => assert_eq!(line, 3),
            other => panic!("unexpected error {other:?}"),
        }
        assert!(Pla::parse("11 1\n").is_err()); // data before .i
        assert!(Pla::parse(".i 2\n.o 1\n111 1\n").is_err()); // wrong width
        assert!(Pla::parse(".q 2\n").is_err()); // unknown directive
    }

    #[test]
    fn roundtrip_through_text() {
        let f = TruthTable::from_minterms(4, &[1, 2, 4, 8, 15]);
        let pla = Pla::from_truth_table("f", &f);
        let reparsed = Pla::parse(&pla.to_text()).unwrap();
        assert_eq!(reparsed.output_tables()[0], f);
    }
}
