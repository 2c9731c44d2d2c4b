//! BLIF (Berkeley Logic Interchange Format) reader and writer.
//!
//! Supports the combinational subset used by the MCNC multi-level
//! benchmarks: `.model`, `.inputs`, `.outputs`, `.names` (with `1` or `0`
//! cover polarity), and `.end`. Line continuations with `\` are handled.
//! Latches and subcircuits are rejected with a parse error.

use crate::cube::{Cube, Literal};
use crate::network::{Network, NodeId};
use crate::truthtable::TruthTable;
use crate::LogicError;
use std::collections::HashMap;

/// Parses BLIF text into a [`Network`].
///
/// Signals referenced before their `.names` definition are supported (two
/// passes). A `.names` body with no cubes denotes constant 0; the single
/// row `1` (no inputs) denotes constant 1.
///
/// # Errors
///
/// Returns [`LogicError::Parse`] on malformed text and
/// [`LogicError::Network`] if the described network is cyclic.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let text = "\
/// .model xor2
/// .inputs a b
/// .outputs y
/// .names a b y
/// 01 1
/// 10 1
/// .end
/// ";
/// let net = hyde_logic::blif::parse(text)?;
/// assert_eq!(net.eval(&[true, false]), vec![true]);
/// # Ok(())
/// # }
/// ```
pub fn parse(text: &str) -> Result<Network, LogicError> {
    // Join continuation lines, remember original line numbers.
    let mut lines: Vec<(usize, String)> = Vec::new();
    let mut pending: Option<(usize, String)> = None;
    for (idx, raw) in text.lines().enumerate() {
        let no_comment = match raw.find('#') {
            Some(p) => &raw[..p],
            None => raw,
        };
        let (cont, body) = match no_comment.trim_end().strip_suffix('\\') {
            Some(b) => (true, b.to_string()),
            None => (false, no_comment.to_string()),
        };
        match pending.take() {
            Some((l, mut acc)) => {
                acc.push(' ');
                acc.push_str(&body);
                if cont {
                    pending = Some((l, acc));
                } else {
                    lines.push((l, acc));
                }
            }
            None => {
                if cont {
                    pending = Some((idx + 1, body));
                } else {
                    lines.push((idx + 1, body));
                }
            }
        }
    }
    if let Some((l, acc)) = pending {
        lines.push((l, acc));
    }

    let err = |line: usize, message: String| LogicError::Parse { line, message };

    let mut model: Option<String> = None;
    let mut input_names: Vec<String> = Vec::new();
    let mut output_names: Vec<String> = Vec::new();
    // (line, fanin names, output name, rows)
    struct NamesBlock {
        line: usize,
        fanins: Vec<String>,
        output: String,
        rows: Vec<(Cube, bool)>,
    }
    let mut blocks: Vec<NamesBlock> = Vec::new();

    let mut i = 0;
    while i < lines.len() {
        let (lineno, line) = (&lines[i].0, lines[i].1.trim().to_string());
        i += 1;
        if line.is_empty() {
            continue;
        }
        let mut parts = line.split_whitespace();
        let head = parts.next().unwrap();
        if model.is_none() && head != ".model" {
            return Err(err(*lineno, format!("{head} before .model")));
        }
        match head {
            ".model" => {
                let name = parts
                    .next()
                    .ok_or_else(|| err(*lineno, ".model needs a name".into()))?;
                if model.replace(name.to_string()).is_some() {
                    return Err(err(*lineno, "duplicate .model".into()));
                }
            }
            ".inputs" => input_names.extend(parts.map(str::to_owned)),
            ".outputs" => output_names.extend(parts.map(str::to_owned)),
            ".end" => break,
            ".names" => {
                let mut sigs: Vec<String> = parts.map(str::to_owned).collect();
                let output = sigs
                    .pop()
                    .ok_or_else(|| err(*lineno, ".names needs at least an output".into()))?;
                if sigs.len() > TruthTable::MAX_VARS {
                    return Err(err(
                        *lineno,
                        format!(
                            ".names {output:?} has {} fanins, more than the {}-variable \
                             truth-table limit",
                            sigs.len(),
                            TruthTable::MAX_VARS
                        ),
                    ));
                }
                let mut rows = Vec::new();
                while i < lines.len() {
                    let body = lines[i].1.trim().to_string();
                    if body.is_empty() {
                        i += 1;
                        continue;
                    }
                    if body.starts_with('.') {
                        break;
                    }
                    let bl = lines[i].0;
                    i += 1;
                    let fields: Vec<&str> = body.split_whitespace().collect();
                    let (in_part, out_char) = match fields.len() {
                        2 => (fields[0].to_string(), fields[1].to_string()),
                        1 if sigs.is_empty() => (String::new(), fields[0].to_string()),
                        _ => return Err(err(bl, format!("malformed cover row {body:?}"))),
                    };
                    if in_part.len() != sigs.len() {
                        return Err(err(
                            bl,
                            format!(
                                "cover row has {} literals, expected {}",
                                in_part.len(),
                                sigs.len()
                            ),
                        ));
                    }
                    let lits: Option<Vec<Literal>> =
                        in_part.chars().map(Literal::from_char).collect();
                    let cube = Cube::from_literals(
                        lits.ok_or_else(|| err(bl, format!("bad cover row {in_part:?}")))?,
                    );
                    let polarity = match out_char.as_str() {
                        "1" => true,
                        "0" => false,
                        other => return Err(err(bl, format!("bad cover output {other:?}"))),
                    };
                    rows.push((cube, polarity));
                }
                if let Some(first) = rows.first().map(|(_, p)| *p) {
                    if rows.iter().any(|(_, p)| *p != first) {
                        return Err(err(
                            *lineno,
                            format!(".names {output:?} mixes on-set and off-set rows"),
                        ));
                    }
                }
                blocks.push(NamesBlock {
                    line: *lineno,
                    fanins: sigs,
                    output,
                    rows,
                });
            }
            ".latch" | ".subckt" | ".gate" => {
                return Err(err(*lineno, format!("unsupported construct {head}")));
            }
            other => return Err(err(*lineno, format!("unknown directive {other}"))),
        }
    }

    let model = model.ok_or_else(|| err(0, "missing .model".into()))?;

    // Build the network: inputs first, then .names blocks in dependency
    // order (iterate until all resolve).
    let mut net = Network::new(&model);
    let mut by_name: HashMap<String, NodeId> = HashMap::new();
    for name in &input_names {
        if by_name.contains_key(name) {
            return Err(err(0, format!("duplicate input {name:?}")));
        }
        let id = net.add_input(name);
        by_name.insert(name.clone(), id);
    }
    let mut defined: HashMap<&str, usize> = HashMap::new();
    for b in &blocks {
        if input_names.iter().any(|n| n == &b.output) {
            return Err(err(
                b.line,
                format!(".names redefines primary input {:?}", b.output),
            ));
        }
        if defined.insert(&b.output, b.line).is_some() {
            return Err(err(
                b.line,
                format!("duplicate definition of {:?}", b.output),
            ));
        }
    }
    let mut remaining: Vec<&NamesBlock> = blocks.iter().collect();
    let mut build_err: Option<LogicError> = None;
    while !remaining.is_empty() {
        let before = remaining.len();
        remaining.retain(|b| {
            if build_err.is_some() {
                return true;
            }
            let resolved: Option<Vec<NodeId>> =
                b.fanins.iter().map(|n| by_name.get(n).copied()).collect();
            match resolved {
                None => true, // keep for a later pass
                Some(fanins) => {
                    let nv = fanins.len();
                    // Rows agree in polarity (checked during parsing);
                    // an empty body denotes constant 0.
                    let polarity = b.rows.first().is_none_or(|(_, p)| *p);
                    let mut t = TruthTable::zero(nv);
                    for (cube, _) in &b.rows {
                        t = &t | &cube.to_truth_table();
                    }
                    if !polarity {
                        t = !&t;
                    }
                    match net.add_node(&b.output, fanins, t) {
                        Ok(id) => {
                            by_name.insert(b.output.clone(), id);
                            false
                        }
                        Err(e) => {
                            build_err = Some(err(
                                b.line,
                                format!("cannot build node {:?}: {e}", b.output),
                            ));
                            true
                        }
                    }
                }
            }
        });
        if let Some(e) = build_err {
            return Err(e);
        }
        if remaining.len() == before {
            let b = remaining[0];
            return Err(LogicError::Parse {
                line: b.line,
                message: format!(
                    "unresolved signal among fanins of {:?} (cycle or undeclared)",
                    b.output
                ),
            });
        }
    }
    for name in &output_names {
        let id = *by_name.get(name).ok_or_else(|| LogicError::Parse {
            line: 0,
            message: format!("output {name:?} is never defined"),
        })?;
        net.mark_output(name, id);
    }
    Ok(net)
}

/// Serializes a network to BLIF text.
///
/// Node functions are written as ISOP covers; primary inputs keep their
/// names, internal nodes are written under generated unique names when
/// duplicates exist.
pub fn write(net: &Network) -> String {
    let mut s = String::new();
    #[expect(
        clippy::let_underscore_must_use,
        reason = "fmt::Write into a String is infallible"
    )]
    let _ = write_into(&mut s, net);
    s
}

fn write_into(s: &mut String, net: &Network) -> std::fmt::Result {
    use std::fmt::Write as _;
    writeln!(s, ".model {}", net.name())?;
    let in_names: Vec<String> = net
        .inputs()
        .iter()
        .map(|&id| net.node_name(id).to_owned())
        .collect();
    writeln!(s, ".inputs {}", in_names.join(" "))?;
    let out_names: Vec<String> = net.outputs().iter().map(|(n, _)| n.clone()).collect();
    writeln!(s, ".outputs {}", out_names.join(" "))?;

    // Unique signal names per node id.
    let mut sig: HashMap<NodeId, String> = HashMap::new();
    let mut used: HashMap<String, usize> = HashMap::new();
    for id in net.node_ids() {
        let base = net.node_name(id).to_owned();
        let count = used.entry(base.clone()).or_insert(0);
        let name = if *count == 0 {
            base.clone()
        } else {
            format!("{base}__{count}")
        };
        *count += 1;
        sig.insert(id, name);
    }

    let order = net.topo_order().expect("network must be acyclic");
    for id in order {
        if matches!(net.role(id), crate::network::NodeRole::PrimaryInput) {
            continue;
        }
        let fanin_names: Vec<String> = net.fanins(id).iter().map(|f| sig[f].clone()).collect();
        writeln!(s, ".names {} {}", fanin_names.join(" "), sig[&id])?;
        let sop = crate::cube::SopCover::isop(net.function(id));
        if net.fanins(id).is_empty() {
            if net.function(id).is_one() {
                writeln!(s, "1")?;
            }
            continue;
        }
        for cube in sop.iter() {
            writeln!(s, "{cube} 1")?;
        }
    }
    // Outputs driven by differently-named nodes need buffers.
    for (name, id) in net.outputs() {
        if &sig[id] != name {
            writeln!(s, ".names {} {name}", sig[id])?;
            writeln!(s, "1 1")?;
        }
    }
    s.push_str(".end\n");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_simple_model() {
        let text = "\
.model test
.inputs a b c
.outputs y
.names a b t
11 1
.names t c y
1- 1
-1 1
.end
";
        let net = parse(text).unwrap();
        assert_eq!(net.inputs().len(), 3);
        for m in 0u32..8 {
            let bits = [m & 1 == 1, m >> 1 & 1 == 1, m >> 2 & 1 == 1];
            let expect = (bits[0] && bits[1]) || bits[2];
            assert_eq!(net.eval(&bits), vec![expect], "m={m}");
        }
    }

    #[test]
    fn out_of_order_names_blocks() {
        let text = "\
.model ooo
.inputs a
.outputs y
.names t y
0 1
.names a t
0 1
.end
";
        let net = parse(text).unwrap();
        // y = !t, t = !a -> y = a.
        assert_eq!(net.eval(&[true]), vec![true]);
        assert_eq!(net.eval(&[false]), vec![false]);
    }

    #[test]
    fn constants() {
        let text = "\
.model c
.inputs a
.outputs one zero
.names one
1
.names zero
.end
";
        let net = parse(text).unwrap();
        assert_eq!(net.eval(&[false]), vec![true, false]);
    }

    #[test]
    fn off_set_polarity() {
        let text = "\
.model offset
.inputs a b
.outputs y
.names a b y
11 0
.end
";
        let net = parse(text).unwrap();
        // y = !(a&b)
        assert_eq!(net.eval(&[true, true]), vec![false]);
        assert_eq!(net.eval(&[true, false]), vec![true]);
    }

    #[test]
    fn continuation_lines() {
        let text = ".model k\n.inputs a \\\nb\n.outputs y\n.names a b y\n11 1\n.end\n";
        let net = parse(text).unwrap();
        assert_eq!(net.inputs().len(), 2);
    }

    #[test]
    fn rejects_latches_and_unknowns() {
        assert!(parse(".model x\n.latch a b\n.end\n").is_err());
        assert!(parse(".model x\n.bogus\n.end\n").is_err());
    }

    #[test]
    fn undefined_output_is_error() {
        let e = parse(".model x\n.inputs a\n.outputs nope\n.end\n");
        assert!(e.is_err());
    }

    #[test]
    fn roundtrip_write_parse() {
        let text = "\
.model rt
.inputs a b c
.outputs s co
.names a b c s
001 1
010 1
100 1
111 1
.names a b c co
11- 1
1-1 1
-11 1
.end
";
        let net = parse(text).unwrap();
        let net2 = parse(&write(&net)).unwrap();
        for m in 0u32..8 {
            let bits = [m & 1 == 1, m >> 1 & 1 == 1, m >> 2 & 1 == 1];
            assert_eq!(net.eval(&bits), net2.eval(&bits), "m={m}");
        }
    }
}
