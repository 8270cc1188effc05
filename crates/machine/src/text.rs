//! Textual architecture format: a printer and parser for machine
//! descriptions.
//!
//! The paper argues that communication scheduling "can be used to explore
//! novel register file architectures without implementing a custom
//! compiler for each architecture" (§8); this format completes that story
//! by letting architectures live in plain-text files:
//!
//! ```text
//! machine "tiny" {
//!   rf RF0 capacity 16 rports 2 wports 1
//!   bus GB0
//!   fu ALU0 class alu inputs 2 fanout 1 {
//!     op iadd latency 1
//!     op copy latency 1
//!   }
//!   drive ALU0 -> GB0          ; output onto a bus
//!   tap GB0 -> RF0[0]          ; bus into a write port
//!   feed RF0[0] -> ALU0.0      ; read port to an input (wire created)
//!   feed RF0[1] -> ALU0.1
//! }
//! ```
//!
//! `drive`/`tap` wire the write side explicitly over named buses; `feed`
//! creates a dedicated read wire from a register-file read port to a
//! functional-unit input (shared read buses can be expressed with
//! `rfeed <rf>[<port>] -> <bus>` plus `sink <bus> -> <fu>.<slot>`).

use std::collections::HashMap;

use crate::arch::{ArchBuilder, Architecture, FuClass};
use crate::ids::{BusId, FuId, ReadPortId, RfId, WritePortId};
use crate::op::{Capability, Opcode};

/// Prints `arch` in the textual format; [`parse`] reads it back.
pub fn print(arch: &Architecture) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "machine {:?} {{", arch.name());
    for rf in arch.rf_ids() {
        let file = arch.rf(rf);
        let _ = writeln!(
            out,
            "  rf {} capacity {} rports {} wports {}",
            file.name(),
            file.capacity(),
            file.read_ports().len(),
            file.write_ports().len()
        );
    }
    for bus in arch.bus_ids() {
        let _ = writeln!(out, "  bus {}", arch.bus(bus).name());
    }
    for fu in arch.fu_ids() {
        let unit = arch.fu(fu);
        let _ = write!(
            out,
            "  fu {} class {} inputs {}",
            unit.name(),
            unit.class(),
            unit.num_inputs()
        );
        if unit.has_output() {
            let _ = write!(out, " fanout {}", unit.output_fanout());
        } else {
            let _ = write!(out, " no-output");
        }
        let _ = writeln!(out, " {{");
        for cap in unit.capabilities() {
            let _ = write!(
                out,
                "    op {} latency {}",
                cap.opcode.mnemonic(),
                cap.latency
            );
            if cap.issue_interval != 1 {
                let _ = write!(out, " interval {}", cap.issue_interval);
            }
            let _ = writeln!(out);
        }
        let _ = writeln!(out, "  }}");
    }
    // Write side.
    for fu in arch.fu_ids() {
        for &bus in arch.output_buses(fu) {
            let _ = writeln!(
                out,
                "  drive {} -> {}",
                arch.fu(fu).name(),
                arch.bus(bus).name()
            );
        }
    }
    for bus in arch.bus_ids() {
        for &wp in arch.bus_write_ports(bus) {
            let rf = arch.write_port_rf(wp);
            let index = arch
                .rf(rf)
                .write_ports()
                .iter()
                .position(|&p| p == wp)
                .expect("port belongs to its file");
            let _ = writeln!(
                out,
                "  tap {} -> {}[{}]",
                arch.bus(bus).name(),
                arch.rf(rf).name(),
                index
            );
        }
    }
    // Read side: emit `rfeed`/`sink` pairs (fully general).
    for rp_raw in 0..arch.num_read_ports() {
        let rp = ReadPortId::from_raw(rp_raw);
        let rf = arch.read_port_rf(rp);
        let index = arch
            .rf(rf)
            .read_ports()
            .iter()
            .position(|&p| p == rp)
            .expect("port belongs to its file");
        for &bus in arch.read_port_buses(rp) {
            let _ = writeln!(
                out,
                "  rfeed {}[{}] -> {}",
                arch.rf(rf).name(),
                index,
                arch.bus(bus).name()
            );
        }
    }
    for bus in arch.bus_ids() {
        for input in arch.bus_inputs(bus) {
            let _ = writeln!(
                out,
                "  sink {} -> {}.{}",
                arch.bus(bus).name(),
                arch.fu(input.fu).name(),
                input.slot()
            );
        }
    }
    let _ = writeln!(out, "}}");
    out
}

/// A parse failure with its 1-based line.
#[derive(Clone, Debug, PartialEq)]
pub struct ParseError {
    /// 1-based source line.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

/// The largest count a machine text may declare: ports per register
/// file, unit inputs and fanout, operation latency and issue interval.
/// The machines this repository builds stay far below it (at most 344
/// read ports on one file, latency 8); the cap keeps a hostile text from
/// making the parser or the scheduler allocate without bound.
pub const MAX_COUNT: usize = 1024;

/// Parses the textual format produced by [`print()`].
///
/// # Errors
///
/// Returns a [`ParseError`] for syntax errors, unknown or duplicate unit
/// names, counts outside `1..=`[`MAX_COUNT`] (`0..=` for ports, inputs
/// and fanout), or a description the [`ArchBuilder`] rejects (e.g.
/// unreachable inputs).
pub fn parse(text: &str) -> Result<Architecture, ParseError> {
    let err = |line: usize, message: String| ParseError { line, message };
    let mut lines = text
        .lines()
        .enumerate()
        .map(|(i, l)| {
            let l = match l.find(';') {
                Some(p) => &l[..p],
                None => l,
            };
            (i + 1, l.trim())
        })
        .filter(|(_, l)| !l.is_empty());

    let (hline, header) = lines.next().ok_or_else(|| err(0, "empty input".into()))?;
    let name = header
        .strip_prefix("machine")
        .map(str::trim)
        .and_then(|r| r.strip_suffix('{'))
        .map(str::trim)
        .and_then(|q| q.strip_prefix('"')?.strip_suffix('"'))
        .ok_or_else(|| err(hline, "expected `machine \"name\" {`".into()))?;

    let mut b = ArchBuilder::new(name);
    let mut rfs: HashMap<String, RfId> = HashMap::new();
    let mut rf_wports: HashMap<String, Vec<WritePortId>> = HashMap::new();
    let mut rf_rports: HashMap<String, Vec<ReadPortId>> = HashMap::new();
    let mut buses: HashMap<String, BusId> = HashMap::new();
    let mut fus: HashMap<String, FuId> = HashMap::new();

    while let Some((line, l)) = lines.next() {
        if l == "}" {
            return b
                .build()
                .map_err(|e| err(line, format!("invalid machine: {e}")));
        }
        let words: Vec<&str> = l.split_whitespace().collect();
        match words.first().copied() {
            Some("rf") => {
                // rf NAME capacity N rports R wports W
                let rname = words
                    .get(1)
                    .ok_or_else(|| err(line, "missing rf name".into()))?;
                let capacity = required(&words, "capacity", usize::MAX, line)?;
                let wports = required(&words, "wports", MAX_COUNT, line)?;
                let rports = required(&words, "rports", MAX_COUNT, line)?;
                let rf = b.register_file(*rname, capacity);
                let wports = (0..wports).map(|_| b.write_port(rf)).collect();
                let rports = (0..rports).map(|_| b.read_port(rf)).collect();
                rfs.insert(rname.to_string(), rf);
                rf_wports.insert(rname.to_string(), wports);
                rf_rports.insert(rname.to_string(), rports);
            }
            Some("bus") => {
                let bname = words
                    .get(1)
                    .ok_or_else(|| err(line, "missing bus name".into()))?;
                buses.insert(bname.to_string(), b.bus(*bname));
            }
            Some("fu") => {
                // fu NAME class C inputs N [fanout K | no-output] {
                let fname = words
                    .get(1)
                    .ok_or_else(|| err(line, "missing fu name".into()))?;
                let class = match words
                    .iter()
                    .position(|&w| w == "class")
                    .and_then(|p| words.get(p + 1))
                {
                    Some(&"alu") => FuClass::Alu,
                    Some(&"mul") => FuClass::Mul,
                    Some(&"div") => FuClass::Div,
                    Some(&"pu") => FuClass::Pu,
                    Some(&"sp") => FuClass::Sp,
                    Some(&"ls") => FuClass::Ls,
                    Some(&"copy") => FuClass::CopyUnit,
                    other => return Err(err(line, format!("bad class {other:?}"))),
                };
                let inputs = required(&words, "inputs", MAX_COUNT, line)?;
                let has_output = !words.contains(&"no-output");
                let fanout = count(&words, "fanout", MAX_COUNT, line)?.unwrap_or(1);
                if !l.ends_with('{') {
                    return Err(err(line, "expected `{` after fu header".into()));
                }
                // Capability lines until `}`.
                let mut caps: Vec<Capability> = Vec::new();
                for (cline, cl) in lines.by_ref() {
                    if cl == "}" {
                        break;
                    }
                    let cw: Vec<&str> = cl.split_whitespace().collect();
                    if cw.first() != Some(&"op") {
                        return Err(err(cline, format!("expected `op ...`, got `{cl}`")));
                    }
                    let opcode = cw
                        .get(1)
                        .and_then(|m| Opcode::from_mnemonic(m))
                        .ok_or_else(|| err(cline, "unknown opcode mnemonic".into()))?;
                    let latency = required(&cw, "latency", MAX_COUNT, cline)?;
                    let interval = count(&cw, "interval", MAX_COUNT, cline)?.unwrap_or(1);
                    if latency == 0 || interval == 0 {
                        return Err(err(cline, "latency and interval must be at least 1".into()));
                    }
                    caps.push(
                        Capability::new(opcode, latency as u32)
                            .with_issue_interval(interval as u32),
                    );
                }
                let fu = b.functional_unit(*fname, class, inputs, has_output, caps);
                b.set_output_fanout(fu, fanout);
                if fus.insert(fname.to_string(), fu).is_some() {
                    return Err(err(line, format!("duplicate fu `{fname}`")));
                }
            }
            Some("drive") => {
                // drive FU -> BUS
                let (fu, bus) = arrow(&words, line)?;
                let fu = *fus
                    .get(fu)
                    .ok_or_else(|| err(line, format!("unknown fu `{fu}`")))?;
                let bus = *buses
                    .get(bus)
                    .ok_or_else(|| err(line, format!("unknown bus `{bus}`")))?;
                b.connect_output(fu, bus);
            }
            Some("tap") => {
                // tap BUS -> RF[i]
                let (bus, port) = arrow(&words, line)?;
                let bus = *buses
                    .get(bus)
                    .ok_or_else(|| err(line, format!("unknown bus `{bus}`")))?;
                let (rf, index) = indexed(port, line)?;
                let wp = rf_wports
                    .get(rf)
                    .and_then(|v| v.get(index))
                    .copied()
                    .ok_or_else(|| err(line, format!("unknown write port `{port}`")))?;
                b.connect_bus_to_write_port(bus, wp);
            }
            Some("rfeed") => {
                // rfeed RF[i] -> BUS
                let (port, bus) = arrow(&words, line)?;
                let (rf, index) = indexed(port, line)?;
                let rp = rf_rports
                    .get(rf)
                    .and_then(|v| v.get(index))
                    .copied()
                    .ok_or_else(|| err(line, format!("unknown read port `{port}`")))?;
                let bus = *buses
                    .get(bus)
                    .ok_or_else(|| err(line, format!("unknown bus `{bus}`")))?;
                b.connect_read_port_to_bus(rp, bus);
            }
            Some("sink") => {
                // sink BUS -> FU.slot
                let (bus, input) = arrow(&words, line)?;
                let bus = *buses
                    .get(bus)
                    .ok_or_else(|| err(line, format!("unknown bus `{bus}`")))?;
                let (fu, slot) = dotted(input, line)?;
                let fu = *fus
                    .get(fu)
                    .ok_or_else(|| err(line, format!("unknown fu `{fu}`")))?;
                b.connect_bus_to_input(bus, fu, slot);
            }
            Some("feed") => {
                // feed RF[i] -> FU.slot : dedicated read wire.
                let (port, input) = arrow(&words, line)?;
                let (rfname, index) = indexed(port, line)?;
                let rp = rf_rports
                    .get(rfname)
                    .and_then(|v| v.get(index))
                    .copied()
                    .ok_or_else(|| err(line, format!("unknown read port `{port}`")))?;
                let (funame, slot) = dotted(input, line)?;
                let fu = *fus
                    .get(funame)
                    .ok_or_else(|| err(line, format!("unknown fu `{funame}`")))?;
                let wire = b.bus(format!("{rfname}[{index}]->{funame}.{slot}"));
                b.connect_read_port_to_bus(rp, wire);
                b.connect_bus_to_input(wire, fu, slot);
            }
            other => return Err(err(line, format!("unknown directive {other:?}"))),
        }
    }
    Err(err(0, "unexpected end of input (missing `}`)".into()))
}

/// The number after `key` in `words`, `None` when `key` is absent.
///
/// # Errors
///
/// The value is missing, not a number, or above `max`.
fn count(words: &[&str], key: &str, max: usize, line: usize) -> Result<Option<usize>, ParseError> {
    let Some(pos) = words.iter().position(|&w| w == key) else {
        return Ok(None);
    };
    match words.get(pos + 1).and_then(|v| v.parse::<usize>().ok()) {
        Some(n) if n <= max => Ok(Some(n)),
        Some(n) => Err(ParseError {
            line,
            message: format!("`{key} {n}` is above the cap of {max}"),
        }),
        None => Err(ParseError {
            line,
            message: format!("bad `{key}` value"),
        }),
    }
}

/// [`count`] for a key that must be present.
fn required(words: &[&str], key: &str, max: usize, line: usize) -> Result<usize, ParseError> {
    count(words, key, max, line)?.ok_or(ParseError {
        line,
        message: format!("missing `{key} <n>`"),
    })
}

fn arrow<'a>(words: &[&'a str], line: usize) -> Result<(&'a str, &'a str), ParseError> {
    let pos = words.iter().position(|&w| w == "->").ok_or(ParseError {
        line,
        message: "expected `->`".into(),
    })?;
    match (words.get(pos - 1), words.get(pos + 1)) {
        (Some(&a), Some(&b)) => Ok((a, b)),
        _ => Err(ParseError {
            line,
            message: "expected `<a> -> <b>`".into(),
        }),
    }
}

fn indexed(token: &str, line: usize) -> Result<(&str, usize), ParseError> {
    let open = token.find('[').ok_or(ParseError {
        line,
        message: format!("expected `name[index]`, got `{token}`"),
    })?;
    let index = token[open + 1..]
        .strip_suffix(']')
        .and_then(|v| v.parse().ok())
        .ok_or(ParseError {
            line,
            message: format!("bad index in `{token}`"),
        })?;
    Ok((&token[..open], index))
}

fn dotted(token: &str, line: usize) -> Result<(&str, usize), ParseError> {
    let dot = token.rfind('.').ok_or(ParseError {
        line,
        message: format!("expected `fu.slot`, got `{token}`"),
    })?;
    let slot = token[dot + 1..].parse::<u8>().map_err(|_| ParseError {
        line,
        message: format!("bad slot in `{token}`"),
    })?;
    Ok((&token[..dot], usize::from(slot)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{imagine, toy};

    fn structurally_equal(a: &Architecture, b: &Architecture) -> bool {
        // Same component counts and same stub sets per unit/input.
        if a.num_fus() != b.num_fus()
            || a.num_rfs() != b.num_rfs()
            || a.num_buses() != b.num_buses()
        {
            return false;
        }
        for fu in a.fu_ids() {
            if a.write_stubs(fu).len() != b.write_stubs(fu).len() {
                return false;
            }
            for slot in 0..a.fu(fu).num_inputs() {
                if a.read_stubs(fu, slot).len() != b.read_stubs(fu, slot).len() {
                    return false;
                }
            }
        }
        true
    }

    #[test]
    fn toy_round_trips() {
        let arch = toy::motivating_example();
        let text = print(&arch);
        let parsed = parse(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
        assert!(
            structurally_equal(&arch, &parsed),
            "round trip changed the machine"
        );
        // And the round-tripped machine behaves identically for analysis.
        assert!(parsed.copy_connectivity().is_copy_connected());
        assert_eq!(print(&parsed), text, "printing is a fixpoint");
    }

    #[test]
    fn imagine_variants_round_trip() {
        for arch in [
            imagine::central(),
            imagine::clustered(4),
            imagine::distributed(),
        ] {
            let text = print(&arch);
            let parsed = parse(&text).unwrap_or_else(|e| panic!("{}: {e}", arch.name()));
            assert!(structurally_equal(&arch, &parsed), "{}", arch.name());
            assert_eq!(
                parsed.copy_connectivity().is_copy_connected(),
                arch.copy_connectivity().is_copy_connected()
            );
        }
    }

    const POCKET: &str = r#"
machine "pocket" {
  rf R capacity 8 rports 2 wports 1
  bus B
  fu A class alu inputs 2 fanout 1 {
    op iadd latency 1
    op copy latency 1
  }
  drive A -> B
  tap B -> R[0]
  feed R[0] -> A.0
  feed R[1] -> A.1
}
"#;

    /// Parses [`POCKET`] with its one occurrence of `from` replaced.
    fn pocket_with(from: &str, to: &str) -> Result<Architecture, ParseError> {
        assert_eq!(POCKET.matches(from).count(), 1, "{from}");
        parse(&POCKET.replace(from, to))
    }

    #[test]
    fn hand_written_machine_parses() {
        let text = r#"
machine "pocket" {
  rf R capacity 8 rports 2 wports 1
  bus B
  fu A class alu inputs 2 fanout 1 {
    op iadd latency 1
    op copy latency 1
  }
  drive A -> B
  tap B -> R[0]
  feed R[0] -> A.0
  feed R[1] -> A.1
}
"#;
        let arch = parse(text).unwrap();
        assert_eq!(arch.num_fus(), 1);
        assert_eq!(arch.num_rfs(), 1);
        assert!(arch.copy_connectivity().is_copy_connected());
        let fu = arch.fu_by_name("A").unwrap();
        assert_eq!(arch.write_stubs(fu).len(), 1);
    }

    #[test]
    fn errors_have_lines() {
        let e = parse("machine \"x\" {\n  bogus line here\n}\n").unwrap_err();
        assert_eq!(e.line, 2);
        let e2 = parse("machine \"x\" {\n  drive NOPE -> B\n}\n").unwrap_err();
        assert!(e2.message.contains("NOPE"));
    }

    #[test]
    fn zero_latency_or_interval_is_a_parse_error() {
        let e = pocket_with("iadd latency 1", "iadd latency 0").unwrap_err();
        assert_eq!(e.line, 6);
        let e = pocket_with("iadd latency 1", "iadd latency 1 interval 0").unwrap_err();
        assert!(e.message.contains("at least 1"), "{e}");
    }

    #[test]
    fn feed_past_the_inputs_is_a_parse_error() {
        let e = pocket_with("A.1", "A.5").unwrap_err();
        assert!(e.message.contains("past its unit's inputs"), "{e}");
        // With a unit after it, slot 2 of `A` once wired `C.0` instead.
        let e = pocket_with(
            "  drive A",
            "  fu C class alu inputs 1 {\n  }\n  feed R[1] -> A.2\n  drive A",
        )
        .unwrap_err();
        assert!(e.message.contains("past its unit's inputs"), "{e}");
        // Slots past the model's u8 range do not wrap around to slot 0.
        assert!(pocket_with("A.1", "A.257").is_err());
    }

    #[test]
    fn counts_above_the_cap_are_parse_errors() {
        let over = MAX_COUNT + 1;
        for (from, to) in [
            ("rports 2", format!("rports {over}")),
            ("wports 1", format!("wports {over}")),
            ("inputs 2", format!("inputs {over}")),
            ("fanout 1", format!("fanout {over}")),
            ("iadd latency 1", format!("iadd latency {over}")),
            ("iadd latency 1", format!("iadd latency 1 interval {over}")),
        ] {
            let e = pocket_with(from, &to).unwrap_err();
            assert!(e.message.contains("above the cap"), "{to}: {e}");
        }
        pocket_with("rports 2", &format!("rports {MAX_COUNT}")).unwrap();
    }

    #[test]
    fn duplicate_unit_names_are_parse_errors() {
        let e =
            pocket_with("  drive A", "  fu A class alu inputs 1 {\n  }\n  drive A").unwrap_err();
        assert!(e.message.contains("duplicate fu"), "{e}");
    }

    #[test]
    fn partially_pipelined_capability_round_trips() {
        let arch = imagine::central();
        let text = print(&arch);
        assert!(
            text.contains("interval 4"),
            "divider interval survives printing"
        );
        let parsed = parse(&text).unwrap();
        let div = parsed.fu_by_name("DIV0").unwrap();
        let cap = parsed.fu(div).capability(Opcode::FDiv).unwrap();
        assert_eq!(cap.issue_interval, 4);
    }
}
