//! Text assembler for TH64.
//!
//! A small line-oriented syntax, enough to write tests and examples in
//! readable assembly:
//!
//! ```text
//! # comments run to end of line
//! .entry 0x1000          ; set the text base (default 0x1000)
//! .data  table 1, 2, 3   ; u64 array in the data segment
//! .zeros buf 64          ; zeroed bytes
//!
//!         li   x1, 0
//!         la   x2, table
//! loop:   ld   x3, 0(x2)
//!         add  x1, x1, x3
//!         addi x2, x2, 8
//!         addi x4, x4, 1
//!         slti x5, x4, 3
//!         bne  x5, x0, loop
//!         halt
//! ```

use crate::asm::{AsmError, Assembler};
use crate::inst::{Inst, Op, OpClass};
use crate::program::Program;
use crate::reg::{parse_reg, Reg};
use std::fmt;

/// Error produced by [`parse_asm`], with a 1-based source line number.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

impl From<AsmError> for ParseError {
    fn from(e: AsmError) -> ParseError {
        ParseError { line: 0, message: e.to_string() }
    }
}

fn err(line: usize, message: impl Into<String>) -> ParseError {
    ParseError { line, message: message.into() }
}

fn parse_int(s: &str) -> Option<i64> {
    let s = s.trim();
    let (neg, body) = match s.strip_prefix('-') {
        Some(rest) => (true, rest),
        None => (false, s),
    };
    let value = if let Some(hex) = body.strip_prefix("0x").or_else(|| body.strip_prefix("0X")) {
        i64::from_str_radix(hex, 16).ok().or_else(|| u64::from_str_radix(hex, 16).ok().map(|v| v as i64))?
    } else {
        body.parse::<i64>().ok()?
    };
    Some(if neg { value.wrapping_neg() } else { value })
}

fn parse_reg_or(line: usize, s: &str) -> Result<Reg, ParseError> {
    parse_reg(s.trim()).ok_or_else(|| err(line, format!("expected register, found `{s}`")))
}

fn parse_imm_or(line: usize, s: &str) -> Result<i32, ParseError> {
    let v = parse_int(s).ok_or_else(|| err(line, format!("expected integer, found `{s}`")))?;
    i32::try_from(v).map_err(|_| err(line, format!("immediate `{s}` out of 32-bit range")))
}

/// Parses `imm(base)` memory operand syntax.
fn parse_mem_operand(line: usize, s: &str) -> Result<(i32, Reg), ParseError> {
    let s = s.trim();
    let open = s.find('(').ok_or_else(|| err(line, format!("expected `imm(reg)`, found `{s}`")))?;
    let close = s.rfind(')').ok_or_else(|| err(line, "missing `)`"))?;
    let imm_str = &s[..open];
    let imm = if imm_str.trim().is_empty() { 0 } else { parse_imm_or(line, imm_str)? };
    let base = parse_reg_or(line, &s[open + 1..close])?;
    Ok((imm, base))
}

/// Assembles TH64 source text into a [`Program`].
///
/// # Errors
///
/// Returns [`ParseError`] on syntax errors, unknown mnemonics, malformed
/// operands, or (with line 0) label errors surfaced by the assembler.
///
/// ```
/// use th_isa::{parse_asm, Machine, Reg};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let p = parse_asm("
///     li   x1, 6
///     li   x2, 7
///     mul  x3, x1, x2
///     halt
/// ")?;
/// let mut m = Machine::new(&p);
/// m.run(100)?;
/// assert_eq!(m.reg(Reg::X3), 42);
/// # Ok(())
/// # }
/// ```
pub fn parse_asm(src: &str) -> Result<Program, ParseError> {
    // First pass: find `.entry` so the assembler starts at the right base.
    let mut entry = 0x1000u64;
    for line in src.lines() {
        let line = strip_comment(line).trim();
        if let Some(rest) = line.strip_prefix(".entry") {
            entry = parse_int(rest)
                .ok_or_else(|| err(0, "malformed .entry"))?
                .try_into()
                .map_err(|_| err(0, ".entry must be non-negative"))?;
        }
    }

    let mut a = Assembler::new(entry);
    for (lineno, raw) in src.lines().enumerate() {
        let lineno = lineno + 1;
        let mut line = strip_comment(raw).trim();
        // Leading labels (possibly several).
        while let Some(colon) = line.find(':') {
            let (label, rest) = line.split_at(colon);
            let label = label.trim();
            if label.is_empty() || label.contains(char::is_whitespace) {
                return Err(err(lineno, format!("malformed label `{label}`")));
            }
            a.label(label);
            line = rest[1..].trim();
        }
        if line.is_empty() {
            continue;
        }
        if let Some(directive) = line.strip_prefix('.') {
            parse_directive(&mut a, lineno, directive)?;
            continue;
        }
        parse_instruction(&mut a, lineno, line)?;
    }
    a.assemble().map_err(ParseError::from)
}

fn strip_comment(line: &str) -> &str {
    let cut = line.find(['#', ';']).unwrap_or(line.len());
    &line[..cut]
}

fn parse_directive(a: &mut Assembler, lineno: usize, directive: &str) -> Result<(), ParseError> {
    let (name, rest) = directive.split_once(char::is_whitespace).unwrap_or((directive, ""));
    match name {
        "entry" => Ok(()), // handled in the pre-pass
        "data" => {
            let (label, values) = rest
                .trim()
                .split_once(char::is_whitespace)
                .ok_or_else(|| err(lineno, ".data needs a label and values"))?;
            let vals: Result<Vec<u64>, _> = values
                .split(',')
                .map(|v| {
                    parse_int(v)
                        .map(|i| i as u64)
                        .ok_or_else(|| err(lineno, format!("bad value `{}`", v.trim())))
                })
                .collect();
            a.data_u64s(label.trim(), vals?);
            Ok(())
        }
        "zeros" => {
            let (label, len) = rest
                .trim()
                .split_once(char::is_whitespace)
                .ok_or_else(|| err(lineno, ".zeros needs a label and a length"))?;
            let len = parse_int(len)
                .and_then(|v| usize::try_from(v).ok())
                .ok_or_else(|| err(lineno, "bad .zeros length"))?;
            a.data_zeros(label.trim(), len);
            Ok(())
        }
        other => Err(err(lineno, format!("unknown directive `.{other}`"))),
    }
}

fn parse_instruction(a: &mut Assembler, lineno: usize, line: &str) -> Result<(), ParseError> {
    let (mnemonic, rest) = line.split_once(char::is_whitespace).unwrap_or((line, ""));
    let operands: Vec<&str> =
        rest.split(',').map(str::trim).filter(|s| !s.is_empty()).collect();
    let nops = operands.len();
    let want = |n: usize| -> Result<(), ParseError> {
        if nops == n {
            Ok(())
        } else {
            Err(err(lineno, format!("`{mnemonic}` expects {n} operands, found {nops}")))
        }
    };

    // Pseudo-instructions first.
    match mnemonic {
        "li" => {
            want(2)?;
            let rd = parse_reg_or(lineno, operands[0])?;
            let v = parse_int(operands[1])
                .ok_or_else(|| err(lineno, format!("bad constant `{}`", operands[1])))?;
            a.li(rd, v);
            return Ok(());
        }
        "la" => {
            want(2)?;
            let rd = parse_reg_or(lineno, operands[0])?;
            a.la(rd, operands[1]);
            return Ok(());
        }
        "mv" => {
            want(2)?;
            let rd = parse_reg_or(lineno, operands[0])?;
            let rs = parse_reg_or(lineno, operands[1])?;
            a.mv(rd, rs);
            return Ok(());
        }
        "jmp" | "j" => {
            want(1)?;
            a.jmp(operands[0]);
            return Ok(());
        }
        "call" => {
            want(1)?;
            a.call(operands[0]);
            return Ok(());
        }
        "ret" => {
            want(0)?;
            a.ret();
            return Ok(());
        }
        _ => {}
    }

    let op = *Op::all()
        .iter()
        .find(|o| o.mnemonic() == mnemonic)
        .ok_or_else(|| err(lineno, format!("unknown mnemonic `{mnemonic}`")))?;

    match op.class() {
        OpClass::Misc => {
            want(0)?;
            a.emit(Inst { op, rd: Reg::X0, rs1: Reg::X0, rs2: Reg::X0, imm: 0 });
        }
        OpClass::Load => {
            want(2)?;
            let rd = parse_reg_or(lineno, operands[0])?;
            let (imm, base) = parse_mem_operand(lineno, operands[1])?;
            a.emit(Inst { op, rd, rs1: base, rs2: Reg::X0, imm });
        }
        OpClass::Store => {
            want(2)?;
            let src = parse_reg_or(lineno, operands[0])?;
            let (imm, base) = parse_mem_operand(lineno, operands[1])?;
            a.emit(Inst { op, rd: Reg::X0, rs1: base, rs2: src, imm });
        }
        OpClass::Control => match op {
            Op::Jal => {
                want(2)?;
                let rd = parse_reg_or(lineno, operands[0])?;
                // Accept a numeric byte displacement or a label.
                if let Some(disp) = parse_int(operands[1]) {
                    let imm = i32::try_from(disp)
                        .map_err(|_| err(lineno, "jump displacement out of range"))?;
                    a.emit(Inst { op, rd, rs1: Reg::X0, rs2: Reg::X0, imm });
                } else {
                    a.jal(rd, operands[1]);
                }
            }
            Op::Jalr => {
                want(2)?;
                let rd = parse_reg_or(lineno, operands[0])?;
                let (imm, base) = parse_mem_operand(lineno, operands[1])?;
                a.jalr(rd, base, imm);
                let _ = base;
            }
            _ => {
                want(3)?;
                let rs1 = parse_reg_or(lineno, operands[0])?;
                let rs2 = parse_reg_or(lineno, operands[1])?;
                // Allow numeric displacement or label.
                if let Some(disp) = parse_int(operands[2]) {
                    let imm = i32::try_from(disp)
                        .map_err(|_| err(lineno, "branch displacement out of range"))?;
                    a.emit(Inst { op, rd: Reg::X0, rs1, rs2, imm });
                } else {
                    match op {
                        Op::Beq => a.beq(rs1, rs2, operands[2]),
                        Op::Bne => a.bne(rs1, rs2, operands[2]),
                        Op::Blt => a.blt(rs1, rs2, operands[2]),
                        Op::Bge => a.bge(rs1, rs2, operands[2]),
                        Op::Bltu => a.bltu(rs1, rs2, operands[2]),
                        Op::Bgeu => a.bgeu(rs1, rs2, operands[2]),
                        _ => unreachable!("conditional branch"),
                    }
                }
            }
        },
        _ => {
            if op == Op::Lui {
                want(2)?;
                let rd = parse_reg_or(lineno, operands[0])?;
                let imm = parse_imm_or(lineno, operands[1])?;
                a.lui(rd, imm);
            } else if op.reads_rs2() {
                want(3)?;
                let rd = parse_reg_or(lineno, operands[0])?;
                let rs1 = parse_reg_or(lineno, operands[1])?;
                let rs2 = parse_reg_or(lineno, operands[2])?;
                a.emit(Inst::rrr(op, rd, rs1, rs2));
            } else if matches!(op, Op::Fsqrt | Op::Fcvtdl | Op::Fcvtld | Op::Fmvxd | Op::Fmvdx) {
                want(2)?;
                let rd = parse_reg_or(lineno, operands[0])?;
                let rs1 = parse_reg_or(lineno, operands[1])?;
                a.emit(Inst { op, rd, rs1, rs2: Reg::X0, imm: 0 });
            } else {
                want(3)?;
                let rd = parse_reg_or(lineno, operands[0])?;
                let rs1 = parse_reg_or(lineno, operands[1])?;
                let imm = parse_imm_or(lineno, operands[2])?;
                a.emit(Inst::rri(op, rd, rs1, imm));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::Machine;

    #[test]
    fn parses_and_runs_sum_loop() {
        let p = parse_asm(
            "
            .data table 10, 20, 30
                    li   x1, 0
                    la   x2, table
                    li   x4, 0
            loop:   ld   x3, 0(x2)
                    add  x1, x1, x3
                    addi x2, x2, 8
                    addi x4, x4, 1
                    slti x5, x4, 3
                    bne  x5, x0, loop
                    halt
            ",
        )
        .unwrap();
        let mut m = Machine::new(&p);
        m.run(1000).unwrap();
        assert_eq!(m.reg(Reg::X1), 60);
    }

    #[test]
    fn entry_directive_moves_text() {
        let p = parse_asm(".entry 0x4000\n nop\n halt\n").unwrap();
        assert_eq!(p.entry, 0x4000);
        assert!(p.fetch(0x4000).is_some());
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let p = parse_asm("# header\n\n; another\n nop # trailing\n halt\n").unwrap();
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn unknown_mnemonic_reports_line() {
        let e = parse_asm("nop\n bogus x1, x2\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("bogus"));
    }

    #[test]
    fn operand_count_checked() {
        let e = parse_asm("add x1, x2\n").unwrap_err();
        assert!(e.message.contains("expects 3"));
    }

    #[test]
    fn store_operand_order() {
        let p = parse_asm(
            ".zeros buf 8\n la x2, buf\n li x1, 7\n sd x1, 0(x2)\n ld x3, 0(x2)\n halt\n",
        )
        .unwrap();
        let mut m = Machine::new(&p);
        m.run(100).unwrap();
        assert_eq!(m.reg(Reg::X3), 7);
    }

    #[test]
    fn hex_and_negative_immediates() {
        let p = parse_asm(" li x1, 0x10\n addi x2, x1, -0x8\n halt\n").unwrap();
        let mut m = Machine::new(&p);
        m.run(100).unwrap();
        assert_eq!(m.reg(Reg::X2), 8);
    }

    #[test]
    fn call_ret_roundtrip() {
        let p = parse_asm(
            " li x10, 4\n call dbl\n halt\n dbl: add x10, x10, x10\n ret\n",
        )
        .unwrap();
        let mut m = Machine::new(&p);
        m.run(100).unwrap();
        assert_eq!(m.reg(Reg::X10), 8);
    }

    #[test]
    fn fp_unary_syntax() {
        let p = parse_asm(" li x1, 16\n fcvt.d.l f1, x1\n fsqrt f2, f1\n fcvt.l.d x2, f2\n halt\n")
            .unwrap();
        let mut m = Machine::new(&p);
        m.run(100).unwrap();
        assert_eq!(m.reg(Reg::X2), 4);
    }

    #[test]
    fn labels_on_own_line() {
        let p = parse_asm("start:\n nop\n jmp end\n nop\nend:\n halt\n").unwrap();
        let mut m = Machine::new(&p);
        m.run(100).unwrap();
        assert!(m.is_halted());
        assert_eq!(m.instructions(), 3);
    }
}
