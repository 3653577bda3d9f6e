//! Programmatic assembler with labels, fixups, and the data image.

use crate::inst::{Inst, Op};
use crate::mem::Memory;
use crate::program::Program;
use crate::reg::Reg;
use std::collections::HashMap;
use std::fmt;

/// Error produced while assembling a program.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AsmError {
    /// A branch or jump referenced a label that was never defined.
    UndefinedLabel(String),
    /// The same label was defined twice.
    DuplicateLabel(String),
    /// The text segment `[entry, text_end)` overlaps the data blocks, so
    /// the memory image would hold two different bytes at one address.
    TextOverlapsData {
        /// Address of the first instruction.
        entry: u64,
        /// Address one past the last instruction.
        text_end: u64,
    },
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AsmError::UndefinedLabel(l) => write!(f, "undefined label `{l}`"),
            AsmError::DuplicateLabel(l) => write!(f, "duplicate label `{l}`"),
            AsmError::TextOverlapsData { entry, text_end } => write!(
                f,
                "text segment {entry:#x}..{text_end:#x} overlaps the data blocks from {:#x}",
                Assembler::DEFAULT_DATA_BASE
            ),
        }
    }
}

impl std::error::Error for AsmError {}

/// Which field of a pending instruction a label resolves into.
#[derive(Clone, Debug)]
enum Fixup {
    /// PC-relative byte displacement into `imm` (branches, `jal`).
    Relative { index: usize, label: String },
    /// Absolute address into `imm` (e.g. `la` lowered through `lui`/`ori`):
    /// the chunk shifted right by `shift` and masked to 16 bits.
    AbsoluteChunk { index: usize, label: String, shift: u32 },
}

/// Builds TH64 programs instruction by instruction.
///
/// The builder offers one method per opcode plus the usual pseudo-ops
/// (`li`, `la`, `mv`, `jmp`, `call`, `ret`). Control transfers name labels;
/// displacements are resolved by [`Assembler::assemble`]. The `data_*`
/// methods write straight into the program's memory image, the one place a
/// [`Program`]'s initialised memory is built.
///
/// ```
/// use th_isa::{Assembler, Reg};
///
/// # fn main() -> Result<(), th_isa::AsmError> {
/// let mut a = Assembler::new(0x1000);
/// a.li(Reg::X1, 41);
/// a.addi(Reg::X1, Reg::X1, 1);
/// a.halt();
/// let p = a.assemble()?;
/// assert_eq!(p.len(), 3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Assembler {
    entry: u64,
    text: Vec<Inst>,
    labels: HashMap<String, u64>,
    fixups: Vec<Fixup>,
    image: Memory,
    data_cursor: u64,
}

impl Assembler {
    /// Default base address for auto-placed data blocks.
    pub const DEFAULT_DATA_BASE: u64 = 0x10_0000;

    /// Creates an assembler whose first instruction lands at `entry`.
    pub fn new(entry: u64) -> Assembler {
        Assembler {
            entry,
            text: Vec::new(),
            labels: HashMap::new(),
            fixups: Vec::new(),
            image: Memory::new(),
            data_cursor: Self::DEFAULT_DATA_BASE,
        }
    }

    /// Address the next emitted instruction will occupy.
    pub fn here(&self) -> u64 {
        self.entry + self.text.len() as u64 * Inst::SIZE
    }

    /// Defines `name` at the current text position.
    ///
    /// Duplicate definitions are reported by [`Assembler::assemble`].
    pub fn label(&mut self, name: &str) {
        // Record the first definition; a duplicate is flagged at assemble
        // time by shadow-tracking in `duplicates`.
        if self.labels.insert(name.to_string(), self.here()).is_some() {
            self.fixups.push(Fixup::Relative { index: usize::MAX, label: format!("\0dup:{name}") });
        }
    }

    /// Emits a raw instruction.
    pub fn emit(&mut self, inst: Inst) {
        self.text.push(inst);
    }

    // ---- data ----------------------------------------------------------

    /// Defines `name` at the next free data address, reserves `len` bytes
    /// there (the next block starts 8-byte aligned), and returns the address.
    fn place(&mut self, name: &str, len: u64) -> u64 {
        let base = self.data_cursor;
        self.labels.insert(name.to_string(), base);
        self.data_cursor = (base + len + 7) & !7;
        base
    }

    /// Places `bytes` at the next free data address (8-byte aligned),
    /// defines `name` there, and returns the address.
    pub fn data_bytes(&mut self, name: &str, bytes: &[u8]) -> u64 {
        let base = self.place(name, bytes.len() as u64);
        self.image.write_slice(base, bytes);
        base
    }

    /// Places a stream of `u64` values in the data image. The values are
    /// written page by page as the iterator yields them, so a generator
    /// can pass a lazy iterator and never hold the array itself.
    pub fn data_u64s(&mut self, name: &str, values: impl IntoIterator<Item = u64>) -> u64 {
        let bytes = values.into_iter().map(u64::to_le_bytes);
        let len = self.image.write_chunks(self.data_cursor, bytes);
        self.place(name, len)
    }

    /// Places a stream of `f64` values in the data image (see
    /// [`Assembler::data_u64s`]).
    pub fn data_f64s(&mut self, name: &str, values: impl IntoIterator<Item = f64>) -> u64 {
        let bytes = values.into_iter().map(f64::to_le_bytes);
        let len = self.image.write_chunks(self.data_cursor, bytes);
        self.place(name, len)
    }

    /// Reserves `len` zeroed bytes in the data image. Untouched memory
    /// already reads zero, so this allocates no pages.
    pub fn data_zeros(&mut self, name: &str, len: usize) -> u64 {
        self.place(name, len as u64)
    }

    // ---- finishing -----------------------------------------------------

    /// Resolves fixups and produces the program, laying the encoded text
    /// into the image at the entry address.
    ///
    /// # Errors
    ///
    /// Returns [`AsmError::UndefinedLabel`] if any referenced label was
    /// never defined, [`AsmError::DuplicateLabel`] for double
    /// definitions, or [`AsmError::TextOverlapsData`] if the text would
    /// land on data.
    pub fn assemble(mut self) -> Result<Program, AsmError> {
        for fixup in &self.fixups {
            match fixup {
                Fixup::Relative { index, label } => {
                    if let Some(name) = label.strip_prefix("\0dup:") {
                        return Err(AsmError::DuplicateLabel(name.to_string()));
                    }
                    let target = *self
                        .labels
                        .get(label)
                        .ok_or_else(|| AsmError::UndefinedLabel(label.clone()))?;
                    let pc = self.entry + *index as u64 * Inst::SIZE;
                    self.text[*index].imm = target.wrapping_sub(pc) as i64 as i32;
                }
                Fixup::AbsoluteChunk { index, label, shift } => {
                    let target = *self
                        .labels
                        .get(label)
                        .ok_or_else(|| AsmError::UndefinedLabel(label.clone()))?;
                    self.text[*index].imm = ((target >> shift) & 0xffff) as i32;
                }
            }
        }
        let text_end = self.entry.saturating_add(self.text.len() as u64 * Inst::SIZE);
        if self.entry.max(Self::DEFAULT_DATA_BASE) < text_end.min(self.data_cursor) {
            return Err(AsmError::TextOverlapsData { entry: self.entry, text_end });
        }
        let code = self.text.iter().map(|inst| crate::encode(inst).to_le_bytes());
        self.image.write_chunks(self.entry, code);
        Ok(Program {
            entry: self.entry,
            text: self.text.into(),
            image: self.image,
            labels: self.labels,
        })
    }

    // ---- pseudo-instructions --------------------------------------------

    /// Loads an arbitrary 64-bit constant (1–6 instructions).
    pub fn li(&mut self, rd: Reg, value: i64) {
        if let Ok(v) = i32::try_from(value) {
            self.addi(rd, Reg::X0, v);
        } else if let Ok(hi) = i32::try_from(value >> 16) {
            // Fits in 48 bits signed: lui + ori.
            self.lui(rd, hi);
            self.ori(rd, rd, (value & 0xffff) as i32);
        } else {
            let v = value as u64;
            self.lui(rd, ((v >> 48) & 0xffff) as i32);
            self.ori(rd, rd, ((v >> 32) & 0xffff) as i32);
            self.slli(rd, rd, 16);
            self.ori(rd, rd, ((v >> 16) & 0xffff) as i32);
            self.slli(rd, rd, 16);
            self.ori(rd, rd, (v & 0xffff) as i32);
        }
    }

    /// Loads the address of a label (data or text) into `rd`.
    ///
    /// Lowered as `lui` + `ori` pairs covering 48 bits, which is ample for
    /// every address the workloads use.
    pub fn la(&mut self, rd: Reg, label: &str) {
        self.fixups.push(Fixup::AbsoluteChunk {
            index: self.text.len(),
            label: label.to_string(),
            shift: 32,
        });
        self.emit(Inst::rri(Op::Lui, rd, Reg::X0, 0));
        self.fixups.push(Fixup::AbsoluteChunk {
            index: self.text.len(),
            label: label.to_string(),
            shift: 16,
        });
        self.emit(Inst::rri(Op::Ori, rd, rd, 0));
        self.slli(rd, rd, 16);
        self.fixups.push(Fixup::AbsoluteChunk {
            index: self.text.len(),
            label: label.to_string(),
            shift: 0,
        });
        self.emit(Inst::rri(Op::Ori, rd, rd, 0));
    }

    /// Register move (`addi rd, rs, 0`).
    pub fn mv(&mut self, rd: Reg, rs: Reg) {
        self.addi(rd, rs, 0);
    }

    /// Unconditional jump to a label (`jal x0, label`).
    pub fn jmp(&mut self, label: &str) {
        self.jal(Reg::X0, label);
    }

    /// Call: `jal x1, label` (x1 is the link register by convention).
    pub fn call(&mut self, label: &str) {
        self.jal(Reg::X1, label);
    }

    /// Return: `jalr x0, 0(x1)`.
    pub fn ret(&mut self) {
        self.emit(Inst { op: Op::Jalr, rd: Reg::X0, rs1: Reg::X1, rs2: Reg::X0, imm: 0 });
    }

    /// `nop`.
    pub fn nop(&mut self) {
        self.emit(Inst::nop());
    }

    /// `halt`.
    pub fn halt(&mut self) {
        self.emit(Inst::halt());
    }

    fn branch(&mut self, op: Op, rs1: Reg, rs2: Reg, label: &str) {
        self.fixups.push(Fixup::Relative { index: self.text.len(), label: label.to_string() });
        self.emit(Inst { op, rd: Reg::X0, rs1, rs2, imm: 0 });
    }

    /// `jal rd, label`.
    pub fn jal(&mut self, rd: Reg, label: &str) {
        self.fixups.push(Fixup::Relative { index: self.text.len(), label: label.to_string() });
        self.emit(Inst { op: Op::Jal, rd, rs1: Reg::X0, rs2: Reg::X0, imm: 0 });
    }

    /// `jalr rd, imm(rs1)`.
    pub fn jalr(&mut self, rd: Reg, rs1: Reg, imm: i32) {
        self.emit(Inst { op: Op::Jalr, rd, rs1, rs2: Reg::X0, imm });
    }
}

macro_rules! rrr_ops {
    ($($(#[$doc:meta])* $name:ident => $op:ident),* $(,)?) => {
        impl Assembler {
            $(
                $(#[$doc])*
                pub fn $name(&mut self, rd: Reg, rs1: Reg, rs2: Reg) {
                    self.emit(Inst::rrr(Op::$op, rd, rs1, rs2));
                }
            )*
        }
    };
}

macro_rules! rri_ops {
    ($($(#[$doc:meta])* $name:ident => $op:ident),* $(,)?) => {
        impl Assembler {
            $(
                $(#[$doc])*
                pub fn $name(&mut self, rd: Reg, rs1: Reg, imm: i32) {
                    self.emit(Inst::rri(Op::$op, rd, rs1, imm));
                }
            )*
        }
    };
}

macro_rules! load_ops {
    ($($(#[$doc:meta])* $name:ident => $op:ident),* $(,)?) => {
        impl Assembler {
            $(
                $(#[$doc])*
                pub fn $name(&mut self, rd: Reg, imm: i32, base: Reg) {
                    self.emit(Inst { op: Op::$op, rd, rs1: base, rs2: Reg::X0, imm });
                }
            )*
        }
    };
}

macro_rules! store_ops {
    ($($(#[$doc:meta])* $name:ident => $op:ident),* $(,)?) => {
        impl Assembler {
            $(
                $(#[$doc])*
                pub fn $name(&mut self, src: Reg, imm: i32, base: Reg) {
                    self.emit(Inst { op: Op::$op, rd: Reg::X0, rs1: base, rs2: src, imm });
                }
            )*
        }
    };
}

macro_rules! branch_ops {
    ($($(#[$doc:meta])* $name:ident => $op:ident),* $(,)?) => {
        impl Assembler {
            $(
                $(#[$doc])*
                pub fn $name(&mut self, rs1: Reg, rs2: Reg, label: &str) {
                    self.branch(Op::$op, rs1, rs2, label);
                }
            )*
        }
    };
}

macro_rules! unary_ops {
    ($($(#[$doc:meta])* $name:ident => $op:ident),* $(,)?) => {
        impl Assembler {
            $(
                $(#[$doc])*
                pub fn $name(&mut self, rd: Reg, rs1: Reg) {
                    self.emit(Inst { op: Op::$op, rd, rs1, rs2: Reg::X0, imm: 0 });
                }
            )*
        }
    };
}

rrr_ops! {
    /// `add rd, rs1, rs2`
    add => Add,
    /// `sub rd, rs1, rs2`
    sub => Sub,
    /// `and rd, rs1, rs2`
    and => And,
    /// `or rd, rs1, rs2`
    or => Or,
    /// `xor rd, rs1, rs2`
    xor => Xor,
    /// `sll rd, rs1, rs2`
    sll => Sll,
    /// `srl rd, rs1, rs2`
    srl => Srl,
    /// `sra rd, rs1, rs2`
    sra => Sra,
    /// `slt rd, rs1, rs2`
    slt => Slt,
    /// `sltu rd, rs1, rs2`
    sltu => Sltu,
    /// `mul rd, rs1, rs2`
    mul => Mul,
    /// `mulh rd, rs1, rs2`
    mulh => Mulh,
    /// `div rd, rs1, rs2`
    div => Div,
    /// `rem rd, rs1, rs2`
    rem => Rem,
    /// `fadd rd, rs1, rs2` (double precision)
    fadd => Fadd,
    /// `fsub rd, rs1, rs2`
    fsub => Fsub,
    /// `fmul rd, rs1, rs2`
    fmul => Fmul,
    /// `fdiv rd, rs1, rs2`
    fdiv => Fdiv,
    /// `fmin rd, rs1, rs2`
    fmin => Fmin,
    /// `fmax rd, rs1, rs2`
    fmax => Fmax,
    /// `feq rd(x), rs1(f), rs2(f)`
    feq => Feq,
    /// `flt rd(x), rs1(f), rs2(f)`
    flt => Flt,
    /// `fle rd(x), rs1(f), rs2(f)`
    fle => Fle,
}

rri_ops! {
    /// `addi rd, rs1, imm`
    addi => Addi,
    /// `andi rd, rs1, imm`
    andi => Andi,
    /// `ori rd, rs1, imm`
    ori => Ori,
    /// `xori rd, rs1, imm`
    xori => Xori,
    /// `slli rd, rs1, shamt`
    slli => Slli,
    /// `srli rd, rs1, shamt`
    srli => Srli,
    /// `srai rd, rs1, shamt`
    srai => Srai,
    /// `slti rd, rs1, imm`
    slti => Slti,
    /// `sltiu rd, rs1, imm`
    sltiu => Sltiu,
}

impl Assembler {
    /// `lui rd, imm` (`rd = imm << 16`).
    pub fn lui(&mut self, rd: Reg, imm: i32) {
        self.emit(Inst::rri(Op::Lui, rd, Reg::X0, imm));
    }
}

load_ops! {
    /// `lb rd, imm(base)`
    lb => Lb,
    /// `lbu rd, imm(base)`
    lbu => Lbu,
    /// `lh rd, imm(base)`
    lh => Lh,
    /// `lhu rd, imm(base)`
    lhu => Lhu,
    /// `lw rd, imm(base)`
    lw => Lw,
    /// `lwu rd, imm(base)`
    lwu => Lwu,
    /// `ld rd, imm(base)`
    ld => Ld,
    /// `fld fd, imm(base)`
    fld => Fld,
}

store_ops! {
    /// `sb src, imm(base)`
    sb => Sb,
    /// `sh src, imm(base)`
    sh => Sh,
    /// `sw src, imm(base)`
    sw => Sw,
    /// `sd src, imm(base)`
    sd => Sd,
    /// `fsd fsrc, imm(base)`
    fsd => Fsd,
}

branch_ops! {
    /// `beq rs1, rs2, label`
    beq => Beq,
    /// `bne rs1, rs2, label`
    bne => Bne,
    /// `blt rs1, rs2, label`
    blt => Blt,
    /// `bge rs1, rs2, label`
    bge => Bge,
    /// `bltu rs1, rs2, label`
    bltu => Bltu,
    /// `bgeu rs1, rs2, label`
    bgeu => Bgeu,
}

unary_ops! {
    /// `fsqrt fd, fs`
    fsqrt => Fsqrt,
    /// `fcvt.d.l fd, xs` — signed integer to double
    fcvtdl => Fcvtdl,
    /// `fcvt.l.d xd, fs` — double to signed integer (truncating)
    fcvtld => Fcvtld,
    /// `fmv.x.d xd, fs` — raw bit move
    fmvxd => Fmvxd,
    /// `fmv.d.x fd, xs` — raw bit move
    fmvdx => Fmvdx,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::Op;

    #[test]
    fn forward_and_backward_branches_resolve() {
        let mut a = Assembler::new(0x1000);
        a.label("top");
        a.addi(Reg::X1, Reg::X1, 1); // 0x1000
        a.beq(Reg::X1, Reg::X2, "end"); // 0x1008, forward
        a.bne(Reg::X1, Reg::X2, "top"); // 0x1010, backward
        a.label("end");
        a.halt(); // 0x1018
        let p = a.assemble().unwrap();
        assert_eq!(p.text[1].imm, 0x10); // 0x1018 - 0x1008
        assert_eq!(p.text[2].imm, -0x10); // 0x1000 - 0x1010
    }

    #[test]
    fn undefined_label_is_error() {
        let mut a = Assembler::new(0);
        a.jmp("nowhere");
        assert_eq!(a.assemble().unwrap_err(), AsmError::UndefinedLabel("nowhere".into()));
    }

    #[test]
    fn duplicate_label_is_error() {
        let mut a = Assembler::new(0);
        a.label("x");
        a.nop();
        a.label("x");
        assert_eq!(a.assemble().unwrap_err(), AsmError::DuplicateLabel("x".into()));
    }

    #[test]
    fn li_small_is_one_inst() {
        let mut a = Assembler::new(0);
        a.li(Reg::X1, 42);
        let p = a.assemble().unwrap();
        assert_eq!(p.len(), 1);
        assert_eq!(p.text[0].op, Op::Addi);
    }

    #[test]
    fn li_medium_uses_lui() {
        let mut a = Assembler::new(0);
        a.li(Reg::X1, 0x1234_5678_9abc);
        let p = a.assemble().unwrap();
        assert_eq!(p.text[0].op, Op::Lui);
        assert!(p.len() <= 2);
    }

    #[test]
    fn data_segments_are_labelled_and_aligned() {
        let mut a = Assembler::new(0);
        let addr1 = a.data_bytes("a", &[1, 2, 3]);
        let addr2 = a.data_u64s("b", [5, 6]);
        let addr3 = a.data_zeros("c", 5);
        let addr4 = a.data_f64s("d", [1.5]);
        a.halt();
        let p = a.assemble().unwrap();
        assert_eq!(p.label("a"), Some(addr1));
        assert_eq!(p.label("b"), Some(addr2));
        assert_eq!(p.label("c"), Some(addr3));
        assert_eq!(p.label("d"), Some(addr4));
        assert_eq!(addr2 % 8, 0);
        assert!(addr2 >= addr1 + 3);
        assert_eq!((addr3, addr4), (addr2 + 16, addr2 + 24));
        assert_eq!(p.image.read_vec(addr1, 3), [1, 2, 3]);
        assert_eq!(p.image.read_u64(addr2 + 8), 6);
        assert_eq!(p.image.read_u64(addr3), 0);
        assert_eq!(f64::from_bits(p.image.read_u64(addr4)), 1.5);
    }

    #[test]
    fn text_over_data_is_error() {
        let build = |entry, insts| {
            let mut a = Assembler::new(entry);
            a.data_u64s("d", [1]);
            (0..insts).for_each(|_| a.nop());
            a.assemble()
        };
        let base = Assembler::DEFAULT_DATA_BASE;
        assert!(build(base - 8, 1).is_ok(), "text ending where data starts");
        assert!(build(base + 8, 1).is_ok(), "text starting where data ends");
        let text_end = base + 8;
        assert_eq!(
            build(base - 8, 2).unwrap_err(),
            AsmError::TextOverlapsData { entry: base - 8, text_end }
        );
    }

    #[test]
    fn la_resolves_to_label_address() {
        // Verified via interpreter in interp.rs tests as well; here check
        // the chunk fixups directly.
        let mut a = Assembler::new(0x1000);
        let addr = a.data_u64s("arr", [7]);
        a.la(Reg::X2, "arr");
        a.halt();
        let p = a.assemble().unwrap();
        // Layout: lui c32; ori c16; slli 16; ori c0.
        // Reconstruct: ((c32 << 16 | c16) << 16) | c0
        let c32 = p.text[0].imm as u64;
        let c16 = p.text[1].imm as u64;
        let c0 = p.text[3].imm as u64;
        assert_eq!(((c32 << 16 | c16) << 16) | c0, addr);
    }
}
