//! Instruction and opcode definitions.

use crate::reg::Reg;
use std::fmt;

/// TH64 opcodes.
///
/// The set is deliberately RISC-flavoured: three-operand register ALU ops,
/// register+immediate ALU ops, sized loads/stores, compare-and-branch, and a
/// compact double-precision floating-point group. This covers every
/// instruction class the paper's datapath techniques distinguish (integer
/// datapath, memory, control, floating point).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(missing_docs)]
pub enum Op {
    // Integer register-register ALU.
    Add,
    Sub,
    And,
    Or,
    Xor,
    Sll,
    Srl,
    Sra,
    Slt,
    Sltu,
    Mul,
    Mulh,
    Div,
    Rem,
    // Integer register-immediate ALU.
    Addi,
    Andi,
    Ori,
    Xori,
    Slli,
    Srli,
    Srai,
    Slti,
    Sltiu,
    /// Load upper immediate: `rd = imm << 16` (builds wide constants).
    Lui,
    // Loads (sign/zero extended as suffix indicates; little endian).
    Lb,
    Lbu,
    Lh,
    Lhu,
    Lw,
    Lwu,
    Ld,
    /// Double-precision FP load (into an `f` register).
    Fld,
    // Stores.
    Sb,
    Sh,
    Sw,
    Sd,
    /// Double-precision FP store (from an `f` register).
    Fsd,
    // Control flow: compare-and-branch plus jumps.
    Beq,
    Bne,
    Blt,
    Bge,
    Bltu,
    Bgeu,
    /// Jump and link: `rd = pc + 8; pc += imm` (direct).
    Jal,
    /// Jump and link register: `rd = pc + 8; pc = (rs1 + imm)` (indirect).
    Jalr,
    // Double-precision floating point (values live in `f` registers as
    // IEEE-754 bit patterns).
    Fadd,
    Fsub,
    Fmul,
    Fdiv,
    Fsqrt,
    Fmin,
    Fmax,
    /// FP compare `rd(int) = (rs1 == rs2)`.
    Feq,
    /// FP compare `rd(int) = (rs1 < rs2)`.
    Flt,
    /// FP compare `rd(int) = (rs1 <= rs2)`.
    Fle,
    /// Convert signed 64-bit integer (rs1, `x`) to double (rd, `f`).
    Fcvtdl,
    /// Convert double (rs1, `f`) to signed 64-bit integer (rd, `x`).
    Fcvtld,
    /// Move raw bits from `f` (rs1) to `x` (rd).
    Fmvxd,
    /// Move raw bits from `x` (rs1) to `f` (rd).
    Fmvdx,
    // Miscellaneous.
    Nop,
    /// Stops the machine; the simulator treats it as end-of-program.
    Halt,
}

/// Broad instruction class, used by the timing model for dispatch rules.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum OpClass {
    /// Integer ALU (including compares, shifts as a subclass via [`FuClass`]).
    IntAlu,
    /// Integer multiply/divide.
    IntMul,
    /// Memory load.
    Load,
    /// Memory store.
    Store,
    /// Conditional branch or jump.
    Control,
    /// Floating-point arithmetic.
    FpAlu,
    /// Floating-point multiply.
    FpMul,
    /// Floating-point divide / square root.
    FpDiv,
    /// No-op / halt.
    Misc,
}

/// Functional-unit class required to execute an instruction, matching the
/// paper's Table 1 execution resources (3 ALU, 2 shift, 1 mult/complex;
/// FP add, FP mult, FP div/sqrt; load/store ports).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FuClass {
    /// Simple integer ALU (3 units).
    IntAlu,
    /// Shifter (2 units).
    IntShift,
    /// Integer multiply/divide/complex (1 unit).
    IntMul,
    /// FP adder (1 unit).
    FpAdd,
    /// FP multiplier (1 unit).
    FpMul,
    /// FP divide/sqrt (1 unit).
    FpDiv,
    /// Memory port: load-or-store capable (1) plus load-only (1).
    Mem,
    /// Needs no functional unit (nop/halt).
    None,
}

impl Op {
    /// The broad class of this opcode.
    #[inline]
    pub fn class(self) -> OpClass {
        use Op::*;
        match self {
            Add | Sub | And | Or | Xor | Sll | Srl | Sra | Slt | Sltu | Addi | Andi | Ori
            | Xori | Slli | Srli | Srai | Slti | Sltiu | Lui => OpClass::IntAlu,
            Mul | Mulh | Div | Rem => OpClass::IntMul,
            Lb | Lbu | Lh | Lhu | Lw | Lwu | Ld | Fld => OpClass::Load,
            Sb | Sh | Sw | Sd | Fsd => OpClass::Store,
            Beq | Bne | Blt | Bge | Bltu | Bgeu | Jal | Jalr => OpClass::Control,
            Fadd | Fsub | Fmin | Fmax | Feq | Flt | Fle | Fcvtdl | Fcvtld | Fmvxd | Fmvdx => {
                OpClass::FpAlu
            }
            Fmul => OpClass::FpMul,
            Fdiv | Fsqrt => OpClass::FpDiv,
            Nop | Halt => OpClass::Misc,
        }
    }

    /// The functional unit class this opcode issues to.
    #[inline]
    pub fn fu_class(self) -> FuClass {
        use Op::*;
        match self.class() {
            OpClass::IntAlu => match self {
                Sll | Srl | Sra | Slli | Srli | Srai => FuClass::IntShift,
                _ => FuClass::IntAlu,
            },
            OpClass::IntMul => FuClass::IntMul,
            OpClass::Load | OpClass::Store => FuClass::Mem,
            OpClass::Control => FuClass::IntAlu,
            OpClass::FpAlu => FuClass::FpAdd,
            OpClass::FpMul => FuClass::FpMul,
            OpClass::FpDiv => FuClass::FpDiv,
            OpClass::Misc => FuClass::None,
        }
    }

    /// Whether this opcode reads `rs1`.
    #[inline]
    pub fn reads_rs1(self) -> bool {
        !matches!(self, Op::Lui | Op::Jal | Op::Nop | Op::Halt)
    }

    /// Whether this opcode reads `rs2`.
    #[inline]
    pub fn reads_rs2(self) -> bool {
        use Op::*;
        matches!(
            self,
            Add | Sub
                | And
                | Or
                | Xor
                | Sll
                | Srl
                | Sra
                | Slt
                | Sltu
                | Mul
                | Mulh
                | Div
                | Rem
                | Sb
                | Sh
                | Sw
                | Sd
                | Fsd
                | Beq
                | Bne
                | Blt
                | Bge
                | Bltu
                | Bgeu
                | Fadd
                | Fsub
                | Fmul
                | Fdiv
                | Fmin
                | Fmax
                | Feq
                | Flt
                | Fle
        )
    }

    /// Whether this opcode writes `rd`.
    #[inline]
    pub fn writes_rd(self) -> bool {
        use Op::*;
        !matches!(
            self,
            Sb | Sh | Sw | Sd | Fsd | Beq | Bne | Blt | Bge | Bltu | Bgeu | Nop | Halt
        )
    }

    /// Whether this opcode is a conditional branch.
    #[inline]
    pub fn is_cond_branch(self) -> bool {
        use Op::*;
        matches!(self, Beq | Bne | Blt | Bge | Bltu | Bgeu)
    }

    /// Whether this opcode is any control transfer (branch or jump).
    #[inline]
    pub fn is_control(self) -> bool {
        self.class() == OpClass::Control
    }

    /// Whether this opcode is an indirect jump.
    #[inline]
    pub fn is_indirect(self) -> bool {
        matches!(self, Op::Jalr)
    }

    /// Whether this opcode accesses memory.
    #[inline]
    pub fn is_mem(self) -> bool {
        matches!(self.class(), OpClass::Load | OpClass::Store)
    }

    /// Memory access size in bytes (loads/stores only).
    #[inline]
    pub fn mem_size(self) -> Option<u8> {
        use Op::*;
        match self {
            Lb | Lbu | Sb => Some(1),
            Lh | Lhu | Sh => Some(2),
            Lw | Lwu | Sw => Some(4),
            Ld | Sd | Fld | Fsd => Some(8),
            _ => None,
        }
    }

    /// The lowercase mnemonic, as accepted by the text assembler.
    pub fn mnemonic(self) -> &'static str {
        use Op::*;
        match self {
            Add => "add",
            Sub => "sub",
            And => "and",
            Or => "or",
            Xor => "xor",
            Sll => "sll",
            Srl => "srl",
            Sra => "sra",
            Slt => "slt",
            Sltu => "sltu",
            Mul => "mul",
            Mulh => "mulh",
            Div => "div",
            Rem => "rem",
            Addi => "addi",
            Andi => "andi",
            Ori => "ori",
            Xori => "xori",
            Slli => "slli",
            Srli => "srli",
            Srai => "srai",
            Slti => "slti",
            Sltiu => "sltiu",
            Lui => "lui",
            Lb => "lb",
            Lbu => "lbu",
            Lh => "lh",
            Lhu => "lhu",
            Lw => "lw",
            Lwu => "lwu",
            Ld => "ld",
            Fld => "fld",
            Sb => "sb",
            Sh => "sh",
            Sw => "sw",
            Sd => "sd",
            Fsd => "fsd",
            Beq => "beq",
            Bne => "bne",
            Blt => "blt",
            Bge => "bge",
            Bltu => "bltu",
            Bgeu => "bgeu",
            Jal => "jal",
            Jalr => "jalr",
            Fadd => "fadd",
            Fsub => "fsub",
            Fmul => "fmul",
            Fdiv => "fdiv",
            Fsqrt => "fsqrt",
            Fmin => "fmin",
            Fmax => "fmax",
            Feq => "feq",
            Flt => "flt",
            Fle => "fle",
            Fcvtdl => "fcvt.d.l",
            Fcvtld => "fcvt.l.d",
            Fmvxd => "fmv.x.d",
            Fmvdx => "fmv.d.x",
            Nop => "nop",
            Halt => "halt",
        }
    }

    /// Every opcode, in encoding order. Useful for exhaustive tests.
    pub fn all() -> &'static [Op] {
        use Op::*;
        &[
            Add, Sub, And, Or, Xor, Sll, Srl, Sra, Slt, Sltu, Mul, Mulh, Div, Rem, Addi, Andi,
            Ori, Xori, Slli, Srli, Srai, Slti, Sltiu, Lui, Lb, Lbu, Lh, Lhu, Lw, Lwu, Ld, Fld,
            Sb, Sh, Sw, Sd, Fsd, Beq, Bne, Blt, Bge, Bltu, Bgeu, Jal, Jalr, Fadd, Fsub, Fmul,
            Fdiv, Fsqrt, Fmin, Fmax, Feq, Flt, Fle, Fcvtdl, Fcvtld, Fmvxd, Fmvdx, Nop, Halt,
        ]
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// A decoded TH64 instruction.
///
/// All instructions share one uniform operand layout — a destination, two
/// sources, and a 32-bit signed immediate — with each opcode using the subset
/// it needs. Unused fields are `x0`/`0`. This uniformity is what lets the
/// out-of-order core in `th-sim` treat renaming and wakeup generically.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Inst {
    /// Opcode.
    pub op: Op,
    /// Destination register (ignored when [`Op::writes_rd`] is false).
    pub rd: Reg,
    /// First source register.
    pub rs1: Reg,
    /// Second source register.
    pub rs2: Reg,
    /// Signed 32-bit immediate (branch/jump displacement in bytes, load/store
    /// offset, ALU immediate, shift amount).
    pub imm: i32,
}

impl Inst {
    /// Size of one encoded instruction in bytes.
    pub const SIZE: u64 = 8;

    /// Builds a register-register instruction.
    pub fn rrr(op: Op, rd: Reg, rs1: Reg, rs2: Reg) -> Inst {
        Inst { op, rd, rs1, rs2, imm: 0 }
    }

    /// Builds a register-immediate instruction.
    pub fn rri(op: Op, rd: Reg, rs1: Reg, imm: i32) -> Inst {
        Inst { op, rd, rs1, rs2: Reg::X0, imm }
    }

    /// A canonical `nop`.
    pub fn nop() -> Inst {
        Inst { op: Op::Nop, rd: Reg::X0, rs1: Reg::X0, rs2: Reg::X0, imm: 0 }
    }

    /// A `halt`.
    pub fn halt() -> Inst {
        Inst { op: Op::Halt, rd: Reg::X0, rs1: Reg::X0, rs2: Reg::X0, imm: 0 }
    }

    /// Source registers this instruction actually reads (excluding `x0`).
    pub fn sources(&self) -> impl Iterator<Item = Reg> + '_ {
        let a = if self.op.reads_rs1() && !self.rs1.is_zero() { Some(self.rs1) } else { None };
        let b = if self.op.reads_rs2() && !self.rs2.is_zero() { Some(self.rs2) } else { None };
        a.into_iter().chain(b)
    }

    /// Destination register, if this instruction writes one (excluding `x0`).
    #[inline]
    pub fn dest(&self) -> Option<Reg> {
        if self.op.writes_rd() && !self.rd.is_zero() {
            Some(self.rd)
        } else {
            None
        }
    }
}

impl fmt::Display for Inst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use OpClass::*;
        match self.op.class() {
            Load => write!(f, "{} {}, {}({})", self.op, self.rd, self.imm, self.rs1),
            Store => write!(f, "{} {}, {}({})", self.op, self.rs2, self.imm, self.rs1),
            Control if self.op == Op::Jal => write!(f, "jal {}, {}", self.rd, self.imm),
            Control if self.op == Op::Jalr => {
                write!(f, "jalr {}, {}({})", self.rd, self.imm, self.rs1)
            }
            Control => write!(f, "{} {}, {}, {}", self.op, self.rs1, self.rs2, self.imm),
            _ if self.op == Op::Nop || self.op == Op::Halt => write!(f, "{}", self.op),
            _ if self.op == Op::Lui => write!(f, "lui {}, {}", self.rd, self.imm),
            _ if self.op.reads_rs2() => {
                write!(f, "{} {}, {}, {}", self.op, self.rd, self.rs1, self.rs2)
            }
            _ if self.op.reads_rs1() => {
                if matches!(self.op, Op::Fsqrt | Op::Fcvtdl | Op::Fcvtld | Op::Fmvxd | Op::Fmvdx)
                {
                    write!(f, "{} {}, {}", self.op, self.rd, self.rs1)
                } else {
                    write!(f, "{} {}, {}, {}", self.op, self.rd, self.rs1, self.imm)
                }
            }
            _ => write!(f, "{} {}, {}", self.op, self.rd, self.imm),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classes_are_consistent() {
        for &op in Op::all() {
            let class = op.class();
            if op.is_mem() {
                assert!(op.mem_size().is_some(), "{op} has no mem size");
                assert_eq!(op.fu_class(), FuClass::Mem);
            } else {
                assert!(op.mem_size().is_none(), "{op} has a mem size");
            }
            if op.is_cond_branch() {
                assert_eq!(class, OpClass::Control);
                assert!(!op.writes_rd());
            }
        }
    }

    #[test]
    fn stores_do_not_write_rd() {
        for &op in &[Op::Sb, Op::Sh, Op::Sw, Op::Sd, Op::Fsd] {
            assert!(!op.writes_rd());
            assert!(op.reads_rs1() && op.reads_rs2());
        }
    }

    #[test]
    fn sources_skip_x0() {
        let i = Inst::rrr(Op::Add, Reg::X1, Reg::X0, Reg::X2);
        let srcs: Vec<_> = i.sources().collect();
        assert_eq!(srcs, vec![Reg::X2]);
        assert_eq!(i.dest(), Some(Reg::X1));

        let store = Inst { op: Op::Sd, rd: Reg::X0, rs1: Reg::X3, rs2: Reg::X4, imm: 8 };
        let srcs: Vec<_> = store.sources().collect();
        assert_eq!(srcs, vec![Reg::X3, Reg::X4]);
        assert_eq!(store.dest(), None);
    }

    #[test]
    fn writes_to_x0_are_not_dests() {
        let i = Inst::rrr(Op::Add, Reg::X0, Reg::X1, Reg::X2);
        assert_eq!(i.dest(), None);
    }

    #[test]
    fn mnemonics_unique() {
        let mut seen = std::collections::HashSet::new();
        for &op in Op::all() {
            assert!(seen.insert(op.mnemonic()), "duplicate mnemonic {}", op.mnemonic());
        }
        assert_eq!(seen.len(), Op::all().len());
    }

    #[test]
    fn display_formats() {
        assert_eq!(Inst::rrr(Op::Add, Reg::X1, Reg::X2, Reg::X3).to_string(), "add x1, x2, x3");
        assert_eq!(Inst::rri(Op::Ld, Reg::X1, Reg::X2, 16).to_string(), "ld x1, 16(x2)");
        assert_eq!(
            Inst { op: Op::Sd, rd: Reg::X0, rs1: Reg::X2, rs2: Reg::X5, imm: -8 }.to_string(),
            "sd x5, -8(x2)"
        );
        assert_eq!(Inst::nop().to_string(), "nop");
    }
}
