//! Functional interpreter — the architectural "golden model".
//!
//! The out-of-order timing model in `th-sim` is *oracle driven* (the same
//! structure MASE used): architectural execution happens here, in order, and
//! each executed instruction yields a [`DynInst`] record carrying the real
//! operand values, result value, effective address, and branch outcome. The
//! timing model then charges cycles — including every Thermal Herding width
//! misprediction penalty — against those records. Value-dependent behaviour
//! (operand widths, partial-address locality, partial-value encodings) is
//! therefore measured on real data rather than assumed.

use crate::inst::{Inst, Op};
use crate::mem::Memory;
use crate::program::Program;
use crate::reg::Reg;
use std::fmt;
use std::sync::Arc;

/// A fault raised by the interpreter.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Trap {
    /// The machine has already executed `halt`.
    Halted,
    /// The program counter left the text segment (or became misaligned).
    IllegalPc(u64),
}

impl fmt::Display for Trap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Trap::Halted => write!(f, "machine is halted"),
            Trap::IllegalPc(pc) => write!(f, "illegal program counter {pc:#x}"),
        }
    }
}

impl std::error::Error for Trap {}

/// One architecturally executed (dynamic) instruction.
///
/// This is the record the timing simulator consumes. All values are the
/// *architectural* ones: `rd_val` is the value written (for loads, the loaded
/// data), `ea` the effective address of a memory access, and `next_pc` the
/// architecturally correct successor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DynInst {
    /// Dynamic sequence number (0-based).
    pub seq: u64,
    /// Address of the instruction.
    pub pc: u64,
    /// The static instruction.
    pub inst: Inst,
    /// Architecturally correct next program counter.
    pub next_pc: u64,
    /// Value read from `rs1` (0 if unused).
    pub rs1_val: u64,
    /// Value read from `rs2` (0 if unused). For stores, the data stored.
    pub rs2_val: u64,
    /// Value written to `rd` (0 if none). For loads, the loaded value.
    pub rd_val: u64,
    /// Effective address of a load/store.
    pub ea: Option<u64>,
    /// For control-flow: whether the transfer was taken.
    pub taken: bool,
}

impl DynInst {
    /// Whether this record is a load.
    #[inline]
    pub fn is_load(&self) -> bool {
        self.inst.op.class() == crate::inst::OpClass::Load
    }

    /// Whether this record is a store.
    #[inline]
    pub fn is_store(&self) -> bool {
        self.inst.op.class() == crate::inst::OpClass::Store
    }
}

/// Summary returned by [`Machine::run`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RunSummary {
    /// Instructions executed during this call.
    pub instructions: u64,
    /// Whether the machine reached `halt`.
    pub halted: bool,
}

/// The TH64 functional machine: registers + memory + program counter.
#[derive(Clone, Debug)]
pub struct Machine {
    /// The program's entry and shared text only: fetch reads nothing
    /// else, and the image is already `mem`.
    code: Program,
    regs: [u64; Reg::COUNT],
    pc: u64,
    mem: Memory,
    halted: bool,
    icount: u64,
}

impl Machine {
    /// Creates a machine with the program loaded and `pc` at its entry.
    ///
    /// Copies no data bytes: the machine shares the program's text and starts
    /// from a copy-on-write view of its [`Program::image`], so a store
    /// copies only the page it lands on.
    ///
    /// The stack pointer convention used by the workloads (`x2`) is *not*
    /// initialised here; workloads set up whatever state they need.
    pub fn new(program: &Program) -> Machine {
        Machine {
            code: Program {
                entry: program.entry,
                text: Arc::clone(&program.text),
                ..Program::default()
            },
            mem: program.image.clone(),
            regs: [0; Reg::COUNT],
            pc: program.entry,
            halted: false,
            icount: 0,
        }
    }

    /// Current program counter.
    #[inline]
    pub fn pc(&self) -> u64 {
        self.pc
    }

    /// Whether `halt` has been executed.
    #[inline]
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    /// Total instructions executed so far.
    pub fn instructions(&self) -> u64 {
        self.icount
    }

    /// Reads an architectural register (`x0` always reads zero).
    #[inline]
    pub fn reg(&self, r: Reg) -> u64 {
        if r.is_zero() {
            0
        } else {
            self.regs[r.index()]
        }
    }

    /// Writes an architectural register (writes to `x0` are ignored).
    #[inline]
    pub fn set_reg(&mut self, r: Reg, value: u64) {
        if !r.is_zero() {
            self.regs[r.index()] = value;
        }
    }

    /// Borrow the memory image.
    pub fn mem(&self) -> &Memory {
        &self.mem
    }

    /// Mutably borrow the memory image (e.g. to poke inputs before a run).
    pub fn mem_mut(&mut self) -> &mut Memory {
        &mut self.mem
    }

    /// Executes one instruction.
    ///
    /// # Errors
    ///
    /// [`Trap::Halted`] if `halt` was already executed; [`Trap::IllegalPc`]
    /// if `pc` is outside the text segment.
    #[inline]
    pub fn step(&mut self) -> Result<DynInst, Trap> {
        if self.halted {
            return Err(Trap::Halted);
        }
        let pc = self.pc;
        let inst = *self.code.fetch(pc).ok_or(Trap::IllegalPc(pc))?;
        let rec = self.execute(pc, inst);
        self.pc = rec.next_pc;
        self.icount += 1;
        Ok(rec)
    }

    /// Runs up to `max_steps` instructions, stopping early at `halt`.
    ///
    /// # Errors
    ///
    /// Propagates [`Trap::IllegalPc`]; a prior `halt` yields
    /// `Ok(RunSummary { halted: true, .. })` rather than an error.
    pub fn run(&mut self, max_steps: u64) -> Result<RunSummary, Trap> {
        let mut n = 0;
        while n < max_steps && !self.halted {
            self.step()?;
            n += 1;
        }
        Ok(RunSummary { instructions: n, halted: self.halted })
    }

    #[inline]
    fn execute(&mut self, pc: u64, inst: Inst) -> DynInst {
        use Op::*;
        let rs1 = self.reg(inst.rs1);
        let rs2 = self.reg(inst.rs2);
        let imm = inst.imm as i64;
        let seq_pc = pc.wrapping_add(Inst::SIZE);

        let mut rd_val = 0u64;
        let mut next_pc = seq_pc;
        let mut ea = None;
        let mut taken = false;

        let f1 = f64::from_bits(rs1);
        let f2 = f64::from_bits(rs2);

        match inst.op {
            Add => rd_val = rs1.wrapping_add(rs2),
            Sub => rd_val = rs1.wrapping_sub(rs2),
            And => rd_val = rs1 & rs2,
            Or => rd_val = rs1 | rs2,
            Xor => rd_val = rs1 ^ rs2,
            Sll => rd_val = rs1 << (rs2 & 63),
            Srl => rd_val = rs1 >> (rs2 & 63),
            Sra => rd_val = ((rs1 as i64) >> (rs2 & 63)) as u64,
            Slt => rd_val = ((rs1 as i64) < (rs2 as i64)) as u64,
            Sltu => rd_val = (rs1 < rs2) as u64,
            Mul => rd_val = rs1.wrapping_mul(rs2),
            Mulh => rd_val = (((rs1 as i64 as i128) * (rs2 as i64 as i128)) >> 64) as u64,
            Div => {
                rd_val = if rs2 == 0 {
                    u64::MAX
                } else {
                    (rs1 as i64).wrapping_div(rs2 as i64) as u64
                }
            }
            Rem => {
                rd_val = if rs2 == 0 { rs1 } else { (rs1 as i64).wrapping_rem(rs2 as i64) as u64 }
            }
            Addi => rd_val = rs1.wrapping_add(imm as u64),
            Andi => rd_val = rs1 & imm as u64,
            Ori => rd_val = rs1 | imm as u64,
            Xori => rd_val = rs1 ^ imm as u64,
            Slli => rd_val = rs1 << (imm as u64 & 63),
            Srli => rd_val = rs1 >> (imm as u64 & 63),
            Srai => rd_val = ((rs1 as i64) >> (imm as u64 & 63)) as u64,
            Slti => rd_val = ((rs1 as i64) < imm) as u64,
            Sltiu => rd_val = (rs1 < imm as u64) as u64,
            Lui => rd_val = (imm as u64) << 16,
            Lb | Lbu | Lh | Lhu | Lw | Lwu | Ld | Fld => {
                let addr = rs1.wrapping_add(imm as u64);
                ea = Some(addr);
                rd_val = match inst.op {
                    Lb => self.mem.read_u8(addr) as i8 as i64 as u64,
                    Lbu => self.mem.read_u8(addr) as u64,
                    Lh => self.mem.read_u16(addr) as i16 as i64 as u64,
                    Lhu => self.mem.read_u16(addr) as u64,
                    Lw => self.mem.read_u32(addr) as i32 as i64 as u64,
                    Lwu => self.mem.read_u32(addr) as u64,
                    _ => self.mem.read_u64(addr),
                };
            }
            Sb | Sh | Sw | Sd | Fsd => {
                let addr = rs1.wrapping_add(imm as u64);
                ea = Some(addr);
                match inst.op {
                    Sb => self.mem.write_u8(addr, rs2 as u8),
                    Sh => self.mem.write_u16(addr, rs2 as u16),
                    Sw => self.mem.write_u32(addr, rs2 as u32),
                    _ => self.mem.write_u64(addr, rs2),
                }
            }
            Beq => taken = rs1 == rs2,
            Bne => taken = rs1 != rs2,
            Blt => taken = (rs1 as i64) < (rs2 as i64),
            Bge => taken = (rs1 as i64) >= (rs2 as i64),
            Bltu => taken = rs1 < rs2,
            Bgeu => taken = rs1 >= rs2,
            Jal => {
                rd_val = seq_pc;
                next_pc = pc.wrapping_add(imm as u64);
                taken = true;
            }
            Jalr => {
                rd_val = seq_pc;
                next_pc = rs1.wrapping_add(imm as u64) & !7;
                taken = true;
            }
            Fadd => rd_val = (f1 + f2).to_bits(),
            Fsub => rd_val = (f1 - f2).to_bits(),
            Fmul => rd_val = (f1 * f2).to_bits(),
            Fdiv => rd_val = (f1 / f2).to_bits(),
            Fsqrt => rd_val = f1.sqrt().to_bits(),
            Fmin => rd_val = f1.min(f2).to_bits(),
            Fmax => rd_val = f1.max(f2).to_bits(),
            Feq => rd_val = (f1 == f2) as u64,
            Flt => rd_val = (f1 < f2) as u64,
            Fle => rd_val = (f1 <= f2) as u64,
            Fcvtdl => rd_val = (rs1 as i64 as f64).to_bits(),
            Fcvtld => rd_val = (f1 as i64) as u64, // saturating per Rust cast
            Fmvxd | Fmvdx => rd_val = rs1,
            Nop => {}
            Halt => {
                self.halted = true;
                next_pc = pc;
            }
        }

        if inst.op.is_cond_branch() && taken {
            next_pc = pc.wrapping_add(imm as u64);
        }
        if let Some(rd) = inst.dest() {
            self.set_reg(rd, rd_val);
        } else {
            rd_val = 0;
        }

        DynInst {
            seq: self.icount,
            pc,
            inst,
            next_pc,
            rs1_val: rs1,
            rs2_val: rs2,
            rd_val,
            ea,
            taken: taken || inst.op == Op::Jal || inst.op == Op::Jalr,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Assembler;

    fn run_program(build: impl FnOnce(&mut Assembler)) -> Machine {
        let mut a = Assembler::new(0x1000);
        build(&mut a);
        let p = a.assemble().expect("assembles");
        let mut m = Machine::new(&p);
        m.run(1_000_000).expect("runs");
        assert!(m.is_halted(), "program did not halt");
        m
    }

    #[test]
    fn arithmetic_basics() {
        let m = run_program(|a| {
            a.li(Reg::X1, 7);
            a.li(Reg::X2, -3);
            a.add(Reg::X3, Reg::X1, Reg::X2); // 4
            a.sub(Reg::X4, Reg::X1, Reg::X2); // 10
            a.mul(Reg::X5, Reg::X1, Reg::X2); // -21
            a.div(Reg::X6, Reg::X5, Reg::X1); // -3
            a.rem(Reg::X7, Reg::X1, Reg::X2); // 7 % -3 = 1
            a.halt();
        });
        assert_eq!(m.reg(Reg::X3), 4);
        assert_eq!(m.reg(Reg::X4), 10);
        assert_eq!(m.reg(Reg::X5) as i64, -21);
        assert_eq!(m.reg(Reg::X6) as i64, -3);
        assert_eq!(m.reg(Reg::X7) as i64, 1);
    }

    #[test]
    fn division_edge_cases() {
        let m = run_program(|a| {
            a.li(Reg::X1, 5);
            a.li(Reg::X2, 0);
            a.div(Reg::X3, Reg::X1, Reg::X2); // -1 (all ones)
            a.rem(Reg::X4, Reg::X1, Reg::X2); // dividend
            a.li(Reg::X5, i64::MIN);
            a.li(Reg::X6, -1);
            a.div(Reg::X7, Reg::X5, Reg::X6); // i64::MIN (wraps)
            a.halt();
        });
        assert_eq!(m.reg(Reg::X3), u64::MAX);
        assert_eq!(m.reg(Reg::X4), 5);
        assert_eq!(m.reg(Reg::X7), i64::MIN as u64);
    }

    #[test]
    fn shifts_and_logic() {
        let m = run_program(|a| {
            a.li(Reg::X1, -16);
            a.srai(Reg::X2, Reg::X1, 2); // -4
            a.srli(Reg::X3, Reg::X1, 60); // 15
            a.li(Reg::X4, 0b1100);
            a.andi(Reg::X5, Reg::X4, 0b1010); // 0b1000
            a.xori(Reg::X6, Reg::X4, 0b1010); // 0b0110
            a.halt();
        });
        assert_eq!(m.reg(Reg::X2) as i64, -4);
        assert_eq!(m.reg(Reg::X3), 15);
        assert_eq!(m.reg(Reg::X5), 0b1000);
        assert_eq!(m.reg(Reg::X6), 0b0110);
    }

    #[test]
    fn loads_sign_and_zero_extend() {
        let m = run_program(|a| {
            a.data_bytes("d", &[0xff, 0x80, 0x00, 0x01, 0xfe, 0xff, 0xff, 0xff]);
            a.la(Reg::X10, "d");
            a.lb(Reg::X1, 0, Reg::X10); // -1
            a.lbu(Reg::X2, 0, Reg::X10); // 255
            a.lh(Reg::X3, 0, Reg::X10); // 0x80ff sign-extended
            a.lhu(Reg::X4, 0, Reg::X10); // 0x80ff
            a.lw(Reg::X5, 4, Reg::X10); // 0xfffffffe -> -2
            a.lwu(Reg::X6, 4, Reg::X10); // 0xfffffffe
            a.halt();
        });
        assert_eq!(m.reg(Reg::X1) as i64, -1);
        assert_eq!(m.reg(Reg::X2), 255);
        assert_eq!(m.reg(Reg::X3) as i64, 0x80ffu16 as i16 as i64);
        assert_eq!(m.reg(Reg::X4), 0x80ff);
        assert_eq!(m.reg(Reg::X5) as i64, -2);
        assert_eq!(m.reg(Reg::X6), 0xffff_fffe);
    }

    #[test]
    fn store_then_load_roundtrip() {
        let m = run_program(|a| {
            a.data_zeros("buf", 64);
            a.la(Reg::X10, "buf");
            a.li(Reg::X1, 0x1234_5678_9abc_def0u64 as i64);
            a.sd(Reg::X1, 0, Reg::X10);
            a.ld(Reg::X2, 0, Reg::X10);
            a.sh(Reg::X1, 16, Reg::X10);
            a.lhu(Reg::X3, 16, Reg::X10);
            a.halt();
        });
        assert_eq!(m.reg(Reg::X2), 0x1234_5678_9abc_def0);
        assert_eq!(m.reg(Reg::X3), 0xdef0);
    }

    #[test]
    fn loop_with_counter() {
        let m = run_program(|a| {
            a.li(Reg::X1, 0);
            a.li(Reg::X2, 100);
            a.li(Reg::X3, 0);
            a.label("loop");
            a.add(Reg::X3, Reg::X3, Reg::X1);
            a.addi(Reg::X1, Reg::X1, 1);
            a.blt(Reg::X1, Reg::X2, "loop");
            a.halt();
        });
        assert_eq!(m.reg(Reg::X3), 4950); // sum 0..100
    }

    #[test]
    fn call_and_return() {
        let m = run_program(|a| {
            a.li(Reg::X10, 5);
            a.call("double");
            a.mv(Reg::X11, Reg::X10);
            a.halt();
            a.label("double");
            a.add(Reg::X10, Reg::X10, Reg::X10);
            a.ret();
        });
        assert_eq!(m.reg(Reg::X11), 10);
    }

    #[test]
    fn floating_point_ops() {
        let m = run_program(|a| {
            a.li(Reg::X1, 9);
            a.fcvtdl(Reg::F1, Reg::X1);
            a.fsqrt(Reg::F2, Reg::F1); // 3.0
            a.li(Reg::X2, 4);
            a.fcvtdl(Reg::F3, Reg::X2);
            a.fadd(Reg::F4, Reg::F2, Reg::F3); // 7.0
            a.fmul(Reg::F5, Reg::F4, Reg::F2); // 21.0
            a.fdiv(Reg::F6, Reg::F5, Reg::F3); // 5.25
            a.fcvtld(Reg::X3, Reg::F6); // 5
            a.flt(Reg::X4, Reg::F3, Reg::F2); // 4 < 3 ? 0
            a.fle(Reg::X5, Reg::F2, Reg::F2); // 1
            a.halt();
        });
        assert_eq!(m.reg(Reg::X3), 5);
        assert_eq!(m.reg(Reg::X4), 0);
        assert_eq!(m.reg(Reg::X5), 1);
    }

    #[test]
    fn x0_is_hardwired_zero() {
        let m = run_program(|a| {
            a.li(Reg::X1, 99);
            a.add(Reg::X0, Reg::X1, Reg::X1);
            a.add(Reg::X2, Reg::X0, Reg::X0);
            a.halt();
        });
        assert_eq!(m.reg(Reg::X0), 0);
        assert_eq!(m.reg(Reg::X2), 0);
    }

    #[test]
    fn dyninst_records_are_faithful() {
        let mut a = Assembler::new(0x1000);
        a.li(Reg::X1, 10);
        a.data_zeros("b", 8);
        a.la(Reg::X2, "b");
        a.sd(Reg::X1, 0, Reg::X2);
        a.ld(Reg::X3, 0, Reg::X2);
        a.halt();
        let p = a.assemble().unwrap();
        let buf = p.label("b").unwrap();
        let mut m = Machine::new(&p);
        let mut records = Vec::new();
        loop {
            match m.step() {
                Ok(r) => {
                    let done = r.inst.op == Op::Halt;
                    records.push(r);
                    if done {
                        break;
                    }
                }
                Err(t) => panic!("trap: {t}"),
            }
        }
        let store = records.iter().find(|r| r.is_store()).unwrap();
        assert_eq!(store.ea, Some(buf));
        assert_eq!(store.rs2_val, 10);
        let load = records.iter().find(|r| r.is_load()).unwrap();
        assert_eq!(load.ea, Some(buf));
        assert_eq!(load.rd_val, 10);
        // Sequence numbers are dense and ordered.
        for (i, r) in records.iter().enumerate() {
            assert_eq!(r.seq, i as u64);
        }
    }

    #[test]
    fn stores_stay_in_the_machine_that_made_them() {
        let mut a = Assembler::new(0x1000);
        let d = a.data_u64s("d", [1, 2, 3]);
        a.la(Reg::X10, "d");
        a.li(Reg::X1, 99);
        a.sb(Reg::X1, 0, Reg::X10);
        a.sd(Reg::X1, 16, Reg::X10);
        a.halt();
        let p = a.assemble().unwrap();
        let mut first = Machine::new(&p);
        first.run(100).unwrap();
        assert!(first.is_halted());
        let fresh = Machine::new(&p);
        let words = |m: &Memory| [0, 8, 16].map(|off| m.read_u64(d + off));
        assert_eq!(words(first.mem()), [99, 2, 99]);
        assert_eq!(words(fresh.mem()), [1, 2, 3]);
        assert_eq!(words(&p.image), [1, 2, 3]);
    }

    #[test]
    fn halt_then_step_traps() {
        let mut a = Assembler::new(0);
        a.halt();
        let p = a.assemble().unwrap();
        let mut m = Machine::new(&p);
        let r = m.step().unwrap();
        assert_eq!(r.inst.op, Op::Halt);
        assert!(m.is_halted());
        assert_eq!(m.step(), Err(Trap::Halted));
    }

    #[test]
    fn illegal_pc_traps() {
        let mut a = Assembler::new(0x1000);
        a.nop(); // falls through past the end
        let p = a.assemble().unwrap();
        let mut m = Machine::new(&p);
        m.step().unwrap();
        assert_eq!(m.step(), Err(Trap::IllegalPc(0x1008)));
    }

    #[test]
    fn li_all_widths() {
        for &v in &[
            0i64,
            1,
            -1,
            0x7fff,
            -0x8000,
            0x1234_5678,
            -0x1234_5678,
            0x1234_5678_9abc,
            -0x1234_5678_9abc,
            0x1234_5678_9abc_def0,
            i64::MIN,
            i64::MAX,
        ] {
            let m = run_program(|a| {
                a.li(Reg::X1, v);
                a.halt();
            });
            assert_eq!(m.reg(Reg::X1) as i64, v, "li {v:#x} failed");
        }
    }
}
