//! Assembled program images.

use crate::inst::Inst;
use crate::mem::Memory;
use std::collections::HashMap;
use std::sync::Arc;

/// An assembled TH64 program: a text segment, the initialised memory image,
/// and the label map produced by the assembler.
///
/// Programs are the unit of work handed to both the functional interpreter
/// ([`crate::Machine`]) and the cycle-level simulator in `th-sim`. Cloning a
/// program, or starting a machine from it, shares the text and the image's
/// pages rather than copying them.
#[derive(Clone, Debug, Default)]
pub struct Program {
    /// Address of the first instruction.
    pub entry: u64,
    /// Instructions, contiguous from [`Program::entry`].
    pub text: Arc<[Inst]>,
    /// Initialised memory: the encoded text (so indirect reads of code
    /// behave sensibly) and every data block the assembler placed. Every
    /// machine started from the program begins with a copy-on-write view
    /// of this image.
    pub image: Memory,
    /// Label name → address (text labels and data labels).
    pub labels: HashMap<String, u64>,
}

impl Program {
    /// Fetches the instruction at `pc`, or `None` if `pc` is outside the
    /// text segment or misaligned.
    pub fn fetch(&self, pc: u64) -> Option<&Inst> {
        if pc < self.entry || !(pc - self.entry).is_multiple_of(Inst::SIZE) {
            return None;
        }
        self.text.get(((pc - self.entry) / Inst::SIZE) as usize)
    }

    /// Address one past the last instruction.
    pub fn text_end(&self) -> u64 {
        self.entry + self.text.len() as u64 * Inst::SIZE
    }

    /// Looks up a label address.
    pub fn label(&self, name: &str) -> Option<u64> {
        self.labels.get(name).copied()
    }

    /// Static instruction count.
    pub fn len(&self) -> usize {
        self.text.len()
    }

    /// Whether the text segment is empty.
    pub fn is_empty(&self) -> bool {
        self.text.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Assembler;
    use crate::inst::Op;
    use crate::reg::Reg;

    fn sample() -> Program {
        let mut a = Assembler::new(0x1000);
        a.label("start");
        a.addi(Reg::X1, Reg::X0, 1);
        a.addi(Reg::X2, Reg::X0, 2);
        a.halt();
        a.data_bytes("d", &[9, 8, 7]);
        a.assemble().unwrap()
    }

    #[test]
    fn fetch_in_range() {
        let p = sample();
        assert_eq!(p.fetch(0x1000).unwrap().op, Op::Addi);
        assert_eq!(p.fetch(0x1010).unwrap().op, Op::Halt);
        assert!(p.fetch(0x0ff8).is_none());
        assert!(p.fetch(0x1018).is_none());
        assert!(p.fetch(0x1004).is_none(), "misaligned fetch must fail");
        assert_eq!(p.text_end(), 0x1018);
    }

    #[test]
    fn memory_image_contains_text_and_data() {
        let p = sample();
        let d = p.label("d").unwrap();
        assert_eq!(crate::decode(p.image.read_u64(0x1000)).unwrap(), p.text[0]);
        assert_eq!(p.image.read_u8(d), 9);
        assert_eq!(p.image.read_u8(d + 2), 7);
    }

    #[test]
    fn label_lookup() {
        let p = sample();
        assert_eq!(p.label("start"), Some(0x1000));
        assert_eq!(p.label("missing"), None);
    }
}
