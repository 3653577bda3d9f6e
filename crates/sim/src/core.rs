//! The out-of-order pipeline: fetch → dispatch → issue/execute → commit.
//!
//! Cycle ordering within the loop is commit, completion processing, issue,
//! dispatch, fetch — so a result completing in cycle *c* can wake a
//! dependant that issues in cycle *c* (modelling the bypass network), and
//! a slot freed at commit is reusable the same cycle.
//!
//! The loop is event driven: a completion wheel, per-producer wakeup
//! lists, a ready set walked oldest first, and idle-cycle skipping: when
//! no stage can make progress before cycle *T* it jumps `cycle` straight
//! to *T*, batch-charging the per-cycle stall statistics for the skipped
//! window. Every fetched, uncommitted instruction sits in one ring indexed
//! by its sequence number (see [`crate::event`]). Test builds keep the
//! original scan loop, which walks the whole ROB every cycle, as the
//! reference oracle: the `engine_equivalence` and `engine_golden` test
//! modules require bit-identical [`SimStats`] from both.

use crate::branch::{BranchPredictor, Btb, ReturnStack};
use crate::cache::{CacheKind, MemoryHierarchy};
use crate::config::SimConfig;
use crate::event::{BitRing, CompletionWheel, InFlight};
use crate::lsq::{LoadSearch, Lsq};
use crate::scheduler::{AllocPolicy, Scheduler};
use crate::stats::SimStats;
use th_isa::{DynInst, FuClass, Inst, Machine, Op, OpClass, Program, Trap};
use th_stack3d::Unit;
use th_width::{
    PartialAddressMemoizer, UpperEncoding, Width, WidthMemoFile, WidthPredictor,
};

/// Outcome of a completed simulation.
#[derive(Clone, Debug)]
pub struct SimResult {
    /// Clock frequency the run was priced at, GHz.
    pub clock_ghz: f64,
    /// All counters.
    pub stats: SimStats,
    /// The core loop's own work over the whole run, warmup included.
    pub work: CoreWork,
}

/// What the core loop did to simulate a run: the instructions it
/// committed, how many cycles it stepped through stage by stage, how
/// many idle skipping jumped over, and how many completion events it
/// processed. These count the simulator's work, not the modelled
/// machine's, so they live outside [`SimStats`] and ignore any warmup
/// window; like the statistics they depend only on the program and the
/// configuration.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CoreWork {
    /// Instructions committed.
    pub committed: u64,
    /// Cycles whose stages the loop executed.
    pub cycles_stepped: u64,
    /// Cycles idle skipping jumped over.
    pub cycles_skipped: u64,
    /// Completion events processed.
    pub events: u64,
}

impl CoreWork {
    /// Fraction of simulated cycles that idle skipping jumped over (0
    /// when nothing was simulated).
    pub fn idle_skip_ratio(&self) -> f64 {
        let total = self.cycles_stepped + self.cycles_skipped;
        if total == 0 {
            0.0
        } else {
            self.cycles_skipped as f64 / total as f64
        }
    }
}

impl SimResult {
    /// Committed instructions per cycle.
    pub fn ipc(&self) -> f64 {
        self.stats.ipc()
    }

    /// Committed instructions per nanosecond (Figure 8b's metric):
    /// IPC × frequency.
    pub fn ipns(&self) -> f64 {
        self.stats.ipc() * self.clock_ghz
    }

    /// Wall-clock seconds simulated.
    pub fn seconds(&self) -> f64 {
        self.stats.cycles as f64 / (self.clock_ghz * 1e9)
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum SlotState {
    /// Dispatched, waiting in a reservation station.
    Waiting,
    /// Issued to a functional unit.
    Issued,
    /// Result available.
    Done,
}

/// One in-flight instruction. Fetch writes the front-end fields (`di`
/// through `rf_charged`); dispatch fills in the rest where the entry
/// sits, so until then they hold a previous occupant's values.
#[derive(Clone, Copy, Debug)]
struct Slot {
    di: DynInst,
    /// `di.inst.op.class()` and `.fu_class()`, looked up once at fetch.
    class: OpClass,
    fu: FuClass,
    /// Cycle the instruction clears the front-end pipe.
    dispatch_ready_at: u64,
    /// Branch whose direction/target was mispredicted at fetch.
    mispredicted: bool,
    /// The one-per-group register-read width stall has been applied.
    rf_charged: bool,
    state: SlotState,
    rs_die: Option<usize>,
    /// Producers of the two sources, read by the scan reference's issue.
    #[cfg(test)]
    src_seq: [Option<u64>; 2],
    complete_at: u64,
    pred_width: Width,
    in_width: Width,
    out_width: Width,
    unsafe_in: bool,
    unsafe_out: bool,
    /// Set once writeback statistics have been recorded.
    wrote_back: bool,
    /// Number of unresolved source operands.
    deps: u8,
    /// The completion event has fired, so the result is visible to
    /// consumers (equivalent to `Done && complete_at <= cycle`).
    visible: bool,
}

impl Slot {
    /// The in-flight ring's initial contents.
    fn filler() -> Slot {
        let di = DynInst {
            seq: 0,
            pc: 0,
            inst: Inst::nop(),
            next_pc: 0,
            rs1_val: 0,
            rs2_val: 0,
            rd_val: 0,
            ea: None,
            taken: false,
        };
        Slot {
            di,
            class: OpClass::Misc,
            fu: FuClass::None,
            dispatch_ready_at: 0,
            mispredicted: false,
            rf_charged: false,
            state: SlotState::Waiting,
            rs_die: None,
            #[cfg(test)]
            src_seq: [None, None],
            complete_at: u64::MAX,
            pred_width: Width::Full,
            in_width: Width::Full,
            out_width: Width::Full,
            unsafe_in: false,
            unsafe_out: false,
            wrote_back: false,
            deps: 0,
            visible: false,
        }
    }
}

/// Per-producer wakeup lists threaded through flat arrays: a consumer
/// parks one node per unresolved source operand on its producer's list.
/// Producer heads and consumer nodes are keyed by sequence number on
/// power-of-two rings spanning one full ROB plus a commit group, so the
/// sequence numbers live at any instant (in-flight producers, plus
/// producers committed earlier in the cycle whose completion event fires
/// this cycle) can never collide. A list's order does not matter: waking
/// only counts down each consumer's unresolved operands.
#[derive(Clone, Debug)]
struct WaiterTable {
    /// First node of each producer's list.
    heads: Vec<u32>,
    /// Per node (consumer seq × source operand): the next node of its
    /// list, and the consumer.
    next: Vec<u32>,
    consumer: Vec<u64>,
    mask: u64,
}

/// End of a wakeup list.
const NO_WAITER: u32 = u32::MAX;

/// Per-cycle free functional-unit budget, reset at every issue stage.
struct FuFree {
    alu: usize,
    shift: usize,
    mul: usize,
    fp_add: usize,
    fp_mul: usize,
    fp_div: usize,
    st_ports: usize,
    ld_ports: usize,
}

impl FuFree {
    fn new(core: &crate::config::CoreParams) -> FuFree {
        FuFree {
            alu: core.int_alu,
            shift: core.int_shift,
            mul: core.int_mul,
            fp_add: core.fp_add,
            fp_mul: core.fp_mul,
            fp_div: core.fp_div,
            st_ports: core.mem_ports,
            ld_ports: core.mem_ports + core.load_only_ports,
        }
    }
}

impl WaiterTable {
    fn new(rob_size: usize, commit_width: usize) -> WaiterTable {
        let cap = (rob_size + commit_width + 1).next_power_of_two();
        WaiterTable {
            heads: vec![NO_WAITER; cap],
            next: vec![NO_WAITER; 2 * cap],
            consumer: vec![0; 2 * cap],
            mask: cap as u64 - 1,
        }
    }

    /// Parks source operand `operand` (0 or 1) of `consumer` on
    /// `producer`'s list.
    fn add(&mut self, producer: u64, consumer: u64, operand: usize) {
        let node = (consumer & self.mask) as usize * 2 + operand;
        let head = &mut self.heads[(producer & self.mask) as usize];
        self.next[node] = *head;
        self.consumer[node] = consumer;
        *head = node as u32;
    }

    /// Detaches `producer`'s list and returns its first node.
    fn take(&mut self, producer: u64) -> u32 {
        std::mem::replace(&mut self.heads[(producer & self.mask) as usize], NO_WAITER)
    }

    /// The consumer parked at `node`, and the list's next node.
    fn at(&self, node: u32) -> (u64, u32) {
        (self.consumer[node as usize], self.next[node as usize])
    }

    fn clear(&mut self) {
        self.heads.fill(NO_WAITER);
    }
}

/// The simulator: configure once, run programs.
#[derive(Clone, Debug)]
pub struct Simulator {
    cfg: SimConfig,
    #[cfg(test)]
    engine: CoreEngine,
}

/// Which core loop a test-build [`Simulator`] runs: the production event
/// loop, or the per-cycle scan loop it must match bit for bit.
#[cfg(test)]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum CoreEngine {
    /// Walk the full ROB every cycle (the seed implementation).
    Scan,
    /// The production loop.
    Event,
}

impl Simulator {
    /// Creates a simulator for the given configuration.
    pub fn new(cfg: SimConfig) -> Simulator {
        Simulator {
            cfg,
            #[cfg(test)]
            engine: CoreEngine::Event,
        }
    }

    /// Selects the core loop the simulator runs.
    #[cfg(test)]
    pub(crate) fn with_engine(self, engine: CoreEngine) -> Simulator {
        Simulator { engine, ..self }
    }

    fn core(&self, program: &Program) -> Core {
        let core = Core::new(&self.cfg, program);
        #[cfg(test)]
        let core = Core { engine: self.engine, ..core };
        core
    }

    /// The configuration.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Runs `program` until it halts or `max_insts` instructions commit.
    ///
    /// # Errors
    ///
    /// Propagates [`th_isa::Trap::IllegalPc`] if the program runs off its
    /// text segment.
    ///
    /// # Panics
    ///
    /// Panics if the pipeline deadlocks (an internal invariant violation,
    /// guarded by a commit watchdog).
    pub fn run(&self, program: &Program, max_insts: u64) -> Result<SimResult, Trap> {
        self.core(program).run(0, max_insts)
    }

    /// Like [`Simulator::run`], but discards the first `warmup_insts`
    /// committed instructions from the reported statistics. Caches,
    /// predictors, and all other state stay warm across the boundary —
    /// this mirrors SimPoint-style measurement where cold-start effects
    /// are excluded from the window.
    ///
    /// # Errors
    ///
    /// Propagates [`th_isa::Trap::IllegalPc`] like [`Simulator::run`].
    pub fn run_with_warmup(
        &self,
        program: &Program,
        warmup_insts: u64,
        max_insts: u64,
    ) -> Result<SimResult, Trap> {
        self.core(program).run(warmup_insts, max_insts)
    }
}

/// An incremental simulation: the same pipeline as [`Simulator::run`],
/// advanced in caller-controlled cycle intervals with the configuration
/// adjustable *between* intervals. This is the co-simulation entry point —
/// a thermal control loop runs an interval, reads the activity delta from
/// [`SimSession::stats`], and feeds back a DVFS or fetch-throttle decision
/// before the next interval.
///
/// Interval boundaries are invisible to the simulation: chopping a run
/// into any sequence of intervals (with no knob changes) produces
/// bit-identical statistics to one uninterrupted [`Simulator::run`].
///
/// ```no_run
/// use th_sim::{SimConfig, SimSession};
/// # let program = th_isa::parse_asm("halt").unwrap();
/// let mut sess = SimSession::new(SimConfig::baseline(), &program);
/// let before = sess.stats().snapshot();
/// sess.run_interval(100_000).unwrap();
/// let delta = sess.stats().delta(&before); // this interval's activity
/// sess.set_clock_ghz(2.0); // throttle the next interval
/// ```
#[derive(Clone, Debug)]
pub struct SimSession {
    core: Core,
    finished: bool,
}

impl SimSession {
    /// Starts a session at cycle 0 with cold caches and predictors.
    pub fn new(cfg: SimConfig, program: &Program) -> SimSession {
        SimSession { core: Core::new(&cfg, program), finished: false }
    }

    /// Runs at most `cycle_budget` further cycles (at least 1). Returns
    /// whether the program has finished — halted with the pipeline
    /// drained. Once finished, further calls are no-ops until
    /// [`SimSession::restart`].
    ///
    /// # Errors
    ///
    /// Propagates [`th_isa::Trap::IllegalPc`] like [`Simulator::run`].
    ///
    /// # Panics
    ///
    /// Panics on pipeline deadlock, like [`Simulator::run`].
    pub fn run_interval(&mut self, cycle_budget: u64) -> Result<bool, Trap> {
        if !self.finished {
            let until = self.core.cycle.saturating_add(cycle_budget.max(1));
            let mut no_warmup = None;
            self.finished = self.core.run_until(0, u64::MAX, until, &mut no_warmup)?;
            debug_assert!(no_warmup.is_none());
        }
        // Sync the derived counters so `stats()` prices as-is.
        self.core.stats.cycles = self.core.cycle.max(1);
        self.core.stats.width_pred = *self.core.width_pred.stats();
        self.core.stats.pam = *self.core.pam.stats();
        Ok(self.finished)
    }

    /// Cumulative statistics since the session started (across restarts).
    /// Snapshot before an interval and [`SimStats::delta`] after it for
    /// the per-interval activity.
    pub fn stats(&self) -> &SimStats {
        &self.core.stats
    }

    /// Current cycle number.
    pub fn cycle(&self) -> u64 {
        self.core.cycle
    }

    /// The core loop's work since the session started (across restarts).
    pub fn work(&self) -> CoreWork {
        self.core.work()
    }

    /// Whether the program has halted and the pipeline drained.
    pub fn finished(&self) -> bool {
        self.finished
    }

    /// The current (possibly DTM-adjusted) configuration.
    pub fn config(&self) -> &SimConfig {
        &self.core.cfg
    }

    /// Changes the clock for subsequent intervals (DVFS). Latencies fixed
    /// in wall-clock time — DRAM — are repriced in cycles; cache and
    /// predictor state is untouched.
    pub fn set_clock_ghz(&mut self, ghz: f64) {
        self.core.cfg.clock_ghz = ghz;
        self.core.hierarchy.retime(&self.core.cfg);
    }

    /// Changes the fetch width for subsequent intervals (fetch throttling).
    /// Clamped to `1..=ifq_size`.
    pub fn set_fetch_width(&mut self, width: usize) {
        self.core.cfg.core.fetch_width = width.clamp(1, self.core.cfg.core.ifq_size);
    }

    /// Re-runs `program` from its entry point with warm caches and
    /// predictors; cycles and statistics keep accumulating. Use after
    /// [`SimSession::run_interval`] reports the program finished, to model
    /// a workload that loops for the whole co-simulation window.
    ///
    /// # Panics
    ///
    /// Debug-asserts that the pipeline has drained.
    pub fn restart(&mut self, program: &Program) {
        self.core.restart(program);
        self.finished = false;
    }
}

#[derive(Clone, Debug)]
struct Core {
    cfg: SimConfig,
    machine: Machine,
    stats: SimStats,
    hierarchy: MemoryHierarchy,
    bpred: BranchPredictor,
    btb: Btb,
    ibtb: Btb,
    ras: ReturnStack,
    width_pred: WidthPredictor,
    /// §3.1: the per-register width memoization bits on the top die. With
    /// in-order dispatch the bits are updated in program order, so a read
    /// always sees its producer's width.
    width_memo: WidthMemoFile,
    pam: PartialAddressMemoizer,
    scheduler: Scheduler,
    lsq: Lsq,
    /// The ROB and the IFQ, one ring indexed by sequence number. The
    /// sequence number is the interpreter's instruction count: fetch
    /// never squashes (the oracle fetches no wrong path) and a restart
    /// happens only on a drained pipeline, so it stays contiguous.
    inflight: InFlight<Slot>,
    rename: [Option<u64>; 64],
    cycle: u64,
    /// Fetch is stalled until this cycle (I-cache misses, BTB bubbles,
    /// redirect recovery).
    fetch_resume_at: u64,
    /// Sequence number of an unresolved mispredicted branch: fetch is
    /// blocked until it completes.
    redirect_pending: Option<u64>,
    fetch_done: bool,
    /// Non-pipelined units.
    int_div_busy_until: u64,
    fp_div_busy_until: u64,
    /// IFQ entries with `dispatch_ready_at <= cycle`. Front-end depth is
    /// constant, so matured entries always form a queue prefix and the
    /// count replaces the per-cycle `iter().filter().count()`.
    ifq_matured: usize,
    /// Pending completion events, drained in `(cycle, seq)` order.
    ev_wheel: CompletionWheel,
    /// Waiting slots whose operands are all resolved, walked oldest
    /// first from the ROB head (the scan reference's issue priority).
    ev_ready: BitRing,
    /// Who to wake when a producer's result becomes visible.
    ev_waiters: WaiterTable,
    /// Deadlock-watchdog anchor: the last cycle anything committed.
    last_commit_cycle: u64,
    work: CoreWork,
    #[cfg(test)]
    engine: CoreEngine,
}

impl Core {
    fn new(cfg: &SimConfig, program: &Program) -> Core {
        let policy = if cfg.herding.enabled && cfg.herding.rs_herding {
            AllocPolicy::HerdTopFirst
        } else {
            AllocPolicy::RoundRobin
        };
        Core {
            cfg: *cfg,
            machine: Machine::new(program),
            stats: SimStats::default(),
            hierarchy: MemoryHierarchy::new(cfg),
            bpred: BranchPredictor::new(),
            btb: Btb::new(512, 4), // 2K entries
            ibtb: Btb::new(128, 4), // 512 entries
            ras: ReturnStack::new(16),
            width_pred: WidthPredictor::new(cfg.herding.predictor_entries),
            width_memo: WidthMemoFile::new(th_isa::Reg::COUNT, cfg.herding.policy),
            pam: PartialAddressMemoizer::new(),
            scheduler: Scheduler::new(cfg.core.rs_size, policy),
            lsq: Lsq::new(cfg.core.lq_size, cfg.core.sq_size),
            // A full ROB, a full IFQ and the fetch groups still in the
            // front-end pipe; the ring grows if that is ever exceeded.
            inflight: InFlight::new(
                cfg.core.rob_size
                    + cfg.core.ifq_size
                    + cfg.core.fetch_width * (cfg.pipeline.frontend_depth as usize + 1),
                Slot::filler(),
            ),
            rename: [None; 64],
            cycle: 0,
            fetch_resume_at: 0,
            redirect_pending: None,
            fetch_done: false,
            int_div_busy_until: 0,
            fp_div_busy_until: 0,
            ifq_matured: 0,
            ev_wheel: CompletionWheel::new(
                Self::wheel_span(cfg),
                cfg.core.rob_size + cfg.core.commit_width + 1,
            ),
            ev_ready: BitRing::new(cfg.core.rob_size + 1),
            ev_waiters: WaiterTable::new(cfg.core.rob_size, cfg.core.commit_width),
            last_commit_cycle: 0,
            work: CoreWork::default(),
            #[cfg(test)]
            engine: CoreEngine::Event,
        }
    }

    /// The completion wheel's bucket span: the slowest memory access at
    /// the starting clock, with room to spare. A DVFS change reprices
    /// DRAM in cycles, and anything due later waits in the wheel's
    /// overflow.
    fn wheel_span(cfg: &SimConfig) -> usize {
        let worst = cfg.dram_cycles()
            + cfg.pipeline.l2_latency
            + cfg.mem.l1_latency
            + cfg.mem.tlb_miss_penalty
            + cfg.lat.agu;
        (worst + 64) as usize
    }

    /// Whether the scan reference drives the loop (test builds only).
    #[cfg(test)]
    fn scan_reference(&self) -> bool {
        self.engine == CoreEngine::Scan
    }

    #[cfg(not(test))]
    fn scan_reference(&self) -> bool {
        false
    }

    /// The loop's work so far.
    fn work(&self) -> CoreWork {
        CoreWork { committed: self.stats.committed, ..self.work }
    }

    fn run(mut self, warmup_insts: u64, max_insts: u64) -> Result<SimResult, Trap> {
        let mut warmup_snapshot: Option<SimStats> = None;
        self.run_until(warmup_insts, max_insts, u64::MAX, &mut warmup_snapshot)?;
        let work = self.work();
        self.stats.cycles = self.cycle.max(1);
        self.stats.width_pred = *self.width_pred.stats();
        self.stats.pam = *self.pam.stats();
        if let Some(snapshot) = warmup_snapshot {
            // Only subtract if the measurement window is non-empty.
            if self.stats.committed > snapshot.committed && self.stats.cycles > snapshot.cycles {
                self.stats.subtract_prefix(&snapshot);
            }
        }
        self.stats.cycles = self.stats.cycles.max(1);
        Ok(SimResult { clock_ghz: self.cfg.clock_ghz, stats: self.stats, work })
    }

    /// The cycle loop, stoppable at an interval boundary. Runs until the
    /// program drains (returns `true`), `max_insts` commit, or `cycle`
    /// reaches `until_cycle` (both `false`). Stopping at `until_cycle`
    /// leaves that cycle's stages unexecuted, so resuming with a later
    /// bound replays the exact (cycle, stage) sequence of an uninterrupted
    /// run — interval chopping cannot change the simulation. The idle
    /// skip may overshoot `until_cycle`; the overshoot lands in the next
    /// interval's cycle count, which is the correct accounting (those
    /// cycles are genuinely idle).
    fn run_until(
        &mut self,
        warmup_insts: u64,
        max_insts: u64,
        until_cycle: u64,
        warmup_snapshot: &mut Option<SimStats>,
    ) -> Result<bool, Trap> {
        while self.stats.committed < max_insts && self.cycle < until_cycle {
            let committed_before = self.stats.committed;
            self.work.cycles_stepped += 1;
            self.commit();
            self.complete_and_issue();
            self.dispatch();
            self.fetch()?;
            if self.stats.committed > committed_before {
                self.last_commit_cycle = self.cycle;
            }
            if warmup_snapshot.is_none()
                && warmup_insts > 0
                && self.stats.committed >= warmup_insts
            {
                self.stats.cycles = self.cycle;
                self.stats.width_pred = *self.width_pred.stats();
                self.stats.pam = *self.pam.stats();
                *warmup_snapshot = Some(self.stats.clone());
            }
            if self.fetch_done && self.inflight.is_empty() {
                return Ok(true);
            }
            assert!(
                self.cycle - self.last_commit_cycle < 200_000,
                "pipeline deadlock at cycle {} (rob {}, ifq {})",
                self.cycle,
                self.inflight.rob_len(),
                self.inflight.ifq_len()
            );
            if !self.scan_reference() && self.stats.committed < max_insts {
                self.cycle = self.next_cycle(self.last_commit_cycle);
            } else {
                self.cycle += 1;
            }
        }
        Ok(false)
    }

    /// Resets architectural state to re-run `program` from its entry point
    /// while keeping the microarchitectural state — caches, TLBs, branch
    /// predictors, width predictor — warm, plus the cycle count and
    /// statistics, which keep accumulating. Used by [`SimSession`] to loop
    /// a workload across co-simulation intervals. Only call once the
    /// pipeline has drained.
    fn restart(&mut self, program: &Program) {
        debug_assert!(self.inflight.is_empty(), "restart mid-flight");
        let policy = if self.cfg.herding.enabled && self.cfg.herding.rs_herding {
            AllocPolicy::HerdTopFirst
        } else {
            AllocPolicy::RoundRobin
        };
        self.machine = Machine::new(program);
        self.inflight.clear();
        self.rename = [None; 64];
        // Fresh architectural registers are all zero, so the memoization
        // bits must drop back to their reset (low-width) state.
        self.width_memo = WidthMemoFile::new(th_isa::Reg::COUNT, self.cfg.herding.policy);
        self.scheduler = Scheduler::new(self.cfg.core.rs_size, policy);
        self.lsq = Lsq::new(self.cfg.core.lq_size, self.cfg.core.sq_size);
        self.ifq_matured = 0;
        self.fetch_done = false;
        self.redirect_pending = None;
        self.ev_wheel.clear();
        self.ev_ready.clear();
        self.ev_waiters.clear();
        self.fetch_resume_at = self.fetch_resume_at.max(self.cycle);
        self.last_commit_cycle = self.cycle;
    }

    // ---------------------------------------------------------------- fetch

    fn fetch(&mut self) -> Result<(), Trap> {
        if self.fetch_done || self.redirect_pending.is_some() || self.cycle < self.fetch_resume_at
        {
            if !self.fetch_done {
                self.stats.fetch_stall_cycles += 1;
            }
            return Ok(());
        }
        // The IFQ holds instructions that have cleared the front-end pipe
        // but not yet dispatched; instructions still flowing through the
        // fetch/decode/rename stages occupy pipe latches, not IFQ slots.
        // `ifq_matured` was brought up to date by dispatch this cycle.
        debug_assert_eq!(
            self.ifq_matured,
            (0..self.inflight.ifq_len())
                .filter_map(|i| self.inflight.ifq(i))
                .filter(|f| f.dispatch_ready_at <= self.cycle)
                .count()
        );
        if self.ifq_matured + self.cfg.core.fetch_width > self.cfg.core.ifq_size {
            self.stats.ifq_full_stalls += 1;
            return Ok(());
        }
        if self.machine.is_halted() {
            self.fetch_done = true;
            return Ok(());
        }

        // One I-cache access per fetch cycle at the current fetch PC.
        let fetch_pc = self.machine.pc();
        let ic = self.hierarchy.fetch(fetch_pc);
        self.stats.icache_accesses += 1;
        self.stats.itlb_accesses += 1;
        self.stats.activity.record_full(Unit::ICache);
        self.stats.activity.record_full(Unit::Itlb);
        if ic.tlb_miss {
            self.stats.itlb_misses += 1;
        }
        self.stats.spill_fill_transfers += ic.spill_fills;
        // I-side spill/fill traffic burns on the shared L2's ports; the
        // line transfer into the L1-I is already part of the miss access.
        self.stats.activity.add_full(Unit::L2, ic.spill_fills);
        if ic.level != CacheKind::L1 {
            self.stats.icache_misses += 1;
            self.stats.l2_accesses += 1;
            self.stats.activity.record_full(Unit::L2);
            if ic.level == CacheKind::Dram {
                self.stats.l2_misses += 1;
                self.stats.dram_accesses += 1;
            }
            self.fetch_resume_at = self.cycle + ic.cycles;
            return Ok(());
        }

        let mut bubbles = 0u64;
        for _ in 0..self.cfg.core.fetch_width {
            if self.machine.is_halted() {
                self.fetch_done = true;
                break;
            }
            let di = self.machine.step()?;
            self.stats.fetched += 1;
            self.stats.activity.record_full(Unit::Decode);
            let (mispredicted, taken, extra_bubbles) = self.predict_control(&di);
            bubbles += extra_bubbles;
            let slot = self.inflight.push(di.seq);
            slot.di = di;
            slot.class = di.inst.op.class();
            slot.fu = di.inst.op.fu_class();
            slot.dispatch_ready_at = self.cycle + self.cfg.pipeline.frontend_depth;
            slot.mispredicted = mispredicted;
            slot.rf_charged = false;
            if mispredicted {
                self.redirect_pending = Some(di.seq);
                break;
            }
            if taken {
                // A taken transfer ends the fetch group.
                break;
            }
        }
        if bubbles > 0 && self.redirect_pending.is_none() {
            self.fetch_resume_at = self.cycle + 1 + bubbles;
        }
        Ok(())
    }

    /// Predicts a control instruction at fetch, trains the predictors,
    /// and returns `(mispredicted, ends_fetch_group, bubble_cycles)`.
    fn predict_control(&mut self, di: &DynInst) -> (bool, bool, u64) {
        let op = di.inst.op;
        if !op.is_control() {
            return (false, false, 0);
        }
        let pc = di.pc;
        let herding = self.cfg.herding.enabled;
        let mut bubbles = 0u64;

        if op.is_cond_branch() {
            self.stats.cond_branches += 1;
            self.stats.bpred_lookups += 1;
            self.stats.bpred_updates += 1;
            self.stats.activity.add_full(Unit::Bpred, 2);
            let pred = self.bpred.predict(pc);
            let actual = di.taken;
            self.bpred.update(pc, pred, actual);
            let mut mispredicted = pred.taken != actual;
            if pred.taken {
                self.stats.btb_lookups += 1;
                let out = self.btb.lookup(pc);
                match out.target {
                    Some(t) => {
                        self.stats.btb_hits += 1;
                        if out.needs_lower_dies {
                            self.stats.activity.record_full(Unit::Btb);
                            if herding {
                                // §3.7: one-cycle stall to read the upper
                                // target bits from the lower dies.
                                self.stats.btb_full_target_stalls += 1;
                                bubbles += 1;
                            }
                        } else {
                            self.stats.btb_partial_target_hits += 1;
                            self.record_btb_partial_hit(herding);
                        }
                        if actual && t != di.next_pc {
                            mispredicted = true;
                        }
                    }
                    None => {
                        // Predicted taken with no target: redirect at
                        // decode once the displacement is known.
                        self.stats.activity.record_full(Unit::Btb);
                        bubbles += 2;
                    }
                }
            }
            if actual {
                self.stats.btb_updates += 1;
                self.stats.activity.record_full(Unit::Btb);
                self.btb.update(pc, di.next_pc);
            }
            return (mispredicted, actual && !mispredicted, bubbles);
        }

        match op {
            Op::Jal => {
                self.stats.jumps += 1;
                if di.inst.rd == th_isa::Reg::X1 {
                    self.ras.push(pc.wrapping_add(th_isa::Inst::SIZE));
                    self.stats.ras_pushes += 1;
                }
                // Direct target: available at decode; the BTB hides the
                // decode bubble when it hits.
                self.stats.btb_lookups += 1;
                let out = self.btb.lookup(pc);
                if out.target != Some(di.next_pc) {
                    bubbles += 1;
                    self.stats.btb_updates += 1;
                    self.stats.activity.add_full(Unit::Btb, 2); // missed lookup + update
                    self.btb.update(pc, di.next_pc);
                } else if out.needs_lower_dies && herding {
                    self.stats.btb_full_target_stalls += 1;
                    self.stats.activity.record_full(Unit::Btb);
                    bubbles += 1;
                } else {
                    self.stats.btb_partial_target_hits += 1;
                    self.record_btb_partial_hit(herding);
                }
                (false, true, bubbles)
            }
            Op::Jalr => {
                self.stats.indirect_jumps += 1;
                let is_return = di.inst.rd == th_isa::Reg::X0 && di.inst.rs1 == th_isa::Reg::X1;
                if di.inst.rd == th_isa::Reg::X1 {
                    self.ras.push(pc.wrapping_add(th_isa::Inst::SIZE));
                    self.stats.ras_pushes += 1;
                }
                let predicted = if is_return {
                    self.stats.ras_pops += 1;
                    self.ras.pop()
                } else {
                    self.stats.btb_lookups += 1;
                    let out = self.ibtb.lookup(pc);
                    if let Some(t) = out.target {
                        self.stats.btb_hits += 1;
                        if out.needs_lower_dies && herding {
                            self.stats.btb_full_target_stalls += 1;
                            self.stats.activity.record_full(Unit::Btb);
                            bubbles += 1;
                        } else {
                            self.stats.btb_partial_target_hits += 1;
                            self.record_btb_partial_hit(herding);
                        }
                        Some(t)
                    } else {
                        self.stats.activity.record_full(Unit::Btb);
                        None
                    }
                };
                self.ibtb.update(pc, di.next_pc);
                self.stats.btb_updates += 1;
                self.stats.activity.record_full(Unit::Btb);
                let mispredicted = predicted != Some(di.next_pc);
                if mispredicted {
                    self.stats.indirect_mispredicts += 1;
                }
                (mispredicted, true, bubbles)
            }
            _ => (false, false, 0),
        }
    }

    /// Ledger entry for a BTB hit whose target upper bits were rebuilt
    /// from the branch PC (§3.7): with herding the lookup stays on the
    /// top die; a non-herded design drives the whole structure anyway.
    fn record_btb_partial_hit(&mut self, herding: bool) {
        if herding {
            self.stats.activity.record_low(Unit::Btb, 0);
        } else {
            self.stats.activity.record_full(Unit::Btb);
        }
    }

    // ------------------------------------------------------------- dispatch

    /// Whether width prediction applies to this opcode (the integer
    /// datapath; FP values live in the full-width FP cluster).
    fn width_predicted(op: Op, class: OpClass) -> bool {
        matches!(class, OpClass::IntAlu | OpClass::IntMul | OpClass::Load | OpClass::Store)
            && !matches!(op, Op::Fld | Op::Fsd)
    }

    fn classify(&self, v: u64) -> Width {
        self.cfg.herding.policy.classify(v)
    }

    /// Whether the register-read group at the IFQ head would take the §3.1
    /// one-cycle unsafe-width stall if dispatch ran at `cycle`.
    fn dispatch_group_would_stall(&self, cycle: u64) -> bool {
        for i in 0..self.cfg.core.decode_width {
            let Some(f) = self.inflight.ifq(i) else { break };
            if f.dispatch_ready_at > cycle {
                break;
            }
            if !f.rf_charged && Self::width_predicted(f.di.inst.op, f.class) {
                let pred = self.width_pred.peek(f.di.pc);
                let in_width = self.operand_width(&f.di);
                if pred == Width::Low && in_width == Width::Full {
                    return true;
                }
            }
        }
        false
    }

    fn dispatch(&mut self) {
        let herding = self.cfg.herding.enabled;

        // Matured IFQ entries form a prefix (constant front-end depth);
        // advance the cursor once per cycle, before any pops.
        while self
            .inflight
            .ifq(self.ifq_matured)
            .is_some_and(|f| f.dispatch_ready_at <= self.cycle)
        {
            self.ifq_matured += 1;
        }

        // §3.1: one unsafe operand-width misprediction stalls the whole
        // register-read group for one cycle (at most one stall per group).
        if herding && self.dispatch_group_would_stall(self.cycle) {
            // §3.1: the group stalls exactly one cycle regardless of how
            // many of its instructions mispredicted.
            let group_end = self.cfg.core.decode_width.min(self.inflight.ifq_len()) as u64;
            let front = self.inflight.dispatched();
            for seq in front..front + group_end {
                let f = self.inflight.get_mut(seq);
                if f.dispatch_ready_at <= self.cycle {
                    f.rf_charged = true;
                }
            }
            self.stats.rf_unsafe_group_stalls += 1;
            return; // the whole group dispatches next cycle
        }

        for _ in 0..self.cfg.core.decode_width {
            let Some(front) = self.inflight.ifq(0) else { break };
            if front.dispatch_ready_at > self.cycle {
                break;
            }
            let (op, class) = (front.di.inst.op, front.class);
            // Structural hazards.
            if self.inflight.rob_len() >= self.cfg.core.rob_size {
                self.stats.rob_full_stalls += 1;
                break;
            }
            let needs_rs = front.fu != FuClass::None;
            if needs_rs && self.scheduler.is_full() {
                self.stats.rs_full_stalls += 1;
                break;
            }
            match class {
                OpClass::Load if !self.lsq.lq_has_space() => {
                    self.stats.lsq_full_stalls += 1;
                    break;
                }
                OpClass::Store if !self.lsq.sq_has_space() => {
                    self.stats.lsq_full_stalls += 1;
                    break;
                }
                _ => {}
            }

            // The entry crosses from the IFQ into the ROB where it sits.
            let seq = self.inflight.dispatch();
            debug_assert!(self.ifq_matured > 0, "dispatched an unmatured IFQ entry");
            self.ifq_matured -= 1;
            let di = self.inflight.get(seq).di;
            self.stats.dispatched += 1;
            self.stats.rename_ops += 1;
            self.stats.activity.record_full(Unit::Rename);

            // Rename: resolve producers, claim the destination.
            let mut src_seq = [None, None];
            let srcs = [
                (di.inst.op.reads_rs1(), di.inst.rs1, di.rs1_val),
                (di.inst.op.reads_rs2(), di.inst.rs2, di.rs2_val),
            ];
            for (i, (reads, reg, val)) in srcs.into_iter().enumerate() {
                if reads && !reg.is_zero() {
                    src_seq[i] = self.rename[reg.index()];
                    // Register-file read accounting (integer side only):
                    // the width memoization bit on the top die (§3.1)
                    // says how many dies the read touches.
                    if !reg.is_fp() {
                        let memo_width = self.width_memo.width(reg.index());
                        debug_assert_eq!(
                            memo_width,
                            self.classify(val),
                            "memo bit out of sync with architectural value"
                        );
                        match memo_width {
                            Width::Low => {
                                self.stats.rf_reads_low += 1;
                                // The memo bit gates the read ports: only
                                // the top die's bank is driven (§3.1).
                                if herding {
                                    self.stats.activity.record_low(Unit::RegFile, 0);
                                } else {
                                    self.stats.activity.record_full(Unit::RegFile);
                                }
                            }
                            Width::Full => {
                                self.stats.rf_reads_full += 1;
                                self.stats.activity.record_full(Unit::RegFile);
                            }
                        }
                    }
                }
            }
            if let Some(rd) = di.inst.dest() {
                self.rename[rd.index()] = Some(di.seq);
                // Program-order memoization-bit update (§3.1): FP values
                // are always full-width.
                if rd.is_fp() {
                    self.width_memo.set(rd.index(), Width::Full);
                } else {
                    self.width_memo.record_write(rd.index(), di.rd_val);
                }
            }

            // Width prediction (§3).
            let mut pred_width = Width::Full;
            let mut unsafe_in = false;
            let mut unsafe_out = false;
            let in_width = self.operand_width(&di);
            let out_width = self.result_width(&di);
            if herding && Self::width_predicted(op, class) {
                pred_width = self.width_pred.predict(di.pc);
                let actual =
                    if in_width == Width::Full || out_width == Width::Full { Width::Full } else { Width::Low };
                unsafe_in = pred_width == Width::Low && in_width == Width::Full;
                // Stores learn their data width by commit (§3.6: "stores
                // will not cause unsafe width mispredictions"); loads
                // handle result width at the cache (§3.6).
                unsafe_out = pred_width == Width::Low
                    && out_width == Width::Full
                    && matches!(class, OpClass::IntAlu | OpClass::IntMul);
                self.width_pred.update(di.pc, actual);
                if unsafe_in || unsafe_out {
                    // §3.1: correct the prediction to stop repeat stalls.
                    self.width_pred.force_full(di.pc);
                }
            }

            // Queue allocation.
            let rs_die = if needs_rs {
                let die = self.scheduler.alloc().expect("checked not full");
                self.stats.rs_allocs_per_die[die] += 1;
                // An RS entry write costs half a full scheduler access
                // (the wakeup broadcast is the other half): two
                // die-touches, landed on the allocation die.
                self.stats.activity.add_full_on(Unit::Scheduler, die, 2);
                Some(die)
            } else {
                None
            };
            match class {
                OpClass::Load => self.lsq.alloc_load(),
                OpClass::Store => self.lsq.alloc_store(
                    di.seq,
                    di.ea.expect("stores have addresses"),
                    op.mem_size().expect("stores are sized") as u64,
                ),
                _ => {}
            }

            let complete_at = if needs_rs { u64::MAX } else { self.cycle + 1 };
            let slot = self.inflight.get_mut(seq);
            slot.state = if needs_rs { SlotState::Waiting } else { SlotState::Done };
            slot.rs_die = rs_die;
            #[cfg(test)]
            {
                slot.src_seq = src_seq;
            }
            slot.complete_at = complete_at;
            slot.pred_width = pred_width;
            slot.in_width = in_width;
            slot.out_width = out_width;
            slot.unsafe_in = unsafe_in;
            slot.unsafe_out = unsafe_out;
            slot.wrote_back = !needs_rs;
            slot.deps = 0;
            slot.visible = false;

            if !self.scan_reference() {
                // Wakeup bookkeeping: count unresolved producers and park
                // on their wakeup lists; resolved slots go straight to the
                // ready set. No-FU slots complete unconditionally one
                // cycle later — their event also marks them visible.
                let mut deps = 0u8;
                for (operand, src) in src_seq.into_iter().enumerate() {
                    let Some(src) = src else { continue };
                    debug_assert!(self.inflight.in_rob(src), "renamed to a committed producer");
                    if !self.inflight.get(src).visible {
                        deps += 1;
                        self.ev_waiters.add(src, seq, operand);
                    }
                }
                self.inflight.get_mut(seq).deps = deps;
                if needs_rs {
                    if deps == 0 {
                        self.ev_ready.insert(seq);
                    }
                } else {
                    self.ev_wheel.push(complete_at, seq, self.cycle);
                }
            }
        }
    }

    /// Width of the integer operand set the width prediction covers.
    ///
    /// Memory instructions are special: their base-address operand is
    /// "almost always full-width" and is handled by partial *address*
    /// memoization in the LSQ (§3.5), not by the instruction's width
    /// prediction, which covers the memory **data** (§3.6). Loads
    /// therefore have no width-predicted input operand; a store's
    /// predicted operand is its data register.
    fn operand_width(&self, di: &DynInst) -> Width {
        match di.inst.op.class() {
            OpClass::Load => Width::Low,
            OpClass::Store => {
                if di.inst.rs2.is_fp() {
                    Width::Full
                } else {
                    self.classify(di.rs2_val)
                }
            }
            _ => {
                let mut w = Width::Low;
                if di.inst.op.reads_rs1()
                    && !di.inst.rs1.is_fp()
                    && self.classify(di.rs1_val) == Width::Full
                {
                    w = Width::Full;
                }
                if di.inst.op.reads_rs2()
                    && !di.inst.rs2.is_fp()
                    && self.classify(di.rs2_val) == Width::Full
                {
                    w = Width::Full;
                }
                w
            }
        }
    }

    /// Width of the produced value (loads: the loaded data; stores: the
    /// stored data).
    fn result_width(&self, di: &DynInst) -> Width {
        if di.is_store() {
            return self.classify(di.rs2_val);
        }
        match di.inst.dest() {
            Some(rd) if !rd.is_fp() => self.classify(di.rd_val),
            _ => {
                if di.is_store() || di.inst.dest().is_some() {
                    Width::Full // FP values are always full-width
                } else {
                    Width::Low
                }
            }
        }
    }

    // ---------------------------------------------------------------- issue

    #[cfg(test)]
    fn src_ready(&self, seq: Option<u64>) -> bool {
        match seq {
            None => true,
            // A producer no longer in the ROB has committed.
            Some(s) => !self.inflight.in_rob(s) || {
                let p = self.inflight.get(s);
                p.state == SlotState::Done && p.complete_at <= self.cycle
            },
        }
    }

    /// The completion and issue stages. Test builds can run the scan
    /// reference instead: completion and issue by walking the whole ROB.
    fn complete_and_issue(&mut self) {
        #[cfg(test)]
        if self.scan_reference() {
            self.scan_completions();
            self.issue();
            return;
        }
        self.process_events();
        self.issue_event();
    }

    /// Scan-reference issue: walk the whole ROB, oldest first.
    #[cfg(test)]
    fn issue(&mut self) {
        self.charge_rs_occupancy();

        let mut issued = 0usize;
        let mut free = FuFree::new(&self.cfg.core);
        for seq in self.inflight.head()..self.inflight.dispatched() {
            if issued >= self.cfg.core.issue_width {
                break;
            }
            let slot = self.inflight.get(seq);
            if slot.state != SlotState::Waiting {
                continue;
            }
            if !self.src_ready(slot.src_seq[0]) || !self.src_ready(slot.src_seq[1]) {
                continue;
            }
            if self.try_issue_slot(seq, &mut free) {
                issued += 1;
            }
        }
    }

    /// Issue: walk only the ready set, oldest first from the ROB head
    /// (the same priority order as the scan reference's walk over the
    /// ROB). Each chunk of the set is a copy, so issued slots leave the
    /// set as the walk goes; issue adds nothing to it.
    fn issue_event(&mut self) {
        self.charge_rs_occupancy();

        let mut issued = 0usize;
        let mut free = FuFree::new(&self.cfg.core);
        let head = self.inflight.head();
        'walk: for k in 0..self.ev_ready.chunks() {
            let (base, mut bits) = self.ev_ready.chunk(head, k);
            while bits != 0 {
                if issued >= self.cfg.core.issue_width {
                    break 'walk;
                }
                let seq = base + u64::from(bits.trailing_zeros());
                bits &= bits - 1;
                debug_assert_eq!(self.inflight.get(seq).state, SlotState::Waiting);
                if self.try_issue_slot(seq, &mut free) {
                    issued += 1;
                    self.ev_ready.remove(seq);
                    self.ev_wheel.push(self.inflight.get(seq).complete_at, seq, self.cycle);
                }
            }
        }
    }

    /// Residency accounting: every occupied RS entry burns on its die for
    /// this cycle.
    fn charge_rs_occupancy(&mut self) {
        for (die, occ) in self.scheduler.occupancy().into_iter().enumerate() {
            self.stats.rs_occupancy_cycles_per_die[die] += occ as u64;
        }
    }

    /// Tries to issue the waiting, operand-ready slot `seq` against the
    /// remaining per-cycle FU budget. Returns whether it issued; on `true`
    /// the slot is `Issued` with its `complete_at` fixed.
    fn try_issue_slot(&mut self, seq: u64, free: &mut FuFree) -> bool {
        let lat = self.cfg.lat;
        let herding = self.cfg.herding.enabled;
        let cycle = self.cycle;

        let slot = self.inflight.get(seq);
        let (op, class, fu) = (slot.di.inst.op, slot.class, slot.fu);
        {
            // Functional-unit availability.
            let fu_ok = match fu {
                FuClass::IntAlu => free.alu > 0,
                FuClass::IntShift => free.shift > 0,
                FuClass::IntMul => {
                    free.mul > 0
                        && (!matches!(op, Op::Div | Op::Rem) || self.int_div_busy_until <= cycle)
                }
                FuClass::FpAdd => free.fp_add > 0,
                FuClass::FpMul => free.fp_mul > 0,
                FuClass::FpDiv => free.fp_div > 0 && self.fp_div_busy_until <= cycle,
                FuClass::Mem => {
                    if class == OpClass::Store {
                        free.st_ports > 0
                    } else {
                        free.ld_ports > 0
                    }
                }
                FuClass::None => true,
            };
            if !fu_ok {
                return false;
            }
        }
        // Memory ordering for loads.
        let mut load_plan: Option<(u64, bool)> = None; // (complete_at, forwarded)
        if class == OpClass::Load {
            let ea = self.inflight.get(seq).di.ea.expect("loads have addresses");
            let size = op.mem_size().unwrap() as u64;
            match self.lsq.search_for_load(seq, ea, size) {
                LoadSearch::Forward(data_ready) => {
                    if data_ready == u64::MAX {
                        return false; // producing store has not executed yet
                    }
                    let done = (cycle + lat.agu).max(data_ready) + 1;
                    load_plan = Some((done, true));
                }
                LoadSearch::PartialOverlap(data_ready) => {
                    if data_ready == u64::MAX {
                        return false;
                    }
                    // Replay after the store's data is available, then
                    // access the cache.
                    let start = (cycle + lat.agu).max(data_ready);
                    let mem = self.hierarchy.data_access(ea, false);
                    self.record_dcache_access(&mem);
                    load_plan = Some((start + mem.cycles, false));
                }
                LoadSearch::Cache => {
                    let mem = self.hierarchy.data_access(ea, false);
                    self.record_dcache_access(&mem);
                    load_plan = Some((cycle + lat.agu + mem.cycles, false));
                }
            }
        }

        // Latency.
        let slot = self.inflight.get(seq);
        let base_latency = match fu {
            FuClass::IntAlu => lat.int_alu,
            FuClass::IntShift => lat.int_shift,
            FuClass::IntMul => {
                if matches!(op, Op::Div | Op::Rem) {
                    lat.int_div
                } else {
                    lat.int_mul
                }
            }
            FuClass::FpAdd => lat.fp_add,
            FuClass::FpMul => lat.fp_mul,
            FuClass::FpDiv => {
                if op == Op::Fsqrt {
                    lat.fp_sqrt
                } else {
                    lat.fp_div
                }
            }
            FuClass::Mem => lat.agu,
            FuClass::None => 1,
        };

        let mut complete_at = match load_plan {
            Some((done, _)) => done,
            None => cycle + base_latency,
        };

        // Width-misprediction execution penalties.
        let (slot_di, slot_unsafe_in, slot_unsafe_out, slot_pred_width) =
            (slot.di, slot.unsafe_in, slot.unsafe_out, slot.pred_width);
        // §3.6: a load read is gated to the top die only when it was
        // predicted low *and* the line's upper bits are reconstructible
        // there (partial value encoding / the zero-upper memo bit).
        let mut load_gated = false;
        if herding {
            if slot_unsafe_in
                && matches!(class, OpClass::IntAlu | OpClass::IntMul)
            {
                // §3.2: one cycle to re-enable the upper 48 bits.
                complete_at += 1;
                self.stats.exec_reenable_stalls += 1;
            }
            if slot_unsafe_out {
                // §3.2: output width misprediction forces re-execution.
                complete_at += base_latency;
                self.stats.output_width_replays += 1;
            }
            if class == OpClass::Load && slot_pred_width == Width::Low {
                if self.load_serviced_from_top_die(&slot_di) {
                    load_gated = true;
                } else {
                    // §3.6: stall the cache pipeline one cycle; the tag
                    // match already identified the way holding the upper
                    // bits.
                    complete_at += 1;
                    self.stats.dcache_width_stalls += 1;
                }
            }
        }
        // Ledger entry for loads that actually accessed the cache
        // (forwarded loads are serviced by the store queue instead).
        if class == OpClass::Load && load_plan.is_some_and(|(_, fwd)| !fwd) {
            if load_gated {
                self.stats.activity.record_low(Unit::DCache, 0);
            } else {
                self.stats.activity.record_full(Unit::DCache);
            }
        }

        // FP loads may pay the extra routing cycle (§3.8).
        if op == Op::Fld && self.cfg.pipeline.fp_load_extra_cycle {
            complete_at += 1;
        }

        // Commit FU reservations.
        match fu {
            FuClass::IntAlu => free.alu -= 1,
            FuClass::IntShift => free.shift -= 1,
            FuClass::IntMul => {
                free.mul -= 1;
                if matches!(op, Op::Div | Op::Rem) {
                    self.int_div_busy_until = complete_at;
                }
            }
            FuClass::FpAdd => free.fp_add -= 1,
            FuClass::FpMul => free.fp_mul -= 1,
            FuClass::FpDiv => {
                free.fp_div -= 1;
                self.fp_div_busy_until = complete_at;
            }
            FuClass::Mem => {
                if class == OpClass::Store {
                    free.st_ports -= 1;
                } else {
                    free.ld_ports -= 1;
                }
            }
            FuClass::None => {}
        }

        // Stores: data becomes forwardable once the store executes. Both
        // kinds of memory op broadcast their address into the LSQ; PAM
        // upper-bit matches keep the comparison on the top die (§3.5).
        if class == OpClass::Store {
            let ea = self.inflight.get(seq).di.ea.expect("stores have addresses");
            self.lsq.set_store_ready(seq, cycle + lat.agu);
            if self.cfg.herding.pam {
                let out = self.pam.broadcast_store(ea);
                self.record_lsq_broadcast(herding && out.upper_match);
            } else {
                self.record_lsq_broadcast(false);
            }
        } else if class == OpClass::Load {
            if self.cfg.herding.pam {
                let out = self.pam.broadcast_load(self.inflight.get(seq).di.ea.unwrap());
                self.record_lsq_broadcast(herding && out.upper_match);
            } else {
                self.record_lsq_broadcast(false);
            }
            if load_plan.is_some_and(|(_, fwd)| fwd) {
                self.stats.store_forwards += 1;
            }
        }

        // Execution accounting.
        match class {
            OpClass::IntAlu | OpClass::IntMul | OpClass::Control => {
                let w = if self.inflight.get(seq).in_width == Width::Full
                    || self.inflight.get(seq).out_width == Width::Full
                {
                    Width::Full
                } else {
                    Width::Low
                };
                match w {
                    Width::Low => {
                        self.stats.int_ops_low += 1;
                        if herding {
                            self.stats.activity.record_low(Unit::IntExec, 0);
                        } else {
                            self.stats.activity.record_full(Unit::IntExec);
                        }
                    }
                    Width::Full => {
                        self.stats.int_ops_full += 1;
                        self.stats.activity.record_full(Unit::IntExec);
                    }
                }
            }
            OpClass::FpAlu | OpClass::FpMul | OpClass::FpDiv => {
                self.stats.fp_ops += 1;
                self.stats.activity.record_full(Unit::FpExec);
            }
            _ => {}
        }

        let slot = self.inflight.get_mut(seq);
        slot.state = SlotState::Issued;
        slot.complete_at = complete_at;
        if let Some(die) = slot.rs_die.take() {
            self.scheduler.free(die);
        }
        self.stats.issued += 1;
        true
    }

    /// Whether a low-width-predicted load was serviced without touching
    /// the lower three dies (§3.6 partial value encoding, or the plain
    /// zero-upper memoization bit when PVE is off).
    fn load_serviced_from_top_die(&mut self, di: &DynInst) -> bool {
        let ea = di.ea.expect("load");
        let enc = UpperEncoding::classify(di.rd_val, ea);
        self.stats.dcache_encodings.record(enc);
        if self.cfg.herding.partial_value_encoding {
            enc.top_die_only()
        } else {
            enc == UpperEncoding::Zeros || enc == UpperEncoding::Ones
        }
    }

    /// Ledger entry for one LSQ address broadcast: a PAM upper-bit match
    /// keeps the comparators on the top die; everything else drives the
    /// whole queue (§3.5). The D-cache access row itself is recorded by
    /// the caller once the width-gating outcome is known.
    fn record_lsq_broadcast(&mut self, gated: bool) {
        if gated {
            self.stats.activity.record_low(Unit::Lsq, 0);
        } else {
            self.stats.activity.record_full(Unit::Lsq);
        }
    }

    fn record_dcache_access(&mut self, mem: &crate::cache::AccessResult) {
        self.stats.dcache_accesses += 1;
        self.stats.dtlb_accesses += 1;
        self.stats.activity.record_full(Unit::Dtlb);
        if mem.tlb_miss {
            self.stats.dtlb_misses += 1;
        }
        self.stats.spill_fill_transfers += mem.spill_fills;
        // L1⇄L2 spills/fills move whole lines: all four dies of both
        // arrays switch (§3.6).
        self.stats.activity.add_full(Unit::DCache, mem.spill_fills);
        self.stats.activity.add_full(Unit::L2, mem.spill_fills);
        if mem.level != CacheKind::L1 {
            self.stats.dcache_misses += 1;
            self.stats.l2_accesses += 1;
            self.stats.activity.record_full(Unit::L2);
            if mem.level == CacheKind::Dram {
                self.stats.l2_misses += 1;
                self.stats.dram_accesses += 1;
            }
        }
    }

    // ---------------------------------------------------------- completion

    /// Scan-reference completion stage: complete every slot due this
    /// cycle, oldest first.
    #[cfg(test)]
    fn scan_completions(&mut self) {
        for seq in self.inflight.head()..self.inflight.dispatched() {
            let slot = self.inflight.get(seq);
            if slot.state != SlotState::Issued || slot.complete_at > self.cycle {
                continue;
            }
            self.complete_slot(seq);
        }
    }

    /// Completion stage: pop every event due this cycle, do the
    /// writeback for slots still in flight, and wake dependants.
    fn process_events(&mut self) {
        while let Some(seq) = self.ev_wheel.pop(self.cycle) {
            self.work.events += 1;

            // The slot may already have committed (no-FU slots are `Done`
            // at dispatch and can retire before their event fires); the
            // writeback then already happened at dispatch.
            if self.inflight.in_rob(seq) {
                if self.inflight.get(seq).state == SlotState::Issued {
                    self.complete_slot(seq);
                }
                self.inflight.get_mut(seq).visible = true;
            }

            // Wake consumers parked on this producer.
            let mut node = self.ev_waiters.take(seq);
            while node != NO_WAITER {
                let (consumer, next) = self.ev_waiters.at(node);
                node = next;
                if !self.inflight.in_rob(consumer) {
                    continue;
                }
                let slot = self.inflight.get_mut(consumer);
                debug_assert!(slot.deps > 0);
                slot.deps -= 1;
                if slot.deps == 0 && slot.state == SlotState::Waiting {
                    self.ev_ready.insert(consumer);
                }
            }
        }
    }

    /// Writeback for the issued slot `seq` whose result is due this
    /// cycle: record the register-file/ROB/bypass/tag-broadcast activity
    /// and release a pending fetch redirect if this was the blocking
    /// branch. Shared verbatim with the scan reference.
    fn complete_slot(&mut self, seq: u64) {
        let slot = self.inflight.get_mut(seq);
        let di = slot.di;
        let out_width = slot.out_width;
        let mispredicted = slot.mispredicted;
        slot.state = SlotState::Done;
        slot.wrote_back = true;

            // Writeback accounting: register file, ROB result field,
            // bypass network, and the wakeup tag broadcast. The producing
            // FU knows the result's width, so a low result drives only
            // the top die's write ports and bypass wires (§3.1–§3.3).
            let herding = self.cfg.herding.enabled;
            if let Some(rd) = di.inst.dest() {
                if rd.is_fp() {
                    self.stats.rf_writes_full += 1;
                    self.stats.rob_writes_full += 1;
                    self.stats.bypass_full += 1;
                    self.record_writeback(false);
                } else {
                    match out_width {
                        Width::Low => {
                            self.stats.rf_writes_low += 1;
                            self.stats.rob_writes_low += 1;
                            self.stats.bypass_low += 1;
                            self.record_writeback(herding);
                        }
                        Width::Full => {
                            self.stats.rf_writes_full += 1;
                            self.stats.rob_writes_full += 1;
                            self.stats.bypass_full += 1;
                            self.record_writeback(false);
                        }
                    }
                }
                self.stats.tag_broadcasts += 1;
                let dies = self.scheduler.broadcast_dies();
                for (d, driven) in dies.iter().enumerate() {
                    if *driven || !herding {
                        self.stats.tag_broadcast_die_driven[d] += 1;
                        self.stats.activity.add_full_on(Unit::Scheduler, d, 1);
                    }
                }
            }

            // Branch resolution: release the fetch redirect.
            if mispredicted && self.redirect_pending == Some(di.seq) {
                self.redirect_pending = None;
                self.fetch_resume_at =
                    self.fetch_resume_at.max(self.cycle + self.cfg.pipeline.redirect_extra);
                if di.inst.op.is_cond_branch() {
                    self.stats.cond_mispredicts += 1;
                }
            }
    }

    /// Ledger entries for one result writeback: RF write port, ROB result
    /// field, and the bypass network, gated together when the result is
    /// low-width under herding.
    fn record_writeback(&mut self, gated: bool) {
        if gated {
            self.stats.activity.record_low(Unit::RegFile, 0);
            self.stats.activity.record_low(Unit::Rob, 0);
            self.stats.activity.record_low(Unit::Bypass, 0);
        } else {
            self.stats.activity.record_full(Unit::RegFile);
            self.stats.activity.record_full(Unit::Rob);
            self.stats.activity.record_full(Unit::Bypass);
        }
    }

    // ------------------------------------------------------- idle skipping

    /// The cycle to execute after the current one. Normally `cycle + 1`;
    /// when provably nothing can commit, complete, issue,
    /// dispatch, or fetch before some later cycle `T`, jumps straight to
    /// `T` after batch-charging the per-cycle stall statistics for the
    /// skipped window. Never jumps past the deadlock watchdog horizon, so
    /// a genuine deadlock still panics on the same cycle as the scan
    /// reference.
    fn next_cycle(&mut self, last_commit_cycle: u64) -> u64 {
        let next = self.cycle + 1;
        let Some(target) = self.idle_until() else { return next };
        let target = target.min(last_commit_cycle + 200_000).max(next);
        if target > next {
            self.account_idle(next, target);
            self.work.cycles_skipped += target - next;
        }
        target
    }

    /// The earliest future cycle at which any pipeline stage might make
    /// progress, or `None` if the very next cycle might (in which case no
    /// cycles are skipped). Conservative: may return `None` spuriously,
    /// never a too-late cycle.
    fn idle_until(&self) -> Option<u64> {
        let next = self.cycle + 1;
        let mut t = u64::MAX;

        // Commit: only the ROB head matters.
        if let Some(head) = self.inflight.rob_front() {
            if head.state == SlotState::Done && head.complete_at <= next {
                return None;
            }
        }

        // Completion events (also cover `Done`-at-dispatch visibility and
        // every in-flight `Issued` slot).
        if let Some(at) = self.ev_wheel.next_at(self.cycle) {
            debug_assert!(at >= next);
            t = t.min(at);
        }

        // Ready-but-unissued slots. Only three shapes are provably stuck
        // until a known cycle: divides blocked on the non-pipelined unit,
        // and loads blocked on an unexecuted older store (whose own issue
        // or wakeup is covered by the cases above). Anything else might
        // issue next cycle.
        for seq in self.ev_ready.iter_from(self.inflight.head()) {
            let slot = self.inflight.get(seq);
            let op = slot.di.inst.op;
            match slot.fu {
                FuClass::IntMul if matches!(op, Op::Div | Op::Rem) => {
                    if self.int_div_busy_until <= next {
                        return None;
                    }
                    t = t.min(self.int_div_busy_until);
                }
                FuClass::FpDiv => {
                    if self.fp_div_busy_until <= next {
                        return None;
                    }
                    t = t.min(self.fp_div_busy_until);
                }
                FuClass::Mem if slot.class == OpClass::Load => {
                    let ea = slot.di.ea.expect("loads have addresses");
                    let size = op.mem_size().expect("loads are sized") as u64;
                    match self.lsq.search_for_load(slot.di.seq, ea, size) {
                        LoadSearch::Forward(c) | LoadSearch::PartialOverlap(c)
                            if c == u64::MAX => {}
                        _ => return None,
                    }
                }
                _ => return None,
            }
        }

        // Dispatch: a group member maturing is a wake-up; a matured head
        // only dispatches (or takes the §3.1 group stall) when unblocked.
        if let Some(front) = self.inflight.ifq(0) {
            for i in 0..self.cfg.core.decode_width {
                let Some(f) = self.inflight.ifq(i) else { break };
                if f.dispatch_ready_at > next {
                    t = t.min(f.dispatch_ready_at);
                    break;
                }
            }
            if front.dispatch_ready_at <= next {
                if self.cfg.herding.enabled && self.dispatch_group_would_stall(next) {
                    return None;
                }
                let blocked = self.inflight.rob_len() >= self.cfg.core.rob_size
                    || (front.fu != FuClass::None && self.scheduler.is_full())
                    || match front.class {
                        OpClass::Load => !self.lsq.lq_has_space(),
                        OpClass::Store => !self.lsq.sq_has_space(),
                        _ => false,
                    };
                if !blocked {
                    return None;
                }
            }
        }

        // Fetch: blocked by a pending redirect (released by a completion
        // event), a resume cycle, or a full IFQ (monotone while nothing
        // dispatches). An unblocked, non-full fetch makes progress.
        if !self.fetch_done && self.redirect_pending.is_none() {
            if next < self.fetch_resume_at {
                t = t.min(self.fetch_resume_at);
            } else {
                let mut matured = self.ifq_matured;
                while self.inflight.ifq(matured).is_some_and(|f| f.dispatch_ready_at <= next) {
                    matured += 1;
                }
                if matured + self.cfg.core.fetch_width <= self.cfg.core.ifq_size {
                    return None;
                }
            }
        }

        // Nothing pending at all: jump to the watchdog horizon (the caller
        // clamps) so a drained-but-deadlocked pipeline still panics.
        Some(t)
    }

    /// Batch-charges the per-cycle statistics the scan reference would have
    /// accrued over the idle window `[from, to)`: RS residency, the
    /// blocking dispatch structural hazard, and the fetch stall breakdown.
    /// Every charged condition is constant (or monotone in the charged
    /// direction) across the window — `idle_until` guarantees it.
    fn account_idle(&mut self, from: u64, to: u64) {
        let k = to - from;
        for (die, occ) in self.scheduler.occupancy().into_iter().enumerate() {
            self.stats.rs_occupancy_cycles_per_die[die] += occ as u64 * k;
        }

        if let Some(front) = self.inflight.ifq(0) {
            if front.dispatch_ready_at <= from {
                if self.inflight.rob_len() >= self.cfg.core.rob_size {
                    self.stats.rob_full_stalls += k;
                } else if front.fu != FuClass::None && self.scheduler.is_full() {
                    self.stats.rs_full_stalls += k;
                } else {
                    match front.class {
                        OpClass::Load if !self.lsq.lq_has_space() => {
                            self.stats.lsq_full_stalls += k;
                        }
                        OpClass::Store if !self.lsq.sq_has_space() => {
                            self.stats.lsq_full_stalls += k;
                        }
                        _ => unreachable!("unblocked dispatch inside an idle window"),
                    }
                }
            }
        }

        if !self.fetch_done {
            if self.redirect_pending.is_some() || from < self.fetch_resume_at {
                self.stats.fetch_stall_cycles += k;
            } else {
                self.stats.ifq_full_stalls += k;
            }
        }
    }

    // --------------------------------------------------------------- commit

    fn commit(&mut self) {
        for _ in 0..self.cfg.core.commit_width {
            let Some(head) = self.inflight.rob_front() else { break };
            if head.state != SlotState::Done || head.complete_at > self.cycle {
                break;
            }
            let (di, class, out_width) = (head.di, head.class, head.out_width);
            self.inflight.commit();

            // ROB result read at retirement (architected-state copy).
            let herding = self.cfg.herding.enabled;
            match out_width {
                Width::Low => {
                    self.stats.rob_reads_low += 1;
                    if herding {
                        self.stats.activity.record_low(Unit::Rob, 0);
                    } else {
                        self.stats.activity.record_full(Unit::Rob);
                    }
                }
                Width::Full => {
                    self.stats.rob_reads_full += 1;
                    self.stats.activity.record_full(Unit::Rob);
                }
            }

            match class {
                OpClass::Load => {
                    self.stats.loads += 1;
                    self.lsq.free_load();
                }
                OpClass::Store => {
                    self.stats.stores += 1;
                    self.lsq.commit_store(di.seq);
                    let ea = di.ea.expect("store");
                    let mem = self.hierarchy.data_access(ea, true);
                    self.record_dcache_access(&mem);
                    // Stores know their data width at commit (§3.6).
                    match self.classify(di.rs2_val) {
                        Width::Low => {
                            self.stats.dcache_writes_low += 1;
                            if herding {
                                self.stats.activity.record_low(Unit::DCache, 0);
                            } else {
                                self.stats.activity.record_full(Unit::DCache);
                            }
                        }
                        Width::Full => {
                            self.stats.dcache_writes_full += 1;
                            self.stats.activity.record_full(Unit::DCache);
                        }
                    }
                }
                _ => {}
            }

            if self.rename[di.inst.rd.index()] == Some(di.seq) {
                self.rename[di.inst.rd.index()] = None;
            }
            self.stats.committed += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use th_isa::parse_asm;

    fn run(src: &str, cfg: SimConfig) -> SimResult {
        let p = parse_asm(src).expect("assembles");
        Simulator::new(cfg).run(&p, 1_000_000).expect("runs")
    }

    const COUNT_LOOP: &str = "
        li   x1, 0
        li   x2, 2000
    loop:
        addi x1, x1, 1
        bne  x1, x2, loop
        halt
    ";

    #[test]
    fn simple_loop_completes_with_sane_ipc() {
        let r = run(COUNT_LOOP, SimConfig::baseline());
        assert!(r.stats.committed >= 4003, "committed {}", r.stats.committed);
        let ipc = r.ipc();
        assert!(ipc > 0.8 && ipc < 4.0, "ipc = {ipc}");
        // The loop branch is almost always taken and easy to predict.
        assert!(r.stats.branch_accuracy() > 0.99, "bacc {}", r.stats.branch_accuracy());
    }

    #[test]
    fn independent_ops_reach_high_ipc() {
        let r = run(
            "
            li   x10, 0
            li   x11, 5000
        loop:
            addi x1, x1, 1
            addi x2, x2, 1
            addi x3, x3, 1
            addi x10, x10, 1
            bne  x10, x11, loop
            halt
        ",
            SimConfig::baseline(),
        );
        // 5 instructions per iteration, 4-wide machine: IPC should be
        // well above 2.
        assert!(r.ipc() > 2.0, "ipc = {}", r.ipc());
    }

    #[test]
    fn dependent_chain_is_serialized() {
        let r = run(
            "
            li   x10, 0
            li   x11, 3000
        loop:
            add  x1, x1, x10
            add  x1, x1, x10
            add  x1, x1, x10
            addi x10, x10, 1
            bne  x10, x11, loop
            halt
        ",
            SimConfig::baseline(),
        );
        // The x1 chain limits ILP: 3 dependent adds per iteration.
        assert!(r.ipc() < 2.3, "ipc = {}", r.ipc());
    }

    #[test]
    fn mispredict_penalty_shows_up() {
        // A data-dependent unpredictable branch: bit 17 of an LCG state.
        let r = run(
            "
            li   x10, 0
            li   x11, 4000
            li   x12, 12345
            li   x15, 6364136223846793005
        loop:
            mul  x12, x12, x15
            addi x12, x12, 1442695041
            srli x13, x12, 17
            andi x13, x13, 1
            beq  x13, x0, skip
            addi x14, x14, 1
        skip:
            addi x10, x10, 1
            bne  x10, x11, loop
            halt
        ",
            SimConfig::baseline(),
        );
        assert!(
            r.stats.branch_accuracy() < 0.95,
            "branch accuracy suspiciously high: {}",
            r.stats.branch_accuracy()
        );
        assert!(r.stats.cond_mispredicts > 100);
    }

    #[test]
    fn memory_bound_loop_hits_dram() {
        // Stride through 8 MB — far beyond the 4 MB L2.
        let r = run(
            "
            .zeros buf 64
            li   x1, 0x100000
            li   x2, 0x900000
        loop:
            ld   x3, 0(x1)
            addi x1, x1, 64
            bne  x1, x2, loop
            halt
        ",
            SimConfig::baseline(),
        );
        assert!(r.stats.dram_accesses > 100_000, "dram {}", r.stats.dram_accesses);
        assert!(r.ipc() < 0.5, "memory-bound ipc = {}", r.ipc());
    }

    #[test]
    fn faster_clock_lowers_ipc_of_memory_bound_code() {
        let src = "
            li   x1, 0x100000
            li   x2, 0x500000
        loop:
            ld   x3, 0(x1)
            add  x4, x4, x3
            addi x1, x1, 64
            bne  x1, x2, loop
            halt
        ";
        let base = run(src, SimConfig::baseline());
        let fast = run(src, SimConfig::fast(3.93));
        assert!(
            fast.ipc() < base.ipc(),
            "fast {} !< base {}",
            fast.ipc(),
            base.ipc()
        );
        // But absolute performance (IPns) must still improve.
        assert!(fast.ipns() > base.ipns());
    }

    #[test]
    fn store_load_forwarding() {
        let r = run(
            "
            .zeros buf 64
            la   x9, buf
            li   x10, 0
            li   x11, 2000
        loop:
            sd   x10, 0(x9)
            ld   x3, 0(x9)
            addi x10, x10, 1
            bne  x10, x11, loop
            halt
        ",
            SimConfig::baseline(),
        );
        assert!(r.stats.store_forwards > 1500, "forwards {}", r.stats.store_forwards);
    }

    #[test]
    fn herding_counts_width_activity() {
        let r = run(COUNT_LOOP, SimConfig::thermal_herding());
        let s = &r.stats;
        // Counter values 0..2000: mostly low-width.
        assert!(s.int_ops_low > s.int_ops_full, "low {} full {}", s.int_ops_low, s.int_ops_full);
        assert!(s.width_pred.predictions > 1000);
        assert!(s.width_pred.accuracy() > 0.9, "width acc {}", s.width_pred.accuracy());
        // Herded allocation keeps the top die busiest.
        assert!(s.rs_top_die_fraction() > 0.5, "top die {}", s.rs_top_die_fraction());
        assert!(s.broadcast_gating_fraction() > 0.0);
    }

    #[test]
    fn herding_ipc_penalty_is_small() {
        // §3.8: ~97% width prediction accuracy avoids severe IPC loss.
        let base = run(COUNT_LOOP, SimConfig::baseline());
        let th = run(COUNT_LOOP, SimConfig::thermal_herding());
        let degradation = 1.0 - th.ipc() / base.ipc();
        assert!(degradation < 0.05, "TH degraded IPC by {degradation:.3}");
    }

    #[test]
    fn pipe_config_improves_branchy_code() {
        let src = "
            li   x10, 0
            li   x11, 4000
            li   x12, 99991
        loop:
            mul  x12, x12, x12
            addi x12, x12, 13
            andi x13, x12, 4
            beq  x13, x0, skip
            addi x14, x14, 1
        skip:
            addi x10, x10, 1
            bne  x10, x11, loop
            halt
        ";
        let base = run(src, SimConfig::baseline());
        let pipe = run(src, SimConfig::pipe());
        assert!(
            pipe.ipc() > base.ipc(),
            "pipe {} !> base {}",
            pipe.ipc(),
            base.ipc()
        );
    }

    #[test]
    fn pam_sees_stack_locality() {
        let r = run(
            "
            .zeros stack 4096
            la   x2, stack
            li   x10, 0
            li   x11, 1000
        loop:
            sd   x10, 0(x2)
            sd   x10, 8(x2)
            ld   x3, 0(x2)
            ld   x4, 8(x2)
            addi x10, x10, 1
            bne  x10, x11, loop
            halt
        ",
            SimConfig::thermal_herding(),
        );
        assert!(r.stats.pam.match_rate() > 0.9, "pam {}", r.stats.pam.match_rate());
    }

    #[test]
    fn fp_pipeline_executes() {
        let r = run(
            "
            li   x1, 1
            fcvt.d.l f1, x1
            li   x10, 0
            li   x11, 500
        loop:
            fadd f2, f2, f1
            fmul f3, f2, f1
            addi x10, x10, 1
            bne  x10, x11, loop
            fcvt.l.d x5, f2
            halt
        ",
            SimConfig::baseline(),
        );
        assert!(r.stats.fp_ops > 1000);
        // li + fcvt + li + li + 4 insts × 500 iterations + fcvt + halt.
        assert_eq!(r.stats.committed, 2006);
    }

    #[test]
    fn result_is_deterministic() {
        let a = run(COUNT_LOOP, SimConfig::baseline());
        let b = run(COUNT_LOOP, SimConfig::baseline());
        assert_eq!(a.stats.cycles, b.stats.cycles);
        assert_eq!(a.stats.committed, b.stats.committed);
    }

    #[test]
    fn work_counters_account_for_every_cycle_and_ignore_intervals() {
        let src = "
            li   x1, 0x100000
            li   x2, 0x180000
        loop:
            ld   x3, 0(x1)
            add  x4, x4, x3
            addi x1, x1, 64
            bne  x1, x2, loop
            halt
        ";
        let p = parse_asm(src).unwrap();
        let cfg = SimConfig::baseline();
        let r = Simulator::new(cfg).run(&p, 1_000_000).unwrap();
        let w = r.work;
        let total = w.cycles_stepped + w.cycles_skipped;
        assert!(total == r.stats.cycles || total == r.stats.cycles + 1, "{w:?} vs {}", r.stats.cycles);
        assert!(w.cycles_skipped > 0, "memory-bound code should idle: {w:?}");
        assert!(w.idle_skip_ratio() > 0.0 && w.idle_skip_ratio() < 1.0);
        assert_eq!(w.committed, r.stats.committed);
        assert!(w.events >= w.committed, "every committed slot has one event: {w:?}");

        // The scan reference steps every cycle.
        let scan = Simulator::new(cfg).with_engine(CoreEngine::Scan).run(&p, 1_000_000).unwrap();
        assert_eq!(scan.work.cycles_skipped, 0);
        assert_eq!(scan.work.cycles_stepped, total);

        // Chopping the run into intervals leaves the work unchanged.
        let mut sess = SimSession::new(cfg, &p);
        while !sess.run_interval(777).unwrap() {}
        assert_eq!(sess.work(), w);

        // A warmup window shrinks the statistics, not the work.
        let warm = Simulator::new(cfg).run_with_warmup(&p, 1000, 1_000_000).unwrap();
        assert_eq!(warm.work, w);
        assert!(warm.stats.committed < w.committed);
    }

    #[test]
    fn inst_budget_stops_early() {
        let p = parse_asm(COUNT_LOOP).unwrap();
        let r = Simulator::new(SimConfig::baseline()).run(&p, 100).unwrap();
        assert!(r.stats.committed >= 100 && r.stats.committed < 110);
    }
}
