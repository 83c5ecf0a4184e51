//! The SIMD parsing kernels and host driver.
//!
//! One entry point, [`parse_maspar_checked`], runs the paper's engine,
//! optionally under an injected [`FaultPlan`] and a [`ParseBudget`],
//! detecting corruption and either
//! *recovering* (retiring dead PEs, re-executing corrupted phases) or
//! returning a typed [`EngineError`] — never a silently wrong network.
//!
//! The recovery protocol (see DESIGN.md, "Failure model & budgets"):
//!
//! 1. **Probe & retire** — before any data is laid out, every PE writes a
//!    nonce-derived self-test pattern; PEs whose writes never land are
//!    retired and the virtual→physical map is rebuilt over the healthy
//!    array. Repeat until a probe comes back clean (bounded). Persistent
//!    faults are thereby removed *up front*, which time redundancy alone
//!    cannot do.
//! 2. **Verified phases** — every mutating phase (each constraint, each
//!    maintenance iteration) is executed **twice** from a host-held golden
//!    checkpoint of the machine state; the two readbacks (and scalar
//!    results) must agree bit-for-bit or the phase is rolled back and
//!    retried, up to four times. A transient fault is keyed to
//!    the machine's monotonically increasing instruction counter and so
//!    fires in at most one of the executions — detection is guaranteed,
//!    and retries execute past the fault. The redundancy is charged
//!    honestly: under faults every phase costs double.
//!
//! Fault-free runs take none of these paths and their instruction counts
//! are bit-identical to the original engine.

use crate::layout::Layout;
use cdg_core::error::{BudgetResource, EngineError, ParseBudget};
use cdg_core::kernel::ones;
use cdg_core::network::{NetParts, NetSlab, Network};
use cdg_grammar::expr::{Binding, EvalCtx};
use cdg_grammar::kernel::{KernelProgram, LaneScratch, LaneSlot, LaneTables, PartialBinding};
use cdg_grammar::{CompiledGrammar, Constraint, Grammar, RoleId, RoleValue, Sentence, Value, Var};
use maspar_sim::{
    FaultPlan, Machine, MachineConfig, MachineStats, OccPlural, Plural, PluralBits, SegmentMap,
};
use std::borrow::Cow;
use std::cell::Cell;
use std::ops::Range;

/// Conservative peak working set per virtual-PE layer, bytes (all plurals
/// the driver ever holds at once). Used to reject programs that would
/// overflow the 16 KB PE memory with a typed error instead of a panic.
const WORKING_SET_BYTES: usize = 96;

/// Options for a MasPar parse.
///
/// There is no filter-strategy option: the machine filters by its own
/// scan choreography (design decisions 3 and 5), and
/// [`MasparOutcome::to_network`] has one host readback.
#[derive(Debug, Clone)]
pub struct MasparOptions {
    /// Machine parameters (physical PEs, memory, cost model).
    pub machine: MachineConfig,
    /// Maximum consistency-maintenance iterations (design decision 5;
    /// the paper: "typically fewer than 10 are required").
    pub filter_iterations: usize,
    /// Stop early when an iteration removes nothing (the ACU can see the
    /// global "changed" flag via a reduction). Disable to reproduce the
    /// strict constant-iteration schedule.
    pub early_exit: bool,
    /// Record a machine instruction trace (op kind + active PE count per
    /// broadcast) — the simulator's answer to the MP-1's debugging tools.
    pub trace: bool,
    /// Inject this fault schedule and run the detect-and-recover protocol.
    pub faults: Option<FaultPlan>,
    /// Resource limits; `max_wall_time` compares against the deterministic
    /// estimated MP-1 seconds, so budgeted runs reproduce exactly.
    pub budget: ParseBudget,
}

/// How many times a verified phase may be re-executed after a detected
/// corruption before giving up with [`EngineError::Inconsistent`].
const RECOVERY_RETRIES: usize = 4;

impl Default for MasparOptions {
    fn default() -> Self {
        MasparOptions {
            machine: MachineConfig::default(),
            filter_iterations: 10,
            early_exit: true,
            trace: false,
            faults: None,
            budget: ParseBudget::UNLIMITED,
        }
    }
}

/// What the detect-and-recover machinery did during a checked parse.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// PE self-test probes issued.
    pub probes: usize,
    /// Physical PEs detected dead and retired (virtual PEs remapped).
    pub retired_pes: Vec<usize>,
    /// Phases executed under double-execution verification.
    pub verified_phases: usize,
    /// Verified phases that disagreed and were rolled back and re-run.
    pub phase_retries: u64,
}

impl RecoveryReport {
    /// Did recovery actually have to intervene?
    pub fn intervened(&self) -> bool {
        !self.retired_pes.is_empty() || self.phase_retries > 0
    }
}

/// Per-phase operation counts (for the paper's per-constraint time trials).
#[derive(Debug, Clone)]
pub struct PhaseStats {
    pub name: String,
    pub stats: MachineStats,
}

/// The result of a MasPar parse.
#[derive(Debug)]
pub struct MasparOutcome {
    pub layout: Layout,
    /// Final alive mask per group (readback of the boundary PEs).
    pub alive: Vec<u64>,
    /// Final submatrices, one u64 per virtual PE (readback).
    pub bits: Vec<u64>,
    /// Machine counters for the whole run.
    pub stats: MachineStats,
    /// Estimated MP-1 wall time for the whole run, seconds.
    pub estimated_seconds: f64,
    /// Per-phase attribution (network init, each constraint, maintenance).
    pub phases: Vec<PhaseStats>,
    /// Maintenance iterations actually executed.
    pub filter_iterations_run: usize,
    /// Role values removed by each maintenance iteration, counted on the
    /// machine itself (popcount diff of the alive masks, summed with a
    /// global sum reduction, `Machine::reduce_sum`).
    pub removals_per_iteration: Vec<u64>,
    /// The virtualization multiplier ⌈q²n⁴ / phys⌉.
    pub virt_factor: u64,
    /// Machine instruction trace (empty unless `MasparOptions::trace`).
    pub trace: Vec<maspar_sim::TraceEntry>,
    /// What fault detection and recovery did (all zero for fault-free runs).
    pub recovery: RecoveryReport,
    /// `Some` when a [`ParseBudget`] limit cut filtering or propagation
    /// short: the readback is a usable partial network and this records
    /// which limit bound. `None` for a complete parse.
    pub degraded: Option<EngineError>,
}

impl MasparOutcome {
    /// Is role value (group, label idx) still alive?
    pub fn is_alive(&self, group: usize, li: usize) -> bool {
        self.alive[group] >> li & 1 == 1
    }

    /// The paper's acceptance condition: every (word, role) slot retains
    /// at least one role value.
    pub fn roles_nonempty(&self) -> bool {
        let lay = &self.layout;
        (0..lay.n * lay.q).all(|slot| (0..lay.m).any(|m_idx| self.alive[slot * lay.m + m_idx] != 0))
    }

    /// Submatrix entry readback: may role values (cg, ci) and (rg, rj)
    /// coexist?
    pub fn entry(&self, cg: usize, ci: usize, rg: usize, rj: usize) -> bool {
        let pe = self.layout.pe(cg, rg);
        self.bits[pe] >> self.layout.bit(ci, rj) & 1 == 1
    }

    /// Mean estimated seconds per constraint-propagation phase — the
    /// quantity the paper reports as "less than 10 milliseconds".
    pub fn mean_constraint_seconds(&self, cost: &maspar_sim::CostModel) -> f64 {
        let phases: Vec<&PhaseStats> = self
            .phases
            .iter()
            .filter(|p| p.name.starts_with("unary:") || p.name.starts_with("binary:"))
            .collect();
        if phases.is_empty() {
            return 0.0;
        }
        phases
            .iter()
            .map(|p| p.stats.estimated_seconds(cost))
            .sum::<f64>()
            / phases.len() as f64
    }

    /// Reconstruct a host-side [`Network`] with exactly this outcome's
    /// state (alive sets and arc entries), so the standard extraction and
    /// rendering machinery applies.
    ///
    /// The word-parallel [`MasparOutcome::readback_tiled`] does the work;
    /// the per-entry [`MasparOutcome::readback_scalar`] is its test
    /// oracle. Neither touches the simulated machine.
    pub fn to_network<'g>(&self, grammar: &'g Grammar, sentence: &Sentence) -> Network<'g> {
        self.readback_tiled(grammar, sentence, &mut NetSlab::default())
    }

    /// Role values the machine killed, as (slot, core domain index). The
    /// core domain index of (label li, modifiee m_idx) is li·m + m_idx.
    fn dead_values(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        let lay = &self.layout;
        (0..lay.groups).flat_map(move |g| {
            let (w, r, m_idx) = lay.decode_group(g);
            (0..lay.labels_of_role(r))
                .filter(move |&li| !self.is_alive(g, li))
                .map(move |li| (w * lay.q + r, li * lay.m + m_idx))
        })
    }

    /// Per-entry readback: probe every (value, value) submatrix bit and
    /// zero the host entry when the machine zeroed it. The differential
    /// oracle for [`MasparOutcome::readback_tiled`].
    pub fn readback_scalar<'g>(&self, grammar: &'g Grammar, sentence: &Sentence) -> Network<'g> {
        let lay = &self.layout;
        let mut net = Network::build(grammar, sentence);
        net.init_arcs();
        for (slot, idx) in self.dead_values() {
            net.remove_value(slot, idx);
        }
        // Zero arc entries the machine zeroed.
        let nslots = lay.n * lay.q;
        for si in 0..nslots {
            for sj in (si + 1)..nslots {
                let (wi, ri) = (si / lay.q, si % lay.q);
                let (wj, rj) = (sj / lay.q, sj % lay.q);
                for mi in 0..lay.m {
                    let cg = lay.group(wi, ri, mi);
                    for li in 0..lay.labels_of_role(ri) {
                        if !self.is_alive(cg, li) {
                            continue;
                        }
                        for mj in 0..lay.m {
                            let rg = lay.group(wj, rj, mj);
                            for lj in 0..lay.labels_of_role(rj) {
                                if self.is_alive(rg, lj) && !self.entry(cg, li, rg, lj) {
                                    net.zero_arc_entry(si, li * lay.m + mi, sj, lj * lay.m + mj);
                                }
                            }
                        }
                    }
                }
            }
        }
        net
    }

    /// Word-parallel readback into a network built on `slab`'s storage. Dead
    /// values are removed before the arcs exist, so `init_arcs` starts every
    /// arc outer: entries only between survivors. Then, for each alive arc row,
    /// gather one l-bit label chunk per modifiee straight out of the packed PE
    /// submatrix word, spread it to host column positions lj·m + mj through a
    /// precomputed per-label-count table, and apply the assembled mask with a
    /// single word-wise row AND. Bits the machine zeroed for pairs with a dead
    /// endpoint are already zero on the host, so masking with the raw machine
    /// row is exact. An arc stays outer while every alive row's mask covers the
    /// column slot's alive set, and is stored at the first row whose mask does
    /// not.
    ///
    /// Host stats equal [`MasparOutcome::readback_scalar`]'s up to the
    /// observational `bmm_*` counters: the scalar walk zeroes the
    /// |domᵢ|·|domⱼ| − |aliveᵢ|·|aliveⱼ| entries with a dead endpoint one
    /// removal at a time, and this path adds that count directly. (MasPar
    /// input is lexically unambiguous, so `init_arcs` would have set every
    /// one of those entries.)
    pub fn readback_tiled<'g>(
        &self,
        grammar: &'g Grammar,
        sentence: &Sentence,
        slab: &mut NetSlab,
    ) -> Network<'g> {
        let lay = &self.layout;
        let mut net = Network::build_in(grammar, sentence, slab);
        for (slot, idx) in self.dead_values() {
            net.remove_value(slot, idx);
        }
        net.init_arcs();
        let m = lay.m;
        let l = lay.l;
        let NetParts {
            slots,
            arcs,
            pool,
            pairs,
            stats,
            ..
        } = net.parts_mut();
        let mut buf: Vec<u64> = Vec::new();
        // One pattern per l-bit label chunk and column-role label count,
        // in one flat buffer: pattern `chunk` of a table has bit lj·m set
        // for every label bit lj of `chunk`, so shifting it left by mj
        // lands each label at its host column lj·m + mj. `tables[labels]`
        // is where the table for that label count starts, built on first
        // use; its patterns are one host row of words each.
        let mut spread: Vec<u64> = Vec::new();
        let mut tables: Vec<Option<usize>> = vec![None; l + 1];
        for &(si, sj, idx) in pairs {
            let (alive_i, alive_j) = (slots[si].alive.count_ones(), slots[sj].alive.count_ones());
            stats.entries_zeroed +=
                slots[si].domain.len() * slots[sj].domain.len() - alive_i * alive_j;
            let (wi, ri) = (si / lay.q, si % lay.q);
            let (wj, rj) = (sj / lay.q, sj % lay.q);
            let labels_j = lay.labels_of_role(rj);
            let dom_j = slots[sj].domain.len();
            debug_assert_eq!(dom_j, labels_j * m);
            let row_words = dom_j.div_ceil(64);
            let table = *tables[labels_j].get_or_insert_with(|| {
                // Pattern `chunk` is pattern `chunk` without its lowest
                // label, plus that label's bit.
                let start = spread.len();
                spread.resize(start + row_words, 0);
                for chunk in 1usize..1 << labels_j {
                    let lj = chunk.trailing_zeros() as usize;
                    let from = start + (chunk & (chunk - 1)) * row_words;
                    spread.extend_from_within(from..from + row_words);
                    spread[start + chunk * row_words + (lj * m) / 64] |= 1u64 << ((lj * m) % 64);
                }
                start
            });
            for a in slots[si].alive.iter_ones() {
                let (li, mi) = (a / m, a % m);
                let cg = lay.group(wi, ri, mi);
                buf.clear();
                buf.resize(row_words, 0);
                for mj in 0..m {
                    let rg = lay.group(wj, rj, mj);
                    let word = self.bits[lay.pe(cg, rg)] >> (li * l);
                    let chunk = word as usize & ((1usize << labels_j) - 1);
                    if chunk == 0 {
                        continue;
                    }
                    // OR in spread[chunk] << mj. Any nonzero piece lands
                    // below bit dom_j, so the guarded indices are in
                    // range even when the word shift straddles or the
                    // modifiee offset exceeds one word.
                    let (wo, bo) = (mj / 64, mj % 64);
                    let pattern = &spread[table + chunk * row_words..][..row_words];
                    for (w, &pat) in pattern.iter().enumerate() {
                        if pat == 0 {
                            continue;
                        }
                        let lo = pat << bo;
                        if lo != 0 {
                            buf[w + wo] |= lo;
                        }
                        if bo != 0 {
                            let hi = pat >> (64 - bo);
                            if hi != 0 {
                                buf[w + wo + 1] |= hi;
                            }
                        }
                    }
                }
                stats.entries_zeroed +=
                    arcs[idx].and_row(a, &buf, &slots[si].alive, &slots[sj].alive, pool);
                stats.bmm_words += m + row_words;
            }
        }
        net
    }
}

/// Run PARSEC on the simulated MP-1, with fault detection/recovery and
/// budget enforcement.
///
/// ```
/// use parsec_maspar::{parse_maspar_checked, MasparOptions};
/// use cdg_grammar::grammars::paper;
///
/// let grammar = paper::grammar();
/// let sentence = paper::example_sentence(&grammar);
/// let out = parse_maspar_checked(&grammar, &sentence, &MasparOptions::default()).unwrap();
/// assert!(out.roles_nonempty());
/// assert_eq!(out.layout.virt_pes(), 324); // the paper's Figure 11
/// assert_eq!(out.virt_factor, 1);         // fits the 16K array
/// // Estimated MP-1 time lands on the paper's ~0.15 s.
/// assert!((0.08..0.25).contains(&out.estimated_seconds));
/// ```
///
/// With `opts.faults` armed, the engine probes and retires dead PEs,
/// double-executes every phase against golden checkpoints, and retries
/// corrupted phases — a recovered parse is **bit-identical** to the
/// fault-free one (property-tested in `tests/fault_injection.rs`). When
/// recovery is impossible the result is a typed [`EngineError`]; there is
/// no third outcome.
///
/// Every parse on a host thread runs on that thread's one simulated
/// machine, reset first to the state a new machine has: only the host
/// buffers of freed plurals carry over from one parse to the next.
pub fn parse_maspar_checked(
    grammar: &Grammar,
    sentence: &Sentence,
    opts: &MasparOptions,
) -> Result<MasparOutcome, EngineError> {
    parse_maspar_compiled(grammar, sentence, opts, None)
}

thread_local! {
    /// The simulated machine each host thread parses on, and the ACU's
    /// host buffers, between parses. The machine is reset for every parse,
    /// so each runs as on a new machine; what it keeps across parses is
    /// the host buffers of freed plurals, sized to the largest sentence the
    /// thread has parsed.
    static MACHINE: Cell<Option<(Machine, AcuScratch)>> = const { Cell::new(None) };
}

/// [`parse_maspar_checked`] taking the constraint programs from the
/// grammar's compiled artifact when one is attached. The parse runs on
/// the thread's machine and ACU buffers, taken out for the parse and put
/// back after it, so a parse that panics drops them instead of leaving a
/// half-run machine behind.
pub(crate) fn parse_maspar_compiled(
    grammar: &Grammar,
    sentence: &Sentence,
    opts: &MasparOptions,
    compiled: Option<&CompiledGrammar>,
) -> Result<MasparOutcome, EngineError> {
    let _build = obsv::span("network_build");
    let lay = precheck(grammar, sentence, opts)?;

    let (mut machine, mut acu) = match MACHINE.take() {
        Some((mut machine, acu)) => {
            machine.reset(opts.machine.clone(), lay.virt_pes());
            (machine, acu)
        }
        None => (
            Machine::new(opts.machine.clone(), lay.virt_pes()),
            AcuScratch::default(),
        ),
    };
    if let Some(plan) = &opts.faults {
        machine.arm_faults(plan.clone());
    }
    if opts.trace {
        machine.enable_trace();
    }
    drop(_build);
    let out = probe_and_drive(
        &mut machine,
        &mut acu,
        lay,
        grammar,
        sentence,
        opts,
        compiled,
    );
    MACHINE.set(Some((machine, acu)));
    out
}

/// Hand the host buffer of a parse's read-back `bits` to the thread's
/// machine, once the host is done with it.
pub(crate) fn recycle_readback(bits: Vec<u64>) {
    if let Some((mut machine, acu)) = MACHINE.take() {
        machine.recycle(bits);
        MACHINE.set(Some((machine, acu)));
    }
}

/// Probe and retire dead PEs when faults are armed, then run the engine.
fn probe_and_drive(
    machine: &mut Machine,
    acu: &mut AcuScratch,
    lay: Layout,
    grammar: &Grammar,
    sentence: &Sentence,
    opts: &MasparOptions,
    compiled: Option<&CompiledGrammar>,
) -> Result<MasparOutcome, EngineError> {
    let mut recovery = RecoveryReport::default();

    // --- Probe & retire: clear persistent faults before laying out data.
    if machine.faults_armed() {
        let _probe = obsv::span("fault_probe");
        let mut nonce = 0x5EED_C0DE_0000_0001u64;
        loop {
            recovery.probes += 1;
            let dead = machine.probe_pes(nonce);
            nonce = nonce.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
            if dead.is_empty() {
                break;
            }
            if recovery.probes > 16 {
                return Err(EngineError::PeFailure {
                    dead,
                    detail: "probing kept finding dead PEs after 16 rounds".into(),
                });
            }
            if machine.retire_pes(&dead) == 0 {
                return Err(EngineError::PeFailure {
                    dead,
                    detail: "no healthy physical PEs remain".into(),
                });
            }
            recovery.retired_pes.extend(dead);
        }
    }

    drive(
        machine, acu, lay, grammar, sentence, opts, compiled, recovery,
    )
}

/// `c`'s program from the attached artifact, compiled here only when none
/// is attached (as `cdg_core::kernel::with_program` resolves it).
fn program_of<'a>(
    compiled: Option<&'a CompiledGrammar>,
    grammar: &Grammar,
    c: &Constraint,
) -> Cow<'a, KernelProgram> {
    match compiled.and_then(|cg| cg.program_for(grammar, c)) {
        Some(p) => Cow::Borrowed(p),
        None => Cow::Owned(KernelProgram::compile(&c.expr)),
    }
}

/// The typed pre-flight checks every MasPar parse runs before touching a
/// machine: layout construction (rejecting lexically ambiguous input),
/// the arc-cell budget, and the PE-memory working set.
fn precheck(
    grammar: &Grammar,
    sentence: &Sentence,
    opts: &MasparOptions,
) -> Result<Layout, EngineError> {
    let lay = Layout::try_new(grammar, sentence).map_err(EngineError::GrammarError)?;

    // The engine's data layout IS the arc matrix set (one l×l submatrix
    // per virtual PE), so an arc-cell budget it cannot meet is a hard
    // typed error — there is no arc-less partial mode here.
    if let Some(cap) = opts.budget.max_arc_cells {
        let cells = lay.virt_pes() as u64 * (lay.l * lay.l) as u64;
        if cells > cap {
            return Err(ParseBudget::exceeded(BudgetResource::ArcCells, cap, cells));
        }
    }
    // Reject programs that would blow the 16 KB PE memory with a typed
    // error before touching the machine.
    let factor = lay.virt_pes().div_ceil(opts.machine.phys_pes.max(1));
    if factor * WORKING_SET_BYTES > opts.machine.pe_memory_bytes {
        return Err(EngineError::GrammarError(format!(
            "sentence needs {} virtual PEs (×{factor} virtualization): working set \
             exceeds the {} B PE memory",
            lay.virt_pes(),
            opts.machine.pe_memory_bytes
        )));
    }
    Ok(lay)
}

/// The engine body: everything from data layout to readback. Boolean
/// plurals are bit-sliced ([`PluralBits`], 64 PEs per host word); how the
/// host stores them is invisible to the simulated machine. `acu` holds the
/// ACU's host buffers.
#[allow(clippy::too_many_arguments)]
fn drive(
    machine: &mut Machine,
    acu: &mut AcuScratch,
    lay: Layout,
    grammar: &Grammar,
    sentence: &Sentence,
    opts: &MasparOptions,
    compiled: Option<&CompiledGrammar>,
    mut recovery: RecoveryReport,
) -> Result<MasparOutcome, EngineError> {
    let over_time = |machine: &Machine| -> Option<EngineError> {
        let cap = opts.budget.max_wall_time?;
        let spent = machine.estimated_seconds();
        (spent > cap.as_secs_f64()).then(|| {
            ParseBudget::exceeded(
                BudgetResource::WallTime,
                format!("{cap:?}"),
                format!("{spent:.4}s estimated MP-1 time"),
            )
        })
    };

    let mut phases: Vec<PhaseStats> = Vec::new();
    let mut mark = machine.stats;
    let phase =
        |machine: &Machine, phases: &mut Vec<PhaseStats>, mark: &mut MachineStats, name: String| {
            phases.push(PhaseStats {
                name,
                stats: machine.stats.delta_since(mark),
            });
            *mark = machine.stats;
        };

    // --- Init: every plural is a pure function of the PE's grid position,
    // so the host verifies it directly against expected values (no double
    // execution needed). Fault-free, each init is exactly alloc + one
    // broadcast — the same instructions as the original engine.
    //
    // Validity mask: everything but the self-arc diagonal (Figure 11's
    // disabled PEs). Computed from PE positions — design decision 2: no
    // broadcast needed.
    let retries = RECOVERY_RETRIES;
    let _init = obsv::span("arc_init");
    let t = Tables::new(&lay);
    let side = t.side;
    let valid = init_bits_exact(machine, "valid", retries, &mut recovery, &t.valid_words())?;
    let block_boundary = init_bits_exact(
        machine,
        "block-boundary",
        retries,
        &mut recovery,
        &t.block_boundary_words(),
    )?;

    // Design decision 1: arc matrices first, all ones (Figure 9). The
    // submatrices carry an occupancy mask from here to the readback, so
    // the clear-only steps walk only the PEs whose submatrix is not zero.
    let mut bits = init_occ_exact(machine, retries, &mut recovery, side, |c, rows, out| {
        t.init_bits(c, rows, out)
    })?;
    let mut alive: Plural<u64> = init_exact(
        machine,
        "alive",
        retries,
        &mut recovery,
        side,
        |c, rows, out| t.init_alive(c, rows, out),
    )?;

    // Router index plurals for the alive-mask gathers (phase D).
    let col_boundary_idx: Plural<usize> = init_exact(
        machine,
        "col-idx",
        retries,
        &mut recovery,
        side,
        |c, _, out| out.fill(t.boundary(c)),
    )?;
    let row_boundary_idx: Plural<usize> = init_exact(
        machine,
        "row-idx",
        retries,
        &mut recovery,
        side,
        |_, rows, out| out.copy_from_slice(&t.row_boundaries[rows]),
    )?;
    phase(machine, &mut phases, &mut mark, "init".into());
    drop(_init);

    let mut degraded: Option<EngineError> = over_time(machine);

    // --- Unary propagation on the matrices (design decisions 1 & 4) ---
    // The ACU's tables cover only the role values still alive: `live`
    // starts with every value, and each unary table takes out the values
    // it kills. Binary propagation never kills a value, so what unary
    // propagation leaves is what every binary table covers.
    let _unary = obsv::span("unary_propagation");
    let mut live = t.every_value();
    let mut table = UnaryTable::default();
    for c in grammar.unary_constraints() {
        if degraded.is_some() {
            break;
        }
        let name = format!("unary:{}", c.name);
        let _c = obsv::span_with(|| name.clone());
        // The unary test depends only on (group, label), so the ACU
        // evaluates it on the host and broadcasts keep masks.
        let program = program_of(compiled, grammar, c);
        table.build(&t, sentence, &program, &mut live, acu);
        run_phase(
            machine,
            retries,
            &mut recovery,
            &name,
            &mut bits,
            &mut alive,
            |m, bits, alive| {
                unary_from_table(m, &t, &table, &valid, bits, alive);
                0
            },
        )?;
        phase(machine, &mut phases, &mut mark, name);
        degraded = over_time(machine);
    }
    // Immediately zero rows/cols of values the unary pass killed, so the
    // matrices agree with the alive masks before binary propagation.
    if degraded.is_none() {
        let _c = obsv::span("unary:mask");
        run_phase(
            machine,
            retries,
            &mut recovery,
            "unary:mask",
            &mut bits,
            &mut alive,
            |m, bits, alive| {
                mask_dead(
                    m,
                    &t,
                    &valid,
                    bits,
                    alive,
                    &col_boundary_idx,
                    &row_boundary_idx,
                );
                0
            },
        )?;
        phase(machine, &mut phases, &mut mark, "unary:mask".into());
    }
    drop(_unary);

    // --- Binary propagation ---
    let _binary = obsv::span("binary_propagation");
    let mut classes = BinaryClasses::default();
    for c in grammar.binary_constraints() {
        if degraded.is_some() {
            break;
        }
        let name = format!("binary:{}", c.name);
        let _c = obsv::span_with(|| name.clone());
        let program = program_of(compiled, grammar, c);
        classes.build(&t, sentence, &program, &live, acu);
        run_phase(
            machine,
            retries,
            &mut recovery,
            &name,
            &mut bits,
            &mut alive,
            |m, bits, _alive| {
                apply_binary(
                    m,
                    &t,
                    &classes,
                    sentence,
                    &program,
                    &valid,
                    bits,
                    &mut acu.stack,
                );
                0
            },
        )?;
        phase(machine, &mut phases, &mut mark, name);
        degraded = over_time(machine);
    }

    drop(_binary);

    // --- Consistency maintenance + bounded filtering (decisions 3 & 5) ---
    let _filtering = obsv::span("filtering");
    let mut iterations = 0;
    let mut removals_per_iteration: Vec<u64> = Vec::new();
    for _ in 0..opts.filter_iterations {
        if degraded.is_some() {
            break;
        }
        if let Some(cap) = opts.budget.max_filter_iterations {
            if iterations >= cap {
                // Only a degradation if filtering had not already settled.
                if removals_per_iteration.last().is_none_or(|&r| r > 0) {
                    degraded = Some(ParseBudget::exceeded(
                        BudgetResource::FilterIterations,
                        cap,
                        iterations + 1,
                    ));
                }
                break;
            }
        }
        iterations += 1;
        let _m = obsv::span("maintain");
        let name = format!("maintain:{iterations}");
        let removed = run_phase(
            machine,
            retries,
            &mut recovery,
            &name,
            &mut bits,
            &mut alive,
            |m, bits, alive| {
                maintain(
                    m,
                    &t,
                    &valid,
                    &block_boundary,
                    bits,
                    alive,
                    &col_boundary_idx,
                    &row_boundary_idx,
                )
            },
        )?;
        removals_per_iteration.push(removed);
        phase(machine, &mut phases, &mut mark, name);
        if opts.early_exit && removed == 0 {
            break;
        }
        degraded = over_time(machine);
    }
    drop(_filtering);

    let estimated_seconds = machine.estimated_seconds();
    let trace = machine.trace().to_vec();
    // The program is over: read back, and hand the host buffers the
    // readback does not keep to the machine's next parse.
    let alive_masks = alive
        .as_slice()
        .iter()
        .step_by(lay.groups)
        .copied()
        .collect();
    machine.free(alive);
    machine.free(col_boundary_idx);
    machine.free(row_boundary_idx);
    machine.free_bits(valid);
    machine.free_bits(block_boundary);
    Ok(MasparOutcome {
        alive: alive_masks,
        bits: machine.read_out(bits),
        stats: machine.stats,
        estimated_seconds,
        phases,
        filter_iterations_run: iterations,
        removals_per_iteration,
        virt_factor: machine.virt_factor(),
        trace,
        recovery,
        degraded,
        layout: lay,
    })
}

/// The ACU's per-parse tables. A PE body reads its own memory plus these,
/// which are pure functions of the layout and the sentence (design
/// decision 2): the host builds them once per parse, and the addressed
/// broadcasts hand each body the grid position that indexes them.
///
/// The PE array is one G×G grid: column `col` is group `col`, and its
/// row `row` is group `row`.
struct Tables {
    /// Groups, G: the side of the grid.
    side: usize,
    l: usize,
    m: usize,
    q: usize,
    /// Figure 12's scan segments over the grid: (column, row word-role)
    /// blocks of m PEs and columns of G PEs.
    blocks: SegmentMap,
    columns: SegmentMap,
    /// `rows_of[a]`: the submatrix bits of every column label in the l-bit
    /// mask `a`; `cols_of[a]`: those of every row label in it.
    rows_of: Vec<u64>,
    cols_of: Vec<u64>,
    /// Role value (group g, label li) as a constraint binding, at
    /// `g·l + li`; `None` pads roles with fewer than l labels.
    bindings: Vec<Option<Binding>>,
    /// The valid role values of every (word, role) slot as one lane
    /// domain: slot k's lanes are `values[starts[k]..starts[k + 1]]`, in
    /// (group, label) order, and `value_at` holds each lane's `g·l + li`.
    values: Vec<RoleValue>,
    value_at: Vec<usize>,
    starts: Vec<usize>,
    /// Words per slot in a lane set over every slot
    /// ([`Tables::lane_words`]).
    lane_stride: usize,
    /// Lane tables over those slot domains, built on first use.
    lanes: LaneTables,
    /// (word, role) slot and role index of each group.
    slot_of: Vec<usize>,
    role_of: Vec<usize>,
    /// Initial submatrices of a column of each role, at `rc·G + row`:
    /// every valid label pair of role `rc` against the row's role.
    init_rows: Vec<u64>,
    /// Router index of each row's alive mask ([`Tables::boundary`]).
    row_boundaries: Vec<usize>,
    /// Every valid label of each role, as an alive mask.
    full: Vec<u64>,
}

impl Tables {
    fn new(lay: &Layout) -> Tables {
        let (l, q, side) = (lay.l, lay.q, lay.groups);
        // Mask `a` is mask `a` without its lowest label, plus that
        // label's line: one OR per mask.
        let label_masks = |line: fn(&Layout, usize) -> u64| -> Vec<u64> {
            let mut out = vec![0u64; 1 << l];
            for a in 1..out.len() {
                out[a] = out[a & (a - 1)] | line(lay, a.trailing_zeros() as usize);
            }
            out
        };
        let virt = lay.virt_pes();
        let bindings: Vec<Option<Binding>> =
            (0..side * l).map(|k| lay.binding(k / l, k % l)).collect();
        let (mut values, mut value_at, mut starts) = (Vec::new(), Vec::new(), vec![0]);
        for (k, b) in bindings.iter().enumerate() {
            if let Some(b) = b {
                values.push(b.value);
                value_at.push(k);
            }
            if (k + 1) % (lay.m * l) == 0 {
                starts.push(values.len());
            }
        }
        let mut lanes = LaneTables::new();
        lanes.reset(starts.len() - 1);
        let role_of: Vec<usize> = (0..side).map(|g| g / lay.m % q).collect();
        let role_mask = |r: usize| (1u64 << lay.labels_of_role(r)) - 1;
        // Column role `rc` against row role `rr`: the label pairs of both.
        let pair_bits = |rc: usize, rr: usize| {
            (0..lay.labels_of_role(rc)).fold(0u64, |bits, i| bits | role_mask(rr) << (i * l))
        };
        Tables {
            side,
            l,
            m: lay.m,
            q,
            blocks: SegmentMap::uniform(virt, lay.m),
            columns: SegmentMap::uniform(virt, side),
            rows_of: label_masks(Layout::row_mask),
            cols_of: label_masks(Layout::col_mask),
            bindings,
            values,
            value_at,
            starts,
            lane_stride: (lay.m * l).div_ceil(64),
            lanes,
            slot_of: (0..side).map(|g| g / lay.m).collect(),
            init_rows: (0..q * side)
                .map(|k| pair_bits(k / side, role_of[k % side]))
                .collect(),
            row_boundaries: (0..side).map(|row| row * side).collect(),
            role_of,
            full: (0..q).map(role_mask).collect(),
        }
    }

    /// Number of (word, role) slots.
    fn slots(&self) -> usize {
        self.starts.len() - 1
    }

    /// The rows of column `col`'s diagonal block: the groups of its own
    /// (word, role) slot, whose PEs hold self-arcs (Figure 11's disabled
    /// PEs).
    fn diagonal_rows(&self, col: usize) -> Range<usize> {
        let start = self.slot_of[col] * self.m;
        start..start + self.m
    }

    /// The validity mask, packed: every PE but the diagonal blocks.
    fn valid_words(&self) -> Vec<u64> {
        let pes = self.side * self.side;
        let mut words = vec![!0u64; pes.div_ceil(64)];
        if pes % 64 != 0 {
            *words.last_mut().expect("a grid has PEs") >>= 64 - pes % 64;
        }
        for col in 0..self.side {
            let rows = self.diagonal_rows(col);
            clear_run(
                &mut words,
                col * self.side + rows.start..col * self.side + rows.end,
            );
        }
        words
    }

    /// The block-boundary mask, packed: the first PE of every (column, row
    /// word-role) block of Figure 12's scanOr but the diagonal ones.
    fn block_boundary_words(&self) -> Vec<u64> {
        let pes = self.side * self.side;
        let mut words = vec![0u64; pes.div_ceil(64)];
        for pe in (0..pes).step_by(self.m) {
            words[pe / 64] |= 1u64 << (pe % 64);
        }
        for col in 0..self.side {
            let pe = col * self.side + self.diagonal_rows(col).start;
            words[pe / 64] &= !(1u64 << (pe % 64));
        }
        words
    }

    /// Column `col`'s initial submatrices at `rows`: every valid label
    /// pair set (Figure 9: every role value present before unary
    /// propagation), copied from the column role's row template, and the
    /// diagonal block empty.
    fn init_bits(&self, col: usize, rows: Range<usize>, out: &mut [u64]) {
        let base = self.role_of[col] * self.side;
        out.copy_from_slice(&self.init_rows[base + rows.start..base + rows.end]);
        let diag = self.diagonal_rows(col);
        let (lo, hi) = (diag.start.max(rows.start), diag.end.min(rows.end));
        if lo < hi {
            out[lo - rows.start..hi - rows.start].fill(0);
        }
    }

    /// Column `col`'s initial alive masks at `rows`: all valid labels at
    /// the column's boundary PE (row 0), 0 elsewhere.
    fn init_alive(&self, col: usize, rows: Range<usize>, out: &mut [u64]) {
        out.fill(0);
        if rows.start == 0 {
            out[0] = self.full[self.role_of[col]];
        }
    }

    /// Slot `k`'s lanes (its valid role values at the slot's position and
    /// role) and each lane's `g·l + li`.
    fn slot_lanes(&self, k: usize) -> (LaneSlot<'_>, &[usize]) {
        let span = self.starts[k]..self.starts[k + 1];
        let pos = (k / self.q) as u16 + 1;
        let role = RoleId((k % self.q) as u16);
        (
            self.lanes.slot(k, pos, role, &self.values[span.clone()]),
            &self.value_at[span],
        )
    }

    /// Slot `k`'s words in a lane set over every slot.
    fn lane_words(&self, k: usize) -> Range<usize> {
        let start = k * self.lane_stride;
        start..start + (self.starts[k + 1] - self.starts[k]).div_ceil(64)
    }

    /// The lane set over every slot that holds every valid role value:
    /// what the ACU's tables cover before unary propagation kills any.
    fn every_value(&self) -> Vec<u64> {
        let mut set = vec![0u64; self.slots() * self.lane_stride];
        for k in 0..self.slots() {
            let lanes = self.starts[k + 1] - self.starts[k];
            let words = &mut set[self.lane_words(k)];
            words.fill(!0);
            clear_run(words, lanes..words.len() * 64);
        }
        set
    }

    /// Router index of group `g`'s alive mask: its boundary PE.
    fn boundary(&self, g: usize) -> usize {
        g * self.side
    }
}

/// Clear bits `run` of the packed `words`, a word at a time.
fn clear_run(words: &mut [u64], run: Range<usize>) {
    let mut bit = run.start;
    while bit < run.end {
        let (w, b) = (bit / 64, bit % 64);
        let n = (64 - b).min(run.end - bit);
        words[w] &= !((!0u64 >> (64 - n)) << b);
        bit += n;
    }
}

/// Re-issue `write` until what it wrote stands. The values are pure
/// functions of the PE's grid position, so under faults the host verifies
/// the readback directly; fault-free one write is trusted, as in the
/// original engine. `write` returns whether its write stands.
fn until_exact(
    machine: &mut Machine,
    name: &str,
    max_retries: usize,
    recovery: &mut RecoveryReport,
    mut write: impl FnMut(&mut Machine) -> bool,
) -> Result<(), EngineError> {
    let mut attempts = 0;
    loop {
        attempts += 1;
        if write(machine) {
            return Ok(());
        }
        recovery.phase_retries += 1;
        if attempts > max_retries {
            return Err(EngineError::Inconsistent {
                phase: format!("init:{name}"),
                attempts,
            });
        }
    }
}

/// Does every column of a grid of `side`-PE columns hold what the column
/// body `f` writes into the whole column?
fn holds_grid<T: Copy + Default + PartialEq>(
    values: &[T],
    side: usize,
    f: impl Fn(usize, Range<usize>, &mut [T]),
) -> bool {
    let mut want = vec![T::default(); side];
    values.chunks(side).enumerate().all(|(col, column)| {
        f(col, 0..side, &mut want);
        column == want
    })
}

/// Allocate a plural and write it a column piece at a time: `f(col, rows,
/// out)` writes the PEs of column `col` at `rows` ([`until_exact`]).
/// Fault-free this is exactly one alloc + one broadcast, identical to the
/// original `par_init`.
fn init_exact<T>(
    machine: &mut Machine,
    name: &str,
    max_retries: usize,
    recovery: &mut RecoveryReport,
    side: usize,
    f: impl Fn(usize, Range<usize>, &mut [T]),
) -> Result<Plural<T>, EngineError>
where
    T: Copy + Default + PartialEq + maspar_sim::FaultWord + 'static,
{
    let mut p = machine.alloc(T::default());
    until_exact(machine, name, max_retries, recovery, |m| {
        m.par_map_grid(&mut p, side, &f);
        !m.faults_armed() || holds_grid(p.as_slice(), side, &f)
    })?;
    Ok(p)
}

/// [`init_exact`] for the submatrices: an occupancy plural, whose mask
/// takes in every PE the write writes.
fn init_occ_exact(
    machine: &mut Machine,
    max_retries: usize,
    recovery: &mut RecoveryReport,
    side: usize,
    f: impl Fn(usize, Range<usize>, &mut [u64]),
) -> Result<OccPlural, EngineError> {
    let mut p = machine.alloc_occ();
    until_exact(machine, "bits", max_retries, recovery, |m| {
        m.par_write_grid(&mut p, side, &f);
        !m.faults_armed() || holds_grid(p.as_slice(), side, &f)
    })?;
    Ok(p)
}

/// Execute one mutating phase. Fault-free: run it once. Under faults:
/// checkpoint `bits`/`alive` on the host, run the phase **twice** (rolling
/// back in between), and accept only two bit-identical executions; retry
/// from the checkpoint otherwise. Returns the phase's scalar result. The
/// checkpoint and the first run's copies live in the machine's kept host
/// buffers ([`Machine::host_buffer`]) and go back to it after the phase,
/// so a warm machine makes none of them anew.
#[allow(clippy::too_many_arguments)]
fn run_phase<F>(
    machine: &mut Machine,
    max_retries: usize,
    recovery: &mut RecoveryReport,
    name: &str,
    bits: &mut OccPlural,
    alive: &mut Plural<u64>,
    mut f: F,
) -> Result<u64, EngineError>
where
    F: FnMut(&mut Machine, &mut OccPlural, &mut Plural<u64>) -> u64,
{
    if !machine.faults_armed() {
        return Ok(f(machine, bits, alive));
    }
    let _verify = obsv::span("verify");
    recovery.verified_phases += 1;
    let [mut golden_bits, mut golden_alive, mut run1_bits, mut run1_alive] =
        [(); 4].map(|()| machine.host_buffer::<u64>());
    copy_into(&mut golden_bits, bits.as_slice());
    copy_into(&mut golden_alive, alive.as_slice());
    let mut attempts = 0;
    let result = loop {
        attempts += 1;
        let r1 = f(machine, bits, alive);
        copy_into(&mut run1_bits, bits.as_slice());
        copy_into(&mut run1_alive, alive.as_slice());
        restore_occ(machine, bits, &golden_bits);
        restore(machine, alive, &golden_alive);
        let r2 = f(machine, bits, alive);
        if r1 == r2 && run1_bits == bits.as_slice() && run1_alive == alive.as_slice() {
            break Ok(r2);
        }
        recovery.phase_retries += 1;
        if attempts >= max_retries {
            break Err(EngineError::Inconsistent {
                phase: name.to_string(),
                attempts,
            });
        }
        restore_occ(machine, bits, &golden_bits);
        restore(machine, alive, &golden_alive);
    };
    for buf in [golden_bits, golden_alive, run1_bits, run1_alive] {
        machine.recycle(buf);
    }
    result
}

/// Overwrite a host buffer with a plural's values.
fn copy_into(buf: &mut Vec<u64>, values: &[u64]) {
    buf.clear();
    buf.extend_from_slice(values);
}

/// Roll a plural back to a host-held golden copy (one broadcast).
fn restore(machine: &mut Machine, p: &mut Plural<u64>, golden: &[u64]) {
    machine.par_map(p, |pe, v| *v = golden[pe]);
}

/// [`restore`] for the submatrices, whose occupancy mask takes in every PE
/// the write writes. The grid is one column spanning the array, so its
/// rows are PE ids.
fn restore_occ(machine: &mut Machine, p: &mut OccPlural, golden: &[u64]) {
    machine.par_write_grid(p, p.len(), |_, pes, slots| {
        slots.copy_from_slice(&golden[pes])
    });
}

/// Allocate and write a host-verified boolean plural from its packed
/// table `want` (the bit-sliced counterpart of [`init_exact`]).
fn init_bits_exact(
    machine: &mut Machine,
    name: &str,
    max_retries: usize,
    recovery: &mut RecoveryReport,
    want: &[u64],
) -> Result<PluralBits, EngineError> {
    let mut p = machine.alloc_bits(false);
    until_exact(machine, name, max_retries, recovery, |m| {
        m.par_write_bits(&mut p, want);
        !m.faults_armed() || p.words() == want
    })?;
    Ok(p)
}

/// One unary constraint's host table: bit li of `viol[g]` is set when role
/// value (group g, label li) violates it, and the keep masks the
/// broadcasts AND with follow from those bits.
#[derive(Debug, Default)]
struct UnaryTable {
    viol: Vec<u64>,
    keep_cols: Vec<u64>,
    keep_rows: Vec<u64>,
}

impl UnaryTable {
    /// The table of the unary constraint compiled to `program`, over the
    /// role values still in `live`; the violators leave `live`. Evaluated
    /// a (word, role) slot at a time, as [`KernelProgram::unary_lanes`]
    /// over the slot's live lanes ([`Tables::slot_lanes`]): the slot class
    /// first (most unary constraints are guarded by category or role, and
    /// a definite class holds for every value of the slot), one lane pass
    /// where it is `Unknown`. A value an earlier table killed is not
    /// evaluated: its submatrix lines and alive bit are already zero, so
    /// killing it again would change nothing.
    fn build(
        &mut self,
        t: &Tables,
        sentence: &Sentence,
        program: &KernelProgram,
        live: &mut [u64],
        scratch: &mut AcuScratch,
    ) {
        let AcuScratch {
            lanes: lane_scratch,
            pass: doomed,
            ..
        } = scratch;
        let viol = &mut self.viol;
        viol.clear();
        viol.resize(t.side, 0);
        for k in 0..t.slots() {
            let set = &mut live[t.lane_words(k)];
            if set.iter().all(|&w| w == 0) {
                continue;
            }
            let (lanes, at) = t.slot_lanes(k);
            doomed.resize(set.len(), 0);
            program.unary_lanes(sentence, &lanes, set, lane_scratch, doomed);
            for lane in ones(doomed) {
                viol[at[lane] / t.l] |= 1u64 << (at[lane] % t.l);
            }
            for (s, &d) in set.iter_mut().zip(doomed.iter()) {
                *s &= !d;
            }
        }
        self.keep_cols.clear();
        self.keep_cols
            .extend(viol.iter().map(|&v| !t.rows_of[v as usize]));
        self.keep_rows.clear();
        self.keep_rows
            .extend(viol.iter().map(|&v| !t.cols_of[v as usize]));
    }
}

/// Apply one unary constraint from its table ([`UnaryTable::build`]):
/// valid PEs zero the submatrix rows and columns of violating values, and
/// the group boundary PEs clear those values from the alive masks. The
/// keep masks only clear bits, so only the occupied submatrices are
/// walked.
fn unary_from_table(
    machine: &mut Machine,
    t: &Tables,
    table: &UnaryTable,
    valid: &PluralBits,
    bits: &mut OccPlural,
    alive: &mut Plural<u64>,
) {
    machine.with_activity_bits(valid, |m| {
        m.par_and_grid(bits, t.side, &table.keep_cols, &table.keep_rows)
    });
    let viol = &table.viol;
    machine.par_map_strided(alive, t.side, |pe, a| *a &= !viol[pe / t.side]);
}

/// Does one ordering of a pair hold — is the constraint's verdict on it,
/// `x` then `y`, not definitely false?
fn holds(
    program: &KernelProgram,
    sentence: &Sentence,
    x: Binding,
    y: Binding,
    stack: &mut Vec<Value>,
) -> bool {
    program
        .eval_with(&EvalCtx::binary(sentence, x, y), stack)
        .truth()
        .not_false()
}

/// One group's slot classes under a binary constraint, over the role
/// values still alive. Bit `li` of `pass_x` is set when role value (group,
/// li) makes the constraint definitely true as `x`, whatever `y` is;
/// `pass_y` likewise as `y`; `fail` when it makes the constraint
/// definitely false as `x` or as `y`. `alive` holds the group's labels
/// still alive.
#[derive(Debug, Clone, Copy, Default)]
struct Class {
    pass_x: u64,
    pass_y: u64,
    fail: u64,
    alive: u64,
    /// Every alive label passes as `x` and as `y`: no pair a PE of this
    /// group holds can fail either ordering (a dead label holds none).
    settled: bool,
}

/// The buffers the ACU's host tables reuse from one constraint to the
/// next.
#[derive(Debug, Default)]
struct AcuScratch {
    lanes: LaneScratch,
    pass: Vec<u64>,
    fail: Vec<u64>,
    /// The kernel evaluator's stack, lent to the binary PE bodies so no
    /// PE allocates.
    stack: Vec<Value>,
}

/// The ACU's class table for a binary constraint, one [`Class`] per
/// group, rebuilt in place for each constraint. Per (word, role) slot and ordering it runs one
/// [`KernelProgram::eval_lanes`] pass over the slot's live role values
/// ([`Tables::slot_lanes`]) with the other variable
/// [`PartialBinding::Any`]. By Kleene monotonicity (as in
/// `cdg_core::kernel::kernel_arc`) a definite verdict there is the verdict
/// for every binding of the other variable, so a PE body evaluates only
/// the orderings no class decides. A dead value's submatrix lines are
/// zero on every PE and binary propagation kills no value, so the dead
/// values need no class.
#[derive(Debug, Default)]
struct BinaryClasses {
    groups: Vec<Class>,
}

impl BinaryClasses {
    /// The classes of the binary constraint compiled to `program`, over
    /// the role values in `live`.
    fn build(
        &mut self,
        t: &Tables,
        sentence: &Sentence,
        program: &KernelProgram,
        live: &[u64],
        scratch: &mut AcuScratch,
    ) {
        let groups = &mut self.groups;
        groups.clear();
        groups.resize(t.side, Class::default());
        let AcuScratch {
            lanes: lane_scratch,
            pass,
            fail,
            ..
        } = scratch;
        for k in 0..t.slots() {
            let set = &live[t.lane_words(k)];
            let (lanes, at) = t.slot_lanes(k);
            for lane in ones(set) {
                groups[at[lane] / t.l].alive |= 1u64 << (at[lane] % t.l);
            }
            pass.resize(set.len(), 0);
            fail.resize(set.len(), 0);
            for var in [Var::X, Var::Y] {
                program.eval_lanes(
                    sentence,
                    &lanes,
                    var,
                    PartialBinding::Any,
                    set,
                    lane_scratch,
                    pass,
                    fail,
                );
                for lane in ones(pass) {
                    let c = &mut groups[at[lane] / t.l];
                    let bit = 1u64 << (at[lane] % t.l);
                    match var {
                        Var::X => c.pass_x |= bit,
                        Var::Y => c.pass_y |= bit,
                    }
                }
                for lane in ones(fail) {
                    groups[at[lane] / t.l].fail |= 1u64 << (at[lane] % t.l);
                }
            }
        }
        for (g, c) in groups.iter_mut().enumerate() {
            let full = t.full[t.role_of[g]];
            c.settled = c.pass_x & c.pass_y | (full & !c.alive) == full;
        }
    }

    /// The binary PE body on one column piece of group `cg`: the PEs of
    /// `rows`, whose submatrices are `slots`. A settled column or row has
    /// nothing to check. Otherwise the pairs a class fails are zeroed with
    /// one `rows_of`/`cols_of` lookup per side, and `holds(x, y)` runs only
    /// for the orderings of a live pair that no class decides.
    fn decide_column(
        &self,
        t: &Tables,
        cg: usize,
        rows: std::ops::Range<usize>,
        slots: &mut [u64],
        mut holds: impl FnMut(Binding, Binding) -> bool,
    ) {
        let c = self.groups[cg];
        if c.settled {
            return;
        }
        let l = t.l;
        let label_mask = (1u64 << l) - 1;
        let keep = !t.rows_of[c.fail as usize];
        for (rg, b) in rows.zip(slots) {
            if *b == 0 {
                continue;
            }
            let r = self.groups[rg];
            if r.settled {
                continue;
            }
            *b &= keep & !t.cols_of[r.fail as usize];
            for i in 0..l {
                let live = *b >> (i * l) & label_mask;
                // Row labels whose ordering (column as x, row as y), or
                // (row as x, column as y), no class decides.
                let open_xy = if c.pass_x >> i & 1 == 1 { 0 } else { !r.pass_y };
                let open_yx = if c.pass_y >> i & 1 == 1 { 0 } else { !r.pass_x };
                let mut open = live & (open_xy | open_yx);
                if open == 0 {
                    continue;
                }
                let Some(bx) = t.bindings[cg * l + i] else {
                    continue;
                };
                while open != 0 {
                    let j = open.trailing_zeros() as usize;
                    open &= open - 1;
                    let Some(by) = t.bindings[rg * l + j] else {
                        continue;
                    };
                    let ok = (open_xy >> j & 1 == 0 || holds(bx, by))
                        && (open_yx >> j & 1 == 0 || holds(by, bx));
                    if !ok {
                        *b &= !(1u64 << (i * l + j));
                    }
                }
            }
        }
    }
}

/// One binary constraint, compiled to `program` and classified into
/// `classes`: every valid PE checks the live pairs of its l×l submatrix in
/// both orderings ([`BinaryClasses::decide_column`]), on the evaluator
/// stack `stack`. The body only clears pairs, so an empty submatrix stays
/// empty and the walk skips it.
#[allow(clippy::too_many_arguments)]
fn apply_binary(
    machine: &mut Machine,
    t: &Tables,
    classes: &BinaryClasses,
    sentence: &Sentence,
    program: &KernelProgram,
    valid: &PluralBits,
    bits: &mut OccPlural,
    stack: &mut Vec<Value>,
) {
    machine.with_activity_bits(valid, |m| {
        m.par_clear_grid(bits, t.side, |cg, rows, slots| {
            classes.decide_column(t, cg, rows, slots, |x, y| {
                holds(program, sentence, x, y, stack)
            })
        });
    });
}

/// Zero every submatrix column/row belonging to a dead role value: two
/// router gathers fetch the column's and row's alive masks from the
/// boundary PEs, then one broadcast per side keeps the submatrix lines of
/// the gathered alive labels (a table lookup on the l-bit mask). The keeps
/// only clear bits and walk the occupied submatrices; the gathers fill
/// plurals of their own, on every live PE.
fn mask_dead(
    machine: &mut Machine,
    t: &Tables,
    valid: &PluralBits,
    bits: &mut OccPlural,
    alive: &Plural<u64>,
    col_idx: &Plural<usize>,
    row_idx: &Plural<usize>,
) {
    let label_mask = (1u64 << t.l) - 1;
    let mut col_alive = machine.alloc(0u64);
    let mut row_alive = machine.alloc(0u64);
    machine.gather(alive, col_idx, &mut col_alive);
    machine.gather(alive, row_idx, &mut row_alive);
    machine.with_activity_bits(valid, |m| {
        m.par_and_zip(bits, &col_alive, |&ca| {
            t.rows_of[(ca & label_mask) as usize]
        });
        m.par_and_zip(bits, &row_alive, |&ra| {
            t.cols_of[(ra & label_mask) as usize]
        });
    });
    machine.free(col_alive);
    machine.free(row_alive);
}

/// Maintenance phases A–C for column label `li` (Figure 12). A: each
/// valid PE ORs its submatrix row for `li` — one masked test, since the
/// row is a contiguous bit run, and false on an empty submatrix, so only
/// the occupied ones are read. B: scanOr within each (column, row
/// word-role) block; the block's OR lands on its boundary PE. C: scanAnd
/// across the block-boundary PEs of each column (self-arc blocks are
/// invalid, hence skipped — the figure's "disabled only during the
/// scanAnd"). The column's support lands on its group boundary PE.
fn column_support(
    machine: &mut Machine,
    t: &Tables,
    valid: &PluralBits,
    block_boundary: &PluralBits,
    bits: &OccPlural,
    li: usize,
) -> PluralBits {
    let mut loc = machine.alloc_bits(false);
    machine.with_activity_bits(valid, |m| {
        m.par_any_bits(&mut loc, bits, t.rows_of[1 << li])
    });
    let block_or = machine.with_activity_bits(valid, |m| m.scan_or_bits(&loc, &t.blocks));
    machine.free_bits(loc);
    let col_support =
        machine.with_activity_bits(block_boundary, |m| m.scan_and_bits(&block_or, &t.columns));
    machine.free_bits(block_or);
    col_support
}

/// Maintenance phase D: the group boundary PEs (every `side`-th) record
/// the supported bit `li` into the accumulating `support` masks (one
/// broadcast).
fn accumulate_support(
    machine: &mut Machine,
    t: &Tables,
    col_support: &PluralBits,
    support: &mut Plural<u64>,
    li: usize,
) {
    machine.par_zip_bits_strided(support, col_support, t.side, move |_, s, ok| {
        if ok {
            *s |= 1u64 << li;
        }
    });
}

/// One consistency-maintenance iteration — Figure 12's scan choreography,
/// repeated once per label (Figure 13). Returns how many role values were
/// removed (counted on the machine: per-boundary popcount diff, then a
/// global sum reduction).
#[allow(clippy::too_many_arguments)]
fn maintain(
    machine: &mut Machine,
    t: &Tables,
    valid: &PluralBits,
    block_boundary: &PluralBits,
    bits: &mut OccPlural,
    alive: &mut Plural<u64>,
    col_idx: &Plural<usize>,
    row_idx: &Plural<usize>,
) -> u64 {
    let mut support = machine.alloc(0u64);

    for li in 0..t.l {
        let col_support = column_support(machine, t, valid, block_boundary, bits, li);
        accumulate_support(machine, t, &col_support, &mut support, li);
        machine.free_bits(col_support);
    }

    // New alive = old ∧ supported; removal counting is PE-local (popcount
    // of the bits each boundary PE loses), then one global sum tells the
    // ACU how much this iteration removed (0 = fixpoint reached).
    let mut lost = machine.alloc(0u64);
    machine.par_zip2_strided(&mut lost, alive, &support, t.side, |_, out, &a, &s| {
        *out = (a & !s).count_ones() as u64;
    });
    let removed = machine.reduce_sum(&lost);
    machine.free(lost);
    machine.par_zip_strided(alive, &support, t.side, |_, a, &s| *a &= s);
    machine.free(support);

    if removed > 0 {
        mask_dead(machine, t, valid, bits, alive, col_idx, row_idx);
    }
    removed
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdg_core::parser::{parse, FilterMode, ParseOptions};
    use cdg_grammar::grammars::paper;
    use cdg_grammar::Modifiee;

    fn example() -> (Grammar, Sentence) {
        let g = paper::grammar();
        let s = paper::example_sentence(&g);
        (g, s)
    }

    #[test]
    fn figure6_final_state_on_the_machine() {
        let (g, s) = example();
        let out = parse_maspar_checked(&g, &s, &MasparOptions::default()).unwrap();
        assert!(out.roles_nonempty());
        let lay = &out.layout;
        let governor = 0usize;
        let needs = 1usize;
        // the/governor: only DET-2 alive.
        let det = lay
            .label_index(governor, g.label_id("DET").unwrap())
            .unwrap();
        let m2 = lay.modifiee_index(0, Modifiee::Word(2));
        assert!(out.is_alive(lay.group(0, governor, m2), det));
        let m3 = lay.modifiee_index(0, Modifiee::Word(3));
        assert!(!out.is_alive(lay.group(0, governor, m3), det));
        // program/governor: only SUBJ-3.
        let subj = lay
            .label_index(governor, g.label_id("SUBJ").unwrap())
            .unwrap();
        let pm3 = lay.modifiee_index(1, Modifiee::Word(3));
        assert!(out.is_alive(lay.group(1, governor, pm3), subj));
        let pm1 = lay.modifiee_index(1, Modifiee::Word(1));
        assert!(!out.is_alive(lay.group(1, governor, pm1), subj));
        // runs/needs: only S-2.
        let s_label = lay.label_index(needs, g.label_id("S").unwrap()).unwrap();
        let rm2 = lay.modifiee_index(2, Modifiee::Word(2));
        assert!(out.is_alive(lay.group(2, needs, rm2), s_label));
    }

    /// Column `col` of a grid plural as the column body `f` writes it.
    fn column<T: Copy + Default>(
        t: &Tables,
        col: usize,
        f: impl Fn(usize, Range<usize>, &mut [T]),
    ) -> Vec<T> {
        let mut out = vec![T::default(); t.side];
        f(col, 0..t.side, &mut out);
        out
    }

    #[test]
    fn tables_lay_out_figures_9_to_13() {
        let (g, s) = example();
        let lay = Layout::new(&g, &s);
        let t = Tables::new(&lay);
        // Figure 13: a 3×3 submatrix, all label pairs set; Figure 11's
        // diagonal PEs (column group 0 × row groups 0–2) hold nothing.
        let bits = column(&t, 0, |c, rows, out| t.init_bits(c, rows, out));
        assert_eq!(bits[3].count_ones(), 9);
        assert_eq!(t.diagonal_rows(0), 0..3);
        assert_eq!(bits[..3], [0, 0, 0]);
        // Alive masks live on each column's boundary PE (row 0) only.
        let alive = column(&t, 0, |c, rows, out| t.init_alive(c, rows, out));
        assert_eq!(alive[..2], [0b111, 0]);
        assert_eq!(
            column(&t, 1, |c, rows, out| t.init_alive(c, rows, out))[0],
            0b111
        );
        // Figure 12's segments tile the array: 108 blocks, 18 columns.
        assert_eq!(t.blocks.num_segments(), 324 / 3);
        assert_eq!(t.columns.num_segments(), 18);
        assert_eq!(t.columns.range_of(0), 0..18);
        // The mask tables are the OR of the per-label lines.
        for li in 0..lay.l {
            assert_eq!(t.rows_of[1 << li], lay.row_mask(li));
            assert_eq!(t.cols_of[1 << li], lay.col_mask(li));
        }
        assert_eq!(t.rows_of[0b111], (1 << 9) - 1);
    }

    /// The column bodies and packed masks the init broadcasts write, against
    /// the per-PE layout: the diagonal of [`Layout::is_diagonal`], the label
    /// pairs of [`Layout::bit`], the boundary PEs of Figure 12. A column
    /// piece must equal its rows of the whole column, wherever a run of
    /// live PEs cuts it.
    #[test]
    fn init_columns_match_the_per_pe_layout() {
        let (g, lex) = corpus::standard_setup();
        let mut sentences = vec![example()];
        for n in 3..=10usize {
            sentences.push((g.clone(), corpus::english_sentence(&g, &lex, n, n as u64)));
        }
        for (g, s) in &sentences {
            let lay = Layout::new(g, s);
            let t = Tables::new(&lay);
            let (valid, boundary) = (t.valid_words(), t.block_boundary_words());
            let pes = lay.virt_pes();
            assert_eq!(valid.len(), pes.div_ceil(64), "`{s}`");
            let bit = |words: &[u64], pe: usize| words[pe / 64] >> (pe % 64) & 1 == 1;
            assert!((pes..valid.len() * 64).all(|pe| !bit(&valid, pe)), "`{s}`");
            for col in 0..t.side {
                let bits = column(&t, col, |c, rows, out| t.init_bits(c, rows, out));
                let alive = column(&t, col, |c, rows, out| t.init_alive(c, rows, out));
                let (_, rc, _) = lay.decode_group(col);
                for row in 0..t.side {
                    let pe = lay.pe(col, row);
                    let (_, rr, _) = lay.decode_group(row);
                    let pairs = (0..lay.labels_of_role(rc))
                        .flat_map(|i| (0..lay.labels_of_role(rr)).map(move |j| (i, j)))
                        .fold(0u64, |b, (i, j)| b | 1u64 << lay.bit(i, j));
                    let diagonal = lay.is_diagonal(pe);
                    assert_eq!(bit(&valid, pe), !diagonal, "`{s}` PE {pe}");
                    assert_eq!(bit(&boundary, pe), !diagonal && row % lay.m == 0);
                    assert_eq!(bits[row], if diagonal { 0 } else { pairs }, "`{s}` PE {pe}");
                    let want = if row == 0 {
                        (1u64 << lay.labels_of_role(rc)) - 1
                    } else {
                        0
                    };
                    assert_eq!(alive[row], want, "`{s}` PE {pe}");
                    assert_eq!(t.row_boundaries[row], t.boundary(row));
                }
                for rows in [1..t.side, 0..t.m + 1, t.m - 1..t.side - 1] {
                    let mut piece = vec![0u64; rows.len()];
                    t.init_bits(col, rows.clone(), &mut piece);
                    assert_eq!(piece, bits[rows.clone()], "`{s}` column {col}");
                    t.init_alive(col, rows.clone(), &mut piece);
                    assert_eq!(piece, alive[rows], "`{s}` column {col}");
                }
            }
        }
    }

    #[test]
    fn equivalent_to_sequential_engine() {
        let (g, s) = example();
        let serial = parse(&g, &s, ParseOptions::default());
        let out = parse_maspar_checked(&g, &s, &MasparOptions::default()).unwrap();
        let net = out.to_network(&g, &s);
        for (a, b) in serial.network.slots().iter().zip(net.slots()) {
            assert_eq!(a.alive, b.alive, "alive sets diverge");
        }
        assert_eq!(
            cdg_core::extract::precedence_graphs(&serial.network, 100),
            cdg_core::extract::precedence_graphs(&net, 100),
        );
    }

    #[test]
    fn equivalent_on_rejected_sentence() {
        let g = paper::grammar();
        let lex = paper::lexicon(&g);
        let s = lex.sentence("program the runs").unwrap();
        let serial = parse(&g, &s, ParseOptions::default());
        let out = parse_maspar_checked(&g, &s, &MasparOptions::default()).unwrap();
        assert_eq!(serial.roles_nonempty, out.roles_nonempty());
        assert!(!out.roles_nonempty());
    }

    #[test]
    fn bounded_filtering_matches_bounded_serial() {
        // With the same pass budget and no early exit, the scan-based
        // maintenance must remove exactly what the serial passes remove.
        let (g, s) = example();
        for passes in 1..=3 {
            let serial = parse(
                &g,
                &s,
                ParseOptions {
                    filter: FilterMode::Bounded(passes),
                    ..Default::default()
                },
            );
            let out = parse_maspar_checked(
                &g,
                &s,
                &MasparOptions {
                    filter_iterations: passes,
                    early_exit: false,
                    ..Default::default()
                },
            )
            .unwrap();
            let net = out.to_network(&g, &s);
            for (a, b) in serial.network.slots().iter().zip(net.slots()) {
                assert_eq!(a.alive, b.alive, "pass budget {passes}");
            }
        }
    }

    #[test]
    fn figure12_subj1_eliminated_by_scans() {
        // SUBJ-1 of program/governor survives unary propagation but is
        // eliminated by the first scan-based consistency iteration.
        let (g, s) = example();
        let one = parse_maspar_checked(
            &g,
            &s,
            &MasparOptions {
                filter_iterations: 1,
                early_exit: false,
                ..Default::default()
            },
        )
        .unwrap();
        let lay = &one.layout;
        let subj = lay.label_index(0, g.label_id("SUBJ").unwrap()).unwrap();
        let pm1 = lay.modifiee_index(1, Modifiee::Word(1));
        assert!(!one.is_alive(lay.group(1, 0, pm1), subj));
    }

    #[test]
    fn virtualization_staircase() {
        // n ≤ 7 words fit the 16K array (q²n⁴ ≤ 9604); 10 words need
        // 40,000 virtual PEs → factor 3. The paper: 0.15 s vs 0.45 s.
        let g = paper::grammar();
        let small = parse_maspar_checked(
            &g,
            &paper::cost_sweep_sentence(&g, 7),
            &MasparOptions::default(),
        )
        .unwrap();
        assert_eq!(small.virt_factor, 1);
        let big = parse_maspar_checked(
            &g,
            &paper::cost_sweep_sentence(&g, 10),
            &MasparOptions::default(),
        )
        .unwrap();
        assert_eq!(big.virt_factor, 3);
    }

    #[test]
    fn phase_attribution_covers_all_constraints() {
        let (g, s) = example();
        let out = parse_maspar_checked(&g, &s, &MasparOptions::default()).unwrap();
        let unary = out
            .phases
            .iter()
            .filter(|p| p.name.starts_with("unary:") && !p.name.ends_with(":mask"))
            .count();
        let binary = out
            .phases
            .iter()
            .filter(|p| p.name.starts_with("binary:"))
            .count();
        assert_eq!(unary, 6);
        assert_eq!(binary, 4);
        assert!(out.estimated_seconds > 0.0);
        assert!(out.mean_constraint_seconds(&out.stats_cost()) > 0.0);
    }

    impl MasparOutcome {
        fn stats_cost(&self) -> maspar_sim::CostModel {
            maspar_sim::CostModel::default()
        }
    }

    /// A small physical array so the paper example (324 virtual PEs)
    /// actually lands multiple virtual PEs per physical PE and injected
    /// faults hit occupied hardware.
    fn small_machine() -> MachineConfig {
        MachineConfig {
            phys_pes: 64,
            ..Default::default()
        }
    }

    #[test]
    fn tiled_readback_matches_readback_scalar() {
        let (g, lex) = corpus::standard_setup();
        let mut sentences = Vec::new();
        for n in 3..=10usize {
            let s = corpus::english_sentence(&g, &lex, n, n as u64);
            sentences.push(corpus::scrambled(&lex, &s, n as u64 * 37));
            sentences.push(s);
        }
        for s in &sentences {
            let out = parse_maspar_checked(&g, s, &MasparOptions::default()).unwrap();
            let a = out.readback_scalar(&g, s);
            let b = out.to_network(&g, s);
            for (sa, sb) in a.slots().iter().zip(b.slots()) {
                assert_eq!(sa.alive, sb.alive, "`{s}`: alive sets");
            }
            assert_eq!(a.logical_arcs(), b.logical_arcs(), "`{s}`: arcs");
            let mut masked = b.stats;
            // A fully rejected sentence has no alive rows left to mask.
            assert_eq!(masked.bmm_words > 0, b.total_alive() > 0, "`{s}`");
            masked.bmm_words = a.stats.bmm_words;
            masked.bmm_tiles = a.stats.bmm_tiles;
            assert_eq!(a.stats, masked, "`{s}`: host stats must agree up to bmm_*");
        }
    }

    /// The per-pair binary body the class-decided one replaced: both
    /// orderings of every live pair through `eval_with`, on every valid PE
    /// (a dense walk). The oracle for [`apply_binary`].
    fn apply_binary_per_pair(
        machine: &mut Machine,
        t: &Tables,
        sentence: &Sentence,
        program: &KernelProgram,
        valid: &PluralBits,
        bits: &mut OccPlural,
    ) {
        let l = t.l;
        let label_mask = (1u64 << l) - 1;
        machine.with_activity_bits(valid, |m| {
            m.par_write_grid(bits, t.side, |cg, rows, slots| {
                let mut stack = Vec::new();
                for (rg, b) in rows.zip(slots) {
                    for i in 0..l {
                        let mut live = *b >> (i * l) & label_mask;
                        let Some(bx) = t.bindings[cg * l + i] else {
                            continue;
                        };
                        while live != 0 {
                            let j = live.trailing_zeros() as usize;
                            live &= live - 1;
                            let Some(by) = t.bindings[rg * l + j] else {
                                continue;
                            };
                            if !(holds(program, sentence, bx, by, &mut stack)
                                && holds(program, sentence, by, bx, &mut stack))
                            {
                                *b &= !(1u64 << (i * l + j));
                            }
                        }
                    }
                }
            });
        });
    }

    /// A machine in the state `drive` leaves it in before binary
    /// propagation: every unary constraint applied, dead values masked.
    /// `live` holds the role values unary propagation left.
    struct BinaryStart {
        machine: Machine,
        valid: PluralBits,
        bits: OccPlural,
        alive: Plural<u64>,
        live: Vec<u64>,
    }

    /// [`BinaryStart`] as `drive` reaches it, with unary tables over the
    /// values still alive; or, with `full_domain`, with every unary table
    /// over every valid role value, the full-domain reference.
    fn before_binary(
        g: &Grammar,
        s: &Sentence,
        lay: &Layout,
        t: &Tables,
        full_domain: bool,
    ) -> BinaryStart {
        let mut machine = Machine::new(MachineConfig::default(), lay.virt_pes());
        let mut rec = RecoveryReport::default();
        let side = t.side;
        let valid = init_bits_exact(&mut machine, "valid", 1, &mut rec, &t.valid_words()).unwrap();
        let mut bits = init_occ_exact(&mut machine, 1, &mut rec, side, |c, rows, out| {
            t.init_bits(c, rows, out)
        })
        .unwrap();
        let mut alive = init_exact(&mut machine, "alive", 1, &mut rec, side, |c, rows, out| {
            t.init_alive(c, rows, out)
        })
        .unwrap();
        let col = init_exact(&mut machine, "col", 1, &mut rec, side, |c, _, out| {
            out.fill(t.boundary(c))
        })
        .unwrap();
        let row = init_exact(&mut machine, "row", 1, &mut rec, side, |_, rows, out| {
            out.copy_from_slice(&t.row_boundaries[rows])
        })
        .unwrap();
        let mut live = t.every_value();
        let (mut scratch, mut table) = (AcuScratch::default(), UnaryTable::default());
        for c in g.unary_constraints() {
            let program = KernelProgram::compile(&c.expr);
            if full_domain {
                table.build(t, s, &program, &mut t.every_value(), &mut scratch);
            } else {
                table.build(t, s, &program, &mut live, &mut scratch);
            }
            unary_from_table(&mut machine, t, &table, &valid, &mut bits, &mut alive);
        }
        mask_dead(&mut machine, t, &valid, &mut bits, &alive, &col, &row);
        BinaryStart {
            machine,
            valid,
            bits,
            alive,
            live,
        }
    }

    /// What the class-decided body did, over many applications.
    #[derive(Debug, Default)]
    struct BodyTally {
        skipped_columns: usize,
        class_zeroed: usize,
        evals: usize,
    }

    /// Run [`BinaryClasses::decide_column`] straight on every whole column
    /// of `bits` (a diagonal PE holds nothing, so a whole column stands for
    /// its valid pieces) and tally the columns it skipped, the pairs the
    /// classes zeroed and the orderings it evaluated.
    fn decide_tallied(
        classes: &BinaryClasses,
        t: &Tables,
        s: &Sentence,
        program: &KernelProgram,
        bits: &mut [u64],
        tally: &mut BodyTally,
    ) {
        let mut stack = Vec::new();
        for (cg, column) in bits.chunks_mut(t.side).enumerate() {
            let before = column.to_vec();
            let (mut evals, mut failed) = (0, 0);
            classes.decide_column(t, cg, 0..t.side, column, |x, y| {
                evals += 1;
                let ok = holds(program, s, x, y, &mut stack);
                failed += usize::from(!ok);
                ok
            });
            let zeroed: usize = before
                .iter()
                .zip(&*column)
                .map(|(b, a)| (b & !a).count_ones() as usize)
                .sum();
            let c = classes.groups[cg];
            if c.settled && before.iter().any(|&b| b != 0) {
                assert_eq!((evals, zeroed), (0, 0), "a settled column is skipped");
                tally.skipped_columns += 1;
            }
            // An ordering that fails zeroes its pair; the rest are the
            // classes' work, exactly the live pairs their fail masks name.
            let named: usize = before
                .iter()
                .zip(&classes.groups)
                .filter(|&(_, r)| !c.settled && !r.settled)
                .map(|(b, r)| b & (t.rows_of[c.fail as usize] | t.cols_of[r.fail as usize]))
                .map(|b| b.count_ones() as usize)
                .sum();
            assert_eq!(
                zeroed - failed,
                named,
                "column {cg}: pairs the classes zeroed"
            );
            tally.evals += evals;
            tally.class_zeroed += named;
        }
    }

    /// Apply `constraints` in turn, as `drive` applies the binary ones,
    /// through the class-decided body and the per-pair reference on two
    /// machines (and straight through the tallied body), and demand
    /// identical submatrices and machine counters after each one.
    fn binary_bodies_agree(
        g: &Grammar,
        constraints: &[Constraint],
        s: &Sentence,
        tally: &mut BodyTally,
    ) {
        let lay = Layout::new(g, s);
        let t = Tables::new(&lay);
        let (mut fast, mut slow) = (
            before_binary(g, s, &lay, &t, false),
            before_binary(g, s, &lay, &t, false),
        );
        let mut direct = fast.bits.as_slice().to_vec();
        let (mut scratch, mut classes) = (AcuScratch::default(), BinaryClasses::default());
        for c in constraints {
            let program = KernelProgram::compile(&c.expr);
            classes.build(&t, s, &program, &fast.live, &mut scratch);
            let (valid, bits) = (&fast.valid, &mut fast.bits);
            apply_binary(
                &mut fast.machine,
                &t,
                &classes,
                s,
                &program,
                valid,
                bits,
                &mut scratch.stack,
            );
            apply_binary_per_pair(
                &mut slow.machine,
                &t,
                s,
                &program,
                &slow.valid,
                &mut slow.bits,
            );
            decide_tallied(&classes, &t, s, &program, &mut direct, tally);
            let ctx = format!("`{s}`, constraint {}", c.name);
            assert_eq!(fast.bits.as_slice(), slow.bits.as_slice(), "{ctx}");
            assert_eq!(direct, slow.bits.as_slice(), "{ctx}: tallied body");
            assert_eq!(fast.machine.stats, slow.machine.stats, "{ctx}");
        }
    }

    /// The grammar's binary constraints and one contextual one. No class of
    /// the grammar's own is definitely false: each reads `y` in its
    /// antecedent. The contextual one fails every subject ahead of its head
    /// whatever `y` is.
    fn binary_constraints_and_a_contextual_one(g: &Grammar) -> Vec<Constraint> {
        let mut constraints = g.binary_constraints().to_vec();
        constraints.push(
            g.compile_extra_constraint(
                "subj-after-head",
                "(if (eq (lab x) SUBJ) (and (lt (mod x) (pos x)) (not (eq (pos y) (pos x)))))",
            )
            .unwrap(),
        );
        constraints
    }

    #[test]
    fn class_decided_binary_body_matches_the_per_pair_reference() {
        let (g, lex) = corpus::standard_setup();
        let constraints = binary_constraints_and_a_contextual_one(&g);
        let mut tally = BodyTally::default();
        for n in 3..=10usize {
            let s = corpus::english_sentence(&g, &lex, n, n as u64);
            let scrambled = corpus::scrambled(&lex, &s, n as u64 * 37);
            binary_bodies_agree(&g, &constraints, &scrambled, &mut tally);
            binary_bodies_agree(&g, &constraints, &s, &mut tally);
        }
        assert!(tally.skipped_columns > 0, "{tally:?}");
        assert!(tally.class_zeroed > 0, "{tally:?}");
        assert!(tally.evals > 0, "{tally:?}");
        // Beyond the virtualization cliff: three layers per instruction.
        let s = corpus::english_sentence(&g, &lex, 10, 1010);
        binary_bodies_agree(&g, &constraints, &s, &mut BodyTally::default());
    }

    /// The ACU's tables over the values unary propagation left, against the
    /// full-domain reference that evaluates every valid role value in every
    /// table: the same submatrices, alive masks and machine counters after
    /// the binary phase. Unary propagation kills values here, and the
    /// survivors-only classes settle groups the reference cannot.
    #[test]
    fn survivor_tables_match_the_full_domain_reference() {
        let (g, lex) = corpus::standard_setup();
        let constraints = binary_constraints_and_a_contextual_one(&g);
        let (mut killed, mut settled, mut settled_full) = (0, 0, 0);
        let mut scratch = AcuScratch::default();
        let (mut ours, mut reference) = (BinaryClasses::default(), BinaryClasses::default());
        for n in 3..=10usize {
            let s = corpus::english_sentence(&g, &lex, n, n as u64);
            for s in [corpus::scrambled(&lex, &s, n as u64 * 37), s] {
                let lay = Layout::new(&g, &s);
                let t = Tables::new(&lay);
                let every = t.every_value();
                let mut fast = before_binary(&g, &s, &lay, &t, false);
                let mut full = before_binary(&g, &s, &lay, &t, true);
                let count = |set: &[u64]| set.iter().map(|w| w.count_ones()).sum::<u32>();
                killed += count(&every) - count(&fast.live);
                for c in &constraints {
                    let program = KernelProgram::compile(&c.expr);
                    ours.build(&t, &s, &program, &fast.live, &mut scratch);
                    reference.build(&t, &s, &program, &every, &mut scratch);
                    for (a, b) in ours.groups.iter().zip(&reference.groups) {
                        assert!(
                            a.settled || !b.settled,
                            "`{s}`: a settled group stays settled"
                        );
                        settled += usize::from(a.settled);
                        settled_full += usize::from(b.settled);
                    }
                    let (valid, bits) = (&fast.valid, &mut fast.bits);
                    apply_binary(
                        &mut fast.machine,
                        &t,
                        &ours,
                        &s,
                        &program,
                        valid,
                        bits,
                        &mut scratch.stack,
                    );
                    let (valid, bits) = (&full.valid, &mut full.bits);
                    apply_binary(
                        &mut full.machine,
                        &t,
                        &reference,
                        &s,
                        &program,
                        valid,
                        bits,
                        &mut scratch.stack,
                    );
                }
                assert_eq!(
                    fast.bits.as_slice(),
                    full.bits.as_slice(),
                    "`{s}`: submatrices"
                );
                assert_eq!(fast.alive.as_slice(), full.alive.as_slice(), "`{s}`: alive");
                assert_eq!(fast.machine.stats, full.machine.stats, "`{s}`: counters");
            }
        }
        assert!(killed > 0, "unary propagation kills values");
        assert!(
            settled > settled_full,
            "{settled} settled groups against {settled_full} over the full domain"
        );
    }

    #[test]
    fn binary_walks_visit_only_occupied_submatrices() {
        // The n = 10 sentence past the virtualization cliff: 40,000 PEs,
        // of which a dense walk would visit every valid one per constraint.
        let (g, lex) = corpus::standard_setup();
        let s = corpus::english_sentence(&g, &lex, 10, 10);
        let lay = Layout::new(&g, &s);
        let t = Tables::new(&lay);
        let BinaryStart {
            mut machine,
            valid,
            mut bits,
            live,
            ..
        } = before_binary(&g, &s, &lay, &t, false);
        let (mut scratch, mut classes) = (AcuScratch::default(), BinaryClasses::default());
        let (mut visits, mut nonzero) = (0, 0);
        for c in g.binary_constraints() {
            let program = KernelProgram::compile(&c.expr);
            classes.build(&t, &s, &program, &live, &mut scratch);
            let occupied = bits.occupied_count() as u64;
            let live = bits.as_slice().iter().filter(|&&b| b != 0).count() as u64;
            let before = machine.occupancy_visits();
            apply_binary(
                &mut machine,
                &t,
                &classes,
                &s,
                &program,
                &valid,
                &mut bits,
                &mut scratch.stack,
            );
            let walked = machine.occupancy_visits() - before;
            let ctx = format!("constraint {}: {walked} visits", c.name);
            assert!(walked <= occupied, "{ctx}, {occupied} PEs occupied");
            assert!(walked >= live, "{ctx}, {live} nonzero submatrices");
            (visits, nonzero) = (visits + walked, nonzero + live);
        }
        let dense = (valid.count_ones() * g.binary_constraints().len()) as u64;
        assert!(
            visits * 10 < dense,
            "{visits} visits ({nonzero} nonzero) against {dense} for dense walks"
        );
    }

    /// Host buffers the thread's machine has asked the allocator for.
    fn thread_fresh_buffers() -> u64 {
        let warm = MACHINE.take().expect("a parse leaves the thread a machine");
        let fresh = warm.0.fresh_buffers();
        MACHINE.set(Some(warm));
        fresh
    }

    #[test]
    fn a_second_parse_of_the_same_size_makes_no_fresh_buffer() {
        let (g, lex) = corpus::standard_setup();
        let s = corpus::english_sentence(&g, &lex, 10, 10);
        // Fault-free, and under the CLI's `--faults 7`.
        let plan = FaultPlan::parse_spec("7", 16_384, 2_000).unwrap();
        for faults in [None, Some(plan)] {
            let opts = MasparOptions {
                faults,
                ..Default::default()
            };
            let mut fresh = Vec::new();
            for _ in 0..2 {
                let out = parse_maspar_checked(&g, &s, &opts).unwrap();
                recycle_readback(out.bits);
                fresh.push(thread_fresh_buffers());
            }
            assert_eq!(
                fresh[0],
                fresh[1],
                "faults {}: the second parse made host buffers",
                opts.faults.is_some()
            );
        }
    }

    #[test]
    fn checked_equals_unchecked_without_faults() {
        let (g, s) = example();
        let plain = parse_maspar_checked(&g, &s, &MasparOptions::default()).unwrap();
        let checked = parse_maspar_checked(&g, &s, &MasparOptions::default()).unwrap();
        assert_eq!(plain.bits, checked.bits);
        assert_eq!(plain.alive, checked.alive);
        assert_eq!(
            plain.stats, checked.stats,
            "checked path must cost nothing extra"
        );
        assert!(checked.degraded.is_none());
        assert!(!checked.recovery.intervened());
    }

    #[test]
    fn dead_pes_are_probed_retired_and_recovered_from() {
        let (g, s) = example();
        let clean = parse_maspar_checked(
            &g,
            &s,
            &MasparOptions {
                machine: small_machine(),
                ..Default::default()
            },
        )
        .unwrap();
        let opts = MasparOptions {
            machine: small_machine(),
            faults: Some(FaultPlan::new().with_dead_pe(3).with_dead_pe(40)),
            ..Default::default()
        };
        let out = parse_maspar_checked(&g, &s, &opts).expect("dead PEs must be recoverable");
        assert_eq!(out.recovery.retired_pes, vec![3, 40]);
        assert!(
            out.recovery.probes >= 2,
            "a clean probe must confirm retirement"
        );
        assert_eq!(
            out.alive, clean.alive,
            "recovered parse must be bit-identical"
        );
        assert_eq!(out.bits, clean.bits);
        assert!(out.roles_nonempty());
    }

    #[test]
    fn transient_corruption_is_detected_and_retried() {
        let (g, s) = example();
        let clean = parse_maspar_checked(
            &g,
            &s,
            &MasparOptions {
                machine: small_machine(),
                ..Default::default()
            },
        )
        .unwrap();
        // Several transients spread across the run; each fires once, so
        // the double-execution protocol must catch and out-run them all.
        let plan = FaultPlan::new()
            .with_memory_flip(20, 7, 3)
            .with_router_corrupt(60, 11, 0xFF)
            .with_memory_flip(150, 30, 60)
            .with_router_corrupt(300, 5, 1);
        let opts = MasparOptions {
            machine: small_machine(),
            faults: Some(plan),
            ..Default::default()
        };
        let out = parse_maspar_checked(&g, &s, &opts).expect("transients must be recoverable");
        assert_eq!(
            out.alive, clean.alive,
            "recovered parse must be bit-identical"
        );
        assert_eq!(out.bits, clean.bits);
        assert!(out.degraded.is_none());
    }

    #[test]
    fn all_pes_dead_is_a_typed_error() {
        let (g, s) = example();
        let mut plan = FaultPlan::new();
        for pe in 0..4 {
            plan = plan.with_dead_pe(pe);
        }
        let opts = MasparOptions {
            machine: MachineConfig {
                phys_pes: 4,
                ..Default::default()
            },
            faults: Some(plan),
            ..Default::default()
        };
        match parse_maspar_checked(&g, &s, &opts) {
            Err(EngineError::PeFailure { dead, .. }) => assert_eq!(dead, vec![0, 1, 2, 3]),
            other => panic!("expected PeFailure, got {other:?}"),
        }
    }

    #[test]
    fn filter_iteration_budget_degrades_partially() {
        let (g, s) = example();
        let opts = MasparOptions {
            budget: ParseBudget {
                max_filter_iterations: Some(1),
                ..Default::default()
            },
            early_exit: false,
            ..Default::default()
        };
        let out = parse_maspar_checked(&g, &s, &opts).unwrap();
        assert_eq!(out.filter_iterations_run, 1);
        match &out.degraded {
            Some(EngineError::BudgetExceeded { resource, .. }) => {
                assert_eq!(*resource, BudgetResource::FilterIterations)
            }
            other => panic!("expected FilterIterations degradation, got {other:?}"),
        }
        // The partial network is still a usable superset of the settled one.
        assert!(out.roles_nonempty());
    }

    #[test]
    fn wall_time_budget_degrades_deterministically() {
        use std::time::Duration;
        let (g, s) = example();
        let opts = MasparOptions {
            budget: ParseBudget {
                max_wall_time: Some(Duration::from_millis(20)),
                ..Default::default()
            },
            ..Default::default()
        };
        let out = parse_maspar_checked(&g, &s, &opts).unwrap();
        match &out.degraded {
            Some(EngineError::BudgetExceeded { resource, .. }) => {
                assert_eq!(*resource, BudgetResource::WallTime)
            }
            other => panic!("expected WallTime degradation, got {other:?}"),
        }
        // Estimated time is deterministic, so the cut point is too.
        let again = parse_maspar_checked(&g, &s, &opts).unwrap();
        assert_eq!(out.alive, again.alive);
        assert_eq!(out.phases.len(), again.phases.len());
    }

    #[test]
    fn arc_cell_budget_is_a_hard_error_on_this_engine() {
        let (g, s) = example();
        let opts = MasparOptions {
            budget: ParseBudget {
                max_arc_cells: Some(100),
                ..Default::default()
            },
            ..Default::default()
        };
        match parse_maspar_checked(&g, &s, &opts) {
            Err(EngineError::BudgetExceeded { resource, .. }) => {
                assert_eq!(resource, BudgetResource::ArcCells)
            }
            other => panic!("expected ArcCells error, got {other:?}"),
        }
    }

    #[test]
    fn oversized_sentences_get_a_typed_grammar_error() {
        // 40 words → q²n⁴ ≈ 10.2M virtual PEs: the working set cannot fit
        // 16 KB per PE. Previously an allocator panic; now a typed error.
        let g = paper::grammar();
        let s = paper::cost_sweep_sentence(&g, 40);
        match parse_maspar_checked(&g, &s, &MasparOptions::default()) {
            Err(EngineError::GrammarError(msg)) => assert!(msg.contains("virtual PEs")),
            other => panic!("expected GrammarError, got {other:?}"),
        }
    }
}
