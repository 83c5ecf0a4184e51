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
//!    retried, up to `max_recovery_retries`. A transient fault is keyed to
//!    the machine's monotonically increasing instruction counter and so
//!    fires in at most one of the executions — detection is guaranteed,
//!    and retries execute past the fault. The redundancy is charged
//!    honestly: under faults every phase costs double.
//!
//! Fault-free runs take none of these paths and their instruction counts
//! are bit-identical to the original engine.

use crate::layout::Layout;
use bitmat::BitVec;
use cdg_core::error::{BudgetResource, EngineError, ParseBudget};
use cdg_core::kernel::ones;
use cdg_core::network::{NetParts, Network};
use cdg_grammar::expr::{Binding, EvalCtx};
use cdg_grammar::kernel::{KernelProgram, LaneScratch, LaneSlot, LaneTables};
use cdg_grammar::{Grammar, RoleId, RoleValue, Sentence, Value};
use maspar_sim::{FaultPlan, Machine, MachineConfig, MachineStats, Plural, PluralBits, SegmentMap};
use std::cell::RefCell;

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
    /// How many times a verified phase may be re-executed after a
    /// detected corruption before giving up with
    /// [`EngineError::Inconsistent`].
    pub max_recovery_retries: usize,
}

impl Default for MasparOptions {
    fn default() -> Self {
        MasparOptions {
            machine: MachineConfig::default(),
            filter_iterations: 10,
            early_exit: true,
            trace: false,
            faults: None,
            budget: ParseBudget::UNLIMITED,
            max_recovery_retries: 4,
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

    /// Estimated MP-1 seconds for one named phase.
    pub fn phase_seconds(&self, name: &str, cost: &maspar_sim::CostModel) -> Option<f64> {
        self.phases
            .iter()
            .find(|p| p.name == name)
            .map(|p| p.stats.estimated_seconds(cost))
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
        self.readback_tiled(grammar, sentence)
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

    /// Word-parallel readback. Dead values are removed before the arcs
    /// exist, so `init_arcs` sets only entries between survivors. Then,
    /// for each alive arc row, gather one l-bit label chunk per modifiee
    /// straight out of the packed PE submatrix word, spread it to host
    /// column positions lj·m + mj through a precomputed per-label-count
    /// table, and apply the assembled mask with a single word-wise row
    /// AND. Bits the machine zeroed for pairs with a dead endpoint are
    /// already zero on the host, so masking with the raw machine row is
    /// exact.
    ///
    /// Host stats equal [`MasparOutcome::readback_scalar`]'s up to the
    /// observational `bmm_*` counters: the scalar walk zeroes the
    /// |domᵢ|·|domⱼ| − |aliveᵢ|·|aliveⱼ| entries with a dead endpoint one
    /// removal at a time, and this path adds that count directly. (MasPar
    /// input is lexically unambiguous, so `init_arcs` would have set every
    /// one of those entries.)
    pub fn readback_tiled<'g>(&self, grammar: &'g Grammar, sentence: &Sentence) -> Network<'g> {
        let lay = &self.layout;
        let mut net = Network::build(grammar, sentence);
        for (slot, idx) in self.dead_values() {
            net.remove_value(slot, idx);
        }
        net.init_arcs();
        let m = lay.m;
        let l = lay.l;
        let NetParts {
            slots,
            arcs,
            pairs,
            stats,
            ..
        } = net.parts_mut();
        let mut mask = BitVec::zeros(0);
        let mut buf: Vec<u64> = Vec::new();
        // spread[labels][chunk] has bit lj·m set for every label bit lj of
        // `chunk`; shifting the whole pattern left by mj lands each label
        // at its host column lj·m + mj. One table per column-role label
        // count, built on first use.
        let mut spread: Vec<Vec<Vec<u64>>> = vec![Vec::new(); l + 1];
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
            let spread = &mut spread[labels_j];
            if spread.is_empty() {
                spread.push(vec![0u64; row_words]);
                for chunk in 1usize..1 << labels_j {
                    let lj = chunk.trailing_zeros() as usize;
                    let mut pat = spread[chunk & (chunk - 1)].clone();
                    pat[(lj * m) / 64] |= 1u64 << ((lj * m) % 64);
                    spread.push(pat);
                }
            }
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
                    for (w, &pat) in spread[chunk].iter().enumerate() {
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
                mask.reset(dom_j);
                mask.or_assign_raw(&buf);
                stats.entries_zeroed += arcs[idx].row_and_count(a, &mask);
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
pub fn parse_maspar_checked(
    grammar: &Grammar,
    sentence: &Sentence,
    opts: &MasparOptions,
) -> Result<MasparOutcome, EngineError> {
    let _build = obsv::span("network_build");
    let lay = precheck(grammar, sentence, opts)?;

    let mut machine = Machine::new(opts.machine.clone(), lay.virt_pes());
    if let Some(plan) = &opts.faults {
        machine.arm_faults(plan.clone());
    }
    if opts.trace {
        machine.enable_trace();
    }
    let mut recovery = RecoveryReport::default();
    drop(_build);

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

    drive(machine, lay, grammar, sentence, opts, recovery)
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
/// host stores them is invisible to the simulated machine.
fn drive(
    mut machine: Machine,
    lay: Layout,
    grammar: &Grammar,
    sentence: &Sentence,
    opts: &MasparOptions,
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
    let retries = opts.max_recovery_retries.max(1);
    let _init = obsv::span("arc_init");
    let t = Tables::new(&lay);
    let side = t.side;
    let valid = init_bits_exact(
        &mut machine,
        "valid",
        retries,
        &mut recovery,
        side,
        |c, r| !t.diagonal(c, r),
    )?;
    let block_boundary = init_bits_exact(
        &mut machine,
        "block-boundary",
        retries,
        &mut recovery,
        side,
        |c, r| t.block_boundary(c, r),
    )?;

    // Design decision 1: arc matrices first, all ones (Figure 9).
    let mut bits: Plural<u64> = init_exact(
        &mut machine,
        "bits",
        retries,
        &mut recovery,
        side,
        |c, r| t.init_bits(c, r),
    )?;
    let mut alive: Plural<u64> = init_exact(
        &mut machine,
        "alive",
        retries,
        &mut recovery,
        side,
        |c, r| t.init_alive(c, r),
    )?;

    // Router index plurals for the alive-mask gathers (phase D).
    let col_boundary_idx: Plural<usize> = init_exact(
        &mut machine,
        "col-idx",
        retries,
        &mut recovery,
        side,
        |c, _| t.boundary(c),
    )?;
    let row_boundary_idx: Plural<usize> = init_exact(
        &mut machine,
        "row-idx",
        retries,
        &mut recovery,
        side,
        |_, r| t.boundary(r),
    )?;
    phase(&machine, &mut phases, &mut mark, "init".into());
    drop(_init);

    let mut degraded: Option<EngineError> = over_time(&machine);

    // --- Unary propagation on the matrices (design decisions 1 & 4) ---
    let _unary = obsv::span("unary_propagation");
    for c in grammar.unary_constraints() {
        if degraded.is_some() {
            break;
        }
        let _c = obsv::span_with(|| format!("unary:{}", c.name));
        // The unary test depends only on (group, label), so the ACU
        // evaluates it on the host and broadcasts keep masks.
        let viol = unary_violations(&t, sentence, &KernelProgram::compile(&c.expr));
        run_phase(
            &mut machine,
            retries,
            &mut recovery,
            &format!("unary:{}", c.name),
            &mut bits,
            &mut alive,
            |m, bits, alive| {
                unary_from_table(m, &t, &viol, &valid, bits, alive);
                0
            },
        )?;
        phase(
            &machine,
            &mut phases,
            &mut mark,
            format!("unary:{}", c.name),
        );
        degraded = over_time(&machine);
    }
    // Immediately zero rows/cols of values the unary pass killed, so the
    // matrices agree with the alive masks before binary propagation.
    if degraded.is_none() {
        let _c = obsv::span("unary:mask");
        run_phase(
            &mut machine,
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
        phase(&machine, &mut phases, &mut mark, "unary:mask".into());
    }
    drop(_unary);

    // --- Binary propagation ---
    let _binary = obsv::span("binary_propagation");
    for c in grammar.binary_constraints() {
        if degraded.is_some() {
            break;
        }
        let _c = obsv::span_with(|| format!("binary:{}", c.name));
        let program = KernelProgram::compile(&c.expr);
        run_phase(
            &mut machine,
            retries,
            &mut recovery,
            &format!("binary:{}", c.name),
            &mut bits,
            &mut alive,
            |m, bits, _alive| {
                apply_binary(m, &t, sentence, &program, &valid, bits);
                0
            },
        )?;
        phase(
            &machine,
            &mut phases,
            &mut mark,
            format!("binary:{}", c.name),
        );
        degraded = over_time(&machine);
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
        let removed = run_phase(
            &mut machine,
            retries,
            &mut recovery,
            &format!("maintain:{iterations}"),
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
        phase(
            &machine,
            &mut phases,
            &mut mark,
            format!("maintain:{iterations}"),
        );
        if opts.early_exit && removed == 0 {
            break;
        }
        degraded = over_time(&machine);
    }
    drop(_filtering);

    let estimated_seconds = machine.estimated_seconds();
    let trace = machine.trace().to_vec();
    Ok(MasparOutcome {
        alive: alive.as_slice()[..]
            .iter()
            .step_by(lay.groups)
            .copied()
            .collect(),
        bits: bits.into_vec(),
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
    /// Lane tables over those slot domains, built on first use.
    lanes: LaneTables,
    /// (word, role) slot and role index of each group.
    slot_of: Vec<usize>,
    role_of: Vec<usize>,
    /// Initial submatrix per (column role, row role), at `rc·q + rr`.
    pair_bits: Vec<u64>,
    /// Every valid label of each role, as an alive mask.
    full: Vec<u64>,
}

impl Tables {
    fn new(lay: &Layout) -> Tables {
        let (l, q) = (lay.l, lay.q);
        let label_masks = |mask_of: &dyn Fn(usize) -> u64| -> Vec<u64> {
            (0..1usize << l)
                .map(|a| {
                    (0..l)
                        .filter(|&i| a >> i & 1 == 1)
                        .fold(0, |k, i| k | mask_of(i))
                })
                .collect()
        };
        let virt = lay.virt_pes();
        let bindings: Vec<Option<Binding>> = (0..lay.groups * l)
            .map(|k| lay.binding(k / l, k % l))
            .collect();
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
        Tables {
            side: lay.groups,
            l,
            m: lay.m,
            q,
            blocks: SegmentMap::uniform(virt, lay.m),
            columns: SegmentMap::uniform(virt, lay.groups),
            rows_of: label_masks(&|i| lay.row_mask(i)),
            cols_of: label_masks(&|j| lay.col_mask(j)),
            bindings,
            values,
            value_at,
            starts,
            lanes,
            slot_of: (0..lay.groups).map(|g| g / lay.m).collect(),
            role_of: (0..lay.groups).map(|g| g / lay.m % q).collect(),
            pair_bits: (0..q * q)
                .map(|k| {
                    let (rc, rr) = (k / q, k % q);
                    let mut bits = 0u64;
                    for i in 0..lay.labels_of_role(rc) {
                        for j in 0..lay.labels_of_role(rr) {
                            bits |= 1u64 << lay.bit(i, j);
                        }
                    }
                    bits
                })
                .collect(),
            full: (0..q)
                .map(|r| (1u64 << lay.labels_of_role(r)) - 1)
                .collect(),
        }
    }

    /// Is PE (col, row) on the self-arc diagonal (same word and role —
    /// Figure 11's disabled PEs)?
    fn diagonal(&self, col: usize, row: usize) -> bool {
        self.slot_of[col] == self.slot_of[row]
    }

    /// Is PE (col, row) a valid block boundary — the first PE of a
    /// (column, row word-role) block of Figure 12's scanOr?
    fn block_boundary(&self, col: usize, row: usize) -> bool {
        !self.diagonal(col, row) && self.slot_of[row] * self.m == row
    }

    /// Initial submatrix: every valid label pair set, diagonal PEs empty
    /// (Figure 9: every role value present before unary propagation).
    fn init_bits(&self, col: usize, row: usize) -> u64 {
        if self.diagonal(col, row) {
            0
        } else {
            self.pair_bits[self.role_of[col] * self.q + self.role_of[row]]
        }
    }

    /// Initial alive mask: all valid labels at each column's boundary PE
    /// (row 0), 0 elsewhere.
    fn init_alive(&self, col: usize, row: usize) -> u64 {
        if row == 0 {
            self.full[self.role_of[col]]
        } else {
            0
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

    /// Router index of group `g`'s alive mask: its boundary PE.
    fn boundary(&self, g: usize) -> usize {
        g * self.side
    }
}

/// `f(col, row)` for every PE of a grid of `side`-PE columns, packed 64
/// PEs to a word: the table [`Machine::par_write_bits`] broadcasts.
fn grid_words(n_virt: usize, side: usize, f: impl Fn(usize, usize) -> bool) -> Vec<u64> {
    let mut words = vec![0u64; n_virt.div_ceil(64)];
    let mut pe = 0;
    for col in 0..n_virt / side {
        for row in 0..side {
            if f(col, row) {
                words[pe / 64] |= 1u64 << (pe % 64);
            }
            pe += 1;
        }
    }
    words
}

/// Allocate a plural and write `f(col, row)` into it, re-issuing the write
/// until the readback matches (the values are pure functions of the PE's
/// grid position, so the host can verify them directly). Fault-free this
/// is exactly one alloc + one broadcast, identical to the original
/// `par_init`.
fn init_exact<T>(
    machine: &mut Machine,
    name: &str,
    max_retries: usize,
    recovery: &mut RecoveryReport,
    side: usize,
    f: impl Fn(usize, usize) -> T + Sync,
) -> Result<Plural<T>, EngineError>
where
    T: Copy + Default + PartialEq + Send + Sync + maspar_sim::FaultWord + 'static,
{
    let mut p = machine.alloc(T::default());
    let mut attempts = 0;
    loop {
        attempts += 1;
        machine.par_map_grid(&mut p, side, |c, rows, slots| {
            for (r, v) in rows.zip(slots) {
                *v = f(c, r);
            }
        });
        if !machine.faults_armed()
            || p.as_slice()
                .iter()
                .enumerate()
                .all(|(pe, v)| *v == f(pe / side, pe % side))
        {
            return Ok(p);
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

/// Execute one mutating phase. Fault-free: run it once. Under faults:
/// checkpoint `bits`/`alive` on the host, run the phase **twice** (rolling
/// back in between), and accept only two bit-identical executions; retry
/// from the checkpoint otherwise. Returns the phase's scalar result.
#[allow(clippy::too_many_arguments)]
fn run_phase<F>(
    machine: &mut Machine,
    max_retries: usize,
    recovery: &mut RecoveryReport,
    name: &str,
    bits: &mut Plural<u64>,
    alive: &mut Plural<u64>,
    f: F,
) -> Result<u64, EngineError>
where
    F: Fn(&mut Machine, &mut Plural<u64>, &mut Plural<u64>) -> u64,
{
    if !machine.faults_armed() {
        return Ok(f(machine, bits, alive));
    }
    let _verify = obsv::span("verify");
    recovery.verified_phases += 1;
    let golden_bits = bits.as_slice().to_vec();
    let golden_alive = alive.as_slice().to_vec();
    let mut attempts = 0;
    loop {
        attempts += 1;
        let r1 = f(machine, bits, alive);
        let run1_bits = bits.as_slice().to_vec();
        let run1_alive = alive.as_slice().to_vec();
        restore(machine, bits, &golden_bits);
        restore(machine, alive, &golden_alive);
        let r2 = f(machine, bits, alive);
        if r1 == r2 && run1_bits == bits.as_slice() && run1_alive == alive.as_slice() {
            return Ok(r2);
        }
        recovery.phase_retries += 1;
        if attempts >= max_retries {
            return Err(EngineError::Inconsistent {
                phase: name.to_string(),
                attempts,
            });
        }
        restore(machine, bits, &golden_bits);
        restore(machine, alive, &golden_alive);
    }
}

/// Roll a plural back to a host-held golden copy (one broadcast).
fn restore(machine: &mut Machine, p: &mut Plural<u64>, golden: &[u64]) {
    machine.par_map(p, |pe, v| *v = golden[pe]);
}

/// Allocate and write a host-verified boolean plural (the bit-sliced
/// counterpart of [`init_exact`]): one alloc + one broadcast when
/// fault-free, re-issued until the readback matches otherwise.
fn init_bits_exact(
    machine: &mut Machine,
    name: &str,
    max_retries: usize,
    recovery: &mut RecoveryReport,
    side: usize,
    f: impl Fn(usize, usize) -> bool + Sync,
) -> Result<PluralBits, EngineError> {
    let want = grid_words(machine.n_virt(), side, f);
    let mut p = machine.alloc_bits(false);
    let mut attempts = 0;
    loop {
        attempts += 1;
        machine.par_write_bits(&mut p, &want);
        if !machine.faults_armed() || p.words() == want {
            return Ok(p);
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

/// Bit li of entry g: role value (group g, label li) violates the
/// unary constraint compiled to `program`. Evaluated a (word, role) slot
/// at a time, as [`KernelProgram::unary_lanes`] over the slot's valid
/// bindings ([`Tables::slot_lanes`]): the slot class first (most unary
/// constraints are guarded by category or role, and a definite class holds
/// for every value of the slot), one lane pass where it is `Unknown`.
fn unary_violations(t: &Tables, sentence: &Sentence, program: &KernelProgram) -> Vec<u64> {
    let mut scratch = LaneScratch::new();
    let (mut all, mut doomed) = (Vec::new(), Vec::new());
    let mut viol = vec![0u64; t.side];
    for k in 0..t.side / t.m {
        let (lanes, at) = t.slot_lanes(k);
        all.clear();
        all.resize(at.len().div_ceil(64), !0u64);
        if at.len() % 64 != 0 {
            *all.last_mut().expect("a slot has valid bindings") >>= 64 - at.len() % 64;
        }
        doomed.resize(all.len(), 0);
        program.unary_lanes(sentence, &lanes, &all, &mut scratch, &mut doomed);
        for lane in ones(&doomed) {
            viol[at[lane] / t.l] |= 1u64 << (at[lane] % t.l);
        }
    }
    viol
}

/// Apply one unary constraint from its violation table (see
/// [`unary_violations`]): valid PEs zero the submatrix rows and columns of
/// violating values, and the group boundary PEs clear those values from
/// the alive masks.
fn unary_from_table(
    machine: &mut Machine,
    t: &Tables,
    viol: &[u64],
    valid: &PluralBits,
    bits: &mut Plural<u64>,
    alive: &mut Plural<u64>,
) {
    let keep_cols: Vec<u64> = viol.iter().map(|&v| !t.rows_of[v as usize]).collect();
    let keep_rows: Vec<u64> = viol.iter().map(|&v| !t.cols_of[v as usize]).collect();
    machine.with_activity_bits(valid, |m| {
        m.par_map_grid(bits, t.side, |cg, rows, slots| {
            let keep = keep_cols[cg];
            for (b, &k) in slots.iter_mut().zip(&keep_rows[rows]) {
                *b &= keep & k;
            }
        });
    });
    machine.par_map_strided(alive, t.side, |pe, a| *a &= !viol[pe / t.side]);
}

thread_local! {
    /// The kernel evaluator's scratch stack for binary PE bodies, one per
    /// host thread, so no PE allocates.
    static BINARY_STACK: RefCell<Vec<Value>> = const { RefCell::new(Vec::new()) };
}

/// One binary constraint, compiled to `program`: every valid PE checks
/// the live pairs of its l×l submatrix (both orderings), skipping empty
/// submatrix rows.
fn apply_binary(
    machine: &mut Machine,
    t: &Tables,
    sentence: &Sentence,
    program: &KernelProgram,
    valid: &PluralBits,
    bits: &mut Plural<u64>,
) {
    let l = t.l;
    let label_mask = (1u64 << l) - 1;
    let holds = |x: Binding, y: Binding, stack: &mut Vec<Value>| {
        program
            .eval_with(&EvalCtx::binary(sentence, x, y), stack)
            .truth()
            .not_false()
    };
    machine.with_activity_bits(valid, |m| {
        m.par_map_grid(bits, t.side, |cg, rows, slots| {
            BINARY_STACK.with_borrow_mut(|stack| {
                for (rg, b) in rows.zip(slots) {
                    if *b == 0 {
                        continue;
                    }
                    for i in 0..l {
                        let mut live = *b >> (i * l) & label_mask;
                        if live == 0 {
                            continue;
                        }
                        let Some(bx) = t.bindings[cg * l + i] else {
                            continue;
                        };
                        while live != 0 {
                            let j = live.trailing_zeros() as usize;
                            live &= live - 1;
                            let Some(by) = t.bindings[rg * l + j] else {
                                continue;
                            };
                            if !(holds(bx, by, stack) && holds(by, bx, stack)) {
                                *b &= !(1u64 << (i * l + j));
                            }
                        }
                    }
                }
            });
        });
    });
}

/// Zero every submatrix column/row belonging to a dead role value: two
/// router gathers fetch the column's and row's alive masks from the
/// boundary PEs, then one broadcast per side keeps the submatrix lines of
/// the gathered alive labels (a table lookup on the l-bit mask).
fn mask_dead(
    machine: &mut Machine,
    t: &Tables,
    valid: &PluralBits,
    bits: &mut Plural<u64>,
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
        m.par_zip(bits, &col_alive, |_, b, &ca| {
            *b &= t.rows_of[(ca & label_mask) as usize];
        });
        m.par_zip(bits, &row_alive, |_, b, &ra| {
            *b &= t.cols_of[(ra & label_mask) as usize];
        });
    });
    machine.free(col_alive);
    machine.free(row_alive);
}

/// Maintenance phases A–C for column label `li` (Figure 12). A: each
/// valid PE ORs its submatrix row for `li` — one masked test, since the
/// row is a contiguous bit run. B: scanOr within each (column, row
/// word-role) block; the block's OR lands on its boundary PE. C: scanAnd
/// across the block-boundary PEs of each column (self-arc blocks are
/// invalid, hence skipped — the figure's "disabled only during the
/// scanAnd"). The column's support lands on its group boundary PE.
fn column_support(
    machine: &mut Machine,
    t: &Tables,
    valid: &PluralBits,
    block_boundary: &PluralBits,
    bits: &Plural<u64>,
    li: usize,
) -> PluralBits {
    let row = t.rows_of[1 << li];
    let mut loc = machine.alloc_bits(false);
    machine.with_activity_bits(valid, |m| {
        m.par_map_bits(&mut loc, bits, move |_, b| b & row != 0)
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
    bits: &mut Plural<u64>,
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

    #[test]
    fn tables_lay_out_figures_9_to_13() {
        let (g, s) = example();
        let lay = Layout::new(&g, &s);
        let t = Tables::new(&lay);
        // Figure 13: a 3×3 submatrix, all label pairs set; Figure 11's
        // diagonal PEs (column group 0 × row groups 0–2) hold nothing.
        assert_eq!(t.init_bits(0, 3).count_ones(), 9);
        for row in 0..3 {
            assert!(t.diagonal(0, row));
            assert_eq!(t.init_bits(0, row), 0);
        }
        // Alive masks live on each column's boundary PE (row 0) only.
        assert_eq!(t.init_alive(0, 0), 0b111);
        assert_eq!(t.init_alive(1, 0), 0b111);
        assert_eq!(t.init_alive(0, 1), 0);
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
            assert_eq!(a.arcs_raw(), b.arcs_raw(), "`{s}`: arcs");
            let mut masked = b.stats;
            // A fully rejected sentence has no alive rows left to mask.
            assert_eq!(masked.bmm_words > 0, b.total_alive() > 0, "`{s}`");
            masked.bmm_words = a.stats.bmm_words;
            masked.bmm_tiles = a.stats.bmm_tiles;
            assert_eq!(a.stats, masked, "`{s}`: host stats must agree up to bmm_*");
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
