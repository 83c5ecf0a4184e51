//! The Machine: PE array, ACU activity control, plural operations, scans,
//! and the global router.

use crate::bits::{self, PluralBits};
use crate::fault::{FaultPlan, FaultWord};
use crate::plural::Plural;
use crate::scan::SegmentMap;
use crate::stats::{CostModel, MachineStats};
use rayon::prelude::*;
use std::any::Any;
use std::ops::Range;

/// Static machine parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineConfig {
    /// Physical PEs (the full MP-1: 16,384).
    pub phys_pes: usize,
    /// PE-local memory, bytes (MP-1: 16 KB).
    pub pe_memory_bytes: usize,
    /// Cost weights for the time estimate.
    pub cost: CostModel,
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig {
            phys_pes: 16_384,
            pe_memory_bytes: 16 * 1024,
            cost: CostModel::default(),
        }
    }
}

/// The simulated machine, sized for one program's virtual PE count.
///
/// When a program needs more virtual PEs than the machine has physical
/// ones, every broadcast instruction is executed ⌈virt/phys⌉ times — the
/// paper's processor virtualization (design decision 6), and the origin of
/// the 0.15 s → 0.45 s staircase in its time trials.
///
/// # Fault injection
///
/// Arming a [`FaultPlan`] (see [`Machine::arm_faults`]) switches the
/// machine onto a fault-checked execution path:
///
/// * every broadcast instruction advances a global instruction counter
///   ([`Machine::op_count`]) that transient faults are keyed to;
/// * virtual PEs are explicitly mapped onto physical PEs
///   (`phys = healthy[virt mod healthy.len()]`); a virtual PE whose
///   physical home is dead silently skips broadcast instructions — its
///   local memory goes stale, exactly the failure the paper's machine
///   could suffer;
/// * router/scan payloads and freshly written memory words can be
///   corrupted per the plan; out-of-range router targets (possible once
///   an index plural has been corrupted) are *dropped and counted*
///   instead of killing the program;
/// * [`Machine::probe_pes`] is the PE self-test programs use to detect
///   dead PEs, and [`Machine::retire_pes`] remaps virtual PEs onto the
///   remaining healthy physical PEs.
///
/// Without an armed plan none of this costs anything and the instruction
/// counts are bit-identical to the pre-fault-injection simulator.
#[derive(Debug)]
pub struct Machine {
    config: MachineConfig,
    n_virt: usize,
    virt_factor: u64,
    /// Activity flags per virtual PE, packed 64 to a word (bit `pe % 64`
    /// of word `pe / 64`); the stack implements MPL's plural if. Packed
    /// because every instruction reads it a word at a time (see
    /// [`Machine::sweep`]).
    enabled: Vec<u64>,
    activity_stack: Vec<Vec<u64>>,
    /// Simulated PE-local memory in use (bytes per physical PE).
    pe_memory_used: usize,
    /// Optional instruction trace (the paper singles out the MP-1's
    /// "extensive debugging support"; this is ours).
    trace: Option<Vec<TraceEntry>>,
    /// Armed fault schedule (`None` = fault-free fast path).
    faults: Option<FaultPlan>,
    /// Global broadcast-instruction counter; transient faults key on it.
    op_count: u64,
    /// Physical PEs the program has retired (detected dead and remapped
    /// away from). Only populated while faults are armed.
    retired: Vec<bool>,
    /// Healthy (non-retired) physical PEs, ascending; the virtual→physical
    /// map is `healthy[virt mod healthy.len()]`. Empty when unarmed.
    healthy: Vec<usize>,
    /// Cached per-virtual-PE deadness under the current mapping, packed
    /// like `enabled`. Empty when unarmed (so the fault-free path never
    /// consults it).
    virt_dead: Vec<u64>,
    /// Host buffers of freed plurals, handed to the next allocation.
    spares: Spares,
    pub stats: MachineStats,
}

/// One traced machine operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEntry {
    /// Operation kind: `plural` (a plural instruction or an activity
    /// narrowing), `scan` (a scan or reduction) or `router` (a gather or
    /// the remap of [`Machine::retire_pes`]).
    pub op: &'static str,
    /// PEs active when the operation was broadcast.
    pub active: usize,
}

/// At most this many host chunks per instruction (see [`Machine::sweep`]).
const MAX_CHUNKS: usize = 32;

/// Smallest host chunk, in 64-PE words: one 16,384-PE physical array, so
/// a program that fits the MP-1 unvirtualized runs as one chunk and
/// starts no pool threads.
const MIN_CHUNK_WORDS: usize = 256;

/// The PEs an instruction runs on — active and not hosted on a dead
/// physical PE — read a packed word at a time.
#[derive(Clone, Copy)]
struct Live<'a> {
    enabled: &'a [u64],
    /// Empty when no fault plan is armed.
    dead: &'a [u64],
}

impl Live<'_> {
    #[inline]
    fn word(&self, w: usize) -> u64 {
        let e = self.enabled[w];
        if self.dead.is_empty() {
            e
        } else {
            e & !self.dead[w]
        }
    }

    /// Call `run(lo, hi)` for every maximal run `lo..hi` of live PEs in
    /// the packed words `words`. Zero words are skipped with one test, and
    /// runs continue across word boundaries.
    #[inline]
    fn runs(&self, words: Range<usize>, mut run: impl FnMut(usize, usize)) {
        let (mut lo, mut hi) = (0, 0);
        for w in words {
            let mut m = self.word(w);
            while m != 0 {
                let b = m.trailing_zeros() as usize;
                let len = (!(m >> b)).trailing_zeros() as usize;
                let start = w * 64 + b;
                if start != hi {
                    if lo < hi {
                        run(lo, hi);
                    }
                    lo = start;
                }
                hi = start + len;
                // Clear the run just taken (adding its lowest bit carries
                // through it).
                m &= m.wrapping_add(1 << b);
            }
        }
        if lo < hi {
            run(lo, hi);
        }
    }
}

/// Positions of the set bits of `m`, ascending.
#[inline]
fn set_bits(mut m: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (m != 0).then(|| {
            let b = m.trailing_zeros() as usize;
            m &= m - 1;
            b
        })
    })
}

/// Is any bit of `words` in the PE range `range` set?
#[inline]
fn any_in(words: &[u64], range: Range<usize>) -> bool {
    if range.len() <= 64 {
        // Within two words: one 128-bit window, no branch on where the
        // range falls.
        let w = range.start / 64;
        let pair = words[w] as u128 | (words.get(w + 1).copied().unwrap_or(0) as u128) << 64;
        let bits = (pair >> (range.start % 64)) as u64;
        return bits & (!0u64 >> (64 - range.len())) != 0;
    }
    // Longer: a masked head word, whole middle words, a masked tail word.
    let (first, last) = (range.start / 64, (range.end - 1) / 64);
    let head = !0u64 << (range.start % 64);
    let tail = !0u64 >> (63 - (range.end - 1) % 64);
    words[first] & head != 0
        || words[first + 1..last].iter().any(|&w| w != 0)
        || words[last] & tail != 0
}

/// Freed host buffers a machine keeps for reuse.
const MAX_SPARES: usize = 8;

/// Host buffers of freed plurals. Every plural of one machine has
/// `n_virt` slots (or `n_virt / 64` words), so a freed buffer fits a
/// later allocation and the host allocator is skipped. The simulated
/// charge for an allocation is made either way.
#[derive(Default)]
struct Spares(Vec<Box<dyn Any + Send + Sync>>);

impl Spares {
    /// A kept buffer with room for `len` items that wastes at most half of
    /// itself (so a freed plural's buffer never backs a packed one),
    /// emptied.
    fn take<T: 'static>(&mut self, len: usize) -> Option<Vec<T>> {
        let best = self
            .0
            .iter()
            .enumerate()
            .filter_map(|(i, b)| Some(((**b).downcast_ref::<Vec<T>>()?.capacity(), i)))
            .filter(|&(cap, _)| (len..=2 * len).contains(&cap))
            .min();
        let (_, i) = best?;
        let buf = self.0.swap_remove(i).downcast::<Vec<T>>();
        let mut buf = *buf.expect("the kept buffer was checked to be a Vec<T>");
        buf.clear();
        Some(buf)
    }

    fn keep<T: Send + Sync + 'static>(&mut self, buf: Vec<T>) {
        if self.0.len() < MAX_SPARES && buf.capacity() > 0 {
            self.0.push(Box::new(buf));
        }
    }
}

impl std::fmt::Debug for Spares {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Spares({})", self.0.len())
    }
}

impl Machine {
    /// A machine executing a program of `n_virt` virtual PEs.
    ///
    /// ```
    /// use maspar_sim::{Machine, SegmentMap};
    ///
    /// // 8 virtual PEs; each computes its id, then a segmented scanOr
    /// // reduces each half to its boundary PE.
    /// let mut m = Machine::mp1(8);
    /// let flags = m.par_init(false, |pe| pe == 6);
    /// let segs = SegmentMap::uniform(8, 4);
    /// let reduced = m.scan_or(&flags, &segs);
    /// assert!(!reduced.get(0));     // first half: no flag
    /// assert!(*reduced.get(4));     // second half: PE 6 flagged
    /// assert_eq!(m.stats.scan_calls, 1);
    /// ```
    pub fn new(config: MachineConfig, n_virt: usize) -> Self {
        assert!(n_virt > 0, "a program needs at least one virtual PE");
        assert!(config.phys_pes > 0);
        let virt_factor = n_virt.div_ceil(config.phys_pes) as u64;
        let mut enabled = vec![!0u64; bits::word_count(n_virt)];
        if let Some(last) = enabled.last_mut() {
            *last &= bits::tail_mask(n_virt);
        }
        Machine {
            config,
            n_virt,
            virt_factor,
            enabled,
            activity_stack: Vec::new(),
            pe_memory_used: 0,
            trace: None,
            faults: None,
            op_count: 0,
            retired: Vec::new(),
            healthy: Vec::new(),
            virt_dead: Vec::new(),
            spares: Spares::default(),
            stats: MachineStats::default(),
        }
    }

    /// Full-size MP-1 with default cost model.
    pub fn mp1(n_virt: usize) -> Self {
        Machine::new(MachineConfig::default(), n_virt)
    }

    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    pub fn n_virt(&self) -> usize {
        self.n_virt
    }

    /// ⌈virtual PEs / physical PEs⌉ — the paper's virtualization multiplier.
    pub fn virt_factor(&self) -> u64 {
        self.virt_factor
    }

    /// PEs currently executing broadcast instructions.
    pub fn active_count(&self) -> usize {
        self.enabled.iter().map(|w| w.count_ones() as usize).sum()
    }

    pub fn is_enabled(&self, pe: usize) -> bool {
        self.enabled[pe / 64] >> (pe % 64) & 1 == 1
    }

    /// Estimated MP-1 seconds for everything executed so far.
    pub fn estimated_seconds(&self) -> f64 {
        self.stats.estimated_seconds(&self.config.cost)
    }

    /// Turn on instruction tracing; each subsequent operation records its
    /// kind and the active PE count.
    pub fn enable_trace(&mut self) {
        if self.trace.is_none() {
            self.trace = Some(Vec::new());
        }
    }

    /// The trace so far (empty when tracing is off).
    pub fn trace(&self) -> &[TraceEntry] {
        self.trace.as_deref().unwrap_or(&[])
    }

    fn record(&mut self, op: &'static str) {
        if self.trace.is_some() {
            let active = self.active_count();
            if let Some(trace) = &mut self.trace {
                trace.push(TraceEntry { op, active });
            }
        }
    }

    // ------------------------------------------------------------------
    // Fault injection
    // ------------------------------------------------------------------

    /// Arm a fault schedule. From here on, broadcast instructions consult
    /// the plan: dead physical PEs freeze their virtual PEs' memory, and
    /// transient faults fire at their scheduled instruction counts.
    pub fn arm_faults(&mut self, plan: FaultPlan) {
        self.retired = vec![false; self.config.phys_pes];
        self.healthy = (0..self.config.phys_pes).collect();
        self.faults = Some(plan);
        self.recompute_virt_dead();
    }

    /// Is a fault plan armed (even an empty one)?
    pub fn faults_armed(&self) -> bool {
        self.faults.is_some()
    }

    /// Broadcast instructions executed so far (plural ops, activity
    /// narrowings, scans, reductions and router operations all count).
    pub fn op_count(&self) -> u64 {
        self.op_count
    }

    /// The physical PE hosting virtual PE `virt` (first virtualization
    /// layer) under the current mapping.
    pub fn phys_of(&self, virt: usize) -> usize {
        if self.healthy.is_empty() {
            virt % self.config.phys_pes
        } else {
            self.healthy[virt % self.healthy.len()]
        }
    }

    fn recompute_virt_dead(&mut self) {
        match &self.faults {
            Some(plan) => {
                let mut dead = vec![0u64; bits::word_count(self.n_virt)];
                for v in 0..self.n_virt {
                    let phys = self.healthy[v % self.healthy.len()];
                    if plan.is_dead(phys) {
                        dead[v / 64] |= 1u64 << (v % 64);
                    }
                }
                self.virt_dead = dead;
            }
            None => self.virt_dead.clear(),
        }
    }

    /// Retire physical PEs (detected dead): remap every virtual PE onto
    /// the remaining healthy physical array. Returns the new healthy
    /// count; returns 0 — and changes nothing — if retiring would leave no
    /// healthy PE. The remap itself is charged as one routed copy.
    pub fn retire_pes(&mut self, pes: &[usize]) -> usize {
        assert!(
            self.faults.is_some(),
            "retire_pes requires an armed fault plan"
        );
        let mut retired = self.retired.clone();
        for &p in pes {
            if p < retired.len() {
                retired[p] = true;
            }
        }
        let healthy: Vec<usize> = (0..self.config.phys_pes).filter(|&p| !retired[p]).collect();
        if healthy.is_empty() {
            return 0;
        }
        self.retired = retired;
        self.healthy = healthy;
        // Moving each virtual PE's state to its new physical home costs
        // one routed permutation.
        self.charge_router();
        self.recompute_virt_dead();
        self.healthy.len()
    }

    /// PE self-test: every active PE writes a nonce-derived pattern into a
    /// scratch word; the host reads the array back and reports, by
    /// *physical* id, every PE whose write did not land. One broadcast
    /// instruction. Use a fresh `nonce` per probe so a PE that died between
    /// probes cannot alias a stale pattern. Detects persistent (dead-PE)
    /// faults, which time redundancy cannot; a transient fault striking
    /// the probe itself at worst yields a false positive, and retiring a
    /// healthy PE is conservative, never incorrect.
    pub fn probe_pes(&mut self, nonce: u64) -> Vec<usize> {
        let expected =
            move |pe: usize| (nonce ^ (pe as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)) | 1;
        let mut scratch = self.alloc(0u64);
        self.par_map(&mut scratch, move |pe, w| *w = expected(pe));
        let values = scratch.as_slice().to_vec();
        self.free(scratch);
        let mut dead = std::collections::BTreeSet::new();
        for (pe, &v) in values.iter().enumerate() {
            if self.is_enabled(pe) && v != expected(pe) {
                dead.insert(self.phys_of(pe));
            }
        }
        dead.into_iter().collect()
    }

    /// Does virtual PE `pe` execute broadcast instructions right now
    /// (active *and* physically alive)?
    fn is_live(&self, pe: usize) -> bool {
        self.live_word(pe / 64) >> (pe % 64) & 1 == 1
    }

    /// Is virtual PE `pe` hosted on a dead physical PE (false when no
    /// plan is armed)?
    fn virt_is_dead(&self, pe: usize) -> bool {
        !self.virt_dead.is_empty() && self.virt_dead[pe / 64] >> (pe % 64) & 1 == 1
    }

    /// The PEs the next instruction runs on.
    fn live(&self) -> Live<'_> {
        Live {
            enabled: &self.enabled,
            dead: &self.virt_dead,
        }
    }

    /// Live-PE mask for packed word `w`: enabled minus dead.
    #[inline]
    fn live_word(&self, w: usize) -> u64 {
        self.live().word(w)
    }

    /// Count the enabled-but-dead slots one data-carrying broadcast
    /// instruction skipped (no-op on the fault-free path).
    fn count_dead_skips(&mut self) {
        if self.virt_dead.is_empty() {
            return;
        }
        let skips: u64 = self
            .enabled
            .iter()
            .zip(&self.virt_dead)
            .map(|(&e, &d)| (e & d).count_ones() as u64)
            .sum();
        self.stats.dead_pe_skips += skips;
    }

    /// Apply the memory flips scheduled for instruction `op` to the plural
    /// the instruction just wrote.
    fn apply_memory_flips<T: FaultWord>(&mut self, op: u64, data: &mut [T]) {
        let hits: Vec<(usize, u32)> = match &self.faults {
            Some(plan) => plan
                .memory_faults_at(op)
                .filter(|&(phys, _)| !plan.is_dead(phys)) // dead memory is inert
                .collect(),
            None => return,
        };
        for (phys, bit) in hits {
            if let Some(v) = self.lowest_virt_on(phys) {
                if v < data.len() {
                    data[v] = data[v].fault_flip(bit);
                    self.stats.memory_flips += 1;
                }
            }
        }
    }

    /// Apply the router-payload corruptions scheduled for instruction `op`
    /// to a communication result.
    fn apply_router_corruption<T: FaultWord>(&mut self, op: u64, data: &mut [T]) {
        let hits: Vec<(usize, u64)> = match &self.faults {
            Some(plan) => plan
                .router_faults_at(op)
                .filter(|&(phys, _)| !plan.is_dead(phys))
                .collect(),
            None => return,
        };
        for (phys, mask) in hits {
            if let Some(v) = self.lowest_virt_on(phys) {
                if v < data.len() {
                    data[v] = data[v].fault_xor(mask);
                    self.stats.router_corruptions += 1;
                }
            }
        }
    }

    /// [`Machine::apply_memory_flips`] for a packed boolean plural: the
    /// flip lands on the same virtual PE's 1-bit word, and a 1-bit word
    /// always flips (`bool::fault_flip` reduces the bit index modulo 1).
    fn apply_memory_flips_bits(&mut self, op: u64, data: &mut PluralBits) {
        let hits: Vec<(usize, u32)> = match &self.faults {
            Some(plan) => plan
                .memory_faults_at(op)
                .filter(|&(phys, _)| !plan.is_dead(phys))
                .collect(),
            None => return,
        };
        for (phys, _bit) in hits {
            if let Some(v) = self.lowest_virt_on(phys) {
                if v < data.len() {
                    data.flip(v);
                    self.stats.memory_flips += 1;
                }
            }
        }
    }

    /// [`Machine::apply_router_corruption`] for a packed boolean plural.
    /// `bool::fault_xor` flips iff the mask is odd, but the event is
    /// counted either way — mirrored exactly so packed and unpacked runs
    /// report identical fault statistics.
    fn apply_router_corruption_bits(&mut self, op: u64, data: &mut PluralBits) {
        let hits: Vec<(usize, u64)> = match &self.faults {
            Some(plan) => plan
                .router_faults_at(op)
                .filter(|&(phys, _)| !plan.is_dead(phys))
                .collect(),
            None => return,
        };
        for (phys, mask) in hits {
            if let Some(v) = self.lowest_virt_on(phys) {
                if v < data.len() {
                    if mask & 1 == 1 {
                        data.flip(v);
                    }
                    self.stats.router_corruptions += 1;
                }
            }
        }
    }

    /// Corrupt a scalar reduction result if a router fault fires on this
    /// instruction (the reduction's single payload travels to the ACU).
    fn corrupt_reduction<T: FaultWord>(&mut self, op: u64, value: T) -> T {
        let masks: Vec<u64> = match &self.faults {
            Some(plan) => plan.router_faults_at(op).map(|(_, mask)| mask).collect(),
            None => return value,
        };
        let mut value = value;
        for mask in masks {
            value = value.fault_xor(mask);
            self.stats.router_corruptions += 1;
        }
        value
    }

    /// The lowest virtual PE currently mapped onto physical PE `phys`.
    fn lowest_virt_on(&self, phys: usize) -> Option<usize> {
        let idx = if self.healthy.is_empty() {
            if phys < self.config.phys_pes {
                phys
            } else {
                return None;
            }
        } else {
            self.healthy.iter().position(|&h| h == phys)?
        };
        (idx < self.n_virt).then_some(idx)
    }

    // ------------------------------------------------------------------
    // Memory
    // ------------------------------------------------------------------

    /// Charge an allocation of `bytes_per_elem` simulated bytes per
    /// virtual PE against the 16 KB-per-PE budget (each physical PE holds
    /// `virt_factor` layers). Shared by [`Machine::alloc`] and
    /// [`Machine::alloc_bits`] so both representations are charged — and
    /// fail — identically: the simulated footprint is a property of the
    /// program, not of the host representation.
    fn charge_alloc(&mut self, bytes_per_elem: usize) {
        let per_phys = bytes_per_elem * self.virt_factor as usize;
        self.pe_memory_used += per_phys;
        assert!(
            self.pe_memory_used <= self.config.pe_memory_bytes,
            "PE-local memory exhausted: {} of {} bytes (the MP-1 had 16 KB per PE)",
            self.pe_memory_used,
            self.config.pe_memory_bytes
        );
        self.stats.peak_pe_memory_bytes = self.stats.peak_pe_memory_bytes.max(self.pe_memory_used);
    }

    fn release_alloc(&mut self, bytes_per_elem: usize) {
        let per_phys = bytes_per_elem * self.virt_factor as usize;
        self.pe_memory_used = self.pe_memory_used.saturating_sub(per_phys);
    }

    /// Allocate a plural value, one `T` per virtual PE, charged against the
    /// 16 KB-per-PE budget (each physical PE holds `virt_factor` layers).
    /// The host array is a freed plural's buffer when one fits.
    pub fn alloc<T: Clone + Send + Sync + 'static>(&mut self, init: T) -> Plural<T> {
        self.charge_alloc(std::mem::size_of::<T>());
        let data = match self.spares.take::<T>(self.n_virt) {
            Some(mut data) => {
                data.resize(self.n_virt, init);
                data
            }
            None => vec![init; self.n_virt],
        };
        Plural::from_vec(data)
    }

    /// Release a plural's memory: the budget shrinks, and the host keeps
    /// the buffer for the next allocation.
    pub fn free<T: Send + Sync + 'static>(&mut self, plural: Plural<T>) {
        self.release_alloc(std::mem::size_of::<T>());
        self.spares.keep(plural.into_vec());
    }

    /// Allocate a packed boolean plural, charged exactly like
    /// `alloc::<bool>` — one simulated byte per PE — so packed and
    /// unpacked programs hit the 16 KB budget at the same instruction.
    pub fn alloc_bits(&mut self, init: bool) -> PluralBits {
        self.charge_alloc(std::mem::size_of::<bool>());
        let words = self.spares.take::<u64>(bits::word_count(self.n_virt));
        PluralBits::filled_in(words.unwrap_or_default(), self.n_virt, init)
    }

    /// Release a packed boolean plural's memory.
    pub fn free_bits(&mut self, plural: PluralBits) {
        self.release_alloc(std::mem::size_of::<bool>());
        self.spares.keep(plural.into_words());
    }

    // ------------------------------------------------------------------
    // Broadcast plural instructions
    // ------------------------------------------------------------------

    fn charge_plural_op(&mut self) -> u64 {
        self.record("plural");
        self.stats.plural_ops += 1;
        self.stats.plural_slices += self.virt_factor;
        self.op_count += 1;
        self.op_count
    }

    /// The charge every data-carrying plural instruction opens with: one
    /// plural op, plus the dead-PE skips it incurs. Returns the
    /// instruction's index for the memory flips it must apply.
    fn begin_plural(&mut self, lens: &[usize]) -> u64 {
        for &len in lens {
            assert_eq!(len, self.n_virt, "plural size mismatch");
        }
        let op = self.charge_plural_op();
        self.count_dead_skips();
        op
    }

    // ------------------------------------------------------------------
    // The host walk
    // ------------------------------------------------------------------
    //
    // Every data-parallel instruction below walks the array through
    // `sweep`: the array is cut into chunks of whole 64-PE words, the
    // chunks go to the thread pool, and each chunk reads the live mask
    // (`enabled & !virt_dead`) a word at a time. Zero words cost one
    // test. `Live::runs` merges live PEs into runs that a body walks as a
    // plain loop over its slots; the word-level kernels use the words
    // directly. The walk decides only which host loop visits a PE, never
    // whether the PE runs, so the charges cannot move.

    /// 64-PE words per host chunk: at least one physical array's worth,
    /// and at most [`MAX_CHUNKS`] chunks. A function of `n_virt` only, so
    /// results are byte-identical at any thread count.
    fn chunk_words(&self) -> usize {
        bits::word_count(self.n_virt)
            .div_ceil(MAX_CHUNKS)
            .max(MIN_CHUNK_WORDS)
    }

    /// Run `body(words, part)` for every host chunk, where chunk `i` covers
    /// words `i·cw ..` and `part` is its piece of the instruction's data,
    /// cut by the caller at the same boundaries. Per-chunk results come
    /// back in chunk order.
    fn sweep<P: Send, R: Send>(
        &self,
        parts: impl Iterator<Item = P>,
        body: impl Fn(Range<usize>, P) -> R + Sync,
    ) -> Vec<R> {
        let (cw, words) = (self.chunk_words(), bits::word_count(self.n_virt));
        let mut parts: Vec<(Range<usize>, P)> = parts
            .enumerate()
            .map(|(i, p)| (i * cw..((i + 1) * cw).min(words), p))
            .collect();
        if parts.len() == 1 {
            let (range, part) = parts.pop().expect("one chunk");
            return vec![body(range, part)];
        }
        parts
            .into_par_iter()
            .map(|(range, part)| body(range, part))
            .collect()
    }

    /// Run `run(acc, lo, slots)` for every maximal run of live PEs, where
    /// `slots` are the run's items of `data` (one per PE, from PE `lo`) and
    /// `acc` is the chunk's accumulator. Returns the accumulators in chunk
    /// order.
    fn visit<T: Send, R: Default + Send>(
        &self,
        data: &mut [T],
        run: impl Fn(&mut R, usize, &mut [T]) + Sync,
    ) -> Vec<R> {
        let live = self.live();
        let chunk = self.chunk_words() * 64;
        self.sweep(data.chunks_mut(chunk), |words, part| {
            let base = words.start * 64;
            let mut acc = R::default();
            live.runs(words, |lo, hi| {
                run(&mut acc, lo, &mut part[lo - base..hi - base])
            });
            acc
        })
    }

    /// [`Machine::visit`] with the body called per live PE.
    fn visit_pes<T: Send>(&self, data: &mut [T], f: impl Fn(usize, &mut T) + Sync) {
        self.visit(data, |_: &mut (), lo, slots| {
            for (k, slot) in slots.iter_mut().enumerate() {
                f(lo + k, slot);
            }
        });
    }

    /// One broadcast instruction: every active PE updates its slot of `p`
    /// from its PE id.
    pub fn par_map<T: Send + FaultWord>(
        &mut self,
        p: &mut Plural<T>,
        f: impl Fn(usize, &mut T) + Sync,
    ) {
        let op = self.begin_plural(&[p.len()]);
        self.visit_pes(p.as_mut_slice(), f);
        self.apply_memory_flips(op, p.as_mut_slice());
    }

    /// One broadcast instruction reading a second plural: `dst[pe] =
    /// f(pe, dst[pe], src[pe])` on active PEs.
    pub fn par_zip<T: Send + FaultWord, U: Sync>(
        &mut self,
        dst: &mut Plural<T>,
        src: &Plural<U>,
        f: impl Fn(usize, &mut T, &U) + Sync,
    ) {
        let op = self.begin_plural(&[dst.len(), src.len()]);
        let src = src.as_slice();
        self.visit(dst.as_mut_slice(), |_: &mut (), lo, slots| {
            let src = &src[lo..lo + slots.len()];
            for (k, (slot, x)) in slots.iter_mut().zip(src).enumerate() {
                f(lo + k, slot, x);
            }
        });
        self.apply_memory_flips(op, dst.as_mut_slice());
    }

    // ------------------------------------------------------------------
    // Addressed broadcasts
    // ------------------------------------------------------------------
    //
    // Each is one plural instruction, charged exactly like `par_map` or
    // `par_zip`: activity, dead PEs and memory flips behave identically.
    // Only the host's walk changes.
    //
    // * The *grid* form addresses PEs by (column, row) in a column-major
    //   layout of `side`-PE columns (PE = column · side + row). Live runs
    //   are split at column boundaries and each piece goes to the body
    //   whole, with its column and rows: the body loops over rows with the
    //   column fixed, pays no per-PE division, and a body that zips its
    //   slots with per-row tables compiles to a vector loop.
    // * The *strided* form visits only PEs with `pe % stride == 0`,
    //   stepping from one to the next inside each live run.

    /// [`Machine::par_map`] addressed by grid position: for every run of
    /// active PEs within one column, `f(column, rows, slots)`, where
    /// `slots` hold the PEs `column · side + row` for `row` in `rows`.
    pub fn par_map_grid<T: Send + FaultWord>(
        &mut self,
        p: &mut Plural<T>,
        side: usize,
        f: impl Fn(usize, Range<usize>, &mut [T]) + Sync,
    ) {
        assert!(
            side > 0 && p.len() % side == 0,
            "grid columns must tile the array: {} PEs / {side}",
            p.len()
        );
        let op = self.begin_plural(&[p.len()]);
        self.visit(p.as_mut_slice(), |_: &mut (), lo, mut slots| {
            let (mut col, mut row) = (lo / side, lo % side);
            while !slots.is_empty() {
                let n = (side - row).min(slots.len());
                let (column, rest) = std::mem::take(&mut slots).split_at_mut(n);
                f(col, row..row + n, column);
                (slots, col, row) = (rest, col + 1, 0);
            }
        });
        self.apply_memory_flips(op, p.as_mut_slice());
    }

    /// Run `f(pe, slot)` on every live PE of `data` with `pe % stride == 0`.
    fn visit_strided<T: Send>(
        &self,
        data: &mut [T],
        stride: usize,
        f: impl Fn(usize, &mut T) + Sync,
    ) {
        assert!(stride > 0, "a stride must be positive");
        self.visit(data, |_: &mut (), lo, slots| {
            let end = lo + slots.len();
            for pe in (lo.next_multiple_of(stride)..end).step_by(stride) {
                f(pe, &mut slots[pe - lo]);
            }
        });
    }

    /// [`Machine::par_map`] on the PEs with `pe % stride == 0` only.
    pub fn par_map_strided<T: Send + FaultWord>(
        &mut self,
        p: &mut Plural<T>,
        stride: usize,
        f: impl Fn(usize, &mut T) + Sync,
    ) {
        let op = self.begin_plural(&[p.len()]);
        self.visit_strided(p.as_mut_slice(), stride, f);
        self.apply_memory_flips(op, p.as_mut_slice());
    }

    /// [`Machine::par_zip`] on the PEs with `pe % stride == 0` only.
    pub fn par_zip_strided<T: Send + FaultWord, U: Sync>(
        &mut self,
        dst: &mut Plural<T>,
        src: &Plural<U>,
        stride: usize,
        f: impl Fn(usize, &mut T, &U) + Sync,
    ) {
        let op = self.begin_plural(&[dst.len(), src.len()]);
        let src = src.as_slice();
        self.visit_strided(dst.as_mut_slice(), stride, |pe, slot| f(pe, slot, &src[pe]));
        self.apply_memory_flips(op, dst.as_mut_slice());
    }

    /// One broadcast instruction reading two plurals on the PEs with
    /// `pe % stride == 0` only: `dst[pe] = f(pe, dst[pe], a[pe], b[pe])`.
    pub fn par_zip2_strided<T: Send + FaultWord, U: Sync, V: Sync>(
        &mut self,
        dst: &mut Plural<T>,
        a: &Plural<U>,
        b: &Plural<V>,
        stride: usize,
        f: impl Fn(usize, &mut T, &U, &V) + Sync,
    ) {
        let op = self.begin_plural(&[dst.len(), a.len(), b.len()]);
        let (a, b) = (a.as_slice(), b.as_slice());
        self.visit_strided(dst.as_mut_slice(), stride, |pe, slot| {
            f(pe, slot, &a[pe], &b[pe])
        });
        self.apply_memory_flips(op, dst.as_mut_slice());
    }

    /// One broadcast instruction on the PEs with `pe % stride == 0` only:
    /// each updates its word of `dst` from its bit of the packed `src`.
    pub fn par_zip_bits_strided(
        &mut self,
        dst: &mut Plural<u64>,
        src: &PluralBits,
        stride: usize,
        f: impl Fn(usize, &mut u64, bool) + Sync,
    ) {
        let op = self.begin_plural(&[dst.len(), src.len()]);
        self.visit_strided(dst.as_mut_slice(), stride, |pe, slot| {
            f(pe, slot, src.get(pe))
        });
        self.apply_memory_flips(op, dst.as_mut_slice());
    }

    /// Build a fresh plural from PE ids in one instruction (active PEs run
    /// `f`; inactive PEs hold `fill`).
    pub fn par_init<T: Clone + Send + Sync + FaultWord + 'static>(
        &mut self,
        fill: T,
        f: impl Fn(usize) -> T + Sync,
    ) -> Plural<T> {
        let mut p = self.alloc(fill);
        self.par_map(&mut p, |pe, slot| *slot = f(pe));
        p
    }

    // ------------------------------------------------------------------
    // Activity control (MPL plural if)
    // ------------------------------------------------------------------

    /// Run `body` with activity narrowed to PEs where `mask` holds (and
    /// that were already active). Restores the previous activity set after.
    pub fn with_activity<R>(
        &mut self,
        mask: &Plural<bool>,
        body: impl FnOnce(&mut Machine) -> R,
    ) -> R {
        assert_eq!(mask.len(), self.n_virt, "mask size mismatch");
        let saved = self.enabled.clone();
        self.activity_stack.push(saved);
        let mask = mask.as_slice();
        for (w, e) in self.enabled.iter_mut().enumerate() {
            let base = w * 64;
            let mut mw = 0u64;
            for (i, &b) in mask[base..(base + 64).min(mask.len())].iter().enumerate() {
                if b {
                    mw |= 1u64 << i;
                }
            }
            *e &= mw;
        }
        // Narrowing activity is itself one broadcast test.
        self.charge_plural_op();
        let result = body(self);
        self.enabled = self.activity_stack.pop().expect("activity stack underflow");
        result
    }

    /// [`Machine::with_activity`] for a packed mask: the narrowing is one
    /// bitwise AND per 64 PEs.
    pub fn with_activity_bits<R>(
        &mut self,
        mask: &PluralBits,
        body: impl FnOnce(&mut Machine) -> R,
    ) -> R {
        assert_eq!(mask.len(), self.n_virt, "mask size mismatch");
        let saved = self.enabled.clone();
        self.activity_stack.push(saved);
        for (w, e) in self.enabled.iter_mut().enumerate() {
            *e &= mask.words()[w];
        }
        self.charge_plural_op();
        let result = body(self);
        self.enabled = self.activity_stack.pop().expect("activity stack underflow");
        result
    }

    // ------------------------------------------------------------------
    // Reductions and scans
    // ------------------------------------------------------------------

    fn charge_scan(&mut self) -> u64 {
        self.record("scan");
        self.stats.scan_calls += 1;
        // ⌈log₂ (PEs in use)⌉ router passes — the paper's logarithmic
        // primitive — plus one local pass per extra virtualization layer
        // once the program outgrows the physical array.
        let in_use = self.n_virt.min(self.config.phys_pes).max(2);
        let log = (in_use as f64).log2().ceil() as u64;
        self.stats.scan_passes += log + (self.virt_factor - 1);
        self.op_count += 1;
        self.op_count
    }

    /// Global sum of a u64 plural over active PEs: a fully live word adds
    /// its 64 values without testing a bit.
    pub fn reduce_sum(&mut self, p: &Plural<u64>) -> u64 {
        assert_eq!(p.len(), self.n_virt);
        let op = self.charge_scan();
        self.count_dead_skips();
        let live = self.live();
        let partials = self.sweep(
            p.as_slice().chunks(self.chunk_words() * 64),
            |words, vals| {
                let mut sum = 0u64;
                for (w, vals) in words.zip(vals.chunks(64)) {
                    let m = live.word(w);
                    if m == !0 {
                        sum += vals.iter().sum::<u64>();
                    } else {
                        sum += set_bits(m).map(|b| vals[b]).sum::<u64>();
                    }
                }
                sum
            },
        );
        let result = partials.into_iter().sum();
        self.corrupt_reduction(op, result)
    }

    /// Segmented `scanOr`: OR of each segment's *active* PEs, deposited at
    /// the segment's boundary (first) PE; all other slots of the result are
    /// `false`. Inactive PEs contribute the identity, matching the MP-1's
    /// behaviour of skipping disabled PEs in a scan.
    pub fn scan_or(&mut self, p: &Plural<bool>, segs: &SegmentMap) -> Plural<bool> {
        self.seg_reduce(p, segs, false, |a, b| a || b)
    }

    /// Segmented `scanAnd`: AND of each segment's active PEs at the
    /// boundary PE (identity `true` for empty/inactive segments).
    pub fn scan_and(&mut self, p: &Plural<bool>, segs: &SegmentMap) -> Plural<bool> {
        self.seg_reduce(p, segs, true, |a, b| a && b)
    }

    fn seg_reduce(
        &mut self,
        p: &Plural<bool>,
        segs: &SegmentMap,
        identity: bool,
        op: impl Fn(bool, bool) -> bool + Sync,
    ) -> Plural<bool> {
        assert_eq!(p.len(), self.n_virt, "plural size mismatch");
        assert_eq!(segs.len(), self.n_virt, "segment map size mismatch");
        let op_id = self.charge_scan();
        self.count_dead_skips();
        let mut out = self.alloc(identity);
        let src = p.as_slice();
        let results: Vec<(usize, bool)> = (0..segs.num_segments())
            .into_par_iter()
            .map(|s| {
                let mut acc = identity;
                for pe in segs.range_of(s) {
                    if self.is_live(pe) {
                        acc = op(acc, src[pe]);
                    }
                }
                (segs.start_of(s), acc)
            })
            .collect();
        let mut dead_boundaries = 0u64;
        for (boundary, value) in results {
            // A dead boundary PE cannot receive the deposit: its slot
            // keeps the identity and the loss is counted.
            if self.virt_is_dead(boundary) {
                dead_boundaries += 1;
            } else {
                out.as_mut_slice()[boundary] = value;
            }
        }
        self.stats.dead_pe_skips += dead_boundaries;
        self.apply_router_corruption(op_id, out.as_mut_slice());
        out
    }

    // ------------------------------------------------------------------
    // Global router
    // ------------------------------------------------------------------

    fn charge_router(&mut self) -> u64 {
        self.record("router");
        self.stats.router_ops += 1;
        self.stats.router_slices += self.virt_factor;
        self.op_count += 1;
        self.op_count
    }

    /// Routed gather: every active PE fetches `src[index[pe]]`. One router
    /// operation (the MP-1 router resolves an arbitrary permutation;
    /// many-to-one reads are fine — common read). With faults armed, an
    /// out-of-range index (a corrupted index plural) drops that PE's fetch
    /// and counts it in [`MachineStats::oob_routes`]; without faults it is
    /// a program bug and asserts.
    pub fn gather<T: Copy + Send + Sync + FaultWord>(
        &mut self,
        src: &Plural<T>,
        index: &Plural<usize>,
        dst: &mut Plural<T>,
    ) {
        assert_eq!(src.len(), self.n_virt);
        assert_eq!(index.len(), self.n_virt);
        assert_eq!(dst.len(), self.n_virt);
        let op = self.charge_router();
        self.count_dead_skips();
        let armed = self.faults.is_some();
        let (s, idx) = (src.as_slice(), index.as_slice());
        let oob: u64 = self
            .visit(dst.as_mut_slice(), |oob: &mut u64, lo, slots| {
                let idx = &idx[lo..lo + slots.len()];
                let mut dropped = 0;
                for (slot, &target) in slots.iter_mut().zip(idx) {
                    match s.get(target) {
                        Some(&v) => *slot = v,
                        None => dropped += 1,
                    }
                }
                if dropped > 0 {
                    let pe = lo + idx.iter().position(|&t| t >= s.len()).unwrap_or(0);
                    assert!(
                        armed,
                        "router gather out of range: PE {pe} -> {}",
                        idx[pe - lo]
                    );
                    *oob += dropped;
                }
            })
            .into_iter()
            .sum();
        self.stats.oob_routes += oob;
        self.apply_router_corruption(op, dst.as_mut_slice());
    }

    // ------------------------------------------------------------------
    // Packed (bit-sliced) boolean kernels: 64 PEs per host word-op
    // ------------------------------------------------------------------
    //
    // Each kernel issues exactly the broadcast instructions its unpacked
    // counterpart issues — same `charge_*` calls, same `count_dead_skips`,
    // same fault application points — so a program ported from
    // `Plural<bool>` to `PluralBits` produces bit-identical
    // [`MachineStats`], instruction counts and cycle estimates. Only the
    // host representation (and host wall time) changes.

    /// One broadcast instruction: every live PE writes its slot of `dst`
    /// from the ACU's packed `want` table (bit `pe % 64` of word
    /// `pe / 64`). The packed counterpart of
    /// `par_map(&mut p, |pe, v| *v = want(pe))`, executed as a masked
    /// word merge per 64 PEs.
    pub fn par_write_bits(&mut self, dst: &mut PluralBits, want: &[u64]) {
        assert_eq!(dst.len(), self.n_virt, "plural size mismatch");
        assert_eq!(want.len(), dst.words().len(), "plural size mismatch");
        let op = self.charge_plural_op();
        self.count_dead_skips();
        for (w, &value) in want.iter().enumerate() {
            let live = self.live_word(w);
            let word = &mut dst.words_mut()[w];
            *word = (*word & !live) | (value & live);
        }
        self.apply_memory_flips_bits(op, dst);
    }

    /// One broadcast instruction: every live PE computes its bit of `dst`
    /// from its word of `src` (the packed counterpart of a
    /// `par_zip(&mut bool_dst, &u64_src, ...)`). Each result word is built
    /// from the body's answers by shifts alone and merged under the live
    /// mask.
    pub fn par_map_bits(
        &mut self,
        dst: &mut PluralBits,
        src: &Plural<u64>,
        f: impl Fn(usize, u64) -> bool + Sync,
    ) {
        assert_eq!(dst.len(), self.n_virt, "plural size mismatch");
        assert_eq!(src.len(), self.n_virt, "plural size mismatch");
        let op = self.charge_plural_op();
        self.count_dead_skips();
        let (s, live) = (src.as_slice(), self.live());
        self.sweep(
            dst.words_mut().chunks_mut(self.chunk_words()),
            |words, out| {
                for (w, word) in words.zip(out) {
                    let m = live.word(w);
                    if m == 0 {
                        continue;
                    }
                    let base = w * 64;
                    let v = if m == !0 {
                        // Eight PEs to a byte, so every shift is a constant.
                        let mut v = 0u64;
                        for (j, eight) in s[base..base + 64].chunks_exact(8).enumerate() {
                            let eight: &[u64; 8] = eight.try_into().expect("chunks of eight");
                            let pe = base + 8 * j;
                            let mut byte = 0u64;
                            for (k, &x) in eight.iter().enumerate() {
                                byte |= (f(pe + k, x) as u64) << k;
                            }
                            v |= byte << (8 * j);
                        }
                        v
                    } else {
                        set_bits(m).fold(0u64, |v, b| v | (f(base + b, s[base + b]) as u64) << b)
                    };
                    *word = (*word & !m) | v;
                }
            },
        );
        self.apply_memory_flips_bits(op, dst);
    }

    /// Build a fresh packed plural in one instruction (live PEs run `f`;
    /// the rest hold `fill`) — the packed [`Machine::par_init`].
    pub fn par_init_bits(&mut self, fill: bool, f: impl Fn(usize) -> bool) -> PluralBits {
        let mut want = vec![0u64; bits::word_count(self.n_virt)];
        for pe in (0..self.n_virt).filter(|&pe| f(pe)) {
            want[pe / 64] |= 1u64 << (pe % 64);
        }
        let mut p = self.alloc_bits(fill);
        self.par_write_bits(&mut p, &want);
        p
    }

    /// Segmented `scanOr` over a packed plural — word-at-a-time over each
    /// segment's precomputed word span (see [`SegmentMap`]), with early
    /// exit on the first live hit.
    pub fn scan_or_bits(&mut self, p: &PluralBits, segs: &SegmentMap) -> PluralBits {
        self.seg_reduce_bits(p, segs, false)
    }

    /// Segmented `scanAnd` over a packed plural (identity `true`).
    pub fn scan_and_bits(&mut self, p: &PluralBits, segs: &SegmentMap) -> PluralBits {
        self.seg_reduce_bits(p, segs, true)
    }

    /// The segmented reduction behind both packed scans. A live PE whose
    /// bit differs from the identity decides its segment, so each word is
    /// masked once and every segment is one test over the words it
    /// spans, walked in order.
    fn seg_reduce_bits(&mut self, p: &PluralBits, segs: &SegmentMap, identity: bool) -> PluralBits {
        assert_eq!(p.len(), self.n_virt, "plural size mismatch");
        assert_eq!(segs.len(), self.n_virt, "segment map size mismatch");
        let op_id = self.charge_scan();
        self.count_dead_skips();
        let flip = if identity { !0u64 } else { 0 };
        let deciding: Vec<u64> = p
            .words()
            .iter()
            .enumerate()
            .map(|(w, &word)| (word ^ flip) & self.live_word(w))
            .collect();
        let mut out = self.alloc_bits(identity);
        let mut dead_boundaries = 0u64;
        let words = out.words_mut();
        for range in segs.ranges() {
            let boundary = range.start;
            // A dead boundary PE cannot receive the deposit: its slot
            // keeps the identity and the loss is counted.
            if self.virt_is_dead(boundary) {
                dead_boundaries += 1;
            } else {
                // The slot holds the identity; a deciding PE flips it.
                words[boundary / 64] ^= (any_in(&deciding, range) as u64) << (boundary % 64);
            }
        }
        self.stats.dead_pe_skips += dead_boundaries;
        self.apply_router_corruption_bits(op_id, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn virtualization_factor() {
        assert_eq!(Machine::mp1(1).virt_factor(), 1);
        assert_eq!(Machine::mp1(16_384).virt_factor(), 1);
        assert_eq!(Machine::mp1(16_385).virt_factor(), 2);
        assert_eq!(Machine::mp1(40_000).virt_factor(), 3);
        // The paper's 10-word network: q²n⁴ = 4·10⁴ = 40,000 → factor 3.
    }

    #[test]
    fn par_map_runs_on_active_pes_only() {
        let mut m = Machine::mp1(8);
        let mask = m.par_init_bits(false, |pe| pe != 3 && pe != 5);
        let mut p = m.alloc(0u32);
        m.with_activity_bits(&mask, |m| {
            assert_eq!(m.active_count(), 6);
            m.par_map(&mut p, |pe, v| *v = pe as u32 + 1);
        });
        assert_eq!(p.as_slice(), &[1, 2, 3, 0, 5, 0, 7, 8]);
        // The mask's write, the narrowing and the map.
        assert_eq!(m.stats.plural_ops, 3);
    }

    #[test]
    fn par_zip_and_init() {
        let mut m = Machine::mp1(4);
        let a = m.par_init(0u32, |pe| pe as u32);
        let mut b = m.alloc(100u32);
        m.par_zip(&mut b, &a, |_, dst, src| *dst += *src);
        assert_eq!(b.as_slice(), &[100, 101, 102, 103]);
    }

    #[test]
    fn activity_stack_nesting() {
        let mut m = Machine::mp1(6);
        let even = m.par_init(false, |pe| pe % 2 == 0);
        let low = m.par_init(false, |pe| pe < 4);
        let mut hits = m.alloc(0u32);
        m.with_activity(&even, |m| {
            m.with_activity(&low, |m| {
                m.par_map(&mut hits, |_, v| *v = 1);
            });
            assert_eq!(m.active_count(), 3); // 0, 2, 4
        });
        assert_eq!(m.active_count(), 6);
        assert_eq!(hits.as_slice(), &[1, 0, 1, 0, 0, 0]);
    }

    #[test]
    fn reductions_respect_activity() {
        let mut m = Machine::mp1(4);
        let sums = m.par_init(0u64, |pe| pe as u64);
        assert_eq!(m.reduce_sum(&sums), 6);
        let mask = m.par_init(false, |pe| pe < 3);
        assert_eq!(m.with_activity(&mask, |m| m.reduce_sum(&sums)), 3);
        let none = m.alloc(false);
        assert_eq!(m.with_activity(&none, |m| m.reduce_sum(&sums)), 0);
    }

    #[test]
    fn scan_or_deposits_at_boundaries() {
        let mut m = Machine::mp1(9);
        let segs = SegmentMap::uniform(9, 3);
        let p = m.par_init(false, |pe| pe == 4 || pe == 8);
        let r = m.scan_or(&p, &segs);
        assert_eq!(
            r.as_slice(),
            &[false, false, false, true, false, false, true, false, false]
        );
        assert_eq!(m.stats.scan_calls, 1);
    }

    #[test]
    fn scan_and_skips_inactive_pes() {
        let mut m = Machine::mp1(6);
        let segs = SegmentMap::uniform(6, 3);
        // Segment 0: values T,F,T with PE 1 inactive → AND = T.
        // Segment 1: values T,T,F all active → AND = F.
        let p = m.par_init(false, |pe| matches!(pe, 0 | 2 | 3 | 4));
        let mask = m.par_init(false, |pe| pe != 1);
        let r = m.with_activity(&mask, |m| m.scan_and(&p, &segs));
        assert!(r.as_slice()[0]);
        assert!(!r.as_slice()[3]);
    }

    #[test]
    fn gather_fetches_by_index() {
        let mut m = Machine::mp1(5);
        let src = m.par_init(0u32, |pe| pe as u32 * 10);
        let reverse = m.par_init(0usize, |pe| 4 - pe);
        let mut dst = m.alloc(0u32);
        m.gather(&src, &reverse, &mut dst);
        assert_eq!(dst.as_slice(), &[40, 30, 20, 10, 0]);
        // Many-to-one reads are fine: every PE fetches PE 1's value.
        let one = m.par_init(0usize, |_| 1);
        m.gather(&src, &one, &mut dst);
        assert_eq!(dst.as_slice(), &[10; 5]);
        assert_eq!(m.stats.router_ops, 2);
    }

    #[test]
    fn tracing_records_operations() {
        let mut m = Machine::mp1(8);
        assert!(m.trace().is_empty());
        m.enable_trace();
        let mut p = m.alloc(false);
        m.par_map(&mut p, |_, v| *v = true);
        let segs = SegmentMap::global(8);
        let _ = m.scan_or(&p, &segs);
        let mask = m.par_init(false, |pe| pe < 4);
        m.with_activity(&mask, |m| {
            m.par_map(&mut p, |_, v| *v = false);
        });
        let ops: Vec<&str> = m.trace().iter().map(|t| t.op).collect();
        assert!(ops.contains(&"plural"));
        assert!(ops.contains(&"scan"));
        // The op inside the narrowed activity frame saw 4 active PEs.
        let narrowed = m.trace().iter().rev().find(|t| t.op == "plural").unwrap();
        assert_eq!(narrowed.active, 4);
        // Enabling twice is idempotent.
        let len = m.trace().len();
        m.enable_trace();
        assert_eq!(m.trace().len(), len);
    }

    #[test]
    fn memory_budget_enforced() {
        let mut m = Machine::mp1(4);
        // 16 KB per PE: two 8 KB allocations fit, a third does not.
        let a = m.alloc([0u8; 8192]);
        let _b = m.alloc([0u8; 8000]);
        assert!(m.stats.peak_pe_memory_bytes >= 16192);
        m.free(a);
        let _c = m.alloc([0u8; 8192]); // fits again after free
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _d = m.alloc([0u8; 8192]);
        }));
        assert!(result.is_err(), "exceeding 16 KB per PE must fail loudly");
    }

    #[test]
    fn virtualized_ops_cost_more() {
        let mut small = Machine::mp1(100);
        let mut big = Machine::mp1(40_000); // factor 3
        let mut ps = small.alloc(0u8);
        let mut pb = big.alloc(0u8);
        small.par_map(&mut ps, |_, _| {});
        big.par_map(&mut pb, |_, _| {});
        assert_eq!(small.stats.plural_slices, 1);
        assert_eq!(big.stats.plural_slices, 3);
        assert!(big.estimated_seconds() > small.estimated_seconds());
    }

    #[test]
    fn scan_cost_is_logarithmic_in_phys_pes() {
        let mut m = Machine::mp1(16);
        let p = m.alloc(false);
        let segs = SegmentMap::global(16);
        let before = m.stats.scan_passes;
        let _ = m.scan_or(&p, &segs);
        assert_eq!(m.stats.scan_passes - before, 4); // log2(16 PEs in use)
                                                     // A program spanning the whole array pays log2(16384) per scan.
        let mut full = Machine::mp1(16_384);
        let pf = full.alloc(false);
        let sf = SegmentMap::global(16_384);
        let _ = full.scan_or(&pf, &sf);
        assert_eq!(full.stats.scan_passes, 14);
        // A virtualized program additionally pays local passes.
        let mut virt = Machine::mp1(40_000);
        let pv = virt.alloc(false);
        let sv = SegmentMap::global(40_000);
        let _ = virt.scan_or(&pv, &sv);
        assert_eq!(virt.stats.scan_passes, 16); // 14 + (3 - 1)
    }

    // --------------------------------------------------------------
    // Fault injection
    // --------------------------------------------------------------

    /// Pack one bool per PE into `par_write_bits`' word table.
    fn pack(flags: &[bool]) -> Vec<u64> {
        let mut words = vec![0u64; flags.len().div_ceil(64)];
        for (pe, _) in flags.iter().enumerate().filter(|(_, &f)| f) {
            words[pe / 64] |= 1u64 << (pe % 64);
        }
        words
    }

    /// A small machine with an armed plan, for fault tests.
    fn faulty(n_virt: usize, phys: usize, plan: FaultPlan) -> Machine {
        let mut m = Machine::new(
            MachineConfig {
                phys_pes: phys,
                ..Default::default()
            },
            n_virt,
        );
        m.arm_faults(plan);
        m
    }

    #[test]
    fn op_counter_advances_on_every_broadcast() {
        let mut m = Machine::mp1(4);
        assert_eq!(m.op_count(), 0);
        let mut p = m.alloc(0u32);
        m.par_map(&mut p, |_, _| {}); // 1
        let sums = m.alloc(0u64);
        let _ = m.reduce_sum(&sums); // 2
        let b = m.alloc_bits(false);
        let segs = SegmentMap::global(4);
        let _ = m.scan_or_bits(&b, &segs); // 3
        let idx = m.par_init(0usize, |pe| pe); // 4
        let mut dst = m.alloc(0u32);
        m.gather(&p, &idx, &mut dst); // 5
        assert_eq!(m.op_count(), 5);
    }

    #[test]
    fn dead_pe_freezes_its_slot() {
        // 8 virtual PEs on 4 physical: phys 1 hosts virts 1 and 5.
        let mut m = faulty(8, 4, FaultPlan::new().with_dead_pe(1));
        let mut p = m.alloc(0u32);
        m.par_map(&mut p, |pe, v| *v = pe as u32 + 10);
        assert_eq!(p.as_slice(), &[10, 0, 12, 13, 14, 0, 16, 17]);
        assert_eq!(m.stats.dead_pe_skips, 2);
    }

    #[test]
    fn dead_pe_contributes_identity_to_scans() {
        let mut m = faulty(4, 4, FaultPlan::new().with_dead_pe(3));
        let p = m.par_init_bits(false, |pe| pe == 3);
        // The only set flag lives on the dead PE: the OR must miss it.
        let or = m.scan_or_bits(&p, &SegmentMap::global(4));
        assert!(!or.get(0));
        let sums = m.par_init(0u64, |_| 1);
        assert_eq!(m.reduce_sum(&sums), 3);
    }

    #[test]
    fn probe_detects_dead_pes_and_retire_remaps() {
        let mut m = faulty(8, 4, FaultPlan::new().with_dead_pe(1).with_dead_pe(2));
        assert_eq!(m.probe_pes(0xDEAD), vec![1, 2]);
        assert_eq!(m.retire_pes(&[1, 2]), 2);
        // All virtual PEs now live on phys {0, 3}.
        assert!(m.probe_pes(0xBEEF).is_empty());
        assert_eq!(m.phys_of(0), 0);
        assert_eq!(m.phys_of(1), 3);
        assert_eq!(m.phys_of(2), 0);
        let mut p = m.alloc(0u32);
        m.par_map(&mut p, |pe, v| *v = pe as u32 + 1);
        assert_eq!(p.as_slice(), &[1, 2, 3, 4, 5, 6, 7, 8]);
    }

    #[test]
    fn retire_refuses_to_empty_the_array() {
        let mut m = faulty(2, 2, FaultPlan::new().with_dead_pe(0).with_dead_pe(1));
        assert_eq!(m.retire_pes(&[0, 1]), 0);
        // Mapping unchanged after refusal: each virtual PE on its own.
        assert_eq!((m.phys_of(0), m.phys_of(1)), (0, 1));
    }

    #[test]
    fn memory_flip_fires_once_at_its_op() {
        // Flip bit 0 of phys 2's write during op 2.
        let mut m = faulty(4, 4, FaultPlan::new().with_memory_flip(2, 2, 0));
        let mut p = m.alloc(0u64);
        m.par_map(&mut p, |_, v| *v = 8); // op 1: untouched
        assert_eq!(p.as_slice(), &[8, 8, 8, 8]);
        m.par_map(&mut p, |_, v| *v = 8); // op 2: flip hits virt 2
        assert_eq!(p.as_slice(), &[8, 8, 9, 8]);
        assert_eq!(m.stats.memory_flips, 1);
        m.par_map(&mut p, |_, v| *v = 8); // op 3: transient is spent
        assert_eq!(p.as_slice(), &[8, 8, 8, 8]);
    }

    #[test]
    fn router_corruption_hits_gather_payload() {
        // Ops: alloc'd plurals cost nothing; par_init ×2 = ops 1-2;
        // gather = op 3.
        let mut m = faulty(4, 4, FaultPlan::new().with_router_corrupt(3, 1, 0xF0));
        let src = m.par_init(0u64, |pe| pe as u64);
        let idx = m.par_init(0usize, |pe| pe);
        let mut dst = m.alloc(0u64);
        m.gather(&src, &idx, &mut dst);
        assert_eq!(dst.as_slice(), &[0, 1 ^ 0xF0, 2, 3]);
        assert_eq!(m.stats.router_corruptions, 1);
    }

    #[test]
    fn oob_routes_drop_gracefully_under_faults() {
        let mut m = faulty(4, 4, FaultPlan::new());
        let src = m.par_init(0u64, |pe| pe as u64 + 1);
        let idx = m.par_init(0usize, |pe| if pe == 2 { 999 } else { pe });
        let mut dst = m.alloc(0u64);
        m.gather(&src, &idx, &mut dst);
        assert_eq!(dst.as_slice(), &[1, 2, 0, 4], "PE 2's fetch dropped");
        assert_eq!(m.stats.oob_routes, 1);
    }

    #[test]
    fn oob_routes_still_assert_without_faults() {
        let mut m = Machine::mp1(4);
        let src = m.par_init(0u64, |pe| pe as u64);
        let idx = m.par_init(0usize, |_| 999);
        let mut dst = m.alloc(0u64);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            m.gather(&src, &idx, &mut dst);
        }));
        assert!(r.is_err(), "fault-free OOB gather is a program bug");
    }

    #[test]
    fn empty_armed_plan_changes_no_results() {
        let run = |m: &mut Machine| {
            let p = m.par_init(0u64, |pe| pe as u64);
            let segs = SegmentMap::uniform(8, 4);
            let f = m.par_init(false, |pe| pe % 3 == 0);
            let or = m.scan_or(&f, &segs);
            let sum = m.reduce_sum(&p);
            (p.as_slice().to_vec(), or.as_slice().to_vec(), sum)
        };
        let mut plain = Machine::mp1(8);
        let mut armed = Machine::mp1(8);
        armed.arm_faults(FaultPlan::new());
        let a = run(&mut plain);
        let b = run(&mut armed);
        assert_eq!(a, b);
        assert_eq!(plain.stats, armed.stats, "an empty plan costs nothing");
    }

    #[test]
    fn fault_counters_flow_into_delta() {
        let mut m = faulty(4, 4, FaultPlan::new().with_dead_pe(0));
        let before = m.stats;
        let mut p = m.alloc(0u32);
        m.par_map(&mut p, |_, v| *v = 1);
        let d = m.stats.delta_since(&before);
        assert_eq!(d.dead_pe_skips, 1);
    }

    // --------------------------------------------------------------
    // Packed (bit-sliced) kernels
    // --------------------------------------------------------------

    /// Run the same broadcast program through the unpacked and the packed
    /// boolean kernels and demand identical per-PE results *and* identical
    /// [`MachineStats`] — the bit-identity bar every packed kernel must
    /// clear, with and without an armed fault plan.
    fn packed_differential(n: usize, plan: Option<FaultPlan>) {
        let fresh = |plan: &Option<FaultPlan>| {
            let mut m = Machine::new(
                MachineConfig {
                    phys_pes: 4,
                    ..Default::default()
                },
                n,
            );
            if let Some(p) = plan.clone() {
                m.arm_faults(p);
            }
            m
        };
        let mut sm = fresh(&plan);
        let mut pm = fresh(&plan);
        let want: Vec<bool> = (0..n).map(|pe| pe % 3 == 0).collect();
        let idx: Vec<usize> = (0..n).map(|pe| (pe * 7 + 1) % n).collect();
        let seg_len = (1..=n).rev().find(|l| n % l == 0 && *l <= 70).unwrap();
        let segs = SegmentMap::uniform(n, seg_len);

        // Scalar program.
        let su = sm.par_init(0u64, |pe| pe as u64);
        let mut sflags = sm.alloc(false);
        sm.par_map(&mut sflags, |pe, v| *v = want[pe]);
        let smask = sm.par_init(false, |pe| pe % 2 == 0);
        let mut sderived = sm.alloc(false);
        sm.with_activity(&smask, |m| {
            m.par_zip(&mut sderived, &su, |_, d, &s| *d = s & 2 != 0);
        });
        let s_scan_or = sm.scan_or(&sflags, &segs);
        let s_scan_and = sm.scan_and(&sderived, &segs);
        let sidx = sm.par_init(0usize, |pe| idx[pe]);
        let mut s_gath = sm.alloc(0u64);
        sm.gather(&su, &sidx, &mut s_gath);

        // The same program through the packed kernels.
        let pu = pm.par_init(0u64, |pe| pe as u64);
        let mut pflags = pm.alloc_bits(false);
        pm.par_write_bits(&mut pflags, &pack(&want));
        let pmask = pm.par_init_bits(false, |pe| pe % 2 == 0);
        let mut pderived = pm.alloc_bits(false);
        pm.with_activity_bits(&pmask, |m| {
            m.par_map_bits(&mut pderived, &pu, |_, s| s & 2 != 0);
        });
        let p_scan_or = pm.scan_or_bits(&pflags, &segs);
        let p_scan_and = pm.scan_and_bits(&pderived, &segs);
        let pidx = pm.par_init(0usize, |pe| idx[pe]);
        let mut p_gath = pm.alloc(0u64);
        pm.gather(&pu, &pidx, &mut p_gath);

        let ctx = format!("n={n} faults={}", plan.is_some());
        assert_eq!(pflags.to_bools(), sflags.as_slice().to_vec(), "{ctx}");
        assert_eq!(pderived.to_bools(), sderived.as_slice().to_vec(), "{ctx}");
        assert_eq!(p_scan_or.to_bools(), s_scan_or.as_slice().to_vec(), "{ctx}");
        assert_eq!(
            p_scan_and.to_bools(),
            s_scan_and.as_slice().to_vec(),
            "{ctx}"
        );
        assert_eq!(p_gath.as_slice(), s_gath.as_slice(), "{ctx}");
        assert_eq!(sm.stats, pm.stats, "{ctx}");
        assert_eq!(sm.op_count(), pm.op_count(), "{ctx}");
    }

    #[test]
    fn packed_kernels_match_scalar_fault_free() {
        for n in [1usize, 5, 64, 65, 130] {
            packed_differential(n, None);
        }
    }

    #[test]
    fn packed_kernels_match_scalar_under_faults() {
        for n in [5usize, 64, 65, 130] {
            for seed in [1u64, 7, 42, 1234] {
                packed_differential(n, Some(FaultPlan::seeded(seed, 4, 40)));
            }
        }
    }

    #[test]
    fn packed_alloc_charges_the_same_budget() {
        // A packed plural still occupies one simulated byte per PE: the
        // 16 KB budget is a property of the MP-1 program, not of the host
        // representation.
        let mut unpacked = Machine::mp1(4);
        let mut packed = Machine::mp1(4);
        let a = unpacked.alloc(false);
        let b = packed.alloc_bits(false);
        assert_eq!(
            unpacked.stats.peak_pe_memory_bytes,
            packed.stats.peak_pe_memory_bytes
        );
        unpacked.free(a);
        packed.free_bits(b);

        // Fill the budget to one byte short with plain bytes, then both
        // representations must fail identically on the next bool.
        let budget = unpacked.config().pe_memory_bytes;
        let _pad_u = unpacked.alloc([0u8; 16 * 1024 - 1]);
        let _pad_p = packed.alloc([0u8; 16 * 1024 - 1]);
        let _last_u = unpacked.alloc(false); // exactly fits
        let _last_p = packed.alloc_bits(false);
        assert_eq!(unpacked.stats.peak_pe_memory_bytes, budget);
        assert_eq!(packed.stats.peak_pe_memory_bytes, budget);
        let grab = |r: std::thread::Result<()>| {
            let e = r.expect_err("allocation beyond 16 KB must fail");
            e.downcast_ref::<String>().unwrap().clone()
        };
        let msg_u = grab(std::panic::catch_unwind(std::panic::AssertUnwindSafe(
            || {
                let _ = unpacked.alloc(false);
            },
        )));
        let msg_p = grab(std::panic::catch_unwind(std::panic::AssertUnwindSafe(
            || {
                let _ = packed.alloc_bits(false);
            },
        )));
        assert_eq!(msg_u, msg_p, "identical budget error for both layouts");
        assert!(msg_u.contains("16 KB per PE"), "got: {msg_u}");
    }

    #[test]
    fn with_activity_bits_nests_like_unpacked() {
        let mut m = Machine::mp1(6);
        let even = m.par_init_bits(false, |pe| pe % 2 == 0);
        let low = m.par_init_bits(false, |pe| pe < 4);
        let mut hits = m.alloc(0u32);
        m.with_activity_bits(&even, |m| {
            m.with_activity_bits(&low, |m| {
                m.par_map(&mut hits, |_, v| *v = 1);
            });
            assert_eq!(m.active_count(), 3); // 0, 2, 4
        });
        assert_eq!(m.active_count(), 6);
        assert_eq!(hits.as_slice(), &[1, 0, 1, 0, 0, 0]);
    }

    #[test]
    fn packed_dead_pe_freezes_its_bit() {
        // 8 virtual PEs on 4 physical: phys 1 hosts virts 1 and 5.
        let mut m = faulty(8, 4, FaultPlan::new().with_dead_pe(1));
        let mut p = m.alloc_bits(false);
        m.par_write_bits(&mut p, &[0xFF]);
        assert_eq!(
            p.to_bools(),
            [true, false, true, true, true, false, true, true]
        );
        assert_eq!(m.stats.dead_pe_skips, 2);
        // ...and a dead boundary PE swallows its segment's scan deposit:
        // segment 1 starts at virt 1, which lives on dead phys 1.
        let segs = SegmentMap::from_lengths(&[1, 3, 4]);
        let or = m.scan_or_bits(&p, &segs);
        assert!(or.get(0), "segment 0's boundary (virt 0) is healthy");
        assert!(!or.get(1), "segment 1 ORs to true but its boundary is dead");
        assert!(or.get(4), "segment 2's boundary (virt 4) is healthy");
    }

    #[test]
    fn packed_memory_flip_always_flips_the_bit() {
        // Flip during op 2 on phys 2: a 1-bit simulated word always flips
        // regardless of which bit index the plan drew.
        for bit in [0u32, 3, 63] {
            let mut m = faulty(4, 4, FaultPlan::new().with_memory_flip(2, 2, bit));
            let mut p = m.alloc_bits(false);
            let want = [0b1111];
            m.par_write_bits(&mut p, &want); // op 1: untouched
            assert_eq!(p.to_bools(), [true; 4]);
            m.par_write_bits(&mut p, &want); // op 2: flip hits virt 2
            assert_eq!(p.to_bools(), [true, true, false, true], "bit={bit}");
            assert_eq!(m.stats.memory_flips, 1);
            m.par_write_bits(&mut p, &want); // op 3: transient is spent
            assert_eq!(p.to_bools(), [true; 4]);
        }
    }

    #[test]
    fn packed_router_corruption_flips_on_odd_masks_only() {
        // A boolean payload XORs with the mask's low bit (FaultWord for
        // bool), but the corruption event is counted either way.
        for (mask, flipped) in [(0x01u64, true), (0xF0, false)] {
            let mut m = faulty(4, 4, FaultPlan::new().with_router_corrupt(2, 1, mask));
            // Op 1 writes the plural; op 2 scans it, one PE per segment,
            // so PE 1's deposit is its own OR.
            let src = m.par_init_bits(false, |_| false);
            let or = m.scan_or_bits(&src, &SegmentMap::uniform(4, 1));
            assert_eq!(or.get(1), flipped, "mask={mask:#x}");
            assert_eq!(m.stats.router_corruptions, 1);
        }
    }

    /// One addressed broadcast under test, run against its inputs.
    type Broadcast =
        Box<dyn Fn(&mut Machine, &mut Plural<u64>, &Plural<u64>, &Plural<u64>, &PluralBits)>;

    /// Run `op` as the seventh instruction of a small program: 24 virtual
    /// PEs on 8 physical ones (so dead phys 4 freezes PEs 4, 12 and 20),
    /// activity narrowed to PEs not divisible by 5, and a memory flip on
    /// phys 6 scheduled for exactly that instruction. Returns what `op`
    /// wrote and the machine's counters.
    fn run_addressed(op: &Broadcast) -> (Vec<u64>, MachineStats) {
        let config = MachineConfig {
            phys_pes: 8,
            ..Default::default()
        };
        let mut m = Machine::new(config, 24);
        m.arm_faults(FaultPlan::new().with_dead_pe(4).with_memory_flip(7, 6, 2));
        let a = m.par_init(0u64, |pe| pe as u64 * 3 + 1);
        let b = m.par_init(0u64, |pe| pe as u64 ^ 5);
        let flags = m.par_init_bits(false, |pe| pe % 3 == 0);
        let mut dst = m.par_init(0u64, |pe| pe as u64 * 100);
        let mask = m.par_init_bits(false, |pe| pe % 5 != 0);
        m.with_activity_bits(&mask, |m| op(m, &mut dst, &a, &b, &flags));
        assert_eq!(m.op_count(), 7);
        (dst.as_slice().to_vec(), m.stats)
    }

    #[test]
    fn addressed_broadcasts_match_guarded_plain_ops() {
        const SIDE: usize = 6;
        let pairs: Vec<(&str, Broadcast, Broadcast)> = vec![
            (
                "par_map_grid",
                Box::new(|m, d, _, _, _| {
                    m.par_map_grid(d, SIDE, |c, rows, slots| {
                        for (r, v) in rows.zip(slots) {
                            *v = *v * 7 + (c * 10 + r) as u64
                        }
                    })
                }),
                Box::new(|m, d, _, _, _| {
                    m.par_map(d, |pe, v| *v = *v * 7 + (pe / SIDE * 10 + pe % SIDE) as u64)
                }),
            ),
            (
                "par_map_strided",
                Box::new(|m, d, _, _, _| m.par_map_strided(d, SIDE, |pe, v| *v += pe as u64 + 1)),
                Box::new(|m, d, _, _, _| {
                    m.par_map(d, |pe, v| {
                        if pe % SIDE == 0 {
                            *v += pe as u64 + 1
                        }
                    })
                }),
            ),
            (
                "par_zip_strided",
                Box::new(|m, d, a, _, _| {
                    m.par_zip_strided(d, a, SIDE, |pe, v, &x| *v = x << (pe % 7))
                }),
                Box::new(|m, d, a, _, _| {
                    m.par_zip(d, a, |pe, v, &x| {
                        if pe % SIDE == 0 {
                            *v = x << (pe % 7)
                        }
                    })
                }),
            ),
            (
                "par_zip2_strided",
                Box::new(|m, d, a, b, _| {
                    m.par_zip2_strided(d, a, b, SIDE, |_, v, &x, &y| *v = x & !y)
                }),
                Box::new(|m, d, a, b, _| {
                    m.par_zip(d, a, |pe, v, &x| {
                        if pe % SIDE == 0 {
                            *v = x & !b.get(pe)
                        }
                    })
                }),
            ),
            (
                "par_zip_bits_strided",
                Box::new(|m, d, _, _, f| {
                    m.par_zip_bits_strided(d, f, SIDE, |pe, v, ok| {
                        *v = if ok { pe as u64 } else { 1 }
                    })
                }),
                Box::new(|m, d, _, _, f| {
                    m.par_map(d, |pe, v| {
                        if pe % SIDE == 0 {
                            *v = if f.get(pe) { pe as u64 } else { 1 }
                        }
                    })
                }),
            ),
        ];
        for (name, addressed, plain) in &pairs {
            let (got, got_stats) = run_addressed(addressed);
            let (want, want_stats) = run_addressed(plain);
            assert_eq!(got, want, "{name}: results");
            assert_eq!(got_stats, want_stats, "{name}: MachineStats");
            assert_eq!(got[12], 0, "{name}: the dead PE never wrote its slot");
            assert_eq!(got[10], 1000, "{name}: an inactive PE's slot is untouched");
            assert!(got_stats.dead_pe_skips > 0, "{name}: dead PEs counted");
            assert_eq!(got_stats.memory_flips, 1, "{name}: the flip lands at op 7");
        }
    }

    // --------------------------------------------------------------
    // The word-run walk against the per-PE walk it replaced
    // --------------------------------------------------------------

    /// The plurals every word-run case starts from.
    struct Inputs {
        a: Plural<u64>,
        b: Plural<u64>,
        idx: Plural<usize>,
        flags: PluralBits,
        flags_bool: Plural<bool>,
        dst: Plural<u64>,
        dst_bits: PluralBits,
    }

    /// One instruction under test: it runs on the inputs with the grid's
    /// column height and returns what it wrote (or reduced).
    type Instruction = Box<dyn Fn(&mut Machine, &mut Inputs, usize) -> Vec<u64>>;

    /// The per-PE reference walk: one plural instruction that tests
    /// `is_live` on every PE in turn.
    fn reference_op(m: &mut Machine, p: &mut Plural<u64>, f: impl Fn(usize, &mut u64)) {
        let op = m.begin_plural(&[p.len()]);
        for pe in 0..m.n_virt() {
            if m.is_live(pe) {
                f(pe, &mut p.as_mut_slice()[pe]);
            }
        }
        m.apply_memory_flips(op, p.as_mut_slice());
    }

    /// [`reference_op`] writing a packed plural.
    fn reference_bits(m: &mut Machine, p: &mut PluralBits, f: impl Fn(usize) -> bool) {
        let op = m.begin_plural(&[p.len()]);
        for pe in 0..m.n_virt() {
            if m.is_live(pe) && p.get(pe) != f(pe) {
                p.flip(pe);
            }
        }
        m.apply_memory_flips_bits(op, p);
    }

    fn words_of(p: &PluralBits) -> Vec<u64> {
        p.words().to_vec()
    }

    /// Run `op` as the tenth instruction on `n_virt` virtual PEs over
    /// `phys` physical ones. Dead phys 7 freezes every PE ≡ 7 (mod
    /// `phys`); activity is narrowed so that, word by word, four in four
    /// PEs, four in five, none and 40 in 64 stay live (full, partial and
    /// zero words); a memory flip on phys 13 and a router corruption on
    /// phys 21 are scheduled for the instruction under test.
    fn run_word_case(
        n_virt: usize,
        side: usize,
        phys: usize,
        op: &Instruction,
    ) -> (Vec<u64>, MachineStats) {
        let config = MachineConfig {
            phys_pes: phys,
            ..Default::default()
        };
        let mut m = Machine::new(config, n_virt);
        m.arm_faults(
            FaultPlan::new()
                .with_dead_pe(7)
                .with_memory_flip(10, 13, 2)
                .with_router_corrupt(10, 21, 0x31),
        );
        let flag = |pe: usize| pe % 3 == 0 || pe / 64 % 5 == 1;
        let mut inputs = Inputs {
            a: m.par_init(0u64, |pe| pe as u64 * 3 + 1),
            b: m.par_init(0u64, |pe| pe as u64 ^ 0x55),
            // Every 97th PE routes out of range: dropped and counted.
            idx: m.par_init(0usize, |pe| match pe % 97 {
                5 => n_virt + pe,
                _ => (pe * 7 + 3) % n_virt,
            }),
            flags: m.par_init_bits(false, flag),
            flags_bool: m.par_init(false, flag),
            dst: m.par_init(0u64, |pe| pe as u64 * 100),
            dst_bits: m.par_init_bits(false, |pe| pe % 2 == 0),
        };
        let mask = m.par_init_bits(false, |pe| match pe / 64 % 4 {
            0 => true,
            1 => pe % 5 != 0,
            2 => false,
            _ => pe % 64 < 40,
        });
        let out = m.with_activity_bits(&mask, |m| op(m, &mut inputs, side));
        assert_eq!(m.op_count(), 10);
        (out, m.stats)
    }

    /// Each rewritten instruction paired with its per-PE reference.
    fn word_run_cases() -> Vec<(&'static str, Instruction, Instruction)> {
        vec![
            (
                "par_map",
                Box::new(|m, x, _| {
                    m.par_map(&mut x.dst, |pe, v| *v = *v * 7 + pe as u64);
                    x.dst.as_slice().to_vec()
                }),
                Box::new(|m, x, _| {
                    reference_op(m, &mut x.dst, |pe, v| *v = *v * 7 + pe as u64);
                    x.dst.as_slice().to_vec()
                }),
            ),
            (
                "par_zip",
                Box::new(|m, x, _| {
                    m.par_zip(&mut x.dst, &x.a, |pe, v, &a| *v ^= a + pe as u64);
                    x.dst.as_slice().to_vec()
                }),
                Box::new(|m, x, _| {
                    let a = x.a.as_slice();
                    reference_op(m, &mut x.dst, |pe, v| *v ^= a[pe] + pe as u64);
                    x.dst.as_slice().to_vec()
                }),
            ),
            (
                "par_map_grid",
                Box::new(|m, x, side| {
                    m.par_map_grid(&mut x.dst, side, |c, rows, slots| {
                        for (r, v) in rows.zip(slots) {
                            *v = *v * 3 + (c * 1000 + r) as u64
                        }
                    });
                    x.dst.as_slice().to_vec()
                }),
                Box::new(|m, x, side| {
                    reference_op(m, &mut x.dst, |pe, v| {
                        *v = *v * 3 + (pe / side * 1000 + pe % side) as u64
                    });
                    x.dst.as_slice().to_vec()
                }),
            ),
            (
                "par_map_strided",
                Box::new(|m, x, side| {
                    m.par_map_strided(&mut x.dst, side, |pe, v| *v += pe as u64 + 1);
                    x.dst.as_slice().to_vec()
                }),
                Box::new(|m, x, side| {
                    reference_op(m, &mut x.dst, |pe, v| {
                        if pe % side == 0 {
                            *v += pe as u64 + 1
                        }
                    });
                    x.dst.as_slice().to_vec()
                }),
            ),
            (
                "par_zip_strided",
                Box::new(|m, x, side| {
                    m.par_zip_strided(&mut x.dst, &x.a, side, |pe, v, &a| *v = a << (pe % 7));
                    x.dst.as_slice().to_vec()
                }),
                Box::new(|m, x, side| {
                    let a = x.a.as_slice();
                    reference_op(m, &mut x.dst, |pe, v| {
                        if pe % side == 0 {
                            *v = a[pe] << (pe % 7)
                        }
                    });
                    x.dst.as_slice().to_vec()
                }),
            ),
            (
                "par_zip2_strided",
                Box::new(|m, x, side| {
                    m.par_zip2_strided(&mut x.dst, &x.a, &x.b, side, |_, v, &a, &b| *v = a & !b);
                    x.dst.as_slice().to_vec()
                }),
                Box::new(|m, x, side| {
                    let (a, b) = (x.a.as_slice(), x.b.as_slice());
                    reference_op(m, &mut x.dst, |pe, v| {
                        if pe % side == 0 {
                            *v = a[pe] & !b[pe]
                        }
                    });
                    x.dst.as_slice().to_vec()
                }),
            ),
            (
                "par_zip_bits_strided",
                Box::new(|m, x, side| {
                    m.par_zip_bits_strided(&mut x.dst, &x.flags, side, |pe, v, ok| {
                        *v = if ok { pe as u64 } else { 1 }
                    });
                    x.dst.as_slice().to_vec()
                }),
                Box::new(|m, x, side| {
                    let flags = &x.flags;
                    reference_op(m, &mut x.dst, |pe, v| {
                        if pe % side == 0 {
                            *v = if flags.get(pe) { pe as u64 } else { 1 }
                        }
                    });
                    x.dst.as_slice().to_vec()
                }),
            ),
            (
                "par_map_bits",
                Box::new(|m, x, _| {
                    m.par_map_bits(&mut x.dst_bits, &x.a, |pe, a| (a + pe as u64) % 3 == 0);
                    words_of(&x.dst_bits)
                }),
                Box::new(|m, x, _| {
                    let a = x.a.as_slice();
                    reference_bits(m, &mut x.dst_bits, |pe| (a[pe] + pe as u64) % 3 == 0);
                    words_of(&x.dst_bits)
                }),
            ),
            (
                "gather",
                Box::new(|m, x, _| {
                    m.gather(&x.a, &x.idx, &mut x.dst);
                    x.dst.as_slice().to_vec()
                }),
                Box::new(|m, x, _| {
                    let op = m.charge_router();
                    m.count_dead_skips();
                    let (a, idx) = (x.a.as_slice(), x.idx.as_slice());
                    for (pe, &target) in idx.iter().enumerate() {
                        if m.is_live(pe) {
                            match a.get(target) {
                                Some(&v) => x.dst.as_mut_slice()[pe] = v,
                                None => m.stats.oob_routes += 1,
                            }
                        }
                    }
                    m.apply_router_corruption(op, x.dst.as_mut_slice());
                    x.dst.as_slice().to_vec()
                }),
            ),
            (
                "reduce_sum",
                Box::new(|m, x, _| vec![m.reduce_sum(&x.a)]),
                Box::new(|m, x, _| {
                    let op = m.charge_scan();
                    m.count_dead_skips();
                    let a = x.a.as_slice();
                    let sum = (0..m.n_virt())
                        .filter(|&pe| m.is_live(pe))
                        .map(|pe| a[pe])
                        .sum();
                    vec![m.corrupt_reduction(op, sum)]
                }),
            ),
            (
                "scan_or_bits in blocks",
                Box::new(|m, x, side| {
                    let segs = SegmentMap::uniform(x.a.len(), side / 2);
                    words_of(&m.scan_or_bits(&x.flags, &segs))
                }),
                Box::new(|m, x, side| {
                    let segs = SegmentMap::uniform(x.a.len(), side / 2);
                    let out = m.scan_or(&x.flags_bool, &segs);
                    pack(out.as_slice())
                }),
            ),
            (
                "scan_and_bits in columns",
                Box::new(|m, x, side| {
                    let segs = SegmentMap::uniform(x.a.len(), side);
                    words_of(&m.scan_and_bits(&x.flags, &segs))
                }),
                Box::new(|m, x, side| {
                    let segs = SegmentMap::uniform(x.a.len(), side);
                    pack(m.scan_and(&x.flags_bool, &segs).as_slice())
                }),
            ),
            (
                "scan_or_bits in uneven segments",
                Box::new(|m, x, _| {
                    words_of(&m.scan_or_bits(&x.flags, &uneven_segments(x.a.len())))
                }),
                Box::new(|m, x, _| {
                    pack(
                        m.scan_or(&x.flags_bool, &uneven_segments(x.a.len()))
                            .as_slice(),
                    )
                }),
            ),
            (
                "scan_and_bits in uneven segments",
                Box::new(|m, x, _| {
                    words_of(&m.scan_and_bits(&x.flags, &uneven_segments(x.a.len())))
                }),
                Box::new(|m, x, _| {
                    pack(
                        m.scan_and(&x.flags_bool, &uneven_segments(x.a.len()))
                            .as_slice(),
                    )
                }),
            ),
        ]
    }

    /// Segments of 1, 3, 61, 70 and 130 PEs in turn (one within a word,
    /// some across one boundary, some across two), the last one cut to fit.
    fn uneven_segments(n: usize) -> SegmentMap {
        let mut lengths = Vec::new();
        let mut left = n;
        for &l in [1usize, 3, 61, 70, 130].iter().cycle() {
            if left == 0 {
                break;
            }
            lengths.push(l.min(left));
            left -= l.min(left);
        }
        SegmentMap::from_lengths(&lengths)
    }

    #[test]
    fn word_run_walk_matches_the_per_pe_reference() {
        // Columns of 18, 50 and 200 PEs (taller than a word); no array is
        // a whole number of words, and 18,000 PEs span two host chunks.
        for (n_virt, side, phys) in [(1026, 18, 300), (2050, 50, 300), (18_000, 200, 1000)] {
            assert_ne!(n_virt % 64, 0);
            for (name, op, reference) in &word_run_cases() {
                let ctx = format!("{name}: {n_virt} PEs, columns of {side}");
                let want = run_word_case(n_virt, side, phys, reference);
                for threads in [1, 2] {
                    rayon::set_num_threads(threads);
                    let got = run_word_case(n_virt, side, phys, op);
                    rayon::set_num_threads(0);
                    assert_eq!(got.0, want.0, "{ctx}: results at {threads} thread(s)");
                    assert_eq!(got.1, want.1, "{ctx}: MachineStats at {threads} thread(s)");
                }
                assert!(want.1.dead_pe_skips > 0, "{ctx}: dead PEs counted");
                assert_eq!(
                    want.1.memory_flips + want.1.router_corruptions,
                    1,
                    "{ctx}: the scheduled fault lands on the instruction"
                );
            }
        }
    }

    #[test]
    fn freed_buffers_come_back_refilled_and_charged_again() {
        let mut m = Machine::mp1(100);
        let mut p = m.alloc(0u64);
        m.par_map(&mut p, |pe, v| *v = pe as u64 + 1);
        m.free(p);
        let q = m.alloc(9u64);
        assert_eq!(q.as_slice(), &[9u64; 100][..]);
        assert_eq!(
            m.stats.peak_pe_memory_bytes, 8,
            "the reuse is charged again"
        );
        let mut bits = m.alloc_bits(false);
        m.par_write_bits(&mut bits, &[!0, !0]);
        m.free_bits(bits);
        let bits = m.alloc_bits(false);
        assert_eq!(bits.count_ones(), 0);
        m.free_bits(bits);
        let bits = m.alloc_bits(true);
        assert_eq!(bits.count_ones(), 100);
        // A freed packed plural's two words are too few for 100 slots.
        m.free_bits(bits);
        let r = m.alloc(3u64);
        assert_eq!(r.as_slice(), &[3u64; 100][..]);
        assert_eq!(m.stats.peak_pe_memory_bytes, 16);
    }
}
