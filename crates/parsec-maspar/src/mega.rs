//! Cross-sentence mega-batching on the simulated MP-1.
//!
//! A short sentence leaves most of the 16K PE array idle: the paper's
//! example uses 324 virtual PEs of 16,384. [`parse_maspar_mega`] packs a
//! whole batch onto the array at once — the virtual PEs of sentences of
//! one length are stacked into one joined array of equal G×G grids
//! (papagpu's `stack_base` layout), and each broadcast instruction of the
//! parsing program runs **once** over the joined extent instead of once
//! per sentence. Bit-sliced plurals pack 64 PEs per host word, so PEs
//! from *different sentences* share u64 words; scan segments tile each
//! grid, so no scan ever crosses a sentence boundary.
//!
//! Two things must stay per-sentence: the readback (one grid per
//! sentence) and the *accounting* — [`MachineStats`], phase
//! attribution, estimated MP-1 seconds, and budget degradation are all
//! defined per sentence, and a joint machine's counters are meaningless
//! for any one of them. The driver therefore replays each sentence's
//! program on a **ghost machine** ([`Machine::new_ghost`]): same
//! broadcasts, same charges, no data work. The one data-dependent scalar
//! in the program — the per-iteration removal count that steers the
//! maintenance loop — is recorded per sentence during the joint run
//! (summed host-side over the sentence's extent of the joined `lost`
//! plural) and fed to the ghost's `reduce_sum`, so the replayed control
//! flow (early exit, iteration caps, conditional re-masking) is exactly
//! the per-sentence engine's. The result: outcomes, stats, and phase
//! tables bit-identical to [`parse_maspar_checked`] sentence by sentence
//! (held to that by `tests/megabatch_equivalence.rs`), at a fraction of
//! the host wall time for short-sentence batches.
//!
//! A joint iteration keeps running until *every* sentence's maintenance
//! has settled; a settled sentence's extra iterations are data-idempotent
//! (its alive masks no longer change, so its removal count stays zero and
//! re-masking rewrites the same zeros), which is what makes the shared
//! loop safe.
//!
//! Requests the joint sweep cannot account per-sentence fall back to the
//! per-sentence engine: fault injection (fault horizons are keyed to
//! per-sentence instruction counters), machine traces, and wall-time
//! budgets.

use crate::engine::{
    accumulate_support, apply_binary, column_support, drive, grid_words, mask_dead,
    parse_maspar_checked, precheck, unary_from_table, unary_violations, MasparOptions,
    MasparOutcome, RecoveryReport, Tables, WORKING_SET_BYTES,
};
use crate::layout::Layout;
use cdg_core::megabatch::{note_mega_fallback, MegaFallback};
use cdg_core::EngineError;
use cdg_grammar::{Grammar, Sentence};
use maspar_sim::{Machine, Plural};

/// The first reason (if any) this request cannot take the joined sweep.
/// Shared with the CLI so its stderr notice names the same reason the
/// `megabatch.fallback.<reason>` counter records.
pub fn mega_fallback_reason(opts: &MasparOptions) -> Option<MegaFallback> {
    if opts.faults.is_some() {
        Some(MegaFallback::Faults)
    } else if opts.trace {
        Some(MegaFallback::Trace)
    } else if opts.budget.max_wall_time.is_some() {
        Some(MegaFallback::WallBudget)
    } else {
        None
    }
}

/// Parse a batch in joined mega-chunks. Per-sentence results (including
/// typed errors for sentences the machine cannot take) in input order,
/// bit-identical to calling [`parse_maspar_checked`] per sentence.
pub fn parse_maspar_mega(
    grammar: &Grammar,
    sentences: &[Sentence],
    opts: &MasparOptions,
) -> Vec<Result<MasparOutcome, EngineError>> {
    if let Some(reason) = mega_fallback_reason(opts) {
        note_mega_fallback(reason);
        return sentences
            .iter()
            .map(|s| parse_maspar_checked(grammar, s, opts))
            .collect();
    }

    let mut results: Vec<Option<Result<MasparOutcome, EngineError>>> =
        (0..sentences.len()).map(|_| None).collect();
    let mut lays: Vec<Option<Layout>> = (0..sentences.len()).map(|_| None).collect();
    for (i, sentence) in sentences.iter().enumerate() {
        match precheck(grammar, sentence, opts) {
            Ok(lay) => lays[i] = Some(lay),
            Err(e) => results[i] = Some(Err(e)),
        }
    }

    // Length-banded greedy chunking. Two concerns pick the chunk
    // boundaries:
    //
    // 1. *Memory*: keep admitting sentences while the joined working set
    //    still fits the per-PE memory at the joined virtualization
    //    factor. A single sentence always fits — its own precheck passed.
    // 2. *One geometry per chunk*: a chunk only joins sentences of one
    //    length (hence one layout geometry), so the joined array is a
    //    stack of equal G×G grids and the per-sentence PE bodies run on it
    //    unchanged. Equal lengths also keep iteration counts close: a
    //    joint chunk sweeps its whole extent until the slowest-converging
    //    member settles, and iteration counts track sentence length.
    //    Results are written by original index, so the banded execution
    //    order never reorders the returned batch.
    let phys = opts.machine.phys_pes.max(1);
    let fits =
        |total: usize| total.div_ceil(phys) * WORKING_SET_BYTES <= opts.machine.pe_memory_bytes;
    let mut order: Vec<usize> = (0..sentences.len())
        .filter(|&i| lays[i].is_some())
        .collect();
    let band = |i: usize| lays[i].as_ref().unwrap().groups;
    // Stable sort: within a band, original batch order is preserved.
    order.sort_by_key(|&i| band(i));
    let mut chunk: Vec<usize> = Vec::new();
    let mut chunk_virt = 0usize;
    let flush = |chunk: &mut Vec<usize>, results: &mut Vec<_>| {
        // A joint sweep of one sentence is the per-sentence program with
        // extra indirection; route singletons straight to the oracle.
        match chunk.as_slice() {
            [] => {}
            &[i] => results[i] = Some(parse_maspar_checked(grammar, &sentences[i], opts)),
            _ => run_chunk(grammar, sentences, chunk, &lays, opts, results),
        }
        chunk.clear();
    };
    for i in order {
        let v = lays[i].as_ref().unwrap().virt_pes();
        // The joint sweep amortizes per-broadcast fixed cost and packs
        // word-sharing plurals, but pays per-PE geometry indirection. On
        // the host simulation that trade crosses over around 2K virtual
        // PEs (measured: 324-PE sentences join at ~2x, 2.5K-PE sentences
        // lose ~10%); larger sentences already keep the sweep busy on
        // their own, so they run the per-sentence program. The ceiling is
        // a host-cost constant, deliberately not scaled by the simulated
        // array size.
        const JOINT_CEILING_VIRT_PES: usize = 2048;
        if v > JOINT_CEILING_VIRT_PES {
            results[i] = Some(parse_maspar_checked(grammar, &sentences[i], opts));
            continue;
        }
        let splits_band = chunk.first().is_some_and(|&f| band(f) != band(i));
        if !chunk.is_empty() && (splits_band || !fits(chunk_virt + v)) {
            flush(&mut chunk, &mut results);
            chunk_virt = 0;
        }
        chunk.push(i);
        chunk_virt += v;
    }
    flush(&mut chunk, &mut results);

    results
        .into_iter()
        .map(|r| r.expect("every sentence resolved by precheck or a chunk"))
        .collect()
}

/// Run one joined chunk: joint data pass over the concatenated virtual PE
/// array, then a ghost replay per sentence to reconstruct per-sentence
/// stats, phases, and degradation.
fn run_chunk(
    grammar: &Grammar,
    sentences: &[Sentence],
    idxs: &[usize],
    lays: &[Option<Layout>],
    opts: &MasparOptions,
    results: &mut [Option<Result<MasparOutcome, EngineError>>],
) {
    let lay_of: Vec<&Layout> = idxs.iter().map(|&i| lays[i].as_ref().unwrap()).collect();
    let sent_refs: Vec<&Sentence> = idxs.iter().map(|&i| &sentences[i]).collect();
    // Chunk members share one layout geometry (see the banding in
    // `parse_maspar_mega`), so the joined array is a stack of equal G×G
    // grids: sentence s holds PEs s·G²..(s+1)·G² and grid columns
    // s·G..(s+1)·G, and every PE body of the per-sentence program runs
    // unchanged off the stacked tables.
    let t = Tables::new(&lay_of);
    let side = t.side;
    let per = side * side;
    let total = per * idxs.len();
    let sentence_pes = |s: usize| s * per..(s + 1) * per;

    let mut machine = Machine::new(opts.machine.clone(), total);

    // --- Joint init: every plural is a pure function of the grid position.
    let bit_plural = |machine: &mut Machine, f: &dyn Fn(usize, usize) -> bool| {
        let mut p = machine.alloc_bits(false);
        machine.par_write_bits(&mut p, &grid_words(total, side, f));
        p
    };
    let grid_plural = |machine: &mut Machine, f: &(dyn Fn(usize, usize) -> u64 + Sync)| {
        let mut p = machine.alloc(0u64);
        machine.par_map_grid(&mut p, side, |c, r, v| *v = f(c, r));
        p
    };
    let valid = bit_plural(&mut machine, &|c, r| !t.diagonal(c, r));
    let mut bits = grid_plural(&mut machine, &|c, r| t.init_bits(c, r));
    let mut alive = grid_plural(&mut machine, &|c, r| t.init_alive(c, r));
    // Gather targets carry the sentence base, so the alive-mask routing
    // in `mask_dead` never crosses a sentence boundary.
    let mut col_idx: Plural<usize> = machine.alloc(0);
    machine.par_map_grid(&mut col_idx, side, |c, _, v| *v = t.col_idx(c));
    let mut row_idx: Plural<usize> = machine.alloc(0);
    machine.par_map_grid(&mut row_idx, side, |c, r, v| *v = t.row_idx(c, r));

    // --- Joint unary propagation: the per-sentence violation tables,
    // stacked end to end.
    for c in grammar.unary_constraints() {
        let viol = unary_violations(&t, &sent_refs, c);
        unary_from_table(&mut machine, &t, &viol, &valid, &mut bits, &mut alive);
    }
    // Re-mask after the unary kills, exactly like the per-sentence driver.
    mask_dead(
        &mut machine,
        &t,
        &valid,
        &mut bits,
        &alive,
        &col_idx,
        &row_idx,
    );

    // --- Joint binary propagation: each column resolves its own sentence.
    for c in grammar.binary_constraints() {
        apply_binary(&mut machine, &t, &sent_refs, c, &valid, &mut bits);
    }

    // --- Joint consistency maintenance. Segments tile each grid, so no
    // scan crosses a sentence boundary.
    let cap = opts.budget.max_filter_iterations.unwrap_or(usize::MAX);
    let max_iters = opts.filter_iterations.min(cap);
    let mut removals: Vec<Vec<u64>> = vec![Vec::new(); idxs.len()];
    let mut recording: Vec<bool> = vec![true; idxs.len()];
    // Live-sentence activity masks. The joint loop keeps sweeping until
    // the *slowest* sentence settles; a settled sentence's passes are
    // data-idempotent but not free on the host, so every pass below is
    // activity-narrowed to the sentences still converging (`recording`).
    // Masks are rebuilt only when a sentence settles.
    let build_live = |machine: &mut Machine, recording: &[bool]| {
        let live = |c: usize| recording[c / side];
        let live_valid = bit_plural(machine, &|c, r| live(c) && !t.diagonal(c, r));
        let live_block = bit_plural(machine, &|c, r| live(c) && t.block_boundary(c, r));
        let live_group = bit_plural(machine, &|c, r| live(c) && r == 0);
        (live_valid, live_block, live_group)
    };
    let (mut live_valid, mut live_block, mut live_group) = build_live(&mut machine, &recording);
    let mut live_stale = false;
    for _ in 0..max_iters {
        if live_stale {
            machine.free_bits(live_group);
            machine.free_bits(live_block);
            machine.free_bits(live_valid);
            (live_valid, live_block, live_group) = build_live(&mut machine, &recording);
            live_stale = false;
        }
        let mut support = machine.alloc(0u64);
        for li in 0..t.l {
            let col_support = column_support(&mut machine, &t, &live_valid, &live_block, &bits, li);
            machine.with_activity_bits(&live_group, |m| {
                accumulate_support(m, &t, &col_support, &mut support, li)
            });
            machine.free_bits(col_support);
        }
        let mut lost = machine.alloc(0u64);
        machine.with_activity_bits(&live_group, |m| {
            m.par_zip2_strided(&mut lost, &alive, &support, side, |_, out, &a, &s| {
                *out = (a & !s).count_ones() as u64;
            })
        });
        // Per-sentence removal counts: host-side sums over each
        // sentence's boundary PEs of the joined `lost` plural. These are
        // the values the ghost replay's `reduce_sum` will observe. A
        // settled sentence's extent was skipped above and `lost` is
        // freshly zeroed, so its count is 0 by construction.
        let lost_slice = lost.as_slice();
        let removed: Vec<u64> = (0..idxs.len())
            .map(|ci| lost_slice[sentence_pes(ci)].iter().step_by(side).sum())
            .collect();
        machine.free(lost);
        machine.with_activity_bits(&live_group, |m| {
            m.par_zip_strided(&mut alive, &support, side, |_, a, &s| *a &= s)
        });
        machine.free(support);
        if removed.iter().any(|&r| r > 0) {
            // Gate the re-mask to the sentences that actually removed a
            // value this iteration. The per-sentence driver only re-masks
            // after its own removals; for everyone else the re-mask is the
            // identity (alive unchanged since the last mask), so
            // restricting the activity set keeps the bits identical while
            // skipping the chunk's most expensive op for already-quiescent
            // sentences.
            let active = bit_plural(&mut machine, &|c, r| {
                removed[c / side] > 0 && !t.diagonal(c, r)
            });
            mask_dead(
                &mut machine,
                &t,
                &active,
                &mut bits,
                &alive,
                &col_idx,
                &row_idx,
            );
            machine.free_bits(active);
        }
        // Record each sentence's removal sequence with the per-sentence
        // stop semantics: a sentence's tape ends at its own first zero.
        let mut all_zero = true;
        for (ci, &r) in removed.iter().enumerate() {
            if r > 0 {
                all_zero = false;
            }
            if recording[ci] {
                removals[ci].push(r);
                if opts.early_exit && r == 0 {
                    recording[ci] = false;
                    live_stale = true;
                }
            }
        }
        if opts.early_exit && all_zero {
            break;
        }
    }
    machine.free_bits(live_group);
    machine.free_bits(live_block);
    machine.free_bits(live_valid);

    // --- Ghost replay per sentence: re-run the per-sentence program on a
    // charge-only machine to reconstruct exact per-sentence stats, phase
    // tables, and degradation, then patch in the joint readback.
    let alive_slice = alive.as_slice();
    let bits_slice = bits.as_slice();
    for (ci, &i) in idxs.iter().enumerate() {
        let lay = lays[i].clone().unwrap();
        let mut ghost = Machine::new_ghost(opts.machine.clone(), lay.virt_pes());
        ghost.push_ghost_reductions(&removals[ci]);
        let replay = drive(
            ghost,
            lay,
            grammar,
            &sentences[i],
            opts,
            RecoveryReport::default(),
        );
        results[i] = Some(replay.map(|mut out| {
            out.alive = alive_slice[sentence_pes(ci)]
                .iter()
                .step_by(side)
                .copied()
                .collect();
            out.bits = bits_slice[sentence_pes(ci)].to_vec();
            out
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdg_core::ParseBudget;
    use cdg_grammar::grammars::{english, paper};
    use maspar_sim::MachineConfig;

    fn assert_outcomes_identical(a: &MasparOutcome, b: &MasparOutcome, ctx: &str) {
        assert_eq!(a.alive, b.alive, "{ctx}: alive");
        assert_eq!(a.bits, b.bits, "{ctx}: bits");
        assert_eq!(a.stats, b.stats, "{ctx}: MachineStats");
        assert_eq!(a.estimated_seconds, b.estimated_seconds, "{ctx}: seconds");
        assert_eq!(
            a.filter_iterations_run, b.filter_iterations_run,
            "{ctx}: iterations"
        );
        assert_eq!(
            a.removals_per_iteration, b.removals_per_iteration,
            "{ctx}: removals"
        );
        assert_eq!(a.virt_factor, b.virt_factor, "{ctx}: virt factor");
        assert_eq!(
            a.degraded.is_some(),
            b.degraded.is_some(),
            "{ctx}: degraded"
        );
        assert_eq!(a.phases.len(), b.phases.len(), "{ctx}: phase count");
        for (pa, pb) in a.phases.iter().zip(&b.phases) {
            assert_eq!(pa.name, pb.name, "{ctx}: phase name");
            assert_eq!(pa.stats, pb.stats, "{ctx}: phase {} stats", pa.name);
        }
    }

    fn check_batch(grammar: &Grammar, sentences: &[Sentence], opts: &MasparOptions) {
        let mega = parse_maspar_mega(grammar, sentences, opts);
        assert_eq!(mega.len(), sentences.len());
        for (i, (s, m)) in sentences.iter().zip(&mega).enumerate() {
            let per = parse_maspar_checked(grammar, s, opts);
            match (m, per) {
                (Ok(a), Ok(b)) => assert_outcomes_identical(a, &b, &format!("sentence {i}")),
                (Err(ea), Err(eb)) => {
                    assert_eq!(ea.to_string(), eb.to_string(), "sentence {i} error")
                }
                (m, per) => panic!("sentence {i}: mega {m:?} vs per-sentence {per:?}"),
            }
        }
    }

    #[test]
    fn mega_matches_per_sentence_on_the_paper_batch() {
        let g = paper::grammar();
        let lex = paper::lexicon(&g);
        let sentences = vec![
            paper::example_sentence(&g),
            lex.sentence("program the runs").unwrap(),
            paper::cost_sweep_sentence(&g, 2),
            paper::example_sentence(&g),
            paper::cost_sweep_sentence(&g, 5),
        ];
        check_batch(&g, &sentences, &MasparOptions::default());
    }

    #[test]
    fn mega_matches_without_early_exit_and_under_iteration_budgets() {
        let g = english::grammar();
        let lex = english::lexicon(&g);
        let sentences = vec![
            lex.sentence("the dog runs").unwrap(),
            lex.sentence("she sleeps").unwrap(),
            lex.sentence("dog the runs").unwrap(),
        ];
        check_batch(
            &g,
            &sentences,
            &MasparOptions {
                early_exit: false,
                filter_iterations: 3,
                ..Default::default()
            },
        );
        check_batch(
            &g,
            &sentences,
            &MasparOptions {
                budget: ParseBudget {
                    max_filter_iterations: Some(1),
                    ..Default::default()
                },
                early_exit: false,
                ..Default::default()
            },
        );
    }

    #[test]
    fn chunking_splits_when_the_joined_working_set_overflows() {
        // A small array forces multi-chunk execution: each 3-word paper
        // sentence needs 324 virtual PEs; with 64 physical PEs and the
        // default 16 KB, at most ~10,900 joined virtual PEs fit, so a
        // batch of many sentences still parses — in several chunks.
        let g = paper::grammar();
        let sentences: Vec<Sentence> = (0..40).map(|_| paper::example_sentence(&g)).collect();
        let opts = MasparOptions {
            machine: MachineConfig {
                phys_pes: 64,
                ..Default::default()
            },
            ..Default::default()
        };
        check_batch(&g, &sentences, &opts);
    }

    #[test]
    fn mid_batch_rejections_stay_typed_and_positional() {
        let g = paper::grammar();
        let s_ok = paper::example_sentence(&g);
        let s_big = paper::cost_sweep_sentence(&g, 40); // blows PE memory
        let out = parse_maspar_mega(&g, &[s_ok.clone(), s_big, s_ok], &MasparOptions::default());
        assert!(out[0].is_ok());
        assert!(matches!(out[1], Err(EngineError::GrammarError(_))));
        assert!(out[2].is_ok());
    }

    #[test]
    fn fallback_paths_still_answer() {
        // Traced requests fall back to the per-sentence engine and must
        // behave exactly like it.
        let g = paper::grammar();
        let s = paper::example_sentence(&g);
        let opts = MasparOptions {
            trace: true,
            ..Default::default()
        };
        check_batch(&g, &[s.clone(), s], &opts);
    }
}
