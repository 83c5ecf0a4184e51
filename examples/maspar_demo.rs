//! PARSEC on the simulated MasPar MP-1: the PE allocation of Figure 11,
//! the scan-based consistency maintenance of Figure 12, and the Results
//! section's timing staircase.
//!
//! ```text
//! cargo run --release --example maspar_demo
//! ```

use parsec::grammar::grammars::paper;
use parsec::maspar::CostModel;
use parsec::parsec::{parse_maspar_checked, Layout, MasparOptions};

fn main() {
    let grammar = paper::grammar();
    let sentence = paper::example_sentence(&grammar);

    // --- Figure 11: the PE allocation ---
    let lay = Layout::new(&grammar, &sentence);
    println!(
        "sentence `{sentence}`: n={} words, q={} roles, l={} labels/role",
        lay.n, lay.q, lay.l
    );
    println!(
        "role-value groups G = q*n^2 = {}, virtual PEs = G^2 = {} (paper: 324)",
        lay.groups,
        lay.virt_pes()
    );
    println!(
        "each PE holds an {l}x{l} label submatrix (Figure 13)\n",
        l = lay.l
    );
    println!("column layout (Figure 11):");
    for g in 0..lay.groups {
        let (w, r, m) = lay.decode_group(g);
        let pe_lo = g * lay.groups;
        let pe_hi = pe_lo + lay.groups - 1;
        println!(
            "  PEs {pe_lo:>3}-{pe_hi:>3}: column = word {} `{}` role {} mod {}",
            w + 1,
            sentence.word(w).text,
            grammar.role_name(cdg_grammar::RoleId(r as u16)),
            lay.modifiee(w, m),
        );
    }
    let diag = lay.diagonal_pes();
    println!(
        "\n{} PEs disabled as self-arcs; the first three are PEs {:?} — the paper's\n\"PEs 0, 1, and 2 are disabled\"\n",
        diag.len(),
        &diag[..3]
    );

    // --- Parse and report machine activity ---
    let out = parse_maspar_checked(
        &grammar,
        &sentence,
        &MasparOptions {
            trace: true,
            ..Default::default()
        },
    )
    .expect("the MasPar parse fits the simulated machine");
    println!(
        "instruction trace (first 12 broadcasts of {}):",
        out.trace.len()
    );
    for entry in out.trace.iter().take(12) {
        println!("  {:<8} {:>4} PEs active", entry.op, entry.active);
    }
    println!();
    let cost = CostModel::default();
    println!("parse complete: roles nonempty = {}", out.roles_nonempty());
    println!(
        "machine activity: {} plural ops, {} scans ({} router passes), {} router ops",
        out.stats.plural_ops, out.stats.scan_calls, out.stats.scan_passes, out.stats.router_ops
    );
    println!(
        "estimated MP-1 time: {:.3} s (paper: ~0.15 s); {:.1} ms per constraint (paper: <10 ms)",
        out.estimated_seconds,
        out.mean_constraint_seconds(&cost) * 1e3
    );
    let net = out.to_network(&grammar, &sentence);
    for graph in cdg_core::extract::precedence_graphs(&net, 10) {
        println!("\nprecedence graph (read back from the PE array):");
        println!("{}", graph.render(&grammar, &sentence));
    }

    // --- The virtualization staircase (Results section) ---
    println!("timing staircase over sentence length (paper: 0.15 s -> 0.45 s at 10 words):");
    println!("  n   virtual PEs   factor   est time");
    for n in 1..=14 {
        let s = paper::cost_sweep_sentence(&grammar, n);
        let out = parse_maspar_checked(&grammar, &s, &MasparOptions::default())
            .expect("the MasPar parse fits the simulated machine");
        println!(
            "  {n:>2}  {pes:>10}   {f:>4}x    {t:>6.3} s",
            pes = out.layout.virt_pes(),
            f = out.virt_factor,
            t = out.estimated_seconds
        );
    }
}
