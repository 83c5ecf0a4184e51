//! Regenerate the paper's tables and figures as text.
//!
//! ```text
//! tables fig8        # Figure 8: architecture comparison, CDG vs CFG
//! tables timing      # Results §3: the MasPar time trials (RES-T1)
//! tables speedup     # Results §3: serial vs parallel comparison (RES-T2)
//! tables walkthrough # Figures 1-7: the worked example's network states
//! tables ablation    # design decisions 1 / 5 / 6 quantified
//! tables throughput  # batch sentences/second per engine
//! tables all         # everything
//! ```
//!
//! Number-shape expectations are recorded in EXPERIMENTS.md; this binary
//! prints the measured values next to the paper's claims.

use bench::run::{maspar_cdg, mesh_cdg, mesh_cky, par_cky, pram_cdg, serial_cdg, serial_cky};
use bench::{fit_exponent, TextTable};
use cdg_core::api::{ParseRequest, WarmState};
use cdg_core::parser::{parse, ParseOptions};
use cdg_grammar::grammars::paper;
use cdg_parallel::PramStats;
use maspar_sim::CostModel;
use parsec_maspar::{parse_maspar_checked, MasparOptions};

fn main() {
    let mode = std::env::args().nth(1).unwrap_or_else(|| "all".to_string());
    match mode.as_str() {
        "fig8" => fig8(),
        "timing" => timing(),
        "speedup" => speedup(),
        "walkthrough" => walkthrough(),
        "ablation" => ablation(),
        "throughput" => throughput(),
        "all" => {
            walkthrough();
            fig8();
            timing();
            speedup();
            ablation();
            throughput();
        }
        other => {
            eprintln!(
                "unknown table `{other}`; try fig8 | timing | speedup | walkthrough | ablation | throughput | all"
            );
            std::process::exit(2);
        }
    }
}

/// Throughput over a sentence batch — the paper's closing claim: "natural
/// language parsing ... will not be a bottleneck for real-time systems".
fn throughput() {
    println!("== Throughput: 60-sentence batch per engine (the paper's real-time claim) ==\n");
    let (g, lex) = corpus::standard_setup();
    let batch: Vec<cdg_grammar::Sentence> = (0..60)
        .map(|i| corpus::english_sentence(&g, &lex, 4 + (i % 7), 1000 + i as u64))
        .collect();
    let opts = bench::run::comparable_options();

    let mut table = TextTable::new(&["engine", "batch wall (s)", "sentences/s", "accepted"]);
    let mut run = |name: &str, f: &dyn Fn(&cdg_grammar::Sentence) -> bool| {
        let start = std::time::Instant::now();
        let accepted = batch.iter().filter(|s| f(s)).count();
        let secs = start.elapsed().as_secs_f64();
        table.row(&[
            name.to_string(),
            format!("{secs:.3}"),
            format!("{:.0}", batch.len() as f64 / secs),
            format!("{accepted}/{}", batch.len()),
        ]);
    };
    run("cdg-serial", &|s| parse(&g, s, opts).roles_nonempty);
    let pram = ParseRequest::new(&g).options(opts);
    run("cdg-pram (rayon)", &|s| {
        WarmState::new()
            .run(&pram, s, &mut PramStats::default())
            .roles_nonempty
    });
    run("cdg-maspar-sim", &|s| {
        parse_maspar_checked(&g, s, &MasparOptions::default())
            .expect("the MasPar parse fits the simulated machine")
            .roles_nonempty()
    });
    let cfg = cfg_baseline::gen::english_cfg();
    run("cky-serial", &|s| {
        let tokens = cfg
            .tokenize(&s.to_string().to_lowercase())
            .expect("corpus vocabulary is CFG-compatible");
        cfg_baseline::cky_recognize(&cfg, &tokens).0
    });
    println!("{}", table.render());
    println!("note: the maspar-sim row measures the *simulation's* host cost; the simulated");
    println!("      machine's own estimated latency per sentence is in the timing table.\n");
}

/// Ablation table: the effect of each design decision on work and state.
fn ablation() {
    println!("== Ablations: the paper's design decisions ==\n");
    let (g, lex) = corpus::standard_setup();
    let s = corpus::english_sentence(&g, &lex, 10, 9);

    // Decision 5: filtering budget.
    let mut t = TextTable::new(&["filtering", "alive values", "total ops", "parses"]);
    use cdg_core::parser::FilterMode;
    for (name, mode) in [
        ("none", FilterMode::None),
        ("bounded-1", FilterMode::Bounded(1)),
        ("bounded-3", FilterMode::Bounded(3)),
        ("fixpoint", FilterMode::Fixpoint),
    ] {
        let outcome = cdg_core::parse(
            &g,
            &s,
            ParseOptions {
                filter: mode,
                ..Default::default()
            },
        );
        t.row(&[
            name.to_string(),
            outcome.network.total_alive().to_string(),
            outcome.network.stats.total_ops().to_string(),
            outcome.parses(64).len().to_string(),
        ]);
    }
    println!("-- design decision 5: filtering budget (sentence: `{s}`) --");
    println!("{}", t.render());

    // Decision 1: pipeline order.
    let mut t = TextTable::new(&["order", "unary checks", "entries zeroed", "total ops"]);
    for (name, arcs_first) in [
        ("unary-then-arcs (sequential §1.4)", false),
        ("arcs-then-unary (MasPar dd-1)", true),
    ] {
        let outcome = cdg_core::parse(
            &g,
            &s,
            ParseOptions {
                arcs_before_unary: arcs_first,
                ..Default::default()
            },
        );
        let st = outcome.network.stats;
        t.row(&[
            name.to_string(),
            st.unary_checks.to_string(),
            st.entries_zeroed.to_string(),
            st.total_ops().to_string(),
        ]);
    }
    println!("-- design decision 1: arc construction order (same final network) --");
    println!("{}", t.render());

    // Decision 6: physical array size.
    let g2 = paper::grammar();
    let s2 = paper::cost_sweep_sentence(&g2, 7);
    let mut t = TextTable::new(&["physical PEs", "virt factor", "est time (s)"]);
    for phys in [16_384usize, 4_096, 1_024, 256] {
        let opts = MasparOptions {
            machine: maspar_sim::MachineConfig {
                phys_pes: phys,
                ..Default::default()
            },
            ..Default::default()
        };
        let out = parse_maspar_checked(&g2, &s2, &opts)
            .expect("the MasPar parse fits the simulated machine");
        t.row(&[
            phys.to_string(),
            out.virt_factor.to_string(),
            format!("{:.3}", out.estimated_seconds),
        ]);
    }
    println!("-- design decision 6: virtualization (7-word sentence, identical results) --");
    println!("{}", t.render());
}

/// Figure 8: measured scaling for every architecture row we can realize.
fn fig8() {
    println!("== Figure 8: CFG and CDG parsing algorithms compared ==\n");
    let (g, lex) = corpus::standard_setup();
    let cfg = cfg_baseline::gen::english_cfg();

    let lengths = [4usize, 6, 8, 10, 12];
    let xs: Vec<f64> = lengths.iter().map(|&n| n as f64).collect();

    let mut table = TextTable::new(&[
        "architecture",
        "paper PEs",
        "paper time",
        "measured quantity",
        "fit exp",
        "PEs at n=12",
    ]);

    // Collect per-engine series.
    // (architecture, paper PEs, paper time, measured quantity, values, PEs at n=12)
    type Series = (
        &'static str,
        &'static str,
        &'static str,
        &'static str,
        Vec<f64>,
        u64,
    );
    let mut series: Vec<Series> = Vec::new();
    {
        let mut serial_ops = Vec::new();
        let mut pram_steps = Vec::new();
        let mut pram_pes = Vec::new();
        let mut mesh_steps = Vec::new();
        let mut mesh_pes = Vec::new();
        let mut maspar_steps = Vec::new();
        let mut maspar_pes = Vec::new();
        let mut cky_ops = Vec::new();
        let mut cky_sweeps = Vec::new();
        let mut cky_mesh_sweeps = Vec::new();
        let mut cky_mesh_pes = Vec::new();
        for &n in &lengths {
            let s = corpus::english_sentence(&g, &lex, n, 42);
            serial_ops.push(serial_cdg(&g, &s).ops.unwrap() as f64);
            let p = pram_cdg(&g, &s);
            pram_steps.push(p.steps.unwrap() as f64);
            pram_pes.push(p.processors.unwrap());
            let m = mesh_cdg(&g, &s);
            mesh_steps.push(m.steps.unwrap() as f64);
            mesh_pes.push(m.processors.unwrap());
            let mp = maspar_cdg(&g, &s);
            maspar_steps.push(mp.est_secs.unwrap());
            maspar_pes.push(mp.processors.unwrap());
            let tokens = cfg.tokenize(&s.to_string().to_lowercase()).unwrap();
            cky_ops.push(serial_cky(&cfg, &tokens).ops.unwrap() as f64);
            cky_sweeps.push(par_cky(&cfg, &tokens).steps.unwrap() as f64);
            let mk = mesh_cky(&cfg, &tokens);
            cky_mesh_sweeps.push(mk.steps.unwrap() as f64);
            cky_mesh_pes.push(mk.processors.unwrap());
        }
        series.push((
            "CFG sequential",
            "1",
            "O(k^3 n^3)",
            "CKY rule checks",
            cky_ops,
            1,
        ));
        series.push((
            "CFG wavefront (P-RAM rows)",
            "O(n^2)",
            "O(n) sweeps",
            "parallel sweeps",
            cky_sweeps,
            144,
        ));
        series.push((
            "CFG 2D mesh/cellular automaton",
            "O(n^2)",
            "O(k n)",
            "systolic sweeps",
            cky_mesh_sweeps,
            *cky_mesh_pes.last().unwrap(),
        ));
        series.push((
            "CDG sequential",
            "1",
            "O(k n^4)",
            "abstract ops",
            serial_ops,
            1,
        ));
        series.push((
            "CDG CRCW P-RAM (rayon)",
            "O(n^4)",
            "O(k)",
            "parallel steps",
            pram_steps,
            *pram_pes.last().unwrap(),
        ));
        series.push((
            "CDG 2D mesh",
            "O(n^2)",
            "O(k + n^2)",
            "mesh critical path",
            mesh_steps,
            *mesh_pes.last().unwrap(),
        ));
        series.push((
            "CDG MasPar MP-1 (tree/hypercube row)",
            "O(n^4)",
            "O(k + log n)",
            "est MP-1 seconds",
            maspar_steps,
            *maspar_pes.last().unwrap(),
        ));
    }

    for (name, pes, time, qty, ys, last_pes) in series {
        let exp = fit_exponent(&xs, &ys);
        table.row(&[
            name.to_string(),
            pes.to_string(),
            time.to_string(),
            qty.to_string(),
            format!("n^{exp:.2}"),
            last_pes.to_string(),
        ]);
    }
    println!("{}", table.render());
    println!("note: 'fit exp' is the least-squares log-log slope over n = {lengths:?}.");
    println!("      Paper columns are the asymptotic claims from Figure 8; see EXPERIMENTS.md");
    println!("      for the expected shapes (CDG P-RAM steps ~constant; MasPar time ~flat then");
    println!("      the virtualization staircase; sequential CDG ~n^4; CKY ~n^3).\n");
}

/// RES-T1: the time trials of the Results section.
fn timing() {
    println!("== Results: MasPar time trials (paper: <10 ms/constraint for n<=7;");
    println!("   0.15 s example sentence; 0.45 s at 10 words) ==\n");
    let g = paper::grammar();
    let cost = CostModel::default();
    let mut table = TextTable::new(&[
        "n",
        "virtual PEs",
        "virt factor",
        "est total (s)",
        "est / constraint (s)",
        "scan passes",
        "paper",
    ]);
    for n in 1..=14 {
        let s = paper::cost_sweep_sentence(&g, n);
        let out = parse_maspar_checked(&g, &s, &MasparOptions::default())
            .expect("the MasPar parse fits the simulated machine");
        let note = match n {
            3 => "~0.15 s",
            7 => "<10 ms/constraint",
            10 => "0.45 s",
            _ => "",
        };
        table.row(&[
            n.to_string(),
            out.layout.virt_pes().to_string(),
            out.virt_factor.to_string(),
            format!("{:.3}", out.estimated_seconds),
            format!("{:.4}", out.mean_constraint_seconds(&cost)),
            out.stats.scan_passes.to_string(),
            note.to_string(),
        ]);
    }
    println!("{}", table.render());
    println!("note: the step function in 'est total' follows ceil(q^2 n^4 / 16384) exactly");
    println!("      as the paper describes ('a discrete step function which grows as n^4').\n");
}

/// RES-T2: serial vs parallel comparison. The paper: 15 s per constraint
/// and 3 minutes for a 7-word sentence on a Sparcstation I, vs 10 ms and
/// 0.15 s on the MasPar — a ~1000x gap.
fn speedup() {
    println!("== Results: serial vs parallel (paper: Sparcstation 15 s/constraint,");
    println!("   3 min per 7-word parse; MasPar ~1000x faster) ==\n");
    let (g, lex) = corpus::standard_setup();
    let mut table = TextTable::new(&[
        "n",
        "serial wall (s)",
        "pram wall (s)",
        "maspar est (s)",
        "serial ops",
        "pram steps",
    ]);
    for &n in &[4usize, 6, 8, 10, 12] {
        let s = corpus::english_sentence(&g, &lex, n, 7);
        let ser = serial_cdg(&g, &s);
        let pram = pram_cdg(&g, &s);
        let mas = maspar_cdg(&g, &s);
        table.row(&[
            n.to_string(),
            format!("{:.4}", ser.wall_secs),
            format!("{:.4}", pram.wall_secs),
            format!("{:.3}", mas.est_secs.unwrap()),
            ser.ops.unwrap().to_string(),
            pram.steps.unwrap().to_string(),
        ]);
    }
    println!("{}", table.render());
    println!("note: the paper's 1000x constant reflects 1990 hardware; the reproducible");
    println!("      shape is serial ops growing ~n^4 while PRAM steps stay ~constant.\n");
}

/// Figures 1–7: print the worked example's states.
fn walkthrough() {
    println!("== Figures 1-7: the worked example `The program runs` ==\n");
    let g = paper::grammar();
    let s = paper::example_sentence(&g);

    let mut net = cdg_core::Network::build(&g, &s);
    println!("-- Figure 1: CN before unary propagation --");
    println!("{}", cdg_core::snapshot::render_network(&net));
    cdg_core::propagate::apply_unary(&mut net, &g.unary_constraints()[0]);
    println!("-- Figure 2: after the first unary constraint --");
    println!("{}", cdg_core::snapshot::render_network(&net));
    cdg_core::propagate::apply_all_unary(&mut net);
    println!("-- Figure 3: after all unary constraints --");
    println!("{}", cdg_core::snapshot::render_network(&net));
    net.init_arcs();
    cdg_core::propagate::apply_binary(&mut net, &g.binary_constraints()[0]);
    println!("-- Figure 4: arc program/governor x runs/governor after binary #1 --");
    let governor = g.role_id("governor").unwrap();
    let pg = net.slot_id(1, governor);
    let rg = net.slot_id(2, governor);
    println!("{}", cdg_core::snapshot::render_arc(&net, pg, rg));
    cdg_core::consistency::maintain(&mut net);
    println!("-- Figure 5: after consistency maintenance --");
    println!("{}", cdg_core::snapshot::render_network(&net));
    cdg_core::propagate::apply_all_binary(&mut net);
    cdg_core::consistency::filter(&mut net, usize::MAX);
    println!("-- Figure 6: after all binary constraints + filtering --");
    println!("{}", cdg_core::snapshot::render_network(&net));
    let outcome = parse(&g, &s, ParseOptions::default());
    let graphs = outcome.parses(10);
    println!("-- Figure 7: the precedence graph --");
    for graph in &graphs {
        println!("{}", graph.render(&g, &s));
    }
}
