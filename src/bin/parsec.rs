//! `parsec` — command-line CDG parsing.
//!
//! ```text
//! parsec [OPTIONS] <sentence...>
//! parsec serve [SERVE OPTIONS]
//!
//! OPTIONS:
//!   --grammar <paper|english|anbn|brackets|ww|www>  grammar (default: english)
//!   --grammar-file <path.cdg>                    load a grammar file instead
//!   --engine  <serial|pram|maspar>               engine (default: serial)
//!   --parses <N>                                 max parses to print (default 4, N >= 1)
//!   --network                                    print the settled network
//!   --dot                                        emit Graphviz instead of text
//!   --stats                                      print engine statistics + metrics registry
//!   --trace[=json]                               print the phase trace (tree, or one JSON line)
//!   --metrics                                    print the metrics registry snapshot
//!   --budget <spec>                              resource budget, e.g. ms=50,iters=3,cells=100000
//!   --faults <spec>                              (maspar) fault plan: a seed, or seed=N,dead=N,...
//!   --relax                                      retry rejected sentences with relaxed
//!                                                constraints, on the chosen engine
//!   --threads <N>                                host worker threads (0 = auto) for the
//!                                                P-RAM batch's sentence fan-out; the MasPar
//!                                                simulator runs on the calling thread
//!   --batch <file|->                             parse one sentence per line of a file (or stdin)
//!   --version                                    print the version and exit
//!
//! SERVE OPTIONS (parse-as-a-service; see DESIGN.md §13):
//!   --addr <host:port>     bind address (default 127.0.0.1:0; the bound port is printed)
//!   --grammar <name|path>  paper | english | a .cdg file (default english)
//!   --engine <name>        default engine for requests (default serial)
//!   --workers <N>          worker threads on the one shard (default 4; a fleet
//!                          runs one per shard)
//!   --shards <N>           independent simulated machines (default 1); with
//!                          N > 1 each shard gets one worker thread, its own
//!                          engines and bounded queue, length-band routing,
//!                          and in-band work stealing (see DESIGN.md §16)
//!   --bands <auto|N>       how to cut sentence lengths into routing bands
//!                          (auto = at the q²n⁴ virtualization cliffs)
//!   --shard-faults <k:after,...>  chaos hook: shard k dies after `after`
//!                          requests, draining its queue to band siblings
//!   --queue <N>            bounded queue capacity (default 64)
//!   --soft <N> / --hard <N>  shedding watermarks (defaults 48 / 60)
//!   --cache <N>            response cache entries, 0 disables (default 256)
//!   --drain-ms <N>         graceful-drain deadline (default 2000)
//!   --max-conns <N>        simultaneous connection cap (default 64)
//!   --metrics-out <path>   write the obsv metrics snapshot here on exit
//!
//! EXAMPLES:
//!   parsec --grammar paper the program runs
//!   parsec --engine maspar --stats --faults 7 the dog sees a cat in the park
//!   parsec --engine pram --trace the program runs
//!   parsec --relax dog runs in the park
//!   parsec --grammar ww --dot 0101
//!   parsec --engine pram --threads 8 --batch corpus.txt
//! ```
//!
//! Every engine runs through the unified [`cdg_core::api::Engine`] trait:
//! one `ParseRequest` in, one `ParseReport` out, so `--trace`, `--metrics`,
//! `--budget`, and `--faults` behave uniformly; the serial and P-RAM
//! engines share one phase driver, so a budget binds on both at the same
//! checkpoints (exit 3 when it cuts a parse short). `--trace` prints the phase
//! tree (shared span vocabulary across engines — see DESIGN.md §11);
//! `--trace=json` prints one `parsec-trace-v1` JSON document line.
//!
//! Batch mode parses every non-blank line of the file (lines starting with
//! `#` are comments), amortizing grammar setup and pooling arc-matrix
//! allocations across sentences; `--engine pram` fans the batch out across
//! `--threads` workers with byte-identical results at any thread count;
//! `--engine maspar` runs sentences one after another on the simulated
//! array, degrading (not failing) lines the machine cannot take. A
//! malformed line (unknown word) no longer aborts the batch: it is
//! reported on stderr with its line number and the stable
//! [`cdg_core::wire`] error encoding, the rest of the batch still runs,
//! and the exit code is 2. Per well-formed line it prints
//! `ACCEPT`/`REJECT`, then a throughput summary — plus per-phase time
//! totals when `--trace` is on.
//!
//! Serve mode runs the long-lived parse service from the `parsec-serve`
//! crate on this process: line protocol over TCP, bounded queue,
//! admission control and load shedding, deterministic retry of transient
//! faults, response cache, graceful drain on SIGTERM/SIGINT or the
//! `SHUTDOWN` verb. The final `serve:` statistics line is printed on
//! shutdown.
//!
//! Exit codes: 0 accept (batch: every line accepted), 1 reject or engine
//! error (batch: some line rejected), 2 usage/input error (batch: any
//! malformed line), 3 budget-degraded partial outcome with no full parse
//! (batch: no line rejected, some line PARTIAL).

use cdg_core::api::{Engine, ParseReport, ParseRequest};
use cdg_core::config::FAULT_HORIZON_OPS;
use cdg_core::{EngineConfig, RelaxLadder};
use cdg_grammar::grammars::{english, formal, paper};
use cdg_grammar::sentence::LexiconError;
use cdg_grammar::{Grammar, Lexicon, Sentence};
use maspar_sim::MachineConfig;
use obsv::MetricsSnapshot;
use std::io::Read;
use std::process::ExitCode;

#[derive(Clone, Copy, PartialEq, Eq)]
enum TraceFormat {
    Text,
    Json,
}

struct Args {
    grammar: String,
    grammar_file: Option<String>,
    /// Resolved engine name: the `--engine` flag, or `serial`.
    engine: String,
    /// Every engine-facing option, built through the shared
    /// [`cdg_core::config::KEYS`] table — the same table the serve wire
    /// decoder uses, so a config key is defined exactly once.
    config: EngineConfig,
    network: bool,
    dot: bool,
    stats: bool,
    trace: Option<TraceFormat>,
    metrics: bool,
    relax: bool,
    batch: Option<String>,
    words: Vec<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: parsec [--grammar paper|english|anbn|brackets|ww|www] [--grammar-file path] \
         [--engine serial|pram|maspar] [--parses N] [--network] [--dot] [--stats] \
         [--trace[=json]] [--metrics] [--budget spec] [--faults spec] \
         [--relax] [--threads N] [--batch file|-] [--version] <sentence...>\n\
         \x20      parsec serve [SERVE OPTIONS]   (see `parsec serve --help`)"
    );
    std::process::exit(2);
}

fn invalid(message: String) -> ! {
    eprintln!("error: {message}");
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut grammar = String::from("english");
    let mut grammar_file = None;
    let mut network = false;
    let mut dot = false;
    let mut stats = false;
    let mut trace = None;
    let mut metrics = false;
    let mut relax = false;
    let mut batch = None;
    let mut words = Vec::new();
    // Config flags funnel through the shared key table. Each flag keeps
    // its own error prefix (provenance), but the value syntax and the
    // semantics live in cdg-core::config — defined once, used by the CLI,
    // the serve wire decoder, and programmatic builders alike.
    let mut builder =
        EngineConfig::builder().fault_context(MachineConfig::default().phys_pes, FAULT_HORIZON_OPS);
    let mut engine_flag: Option<String> = None;
    let mut faults_given = false;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--grammar" => grammar = it.next().unwrap_or_else(|| usage()),
            "--grammar-file" => grammar_file = Some(it.next().unwrap_or_else(|| usage())),
            "--engine" => {
                let v = it.next().unwrap_or_else(|| usage());
                builder
                    .set("engine", &v)
                    .unwrap_or_else(|e| invalid(format!("bad --engine: {e}")));
                engine_flag = Some(v);
            }
            "--parses" => {
                let v = it.next().unwrap_or_else(|| usage());
                if v.trim() == "0" {
                    invalid(
                        "--parses 0 would print nothing and report every sentence as rejected; \
                         pass N >= 1"
                            .into(),
                    );
                }
                builder
                    .set("parses", &v)
                    .unwrap_or_else(|e| invalid(format!("bad --parses: {e}")));
            }
            "--network" => network = true,
            "--dot" => dot = true,
            "--stats" => stats = true,
            "--trace" | "--trace=text" => trace = Some(TraceFormat::Text),
            "--trace=json" => trace = Some(TraceFormat::Json),
            "--metrics" => metrics = true,
            "--budget" => {
                let spec = it.next().unwrap_or_else(|| usage());
                builder
                    .set("budget", &spec)
                    .unwrap_or_else(|e| invalid(format!("bad --budget spec: {e}")));
            }
            "--faults" => {
                let spec = it.next().unwrap_or_else(|| usage());
                builder
                    .set("faults", &spec)
                    .unwrap_or_else(|e| invalid(format!("bad --faults spec: {e}")));
                faults_given = true;
            }
            "--relax" => relax = true,
            "--threads" => {
                let v = it.next().unwrap_or_else(|| usage());
                builder
                    .set("threads", &v)
                    .unwrap_or_else(|e| invalid(format!("bad --threads: {e}")));
            }
            "--batch" => batch = Some(it.next().unwrap_or_else(|| usage())),
            "--version" => {
                println!("parsec {}", env!("CARGO_PKG_VERSION"));
                std::process::exit(0);
            }
            "--help" | "-h" => usage(),
            w if !w.starts_with("--") => words.push(w.to_string()),
            _ => usage(),
        }
    }
    let engine = engine_flag.unwrap_or_else(|| "serial".into());
    // Flag-provenance checks first — their messages name the flags — then
    // the builder's own validation (budget/fault specs, parses >= 1).
    if words.is_empty() && batch.is_none() {
        usage();
    }
    if batch.is_some() && !words.is_empty() {
        invalid("--batch reads sentences from the file; drop the positional words".into());
    }
    if faults_given && engine != "maspar" {
        invalid("--faults injects faults into the simulated MasPar; pass --engine maspar".into());
    }
    let config = builder.build().unwrap_or_else(|e| invalid(e.to_string()));
    Args {
        grammar,
        grammar_file,
        engine,
        config,
        network,
        dot,
        stats,
        trace,
        metrics,
        relax,
        batch,
        words,
    }
}

fn lexicon_error(e: LexiconError, source: &str) -> String {
    match e {
        LexiconError::UnknownWord(w) => {
            format!("unknown word '{w}' not in lexicon (grammar `{source}`)")
        }
        other => other.to_string(),
    }
}

/// Load the grammar and (when the grammar is lexical) its lexicon; formal
/// symbol grammars return `None` and build sentences straight from symbols.
fn load_grammar(args: &Args) -> Result<(Grammar, Option<Lexicon>), String> {
    if let Some(path) = &args.grammar_file {
        let (g, lex) =
            cdg_grammar::file::load_path(std::path::Path::new(path)).map_err(|e| e.to_string())?;
        if lex.is_empty() {
            return Err(format!(
                "grammar file `{path}` has no lexicon; add a (lexicon ...) clause"
            ));
        }
        return Ok((g, Some(lex)));
    }
    match args.grammar.as_str() {
        "paper" => {
            let g = paper::grammar();
            let lex = paper::lexicon(&g);
            Ok((g, Some(lex)))
        }
        "english" => {
            let g = english::grammar();
            let lex = english::lexicon(&g);
            Ok((g, Some(lex)))
        }
        "anbn" => Ok((formal::anbn_grammar(), None)),
        "brackets" => Ok((formal::brackets_grammar(), None)),
        "ww" => Ok((formal::ww_grammar(), None)),
        "www" => Ok((formal::www_grammar(), None)),
        other => Err(format!("unknown grammar `{other}`")),
    }
}

/// Turn one line of text into a sentence under the loaded grammar.
fn make_sentence(
    args: &Args,
    grammar: &Grammar,
    lexicon: &Option<Lexicon>,
    text: &str,
) -> Result<Sentence, String> {
    if let Some(lex) = lexicon {
        let source = args
            .grammar_file
            .as_deref()
            .unwrap_or(args.grammar.as_str());
        return lex.sentence(text).map_err(|e| lexicon_error(e, source));
    }
    let symbols = text.replace(' ', "");
    Ok(match args.grammar.as_str() {
        "anbn" => formal::anbn_sentence(grammar, &symbols),
        "brackets" => formal::brackets_sentence(grammar, &symbols),
        // `ww` and `www` share the two-symbol sentence builder.
        _ => formal::ww_sentence(grammar, &symbols),
    })
}

fn build_input(args: &Args) -> Result<(Grammar, Sentence), String> {
    let (grammar, lexicon) = load_grammar(args)?;
    let sentence = make_sentence(args, &grammar, &lexicon, &args.words.join(" "))?;
    Ok((grammar, sentence))
}

/// The one request every engine sees, built from the unified config (the
/// same constructor the serve workers use) plus the CLI-only
/// observability toggles.
fn build_request<'g>(args: &Args, grammar: &'g Grammar) -> ParseRequest<'g> {
    ParseRequest::with_config(grammar, &args.config)
        .trace(args.trace.is_some())
        .metrics(args.metrics || args.stats)
}

/// Print the trace (tree or one JSON document line) and, under
/// `--metrics`, the registry snapshot.
fn emit_observability(
    args: &Args,
    engine: &str,
    trace: &Option<obsv::Trace>,
    metrics: &Option<MetricsSnapshot>,
) {
    match (args.trace, trace) {
        (Some(TraceFormat::Text), Some(trace)) => {
            println!("phase trace ({engine}):");
            print!("{}", obsv::render_tree(trace));
        }
        (Some(TraceFormat::Json), Some(trace)) => {
            println!("{}", obsv::trace_to_json(engine, trace, metrics.as_ref()));
        }
        _ => {}
    }
    if args.metrics {
        if let Some(snapshot) = metrics {
            println!("metrics ({engine}):");
            print!("{}", snapshot.render());
        }
    }
}

/// The `--stats` lines: an engine-specific summary on stderr, then the
/// whole metrics registry (metrics collection is forced on by `--stats`).
fn emit_stats(report: &ParseReport<'_>, resolved: &cdg_grammar::compiled::Resolved) {
    let Some(snapshot) = &report.metrics else {
        return;
    };
    let counter = |name: &str| snapshot.counter(name).unwrap_or(0);
    let gauge = |name: &str| snapshot.gauge(name).unwrap_or(0.0);
    match report.engine {
        "pram" => {
            eprintln!(
                "pram: {} steps, max width {}, {} removals",
                counter("pram.steps"),
                gauge("pram.max_width") as u64,
                counter("removals"),
            );
        }
        "maspar" => {
            eprintln!(
                "maspar: {} virtual PEs (factor {}x), {} plural ops, {} scans, est {:.3}s on an MP-1",
                gauge("maspar.virt_pes") as u64,
                gauge("maspar.virt_factor") as u64,
                counter("maspar.plural_ops"),
                counter("maspar.scan_calls"),
                gauge("maspar.estimated_seconds"),
            );
            let host_wall = report.wall.as_secs_f64();
            if host_wall > 0.0 {
                eprintln!(
                    "maspar host: {:.4}s wall (simulated/host {:.2}x)",
                    host_wall,
                    gauge("maspar.estimated_seconds") / host_wall,
                );
            }
            if report.fault_recovered || counter("maspar.fault_events") > 0 {
                eprintln!(
                    "maspar recovery: {} probe round(s), {} PE(s) retired, {} phase(s) \
                     verified, {} retried, {} fault event(s) observed",
                    counter("maspar.probes"),
                    counter("maspar.retired_pes"),
                    counter("maspar.verified_phases"),
                    counter("maspar.phase_retries"),
                    counter("maspar.fault_events"),
                );
            }
        }
        _ => {
            let st = report.stats();
            eprintln!(
                "serial: {} unary checks, {} binary checks, {} removals, {} maintain passes",
                st.unary_checks, st.binary_checks, st.removals, st.maintain_passes
            );
            eprintln!(
                "kernel: {} masks, {} memo hits, {} support checks, {} support inits",
                st.kernel_masks, st.kernel_memo_hits, st.support_checks, st.support_inits
            );
        }
    }
    // Engine-independent warm-serving counters: the kernel's memo ledger,
    // how this run's CompiledGrammar resolve went, and any buffer reuse
    // (nonzero only on warm paths — a one-shot CLI parse runs cold).
    eprintln!(
        "kernel memo hits: {}; compile cache: {} (hash {:016x}{}); warm pool reuses: {}",
        counter("kernel.memo_hits"),
        if resolved.cache_hit { "hit" } else { "miss" },
        resolved.artifact.hash(),
        if resolved.cache_hit {
            String::new()
        } else {
            format!(", built in {} ns", resolved.build_ns)
        },
        counter("warm.pool.reuses"),
    );
    eprint!("{}", snapshot.render());
}

/// Batch mode: parse one sentence per non-blank, non-`#` line through
/// [`Engine::parse_batch`], amortizing grammar setup across the batch (in
/// parallel across sentences under `--engine pram`, sequentially on the
/// simulated array under `--engine maspar`).
fn run_batch(args: &Args, engine: &dyn Engine) -> ExitCode {
    let source = args.batch.as_deref().expect("batch mode requires --batch");
    let text = if source == "-" {
        let mut buf = String::new();
        match std::io::stdin().read_to_string(&mut buf) {
            Ok(_) => buf,
            Err(e) => {
                eprintln!("error: reading stdin: {e}");
                return ExitCode::from(2);
            }
        }
    } else {
        match std::fs::read_to_string(source) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("error: reading `{source}`: {e}");
                return ExitCode::from(2);
            }
        }
    };

    let (grammar, lexicon) = match load_grammar(args) {
        Ok(pair) => pair,
        Err(message) => {
            eprintln!("error: {message}");
            return ExitCode::from(2);
        }
    };
    // A malformed line is reported (with the stable wire encoding, so
    // scripts can parse the reason) and *skipped* — one bad line must not
    // cost the rest of the corpus its results. Exit code 2 still signals
    // that some input was malformed.
    let mut texts: Vec<&str> = Vec::new();
    let mut sentences: Vec<Sentence> = Vec::new();
    let mut malformed = 0usize;
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let made = if let Some(lex) = &lexicon {
            lex.sentence(line).map_err(|e| {
                let source = args
                    .grammar_file
                    .as_deref()
                    .unwrap_or(args.grammar.as_str());
                let human = lexicon_error(e.clone(), source);
                let wire = cdg_core::wire::encode(&cdg_core::EngineError::from(e));
                format!("{human} [{wire}]")
            })
        } else {
            make_sentence(args, &grammar, &lexicon, line)
        };
        match made {
            Ok(s) => {
                texts.push(line);
                sentences.push(s);
            }
            Err(message) => {
                eprintln!("error: line {}: {message}", lineno + 1);
                malformed += 1;
            }
        }
    }

    // An empty batch (no parseable lines at all) gets the same typed
    // answer the serve protocol gives an empty sentence — a wire-encoded
    // `EmptySentence` lexicon error — instead of a silent zero-row
    // summary that exits 0. Malformed-only batches keep their per-line
    // diagnostics; this adds the typed verdict for the batch itself.
    if sentences.is_empty() {
        let wire =
            cdg_core::wire::encode(&cdg_core::EngineError::from(LexiconError::EmptySentence));
        eprintln!("error: batch `{source}` has no sentences [{wire}]");
        println!("batch: 0 sentence(s), 0 accepted, 0 rejected (empty batch)");
        return ExitCode::from(2);
    }

    let request =
        build_request(args, &grammar).compiled(cdg_grammar::compiled::resolve(&grammar).artifact);
    let report = match engine.parse_batch(&sentences, &request) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{} engine error: {e}", args.engine);
            return ExitCode::from(1);
        }
    };

    // A degraded row (a budget cut, or a sentence the engine could not
    // take) certifies nothing either way: PARTIAL, counted apart.
    for (text, outcome) in texts.iter().zip(&report.outcomes) {
        if outcome.degraded {
            println!("PARTIAL: `{text}` [degraded]");
        } else if outcome.accepted {
            let ambiguous = if outcome.ambiguous {
                " (ambiguous)"
            } else {
                ""
            };
            println!(
                "ACCEPT: `{text}` — {}{ambiguous} parse(s)",
                outcome.parses.len()
            );
        } else {
            println!("REJECT: `{text}`");
        }
    }
    let n = report.outcomes.len();
    // Degraded rows are never accepted, so the three counts are disjoint.
    let (accepted, partial) = (report.accepted(), report.degraded());
    let rejected = n - accepted - partial;
    let secs = report.wall.as_secs_f64();
    println!(
        "batch: {n} sentence(s), {accepted} accepted, {rejected} rejected{}{} in {:.3}s \
         ({:.1} sentences/s, engine {}, {} thread(s))",
        if partial > 0 {
            format!(", {partial} partial")
        } else {
            String::new()
        },
        if malformed > 0 {
            format!(", {malformed} malformed line(s) skipped")
        } else {
            String::new()
        },
        secs,
        if secs > 0.0 {
            n as f64 / secs
        } else {
            f64::INFINITY
        },
        args.engine,
        report.threads,
    );
    match args.trace {
        // A per-sentence tree would drown the verdicts; summarize instead.
        // Totals sum over concurrent workers, so they may exceed the wall
        // time.
        Some(TraceFormat::Text) if report.trace.is_some() => {
            println!("phase totals ({}):", report.engine);
            for (name, dur_ns, count) in report.phase_totals() {
                println!(
                    "  {name:<24} {:>10.3} ms  ({count} span(s))",
                    dur_ns as f64 / 1e6
                );
            }
        }
        Some(TraceFormat::Json) => {
            if let Some(trace) = &report.trace {
                println!(
                    "{}",
                    obsv::trace_to_json(report.engine, trace, report.metrics.as_ref())
                );
            }
        }
        _ => {}
    }
    if args.metrics {
        if let Some(snapshot) = &report.metrics {
            println!("metrics ({}):", report.engine);
            print!("{}", snapshot.render());
        }
    }
    if args.stats {
        if let Some(snapshot) = &report.metrics {
            eprint!("{}", snapshot.render());
        }
    }
    if malformed > 0 {
        ExitCode::from(2)
    } else if rejected > 0 {
        ExitCode::from(1)
    } else if partial > 0 {
        ExitCode::from(3)
    } else {
        ExitCode::SUCCESS
    }
}

/// `parsec serve`: run the parse service until a signal or `SHUTDOWN`
/// triggers the graceful drain, then print the final statistics line.
fn run_serve(argv: &[String]) -> ExitCode {
    let mut config = parsec_serve::ServeConfig::default();
    let mut metrics_out: Option<String> = None;
    let serve_usage = || -> ! {
        eprintln!(
            "usage: parsec serve [--addr host:port] [--grammar paper|english|file.cdg] \
             [--engine serial|pram|maspar] [--workers N] [--shards N] [--bands auto|N] \
             [--shard-faults k:after,...] [--queue N] [--soft N] [--hard N] \
             [--cache N] [--drain-ms N] [--max-conns N] [--metrics-out path]"
        );
        std::process::exit(2);
    };
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().cloned().unwrap_or_else(|| serve_usage());
        let number = |v: String| v.parse::<usize>().unwrap_or_else(|_| serve_usage());
        match arg.as_str() {
            "--addr" => config.addr = value(),
            "--grammar" => config.grammar = value(),
            "--engine" => config.engine = value(),
            "--workers" => config.workers = number(value()).max(1),
            "--shards" => config.shards = number(value()).max(1),
            "--bands" => {
                config.bands = parsec_serve::BandSpec::parse(&value()).unwrap_or_else(|e| {
                    eprintln!("error: bad --bands: {e}");
                    std::process::exit(2);
                })
            }
            "--shard-faults" => {
                config.shard_faults =
                    parsec_serve::ShardFault::parse_list(&value()).unwrap_or_else(|e| {
                        eprintln!("error: bad --shard-faults: {e}");
                        std::process::exit(2);
                    })
            }
            "--queue" => config.queue_capacity = number(value()).max(1),
            "--soft" => config.soft_watermark = number(value()),
            "--hard" => config.hard_watermark = number(value()),
            "--cache" => config.cache_capacity = number(value()),
            "--drain-ms" => {
                config.drain_deadline = std::time::Duration::from_millis(number(value()) as u64)
            }
            "--max-conns" => config.max_connections = number(value()).max(1),
            "--metrics-out" => metrics_out = Some(value()),
            "--help" | "-h" => serve_usage(),
            _ => serve_usage(),
        }
    }
    // The serve counters live in the obsv registry; arm it for the whole
    // server lifetime (span tracing stays off — its buffer would grow
    // without bound in a long-running process).
    obsv::reset_metrics();
    obsv::set_metrics(true);
    parsec_serve::signal::install();
    let handle = match parsec_serve::Server::start(config) {
        Ok(h) => h,
        Err(message) => {
            eprintln!("error: {message}");
            return ExitCode::from(2);
        }
    };
    println!(
        "parsec serve: listening on {} (shards={}, bands={})",
        handle.addr(),
        handle.fleet_stats().len(),
        handle.band_plan(),
    );
    while !handle.is_draining() {
        if parsec_serve::signal::termination_requested() {
            handle.begin_drain();
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    let (final_stats, fleet) = handle.join_full();
    println!("{}", final_stats.render_final());
    for shard in &fleet {
        println!("{}", shard.render());
    }
    obsv::set_metrics(false);
    if let Some(path) = metrics_out {
        if let Err(e) = std::fs::write(&path, obsv::snapshot().render()) {
            eprintln!("error: writing `{path}`: {e}");
            return ExitCode::from(2);
        }
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    // The serve subcommand has its own flag set; dispatch before the
    // one-shot argument parser.
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("serve") {
        return run_serve(&argv[1..]);
    }
    let args = parse_args();
    if let Some(n) = args.config.threads {
        rayon::set_num_threads(n);
    }
    let Some(engine) = parsec_serve::engine_for(&args.engine, &MachineConfig::default()) else {
        eprintln!("error: unknown engine `{}`", args.engine);
        return ExitCode::from(2);
    };
    if args.batch.is_some() {
        return run_batch(&args, engine.as_ref());
    }
    let (grammar, sentence) = match build_input(&args) {
        Ok(pair) => pair,
        Err(message) => {
            eprintln!("error: {message}");
            return ExitCode::from(2);
        }
    };

    // Every engine funnels through the same request/report surface, so the
    // printing pipeline below is engine-agnostic.
    let resolved = cdg_grammar::compiled::resolve(&grammar);
    let request = build_request(&args, &grammar)
        .sentence(sentence.clone())
        .compiled(std::sync::Arc::clone(&resolved.artifact));
    let report = match engine.parse(&request) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{} engine error: {e}", args.engine);
            return ExitCode::from(1);
        }
    };

    emit_observability(&args, report.engine, &report.trace, &report.metrics);
    if args.stats {
        emit_stats(&report, &resolved);
    }

    if args.network {
        println!("{}", cdg_core::snapshot::render_network(&report.network));
    }

    if let Some(d) = &report.degraded {
        // The budget cut the parse short before it could settle: the
        // network above (with --network) is a usable partial result, but
        // it certifies no parse, so none was extracted.
        println!("PARTIAL: {d}");
        println!(
            "`{sentence}` was not fully parsed within the budget; \
             raise --budget for a definitive answer"
        );
        return ExitCode::from(3);
    }
    let graphs = &report.parses;
    if graphs.is_empty() {
        if args.relax {
            // The strict grammar (rung 0) just rejected on this engine.
            let ladder = RelaxLadder::english_default();
            let relaxed = match ladder.climb(engine.as_ref(), &request, 1) {
                Ok(relaxed) => relaxed,
                Err(e) => {
                    eprintln!("{} engine error: {e}", args.engine);
                    return ExitCode::from(1);
                }
            };
            if let Some(r) = relaxed {
                println!(
                    "ACCEPT (relaxed, rung {}): `{sentence}` — {} parse(s) after dropping {} \
                     constraint(s): {}",
                    r.rung,
                    r.parses.len(),
                    r.dropped.len(),
                    r.dropped.join(", ")
                );
                for (i, graph) in r.parses.iter().enumerate() {
                    if args.dot {
                        println!(
                            "{}",
                            cdg_core::dot::precedence_graph_dot(graph, &grammar, &sentence)
                        );
                    } else {
                        println!("--- parse {} ---", i + 1);
                        println!("{}", graph.render(&grammar, &sentence));
                    }
                }
                return ExitCode::SUCCESS;
            }
            println!(
                "REJECT: `{sentence}` is not in the language of grammar `{}`, even after \
                 relaxing: {}",
                args.grammar,
                ladder.dropped_at(ladder.len()).join(", ")
            );
            return ExitCode::from(1);
        }
        println!(
            "REJECT: `{sentence}` is not in the language of grammar `{}`",
            args.grammar
        );
        return ExitCode::from(1);
    }
    println!(
        "ACCEPT: `{sentence}` — {}{} parse(s)",
        graphs.len(),
        if report.ambiguous { " (ambiguous)" } else { "" }
    );
    for (i, graph) in graphs.iter().enumerate() {
        if args.dot {
            println!(
                "{}",
                cdg_core::dot::precedence_graph_dot(graph, &grammar, &sentence)
            );
        } else {
            println!("--- parse {} ---", i + 1);
            println!("{}", graph.render(&grammar, &sentence));
        }
    }
    ExitCode::SUCCESS
}
