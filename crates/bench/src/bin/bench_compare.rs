//! `bench_compare` — the CI regression gate over two bench reports.
//!
//! ```text
//! bench_compare <baseline.json> <current.json> [--max-regress 0.25]
//!               [--min-wall-secs 0.002] [--no-normalize] [--filter-floor 2.0]
//!               [--fleet-floor 2.5] [--warm-floor 1.3]
//! ```
//!
//! Seven checks, in order of severity:
//!
//! 1. **Determinism** — rows present in both reports must carry equal
//!    output digests (parse results are machine- and thread-independent);
//!    a mismatch is always fatal.
//! 2. **Coverage** — every baseline row must exist in the current report
//!    (keyed by engine|grammar|n|threads).
//! 3. **Wall-clock** — a current row may not exceed its baseline twin by
//!    more than `--max-regress` (default 25%). By default wall times are
//!    first normalized by each report's host calibration constant, so a
//!    slower CI runner is not mistaken for a regression; rows whose
//!    baseline wall is under `--min-wall-secs` sit below the timer noise
//!    floor and are skipped.
//! 4. **Filter floor** — inside the *current* report, every
//!    `filter-incremental` row must share its digest with the
//!    `filter-naive` twin at the same grammar/n (the incremental filter
//!    and the full-scan oracle filter bit-identically), and the
//!    filter-dominated large-n rows (n ≥ 32) must clear a geomean
//!    speedup of `--filter-floor` (default 2x) over the full scan
//!    (carried in `speedup_vs_1t` on the incremental row).
//! 5. **Fleet floor** — inside the *current* report, every multi-shard
//!    `serve-fleet` row (`threads` holds the shard count) must share its
//!    digest with the single-shard twin at the same grammar/n — routing
//!    requests across simulated machines never changes parse output —
//!    and must clear a `--fleet-floor` (default 2.5x) wall-clock speedup
//!    over it (carried in `speedup_vs_1t`). Because the fleet scenario
//!    is service-delay-bound rather than CPU-bound, its walls are
//!    compared *unnormalized* in check 3: host calibration does not
//!    scale a sleep.
//! 6. **Warm-serving floor** — inside the *current* report, every
//!    `serve-warm` row must share its digest with the `serve-cold` twin
//!    at the same grammar/n (the compiled-artifact + warm-scratch path
//!    is bit-identical to compiling per request), and the short-sentence
//!    rows must clear a geomean speedup of `--warm-floor` (default 1.3x)
//!    over the cold oracle (carried in `speedup_vs_1t` on the warm row).
//! 7. **Binary floor** — inside the *current* report, the
//!    `cdg-binary-kernel` rows must clear a geomean speedup of
//!    [`BINARY_FLOOR`] (3x) over their `cdg-binary-naive` twins (carried
//!    in `speedup_vs_1t` on the kernel row). Both walls of a pair come
//!    from the same run, so the ratio does not depend on the host's
//!    speed. `bench_json` asserts the twins' digests equal before it
//!    writes them, and check 1 pins both against the baseline.
//!
//! On failure the gate prints a **row-by-row table** of every compared
//! row — key, baseline/current digests, normalized walls, ratio, and a
//! per-row verdict — so a CI log shows the whole comparison, not just
//! the first mismatch.
//!
//! Exit codes: 0 pass, 1 regression/mismatch, 2 usage or unreadable input.

use bench::report::BenchReport;

struct Args {
    baseline: String,
    current: String,
    max_regress: f64,
    min_wall_secs: f64,
    normalize: bool,
    filter_floor: f64,
    fleet_floor: f64,
    warm_floor: f64,
}

/// Geomean speedup the lane-pass binary kernel must keep over the
/// tree-walk evaluator (check 7).
const BINARY_FLOOR: f64 = 3.0;

fn usage() -> ! {
    eprintln!(
        "usage: bench_compare <baseline.json> <current.json> \
         [--max-regress FRACTION] [--min-wall-secs SECS] [--no-normalize] \
         [--filter-floor RATIO] [--fleet-floor RATIO] [--warm-floor RATIO]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut positional = Vec::new();
    let mut args = Args {
        baseline: String::new(),
        current: String::new(),
        max_regress: 0.25,
        min_wall_secs: 0.002,
        normalize: true,
        filter_floor: 2.0,
        fleet_floor: 2.5,
        warm_floor: 1.3,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--max-regress" => {
                args.max_regress = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--min-wall-secs" => {
                args.min_wall_secs = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--filter-floor" => {
                args.filter_floor = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--fleet-floor" => {
                args.fleet_floor = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--warm-floor" => {
                args.warm_floor = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--no-normalize" => args.normalize = false,
            a if !a.starts_with("--") => positional.push(a.to_string()),
            _ => usage(),
        }
    }
    if positional.len() != 2 {
        usage();
    }
    args.baseline = positional.remove(0);
    args.current = positional.remove(0);
    args
}

fn load(path: &str) -> BenchReport {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("error: reading {path}: {e}");
        std::process::exit(2);
    });
    BenchReport::parse_str(&text).unwrap_or_else(|e| {
        eprintln!("error: parsing {path}: {e}");
        std::process::exit(2);
    })
}

/// Checks one geomean speedup floor over `(row key, speedup)` pairs: a
/// failure when the geomean is under `floor`, a report line otherwise.
/// A floor of 0 or an empty list checks nothing.
fn geomean_floor(label: &str, speedups: &[(String, f64)], floor: f64, failures: &mut Vec<String>) {
    if floor <= 0.0 || speedups.is_empty() {
        return;
    }
    let geo =
        (speedups.iter().map(|(_, s)| s.max(1e-9).ln()).sum::<f64>() / speedups.len() as f64).exp();
    let detail = speedups
        .iter()
        .map(|(k, s)| format!("{k}={s:.2}x"))
        .collect::<Vec<_>>()
        .join(", ");
    if geo < floor {
        failures.push(format!(
            "FLOOR    {label}: geomean speedup {geo:.2}x is under the {floor:.2}x floor ({detail})"
        ));
    } else {
        println!("{label}: geomean {geo:.2}x (floor {floor:.2}x; {detail})");
    }
}

fn main() {
    let args = parse_args();
    let baseline = load(&args.baseline);
    let current = load(&args.current);

    let base_cal = if args.normalize {
        baseline.calibration_secs
    } else {
        1.0
    };
    let cur_cal = if args.normalize {
        current.calibration_secs
    } else {
        1.0
    };
    if base_cal <= 0.0 || cur_cal <= 0.0 {
        eprintln!("error: non-positive calibration constant; rerun bench_json");
        std::process::exit(2);
    }

    let mut failures = Vec::new();
    let mut compared = 0usize;
    let mut skipped_noise = 0usize;
    // One record per baseline row, kept regardless of verdict: on failure
    // the whole comparison is printed as a table, not just the first
    // divergent row.
    struct RowCheck {
        key: String,
        base_digest: u64,
        cur_digest: Option<u64>,
        base_norm: f64,
        cur_norm: Option<f64>,
        verdict: &'static str,
    }
    let mut table: Vec<RowCheck> = Vec::new();

    for base_row in &baseline.rows {
        let key = base_row.key();
        // The fleet scenario's wall is dominated by the configured
        // service delay, not host CPU speed — calibration would turn a
        // host-speed difference into a phantom (anti-)regression.
        let (row_base_cal, row_cur_cal) = if base_row.engine == "serve-fleet" {
            (1.0, 1.0)
        } else {
            (base_cal, cur_cal)
        };
        let base_norm = base_row.wall_secs / row_base_cal;
        let cur_row = current.rows.iter().find(|r| r.key() == key);
        let (cur_digest, cur_norm) = (
            cur_row.map(|r| r.digest),
            cur_row.map(|r| r.wall_secs / row_cur_cal),
        );
        let verdict = match cur_row {
            None => {
                failures.push(format!("MISSING  {key}: row absent from {}", args.current));
                "MISSING"
            }
            Some(cur) if base_row.digest != cur.digest => {
                failures.push(format!(
                    "DIGEST   {key}: output changed ({:016x} -> {:016x}) — parses are no \
                     longer byte-identical to the baseline",
                    base_row.digest, cur.digest
                ));
                "DIGEST"
            }
            Some(cur) if cur.accepted != base_row.accepted => {
                failures.push(format!(
                    "ACCEPT   {key}: accepted flipped {} -> {}",
                    base_row.accepted, cur.accepted
                ));
                "ACCEPT"
            }
            Some(_) if base_row.wall_secs < args.min_wall_secs => {
                skipped_noise += 1;
                "noise"
            }
            Some(_) => {
                let ratio = cur_norm.unwrap() / base_norm;
                compared += 1;
                if ratio > 1.0 + args.max_regress {
                    failures.push(format!(
                        "REGRESS  {key}: {:.1}% slower than baseline \
                         (normalized {:.6} vs {base_norm:.6}, gate {:.0}%)",
                        (ratio - 1.0) * 100.0,
                        cur_norm.unwrap(),
                        args.max_regress * 100.0
                    ));
                    "REGRESS"
                } else {
                    "ok"
                }
            }
        };
        table.push(RowCheck {
            key,
            base_digest: base_row.digest,
            cur_digest,
            base_norm,
            cur_norm,
            verdict,
        });
    }

    // Filter parity + speedup floor: every `filter-incremental` row must
    // be digest-identical to its `filter-naive` twin, and the
    // filter-dominated large-n rows (n >= 32) carry their measured
    // speedup over the full scan in `speedup_vs_1t` — the geomean must
    // clear the floor.
    let mut filter_pairs = 0usize;
    let mut filter_speedups: Vec<(String, f64)> = Vec::new();
    for inc_row in current
        .rows
        .iter()
        .filter(|r| r.engine == "filter-incremental")
    {
        let twin = current.rows.iter().find(|r| {
            r.engine == "filter-naive" && r.grammar == inc_row.grammar && r.n == inc_row.n
        });
        let Some(twin) = twin else {
            failures.push(format!(
                "PARITY   {}: no filter-naive twin in {}",
                inc_row.key(),
                args.current
            ));
            continue;
        };
        filter_pairs += 1;
        if inc_row.digest != twin.digest {
            failures.push(format!(
                "PARITY   {}: incremental digest {:016x} != full-scan oracle {:016x} — the \
                 incremental filter no longer matches the full scan's removal schedule",
                inc_row.key(),
                inc_row.digest,
                twin.digest
            ));
        }
        if inc_row.n >= 32 {
            filter_speedups.push((inc_row.key(), inc_row.speedup_vs_1t));
        }
    }
    geomean_floor(
        "incremental filter large-n over the full scan",
        &filter_speedups,
        args.filter_floor,
        &mut failures,
    );

    // Fleet parity + speedup floor: every multi-shard `serve-fleet` row
    // must be digest-identical to its single-shard twin (routing across
    // simulated machines never changes the answers), and its measured
    // wall-clock speedup over that twin (in `speedup_vs_1t`) must clear
    // the floor — the sharded fleet has to keep earning its threads.
    let mut fleet_pairs = 0usize;
    for fleet_row in current
        .rows
        .iter()
        .filter(|r| r.engine == "serve-fleet" && r.threads > 1)
    {
        let twin = current.rows.iter().find(|r| {
            r.engine == "serve-fleet"
                && r.threads == 1
                && r.grammar == fleet_row.grammar
                && r.n == fleet_row.n
        });
        let Some(twin) = twin else {
            failures.push(format!(
                "PARITY   {}: no single-shard serve-fleet twin in {}",
                fleet_row.key(),
                args.current
            ));
            continue;
        };
        fleet_pairs += 1;
        if fleet_row.digest != twin.digest {
            failures.push(format!(
                "PARITY   {}: fleet digest {:016x} != single-shard twin {:016x} — \
                 sharded routing changed the responses",
                fleet_row.key(),
                fleet_row.digest,
                twin.digest
            ));
        }
        if args.fleet_floor > 0.0 {
            if fleet_row.speedup_vs_1t < args.fleet_floor {
                failures.push(format!(
                    "FLOOR    {}: fleet speedup {:.2}x over single-shard is under the \
                     {:.2}x floor",
                    fleet_row.key(),
                    fleet_row.speedup_vs_1t,
                    args.fleet_floor
                ));
            } else {
                println!(
                    "fleet floor: {} at {:.2}x over single-shard (floor {:.2}x)",
                    fleet_row.key(),
                    fleet_row.speedup_vs_1t,
                    args.fleet_floor
                );
            }
        }
    }

    // Warm-serving parity + speedup floor: every `serve-warm` row must be
    // digest-identical to its `serve-cold` twin (the compiled artifact and
    // reused scratch never change parse output), and the short-sentence
    // rows carry their measured speedup over the cold oracle in
    // `speedup_vs_1t` — the geomean must clear the floor.
    let mut warm_pairs = 0usize;
    let mut warm_speedups: Vec<(String, f64)> = Vec::new();
    for warm_row in current.rows.iter().filter(|r| r.engine == "serve-warm") {
        let twin = current.rows.iter().find(|r| {
            r.engine == "serve-cold" && r.grammar == warm_row.grammar && r.n == warm_row.n
        });
        let Some(twin) = twin else {
            failures.push(format!(
                "PARITY   {}: no serve-cold twin in {}",
                warm_row.key(),
                args.current
            ));
            continue;
        };
        warm_pairs += 1;
        if warm_row.digest != twin.digest {
            failures.push(format!(
                "PARITY   {}: warm digest {:016x} != cold oracle {:016x} — warm-state \
                 serving no longer matches compile-per-request results",
                warm_row.key(),
                warm_row.digest,
                twin.digest
            ));
        }
        if warm_row.grammar.ends_with("-short") {
            warm_speedups.push((warm_row.key(), warm_row.speedup_vs_1t));
        }
    }
    geomean_floor(
        "warm-serving short-sentence over cold",
        &warm_speedups,
        args.warm_floor,
        &mut failures,
    );

    // Binary speedup floor: each `cdg-binary-kernel` row carries its
    // measured speedup over the `cdg-binary-naive` twin in
    // `speedup_vs_1t`; the geomean must clear the floor.
    let binary_speedups: Vec<(String, f64)> = current
        .rows
        .iter()
        .filter(|r| r.engine == "cdg-binary-kernel")
        .map(|r| (r.key(), r.speedup_vs_1t))
        .collect();
    geomean_floor(
        "binary kernel over the naive evaluator",
        &binary_speedups,
        BINARY_FLOOR,
        &mut failures,
    );

    println!(
        "bench_compare: {} baseline row(s): {compared} wall-compared, \
         {skipped_noise} below noise floor, {filter_pairs} filter parity pair(s), {fleet_pairs} fleet parity pair(s), \
         {warm_pairs} warm parity pair(s), {} failure(s)",
        baseline.rows.len(),
        failures.len()
    );
    if !failures.is_empty() {
        for f in &failures {
            println!("  {f}");
        }
        // The full comparison, row by row, so the CI log answers "what
        // else changed?" without a re-run.
        println!();
        println!(
            "{:<44} {:>16} {:>16} {:>11} {:>11} {:>7}  verdict",
            "row", "base digest", "cur digest", "base norm", "cur norm", "ratio"
        );
        for r in &table {
            let cur_digest = r
                .cur_digest
                .map(|d| format!("{d:016x}"))
                .unwrap_or_else(|| "-".into());
            let cur_norm = r
                .cur_norm
                .map(|w| format!("{w:.6}"))
                .unwrap_or_else(|| "-".into());
            let ratio = r
                .cur_norm
                .map(|w| format!("{:.2}", w / r.base_norm))
                .unwrap_or_else(|| "-".into());
            println!(
                "{:<44} {:>16} {:>16} {:>11.6} {:>11} {:>7}  {}",
                r.key,
                format!("{:016x}", r.base_digest),
                cur_digest,
                r.base_norm,
                cur_norm,
                ratio,
                r.verdict
            );
        }
        std::process::exit(1);
    }
}
