//! The repository's benchmark: one command that runs a named workload
//! against the public API of the release build, checks every answer
//! against an oracle, and prints every metric by name and unit.
//!
//! ```text
//! perfbench --workload <serve-short|batch-long|maspar-mixed> --seed N
//!           --seconds S --trace <0|1> [--inject-wrong-answer]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` is the separate
//! traced run that prints the per-layer metrics. Detail lines (host facts,
//! input properties, every timing with its sample count) come first; the
//! last line of standard output is the result object. The exit code is 0
//! only when every answer matched its oracle.

mod batch;
mod inputs;
mod layers;
mod oracle;
mod reference;
mod serve;
mod stats;

use std::process::ExitCode;
use std::time::Instant;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Flip one answer before it is checked, to show the check bites.
    pub inject_wrong_answer: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        inject_wrong_answer: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if args.seconds <= 0.0 || args.seconds.is_nan() {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
                }
            }
            "--inject-wrong-answer" => args.inject_wrong_answer = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// What a workload run reports.
#[derive(Default)]
pub struct Outcome {
    /// Answers checked.
    pub attempted: u64,
    /// Answers that were not OK or disagreed with the oracle.
    pub failed: u64,
    /// Whole-run checks beyond per-answer ones (replay digests and the
    /// like) that did not hold.
    pub broken: Vec<String>,
    /// `(name, value, unit)`, in the order they are printed.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// `(key, JSON value)` detail fields.
    pub details: Vec<(String, String)>,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    pub fn detail(&mut self, key: &str, json: String) {
        self.details.push((key.to_string(), json));
    }

    pub fn check(&mut self, ok: bool, what: &str) {
        if !ok {
            self.broken.push(what.to_string());
        }
    }

    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Host facts recorded with every run, so a noisy run can be spotted.
pub struct Host {
    pub nproc: usize,
    pub loadavg_1m: f64,
    pub calibrate_s: f64,
    start: Ticks,
}

impl Host {
    fn probe() -> Host {
        let loadavg_1m = std::fs::read_to_string("/proc/loadavg")
            .ok()
            .and_then(|s| s.split_whitespace().next()?.parse().ok())
            .unwrap_or(0.0);
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            loadavg_1m,
            calibrate_s: bench::report::calibrate(),
            start: Ticks::now(),
        }
    }
}

/// CPU time of the whole machine from the aggregate `cpu` line of
/// `/proc/stat`, in clock ticks.
#[derive(Clone, Copy)]
pub struct Ticks {
    busy: u64,
    steal: u64,
    total: u64,
}

impl Ticks {
    pub fn now() -> Ticks {
        let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        // user nice system idle iowait irq softirq steal ...
        let t: Vec<u64> = stat
            .lines()
            .next()
            .unwrap_or_default()
            .split_whitespace()
            .skip(1)
            .filter_map(|v| v.parse().ok())
            .collect();
        let at = |i: usize| t.get(i).copied().unwrap_or(0);
        Ticks {
            busy: at(0) + at(1) + at(2) + at(5) + at(6),
            steal: at(7),
            total: t.iter().sum(),
        }
    }

    /// Share of all CPU time since `self` that the hypervisor stole.
    pub fn steal_share(self) -> f64 {
        let now = Ticks::now();
        (now.steal - self.steal) as f64 / (now.total - self.total).max(1) as f64
    }

    /// Share of the time since `self` that the machine's CPUs had work but
    /// the hypervisor ran something else: the factor by which stolen time
    /// stretched CPU-bound wall time.
    pub fn stolen_from_work(self) -> f64 {
        let now = Ticks::now();
        let steal = (now.steal - self.steal) as f64;
        let busy = (now.busy - self.busy) as f64;
        if steal + busy > 0.0 {
            steal / (steal + busy)
        } else {
            0.0
        }
    }
}

/// CPU time all threads of this process have run, in seconds
/// (`CLOCK_PROCESS_CPUTIME_ID`).
///
/// Unlike wall time it does not count the time the threads waited for a
/// CPU while other tasks or the hypervisor ran, which on a shared host of
/// two vCPUs is most of the spread of a CPU-bound parse.
pub fn cpu_secs() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut t = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `t` is a valid, writable timespec of the C layout.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut t) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    t.tv_sec as f64 + t.tv_nsec as f64 * 1e-9
}

/// Peak resident memory of this process so far, MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Time `reps` set-ups, tearing each down (untimed) before the next and
/// keeping the last one's product; returns it with the set-up times in
/// seconds.
pub fn time_setups<T>(
    reps: usize,
    mut setup: impl FnMut() -> T,
    mut teardown: impl FnMut(T),
) -> (T, Vec<f64>) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        if let Some(prev) = last.take() {
            teardown(prev);
        }
        let start = Instant::now();
        let made = setup();
        times.push(start.elapsed().as_secs_f64());
        last = Some(made);
    }
    (last.expect("at least one set-up"), times)
}

/// Mean of `values` (0 for none).
pub fn mean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (sum, n) = values
        .into_iter()
        .fold((0.0, 0usize), |(s, n), v| (s + v, n + 1));
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let host = Host::probe();
    let mut out = match args.workload.as_str() {
        "serve-short" => serve::run(&args, &host),
        "batch-long" => batch::run(&args, batch::Kind::Long),
        "maspar-mixed" => batch::run(&args, batch::Kind::Maspar),
        other => {
            eprintln!(
                "perfbench: unknown workload `{other}` (serve-short, batch-long, maspar-mixed)"
            );
            return ExitCode::from(2);
        }
    };
    let steal_share = host.start.steal_share();
    if args.trace {
        out.metric("failed_share", out.failed_share(), "share");
        out.metric("host.nproc", host.nproc as f64, "count");
        out.metric("host.loadavg_1m", host.loadavg_1m, "load");
        out.metric("host.calibrate_s", host.calibrate_s, "s");
        out.metric("host.steal_share", steal_share, "share");
    }

    println!(
        "{{\"host\":{{\"nproc\":{},\"loadavg_1m\":{},\"calibrate_s\":{},\"steal_share\":{}}}}}",
        host.nproc, host.loadavg_1m, host.calibrate_s, steal_share
    );
    for (key, json) in &out.details {
        println!("{{\"{key}\":{json}}}");
    }
    println!(
        "{{\"failed_share\":{},\"broken\":[{}]}}",
        json_number(out.failed_share()),
        out.broken
            .iter()
            .map(|b| format!("\"{b}\""))
            .collect::<Vec<_>>()
            .join(",")
    );
    for b in &out.broken {
        eprintln!("perfbench: check failed: {b}");
    }
    let correct = out.failed == 0 && out.broken.is_empty() && out.attempted > 0;
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.attempted,
        out.failed,
        metrics.join(",")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
