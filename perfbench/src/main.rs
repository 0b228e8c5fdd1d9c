//! Command-line entry point of the benchmark; see the library docs and
//! `perfbench/README.md`.

use perfbench::calls::Calls;
use perfbench::checks::Modeled;
use perfbench::layers::Class;
use perfbench::stats::{self, best_of_repeats, mean, median};
use perfbench::workloads::{self, Round, Workload};
use std::process::ExitCode;
use std::time::Instant;

/// An untraced run sets up at least `SETUP_REPS` times and until
/// `SETUP_BUDGET_S` have passed; `setup_s` is the median.
const SETUP_REPS: usize = 3;
const SETUP_BUDGET_S: f64 = 2.0;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Process memory high-water mark in KiB, from `/proc/self/status`.
fn peak_rss_kib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.split_whitespace().next()?.parse().ok())
        })
        .unwrap_or(0.0)
}

/// What one run measured.
struct Run {
    calls: Calls,
    ranks: usize,
    setup_s: Vec<f64>,
    /// Wall seconds and outcome of each measured round.
    rounds: Vec<(f64, Round)>,
    /// Memory high-water mark after the set-ups and the first round: the
    /// same work on every run, however many rounds fit in the time.
    rss_kib: f64,
}

impl Run {
    /// Modeled counters of the first round's calls.
    fn reference(&self) -> &[Modeled] {
        self.calls.reference("round")
    }

    /// Each round's `EmpireSim::step` wall seconds.
    fn step_s(&self) -> Vec<Vec<f64>> {
        self.rounds.iter().map(|(_, r)| r.step_s.clone()).collect()
    }

    /// Mean over the first round's calls of one modeled counter.
    fn per_call(&self, f: impl Fn(&Modeled) -> f64) -> f64 {
        mean(&self.reference().iter().map(f).collect::<Vec<_>>())
    }
}

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// The gated end-to-end metrics: `BENCHMARK.json` lists each with its
/// bound.
fn end_to_end(run: &Run) -> Vec<Metric> {
    let calls = &run.calls;
    let virtual_ms: Vec<f64> = run
        .reference()
        .iter()
        .map(|m| m.virtual_s() * 1e3)
        .collect();
    vec![
        metric("setup_s", median(&run.setup_s).unwrap_or(0.0), "s"),
        metric("peak_rss_mb", run.rss_kib / 1024.0, "MiB"),
        metric("virtual_lb_ms", median(&virtual_ms).unwrap_or(0.0), "ms"),
        metric(
            "messages_per_call",
            run.per_call(|m| m.messages as f64),
            "count",
        ),
        metric(
            "final_max_over_avg",
            run.per_call(|m| 1.0 + m.final_imbalance()),
            "ratio",
        ),
        metric("migrations", run.per_call(|m| m.migrations as f64), "count"),
        metric("modeled_makespan_s", run.rounds[0].1.makespan.total_s, "s"),
        metric(
            "success_ratio",
            calls.attempted.saturating_sub(calls.failed) as f64 / calls.attempted as f64,
            "ratio",
        ),
    ]
}

fn per_layer(run: &Run) -> Vec<Metric> {
    let calls = &run.calls;
    let n = calls.traced.max(1) as f64;
    let mut out = Vec::new();
    for class in Class::ALL {
        out.push(metric(
            format!("{}.self_s", class.name()),
            calls.ledger.self_s(class) / n,
            "s",
        ));
        out.push(metric(
            format!("{}.count", class.name()),
            calls.ledger.count(class) as f64 / n,
            "count",
        ));
    }
    let events = run.per_call(|m| m.events as f64);
    let sent = run.per_call(|m| m.reliable[0] as f64);
    let retransmitted = run.per_call(|m| m.reliable[1] as f64);
    let steps = run.step_s();
    let best_ms = |runs: &[Vec<f64>]| median(&best_of_repeats(runs)).unwrap_or(0.0) * 1e3;
    out.extend([
        metric(
            "sim.self_s",
            (calls.sim_run_s - calls.ledger.handler_s()) / n,
            "s",
        ),
        metric("core.refine_ms.best_p50", best_ms(&calls.refine_s), "ms"),
        metric("empire.step_ms.best_p50", best_ms(&steps), "ms"),
        metric("mem.kb_per_rank", run.rss_kib / run.ranks as f64, "KiB"),
        metric("sim.events", events, "count"),
        metric("sim.events_per_s", events / (calls.untraced_s / n), "1/s"),
        metric("net.bytes_per_call", run.per_call(|m| m.bytes as f64), "B"),
        metric("reliable.retransmitted", retransmitted, "count"),
        metric(
            "reliable.duplicates_suppressed",
            run.per_call(|m| m.reliable[3] as f64),
            "count",
        ),
        metric(
            "reliable.useful_ratio",
            if sent + retransmitted > 0.0 {
                sent / (sent + retransmitted)
            } else {
                1.0
            },
            "ratio",
        ),
        metric("fault.dropped", run.per_call(|m| m.dropped as f64), "count"),
        metric(
            "trace.overhead_ratio",
            calls.traced_s / calls.untraced_s,
            "ratio",
        ),
    ]);
    out
}

/// Wall-clock metrics of the LB calls and rounds, as report lines. They
/// are printed but not part of the JSON result: host contention moves
/// them by more than any bound the benchmark may set (see
/// `perfbench/README.md`). `best` metrics take each call's or step's
/// fastest repeat in the run; a tail is shown only with at least
/// `MIN_BEYOND` calls beyond it.
fn wall_clock(run: &Run) -> Vec<String> {
    let all: Vec<f64> = run.calls.wall_s.concat();
    let n = all.len();
    let best_calls = best_of_repeats(&run.calls.wall_s);
    let steps = run.step_s();
    let best_round = best_calls.iter().sum::<f64>() + best_of_repeats(&steps).iter().sum::<f64>();
    let rounds: Vec<f64> = run.rounds.iter().map(|(w, _)| *w).collect();
    let ms = |v: Option<f64>| v.unwrap_or(0.0) * 1e3;
    vec![
        format!(
            "lb_wall_ms.best_p50 = {:.3} ms (n={} calls x {} repeats)",
            ms(median(&best_calls)),
            best_calls.len(),
            rounds.len()
        ),
        format!("lb_wall_ms.p50 = {:.3} ms (n={n})", ms(median(&all))),
        match stats::tail(&all, 90) {
            Some(v) => format!("lb_wall_ms.p90 = {:.3} ms (n={n})", v * 1e3),
            None => format!(
                "lb_wall_ms.p90 omitted (n={n}: fewer than {} calls beyond it)",
                stats::MIN_BEYOND
            ),
        },
        format!("run_wall_s.best = {best_round:.3} s"),
        format!(
            "run_wall_s = {:.3} s (median round, n={})",
            median(&rounds).unwrap_or(0.0),
            rounds.len()
        ),
    ]
}

/// Set up (repeatedly when untraced), then measure whole rounds while
/// the next one is expected to fit in `args.seconds`; always at least
/// one.
fn measure(args: &Args) -> Run {
    let mut calls = Calls::new(args.trace);
    let (reps, budget) = if args.trace {
        (1, 0.0)
    } else {
        (SETUP_REPS, SETUP_BUDGET_S)
    };
    let mut setup_s: Vec<f64> = Vec::new();
    let mut workload: Option<Box<dyn Workload>> = None;
    while setup_s.len() < reps || setup_s.iter().sum::<f64>() < budget {
        drop(workload.take());
        let t0 = Instant::now();
        let w = workloads::build(&args.workload, args.seed).expect("name checked by caller");
        calls.begin("setup");
        calls.lb(&w.warmup());
        calls.end();
        setup_s.push(t0.elapsed().as_secs_f64());
        workload = Some(w);
    }
    let workload = workload.expect("at least one set-up");

    calls.measuring = true;
    let start = Instant::now();
    let mut rounds: Vec<(f64, Round)> = Vec::new();
    let mut rss_kib = 0.0;
    loop {
        calls.begin("round");
        let t0 = Instant::now();
        let round = workload.round(&mut calls);
        rounds.push((t0.elapsed().as_secs_f64(), round));
        calls.end();
        if rounds.len() == 1 {
            rss_kib = peak_rss_kib();
        }
        let walls: Vec<f64> = rounds.iter().map(|(w, _)| *w).collect();
        let next = median(&walls).unwrap_or(0.0);
        if start.elapsed().as_secs_f64() + next > args.seconds {
            break;
        }
    }
    Run {
        calls,
        ranks: workload.ranks(),
        setup_s,
        rounds,
        rss_kib,
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                workloads::NAMES.join("|")
            );
            return ExitCode::from(2);
        }
    };
    if !workloads::NAMES.contains(&args.workload.as_str()) {
        eprintln!("perfbench: unknown workload {}", args.workload);
        return ExitCode::from(2);
    }

    let mut run = measure(&args);
    println!(
        "workload={} seed={} trace={} ranks={} setups={} rounds={} lb_calls={}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        run.ranks,
        run.setup_s.len(),
        run.rounds.len(),
        run.calls.attempted,
    );
    let metrics = if args.trace {
        per_layer(&run)
    } else {
        for line in wall_clock(&run) {
            println!("{line}");
        }
        println!(
            "final_imbalance = {} (mean post-LB I over the first round)",
            run.per_call(Modeled::final_imbalance)
        );
        end_to_end(&run)
    };
    for m in &metrics {
        if !m.value.is_finite() {
            run.calls.failed += 1;
            run.calls
                .failures
                .push(format!("metric {} is not finite", m.name));
        }
    }
    for f in &run.calls.failures {
        println!("FAILED: {f}");
    }
    for m in &metrics {
        println!("{:<36} {:>22} {}", m.name, m.value, m.unit);
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        run.calls.failed == 0,
        run.calls.attempted,
        run.calls.failed,
        body.join(", ")
    );
    ExitCode::SUCCESS
}
