//! The repo's one benchmark: four long workloads, end-to-end metrics from
//! untraced rounds, per-layer numbers from a traced run. See `README.md`
//! beside this file for the protocol, the metric glossary and the
//! interaction table.
//!
//! ```sh
//! # one run, the form BENCHMARK.json's command takes:
//! benchmark --workload serve_tcp_f32 --seed 1 --seconds 25 --trace 0
//! # everything: each workload untraced then traced, the per-layer probes
//! # once, one record written:
//! benchmark --seed 1
//! # two records against the benchmark's own bounds:
//! benchmark --compare a.json b.json
//! ```
#![warn(missing_docs)]

mod batch_int8;
mod compare;
mod fixtures;
mod json;
mod mem;
mod probes;
mod report;
mod serve_tcp;
mod stats;
mod stream;
mod trace;
mod train;
mod workload;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use json::Json;
use probes::Budget;
use report::Metric;
use stats::median;
use workload::{Round, Workload};

/// Rounds of an untraced run.
const ROUNDS: usize = 10;
/// Untraced / traced round pairs of a traced run.
const TRACED_PAIRS: usize = 2;
/// Repetitions of the one-off preparation (its median goes into
/// `setup_s`; the last one is the one the rounds use).
const PREPARATIONS: usize = 3;
/// Default `--seconds`, the `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 25.0;
/// Where records and traces go, relative to the working directory.
const OUT_DIR: &str = "target/benchmark";

/// How long and how often one run measures.
#[derive(Debug, Clone, Copy)]
struct Plan {
    rounds: usize,
    window: Duration,
    preparations: usize,
    budget: Budget,
}

impl Plan {
    /// `seconds` of measuring split over [`ROUNDS`] windows.
    fn full(seconds: f64) -> Plan {
        Plan {
            rounds: ROUNDS,
            window: Duration::from_secs_f64(seconds / ROUNDS as f64),
            preparations: PREPARATIONS,
            budget: Budget::FULL,
        }
    }

    /// The smoke-test plan: one 0.3 s round, short probes.
    fn quick() -> Plan {
        Plan {
            rounds: 1,
            window: Duration::from_millis(300),
            preparations: 1,
            budget: Budget::QUICK,
        }
    }
}

/// Closed-loop callers per workload: two, or one on a single core.
fn clients() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get()).min(2)
}

/// The half of a traced run that `--only` keeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Only {
    /// The workload's own traced rounds: the four `bench.*` metrics.
    Rounds,
    /// The workload-independent per-layer probes.
    Probes,
}

/// The label of the probes' part of a record, where a workload's name goes.
const PROBES: &str = "probes";

/// One part of the record: what a run measured, under its label.
fn part_json(
    label: &str,
    traced: bool,
    args: &Args,
    extra: impl IntoIterator<Item = (&'static str, Json)>,
    metrics: &[Metric],
) -> Json {
    let mut members = vec![
        ("workload", Json::str(label)),
        ("trace", Json::Num(f64::from(u8::from(traced)))),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds)),
    ];
    members.extend(extra);
    members.push(("metrics", Json::obj(metrics.iter().map(|m| (m.name, m.to_json())))));
    Json::obj(members)
}

/// What one run (one workload, traced or not) produced.
struct RunOutput {
    workload: Workload,
    traced: bool,
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
    /// Spans of the traced rounds.
    spans: Vec<trace::Span>,
}

impl RunOutput {
    fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The last line of a run's standard output.
    fn result_line(&self) -> String {
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted.max(1) as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", report::result_metrics(&self.metrics)),
        ])
        .encode()
    }

    /// This run's part of the record.
    fn part(&self, args: &Args) -> Json {
        let extra = [
            ("goodput_unit", Json::str(self.workload.goodput_unit())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
        ];
        part_json(self.workload.name(), self.traced, args, extra, &self.metrics)
    }
}

/// An untraced run: the end-to-end metrics.
fn run_untraced(workload: Workload, seed: u64, plan: Plan) -> RunOutput {
    let clients = clients();
    let mut one_off_s = Vec::new();
    let mut scenario = None;
    for _ in 0..plan.preparations {
        let t = Instant::now();
        scenario = Some(workload.prepare(seed, clients));
        one_off_s.push(t.elapsed().as_secs_f64());
    }
    let scenario = scenario.expect("at least one preparation");
    let rounds: Vec<Round> = (0..plan.rounds).map(|_| scenario.round(plan.window, None)).collect();
    RunOutput {
        workload,
        traced: false,
        metrics: report::end_to_end(workload, &one_off_s, &rounds, mem::rss_peak_kb()),
        attempted: rounds.iter().map(|r| r.tally.attempted).sum(),
        failed: rounds.iter().map(|r| r.tally.failed).sum(),
        spans: Vec::new(),
    }
}

/// Runs every per-layer probe: the same whichever workload the traced run
/// is for, so a full run does this once (`--only probes`).
fn run_probes(seed: u64, plan: Plan) -> Vec<Metric> {
    let mut metrics = probes::run_all(seed, clients(), plan.budget);
    in_table_order(&mut metrics);
    metrics
}

/// Reports in the table's order, whatever order the metrics came in.
fn in_table_order(metrics: &mut [Metric]) {
    metrics.sort_by_key(|m| report::PER_LAYER.iter().position(|d| d.name == m.name));
}

/// A traced run: untraced and traced rounds in alternation (their
/// difference is the recorder's overhead) give the four `bench.*` metrics;
/// `with_probes` adds every per-layer probe, which the one-run form needs
/// to print every per-layer metric.
fn run_traced(workload: Workload, seed: u64, plan: Plan, with_probes: bool) -> RunOutput {
    let clients = clients();
    let scenario = workload.prepare(seed, clients);
    let epoch = Instant::now();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    for _ in 0..TRACED_PAIRS.min(plan.rounds) {
        plain.push(scenario.round(plan.window, None));
        traced.push(scenario.round(plan.window, Some(epoch)));
    }
    let goodput = |rounds: &[Round]| {
        median(&rounds.iter().map(|r| r.tally.good as f64 / r.window_s).collect::<Vec<_>>())
    };
    let (plain_gp, traced_gp) = (goodput(&plain), goodput(&traced));
    let all = || plain.iter().chain(&traced);
    let attempted: u64 = all().map(|r| r.tally.attempted).sum();
    let failed: u64 = all().map(|r| r.tally.failed).sum();
    let growth: Vec<f64> = all()
        .filter_map(|r| r.rss_gain_kb.map(|kb| kb / r.tally.attempted.max(1) as f64))
        .collect();

    let mut metrics = if with_probes { run_probes(seed, plan) } else { Vec::new() };
    metrics.push(Metric::single(
        "bench.trace_overhead_pct",
        "%",
        (plain_gp - traced_gp) / plain_gp * 100.0,
    ));
    if !growth.is_empty() {
        metrics.push(Metric::over_rounds("bench.mem_growth_kb_per_op", "KB", growth));
    }
    metrics.push(Metric::over_rounds(
        "bench.ops_per_round",
        "count",
        all().map(|r| r.tally.attempted as f64).collect(),
    ));
    metrics.push(Metric::single(
        "bench.failed_share",
        "ratio",
        failed as f64 / attempted.max(1) as f64,
    ));
    in_table_order(&mut metrics);
    RunOutput {
        workload,
        traced: true,
        metrics,
        attempted,
        failed,
        spans: traced.into_iter().flat_map(|r| r.spans).collect(),
    }
}

fn part_path(label: &str, traced: bool, seed: u64) -> PathBuf {
    Path::new(OUT_DIR).join(format!("part-{label}-trace{}-seed{seed}.json", u8::from(traced)))
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    let dir = path.parent().unwrap_or(Path::new("."));
    std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(path, text))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Parsed command line.
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    only: Option<Only>,
    compare: Option<(String, String)>,
}

const USAGE: &str = "usage: benchmark [--workload <name>] [--seed <u64>] [--seconds <s>] \
[--trace <0|1>] [--only <rounds|probes>] [--quick] | --compare <a.json> <b.json>\n\
workloads: train_htt_events serve_tcp_f32 batch_int8_events stream_f32_events\n\
--only: of a traced run, just the workload's rounds or just the per-layer probes\n\
without --workload: every workload untraced then traced, the probes once, one record file";

impl Args {
    fn plan(&self) -> Plan {
        if self.quick {
            Plan::quick()
        } else {
            Plan::full(self.seconds)
        }
    }
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        quick: false,
        only: None,
        compare: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or_else(|| format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                args.workload = Some(
                    Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))?,
                );
            }
            "--seed" => {
                let v = value("a number")?;
                args.seed = v.parse().map_err(|_| format!("--seed: {v:?} is not a u64"))?;
            }
            "--seconds" => {
                let v = value("a number")?;
                args.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--seconds: {v:?} is not a positive number"))?;
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace: {other:?} is not 0 or 1")),
                };
            }
            "--quick" => args.quick = true,
            "--only" => {
                args.only = Some(match value("rounds or probes")?.as_str() {
                    "rounds" => Only::Rounds,
                    "probes" => Only::Probes,
                    other => return Err(format!("--only: {other:?} is not rounds or probes")),
                });
            }
            "--compare" => {
                let a = value("two record files")?.clone();
                let b = value("two record files")?.clone();
                args.compare = Some((a, b));
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

/// One run, the driver's form: metric lines, the part file (and trace
/// file), then the result line last. `Ok(true)` when every operation
/// passed the correctness gate.
fn single_run(workload: Workload, args: &Args) -> Result<bool, String> {
    let plan = args.plan();
    let out = if args.trace {
        run_traced(workload, args.seed, plan, args.only != Some(Only::Rounds))
    } else {
        run_untraced(workload, args.seed, plan)
    };
    report::print_lines(workload.name(), &out.metrics);
    let part = part_path(workload.name(), args.trace, args.seed);
    write_file(&part, &out.part(args).encode())?;
    if args.trace {
        let path = Path::new(OUT_DIR).join(format!("trace-{}.json", workload.name()));
        write_file(&path, &trace::chrome_trace(&out.spans).encode())?;
        eprintln!("benchmark: wrote {} ({} spans)", path.display(), out.spans.len());
    }
    println!("{}", out.result_line());
    if !out.correct() {
        eprintln!("benchmark: {} of {} operations failed", out.failed, out.attempted);
    }
    Ok(out.correct())
}

/// `--only probes`: the per-layer probes alone, as their own part of the
/// record. They belong to no workload, so there is no result line.
fn probes_run(args: &Args) -> Result<bool, String> {
    let metrics = run_probes(args.seed, args.plan());
    report::print_lines(PROBES, &metrics);
    let part = part_json(PROBES, true, args, [], &metrics);
    write_file(&part_path(PROBES, true, args.seed), &part.encode())?;
    Ok(true)
}

/// First line of a command's standard output, or `"unknown"`.
fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// Everything a number depends on besides the code.
fn fingerprint(seed: u64) -> Json {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    Json::obj([
        // Which of the two manifests built this binary (see the README).
        ("package", Json::str(env!("CARGO_PKG_NAME"))),
        ("nproc", Json::Num(nproc as f64)),
        ("kernel_threads", Json::Num(ttsnn_tensor::runtime::Runtime::global().threads() as f64)),
        ("replicas", Json::Num(1.0)),
        ("clients", Json::Num(clients() as f64)),
        ("obs_tracing", Json::Bool(ttsnn_obs::enabled())),
        ("sparse_mode", Json::str(ttsnn_tensor::spike::sparse_mode().name())),
        ("git_sha", Json::str(first_line_of("git", &["rev-parse", "--short", "HEAD"]))),
        ("rustc", Json::str(first_line_of("rustc", &["--version"]))),
        ("seed", Json::Num(seed as f64)),
    ])
}

/// Every workload, untraced then traced, and the probes once, each in a
/// process of its own (so peak memory and allocator state are that run's
/// alone — exactly what the one-run form measures), then one record of
/// all of it. `Ok(true)` when every run succeeded.
fn full_run(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find my own executable: {e}"))?;
    let mut runs: Vec<(&str, bool, Vec<&str>)> = Vec::new();
    for workload in &Workload::ALL {
        let name = workload.name();
        runs.push((name, false, vec!["--workload", name, "--trace", "0"]));
        runs.push((name, true, vec!["--workload", name, "--trace", "1", "--only", "rounds"]));
    }
    runs.push((PROBES, true, vec!["--only", "probes"]));
    let mut parts = Vec::new();
    let mut all_ok = true;
    for (label, traced, run_args) in runs {
        let path = part_path(label, traced, args.seed);
        let _ = std::fs::remove_file(&path); // never read a stale part
        let mut child = Command::new(&exe);
        child
            .args(run_args)
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()]);
        if args.quick {
            child.arg("--quick");
        }
        // `status` waits for the child; its lines stream through.
        all_ok &= child.status().is_ok_and(|s| s.success());
        let part = std::fs::read_to_string(&path)
            .map_err(|e| e.to_string())
            .and_then(|text| Json::parse(&text))
            .map_err(|e| format!("no usable {}: {e}", path.display()))?;
        parts.push(part);
    }
    let fingerprint = fingerprint(args.seed);
    let sha = fingerprint.get("git_sha").and_then(Json::as_str).unwrap_or("unknown").to_string();
    let record = Json::obj([
        ("fingerprint", fingerprint),
        ("seconds", Json::Num(args.seconds)),
        ("quick", Json::Bool(args.quick)),
        ("parts", Json::Arr(parts)),
    ]);
    let path = Path::new(OUT_DIR).join(format!("run-{sha}-{}.json", args.seed));
    write_file(&path, &record.encode())?;
    eprintln!("benchmark: wrote {}", path.display());
    Ok(all_ok)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some((a, b)) = &args.compare {
        return compare::run(a, b);
    }
    let outcome = match args.workload {
        _ if args.only == Some(Only::Probes) => probes_run(&args),
        Some(workload) => single_run(workload, &args),
        None => full_run(&args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_drivers_command_line() {
        let a = args(&[
            "--workload",
            "serve_tcp_f32",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload, Some(Workload::ServeTcpF32));
        assert_eq!((a.seed, a.seconds, a.trace, a.quick), (7, 10.0, true, false));
        assert_eq!(a.only, None);
        assert_eq!(args(&["--only", "probes"]).unwrap().only, Some(Only::Probes));
        assert_eq!(args(&["--only", "rounds"]).unwrap().only, Some(Only::Rounds));
        assert!(args(&["--only", "both"]).is_err());
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--seconds", "0"]).is_err());
        assert!(args(&["--trace", "2"]).is_err());
        assert!(args(&["--seed"]).is_err());
        assert!(args(&["--compare", "a.json"]).is_err());
        assert!(args(&[]).unwrap().workload.is_none());
    }

    /// The `--quick` smoke test: every workload, traced pass on, two
    /// seeds. Checks the correctness gate passes, every declared metric is
    /// reported as a finite number, the result line has the contract's
    /// shape, the trace loads, and the *exact* counts repeat for a seed.
    #[test]
    fn quick_run_reports_every_metric_and_exact_counts_repeat() {
        let plan = Plan::quick();
        let names = |metrics: &[Metric]| metrics.iter().map(|m| m.name).collect::<Vec<_>>();
        for workload in Workload::ALL {
            for seed in [1, 2] {
                let out = run_untraced(workload, seed, plan);
                assert!(out.correct(), "{} seed {seed}: {} failed", workload.name(), out.failed);
                // Memory is read on Linux only; elsewhere the metric is left out.
                let declared: Vec<&str> = report::END_TO_END
                    .iter()
                    .map(|m| m.name)
                    .filter(|&name| name != "rss_peak_mb" || mem::rss_peak_kb().is_some())
                    .collect();
                assert_eq!(names(&out.metrics), declared);
                for m in &out.metrics {
                    assert!(m.value.is_finite() && m.value > 0.0, "{} = {}", m.name, m.value);
                }
                let line = Json::parse(&out.result_line()).unwrap();
                let Json::Obj(members) = &line else { panic!("the result is an object") };
                let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
                assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
                assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
            }
        }

        let traced = |with_probes| run_traced(Workload::StreamF32Events, 1, plan, with_probes);
        let (first, again) = (traced(true), traced(true));
        assert!(first.correct());
        let mut declared: Vec<&str> = report::PER_LAYER.iter().map(|m| m.name).collect();
        // `bench.mem_growth_kb_per_op` is a memory metric too.
        declared.retain(|&name| name != "bench.mem_growth_kb_per_op" || mem::rss_kb().is_some());
        assert_eq!(names(&first.metrics), declared);
        // `--only rounds` keeps the workload's own four and drops the probes.
        declared.retain(|name| name.starts_with("bench."));
        assert_eq!(names(&traced(false).metrics), declared);
        for m in &first.metrics {
            let def = report::PER_LAYER.iter().find(|d| d.name == m.name).unwrap();
            assert!(m.value.is_finite(), "{} = {}", m.name, m.value);
            assert_eq!(m.unit, def.unit, "{}", m.name);
            if def.exact {
                let twin = again.metrics.iter().find(|x| x.name == m.name).unwrap();
                assert_eq!(m.value.to_bits(), twin.value.to_bits(), "{} must repeat", m.name);
            }
        }
        assert!(!first.spans.is_empty());
        let doc = Json::parse(&trace::chrome_trace(&first.spans).encode()).unwrap();
        assert_eq!(doc.get("traceEvents").unwrap().as_arr().unwrap().len(), first.spans.len());
    }

    fn spelled(better: report::Better) -> &'static str {
        match better {
            report::Better::Lower => "lower",
            report::Better::Higher => "higher",
        }
    }

    /// `BENCHMARK.json` must say what the code does.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let Some(path) = Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .map(|d| d.join("BENCHMARK.json"))
            .find(|p| p.exists())
        else {
            return; // built outside the repo: nothing to check against
        };
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| m.get("name").and_then(Json::as_str).unwrap().to_string())
                .collect()
        };
        let mut declared = names("end_to_end");
        declared.sort();
        let mut ours: Vec<String> = report::END_TO_END.iter().map(|m| m.name.to_string()).collect();
        ours.sort();
        assert_eq!(declared, ours);
        for m in doc.get("end_to_end").and_then(Json::as_arr).unwrap() {
            let def = report::END_TO_END
                .iter()
                .find(|d| Some(d.name) == m.get("name").and_then(Json::as_str))
                .unwrap();
            assert_eq!(m.get("unit").and_then(Json::as_str), Some(def.unit));
            assert_eq!(m.get("better").and_then(Json::as_str), Some(spelled(def.better)));
            assert_eq!(m.get("bound").and_then(Json::as_f64), Some(def.bound));
        }
        for m in doc.get("per_layer").and_then(Json::as_arr).unwrap() {
            let def = report::PER_LAYER
                .iter()
                .find(|d| Some(d.name) == m.get("name").and_then(Json::as_str))
                .unwrap();
            assert_eq!(m.get("unit").and_then(Json::as_str), Some(def.unit));
            assert_eq!(m.get("better").and_then(Json::as_str), Some(spelled(def.better)));
        }
        let mut declared = names("per_layer");
        declared.sort();
        let mut ours: Vec<String> = report::PER_LAYER.iter().map(|m| m.name.to_string()).collect();
        ours.sort();
        assert_eq!(declared, ours);
        let mut workloads = names("workloads");
        workloads.sort();
        let mut ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        ours.sort_unstable();
        assert_eq!(workloads, ours);
        assert_eq!(doc.get("run_seconds").and_then(Json::as_f64), Some(DEFAULT_SECONDS));
    }
}
