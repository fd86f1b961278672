//! `--compare a.json b.json`: two run records against the benchmark's own
//! bounds — ROADMAP's `bench_diff`, scoped to this benchmark's record.
//!
//! For every (end-to-end metric, workload) pair it prints both medians,
//! the delta, the metric's `compare_bound` and a verdict: `ok`, `worse` (b
//! is worse than a by more than the bound), or `unresolved` (either side's
//! interquartile range over its rounds is wider than the bound, so the
//! pair cannot say). A pair that either record lacks is `missing`. Between
//! records of one seed the *exact* per-layer counts must be identical.
//! Exits 1 on any `worse`, `missing` or differing count, and 2 when the
//! files are not two records measured the same way.

use std::process::ExitCode;

use crate::json::Json;
use crate::report::{Better, END_TO_END, PER_LAYER};
use crate::workload::Workload;
use crate::PROBES;

/// The verdict on one pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound (or better).
    Ok,
    /// Worse than the bound allows.
    Worse,
    /// A side's spread exceeds the bound.
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side of a pair: the median and the quartiles of its rounds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Side {
    /// Reported value (median over rounds).
    pub value: f64,
    /// First quartile of the rounds.
    pub q1: f64,
    /// Third quartile of the rounds.
    pub q3: f64,
}

impl Side {
    fn iqr_share(&self) -> f64 {
        if self.value == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1).abs() / self.value.abs()
        }
    }
}

/// How much worse `b` is than `a`, as a share of `a` (negative = better).
pub fn worsening(a: f64, b: f64, better: Better) -> f64 {
    let delta = (b - a) / a.abs();
    match better {
        Better::Lower => delta,
        Better::Higher => -delta,
    }
}

/// The verdict on a pair under `bound`.
pub fn judge(a: Side, b: Side, better: Better, bound: f64) -> Verdict {
    if a.iqr_share() > bound || b.iqr_share() > bound {
        Verdict::Unresolved
    } else if worsening(a.value, b.value, better) > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// Whether `a` and `b` are two run records measured the same way: the
/// only things `--compare` can say anything about.
fn comparable(a: &Json, b: &Json) -> Result<(), String> {
    for (name, record) in [("a", a), ("b", b)] {
        if record.get("parts").and_then(Json::as_arr).is_none() {
            return Err(format!(
                "{name} is not a run record (it has no \"parts\"): compare the \
                 run-<sha>-<seed>.json files that a run without --workload writes"
            ));
        }
    }
    for key in ["seconds", "quick"] {
        if a.get(key) != b.get(key) {
            return Err(format!("the records were measured differently: {key:?} differs"));
        }
    }
    Ok(())
}

/// The part of `record` labelled `label` with the given trace flag.
fn part<'a>(record: &'a Json, label: &str, trace: f64) -> Option<&'a Json> {
    record.get("parts")?.as_arr()?.iter().find(|p| {
        p.get("workload").and_then(Json::as_str) == Some(label)
            && p.get("trace").and_then(Json::as_f64) == Some(trace)
    })
}

fn side(part: Option<&Json>, metric: &str) -> Option<Side> {
    let m = part?.get("metrics")?.get(metric)?;
    Some(Side {
        value: m.get("value")?.as_f64()?,
        q1: m.get("q1")?.as_f64()?,
        q3: m.get("q3")?.as_f64()?,
    })
}

/// Which records lack something both must have, for the `missing` line.
fn absent_from(a: bool, b: bool) -> &'static str {
    match (a, b) {
        (true, true) => "missing from a and b",
        (true, false) => "missing from a",
        _ => "missing from b",
    }
}

/// Compares two records; prints one line per pair. Returns how many pairs
/// were `worse` or missing from a record, plus — with `exact_counts`,
/// which needs both records to be of one seed — how many exact counts
/// differed.
fn compare(a: &Json, b: &Json, exact_counts: bool) -> usize {
    let mut bad = 0;
    println!(
        "{:<18} {:<16} {:>12} {:>12} {:>8} {:>6}  verdict",
        "workload", "metric", "a", "b", "delta", "bound"
    );
    for workload in Workload::ALL.map(Workload::name) {
        let (pa, pb) = (part(a, workload, 0.0), part(b, workload, 0.0));
        for def in END_TO_END {
            let (sa, sb) = match (side(pa, def.name), side(pb, def.name)) {
                (Some(sa), Some(sb)) => (sa, sb),
                // Memory is not read off Linux: two such records agree.
                (None, None) if def.name == "rss_peak_mb" && pa.is_some() && pb.is_some() => {
                    continue
                }
                (sa, sb) => {
                    bad += 1;
                    let which = absent_from(sa.is_none(), sb.is_none());
                    println!("{workload:<18} {:<16} {which}", def.name);
                    continue;
                }
            };
            let verdict = judge(sa, sb, def.better, def.compare_bound);
            bad += usize::from(verdict == Verdict::Worse);
            println!(
                "{:<18} {:<16} {:>12.4} {:>12.4} {:>+7.1}% {:>5.0}%  {}",
                workload,
                def.name,
                sa.value,
                sb.value,
                (sb.value - sa.value) / sa.value.abs() * 100.0,
                def.compare_bound * 100.0,
                verdict.name()
            );
        }
    }
    if !exact_counts {
        return bad;
    }
    let (pa, pb) = (part(a, PROBES, 1.0), part(b, PROBES, 1.0));
    for def in PER_LAYER.iter().filter(|d| d.exact) {
        match (side(pa, def.name), side(pb, def.name)) {
            (Some(sa), Some(sb)) if sa.value.to_bits() == sb.value.to_bits() => {}
            (Some(sa), Some(sb)) => {
                bad += 1;
                println!(
                    "{PROBES:<18} {:<16} {:>12} {:>12}  exact count differs",
                    def.name, sa.value, sb.value
                );
            }
            (sa, sb) => {
                bad += 1;
                println!(
                    "{PROBES:<18} {:<16} {}",
                    def.name,
                    absent_from(sa.is_none(), sb.is_none())
                );
            }
        }
    }
    bad
}

/// Entry point of `--compare`: 0 when every pair is `ok` or `unresolved`,
/// 1 on any `worse`, missing pair or differing exact count, 2 when the two
/// files cannot be compared at all.
pub fn run(a_path: &str, b_path: &str) -> ExitCode {
    let (a, b) = match (load(a_path), load(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = comparable(&a, &b) {
        eprintln!("benchmark: {e}");
        return ExitCode::from(2);
    }
    let seed = |r: &Json| r.get("fingerprint").and_then(|f| f.get("seed")).and_then(Json::as_f64);
    let same_seed = seed(&a) == seed(&b);
    if !same_seed {
        println!("note: the records used different seeds; exact counts are not compared");
    }
    match compare(&a, &b, same_seed) {
        0 => ExitCode::SUCCESS,
        bad => {
            println!("{bad} pair(s) worse than the bound, missing, or differing in an exact count");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tight(value: f64) -> Side {
        Side { value, q1: value * 0.995, q3: value * 1.005 }
    }

    #[test]
    fn direction_decides_what_worse_means() {
        assert!((worsening(100.0, 110.0, Better::Lower) - 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 110.0, Better::Higher) + 0.10).abs() < 1e-12);
        assert_eq!(judge(tight(100.0), tight(110.0), Better::Lower, 0.05), Verdict::Worse);
        assert_eq!(judge(tight(100.0), tight(110.0), Better::Higher, 0.05), Verdict::Ok);
        assert_eq!(judge(tight(100.0), tight(104.0), Better::Lower, 0.05), Verdict::Ok);
        assert_eq!(judge(tight(100.0), tight(90.0), Better::Higher, 0.05), Verdict::Worse);
    }

    #[test]
    fn a_wide_spread_on_either_side_is_unresolved() {
        let wide = Side { value: 100.0, q1: 90.0, q3: 110.0 };
        assert_eq!(judge(wide, tight(150.0), Better::Lower, 0.05), Verdict::Unresolved);
        assert_eq!(judge(tight(100.0), wide, Better::Lower, 0.05), Verdict::Unresolved);
        assert_eq!(judge(wide, tight(100.0), Better::Lower, 0.25), Verdict::Ok);
    }

    /// A full record whose every metric is `value(label, metric)`; a
    /// `None` leaves the metric out, and a part left with none is left out.
    fn record(value: impl Fn(&str, &str) -> Option<f64>) -> Json {
        let part = |label: &str, trace: f64, names: Vec<&'static str>| {
            let metrics: Vec<(&str, Json)> = names
                .into_iter()
                .filter_map(|name| {
                    let v = value(label, name)?;
                    let metric =
                        [("value", Json::Num(v)), ("q1", Json::Num(v)), ("q3", Json::Num(v))];
                    Some((name, Json::obj(metric)))
                })
                .collect();
            (!metrics.is_empty()).then(|| {
                Json::obj([
                    ("workload", Json::str(label)),
                    ("trace", Json::Num(trace)),
                    ("metrics", Json::obj(metrics)),
                ])
            })
        };
        let end_to_end = || END_TO_END.iter().map(|d| d.name).collect::<Vec<_>>();
        let exact = PER_LAYER.iter().filter(|d| d.exact).map(|d| d.name).collect();
        let parts = Workload::ALL
            .iter()
            .filter_map(|w| part(w.name(), 0.0, end_to_end()))
            .chain(part(PROBES, 1.0, exact))
            .collect();
        Json::obj([
            ("seconds", Json::Num(25.0)),
            ("quick", Json::Bool(false)),
            ("parts", Json::Arr(parts)),
        ])
    }

    fn with(workload: &'static str, metric: &'static str, v: Option<f64>) -> Json {
        record(move |w, m| if (w, m) == (workload, metric) { v } else { Some(100.0) })
    }

    #[test]
    fn records_compare_pair_by_pair() {
        let base = record(|_, _| Some(100.0));
        assert_eq!(compare(&base, &base, true), 0);
        // Within and beyond goodput's bound; beyond it in the good direction.
        let goodput = |v| with("serve_tcp_f32", "goodput_per_s", Some(v));
        assert_eq!(compare(&base, &goodput(97.0), true), 0);
        assert_eq!(compare(&base, &goodput(90.0), true), 1);
        assert_eq!(compare(&base, &goodput(150.0), true), 0);
        // An exact count counts between records of one seed only.
        let macs = with(PROBES, "snn.macs_per_op", Some(101.0));
        assert_eq!(compare(&base, &macs, true), 1);
        assert_eq!(compare(&base, &macs, false), 0);
    }

    #[test]
    fn whatever_a_record_lacks_is_a_failure() {
        let base = record(|_, _| Some(100.0));
        // A metric, from either side.
        let no_p50 = with("stream_f32_events", "latency_p50_ms", None);
        assert_eq!(compare(&base, &no_p50, true), 1);
        assert_eq!(compare(&no_p50, &base, true), 1);
        // A whole workload, even from both.
        let no_train = record(|w, _| (w != "train_htt_events").then_some(100.0));
        assert_eq!(compare(&base, &no_train, true), END_TO_END.len());
        assert_eq!(compare(&no_train, &no_train, true), END_TO_END.len());
        // The probes' part or one of its counts, when counts are compared.
        let exact = PER_LAYER.iter().filter(|d| d.exact).count();
        let no_probes = record(|w, _| (w != PROBES).then_some(100.0));
        assert_eq!(compare(&base, &no_probes, true), exact);
        assert_eq!(compare(&base, &no_probes, false), 0);
        assert_eq!(compare(&base, &with(PROBES, "infer.failed", None), true), 1);
        // Memory is not read off Linux: absent from both is no finding,
        // absent from one is.
        let no_rss = record(|_, m| (m != "rss_peak_mb").then_some(100.0));
        assert_eq!(compare(&no_rss, &no_rss, true), 0);
        assert_eq!(compare(&base, &no_rss, true), Workload::ALL.len());
    }

    #[test]
    fn only_like_records_are_comparable() {
        let base = record(|_, _| Some(100.0));
        assert!(comparable(&base, &base).is_ok());
        // A part file is not a record.
        let part_file = base.get("parts").unwrap().as_arr().unwrap()[0].clone();
        assert!(comparable(&part_file, &base).is_err());
        assert!(comparable(&base, &part_file).is_err());
        // A --quick record against a full one; another run length.
        let edited = |key: &str, v: Json| {
            let Json::Obj(members) = &base else { unreachable!() };
            Json::obj(
                members
                    .iter()
                    .map(|(k, old)| (k.clone(), if k == key { v.clone() } else { old.clone() })),
            )
        };
        assert!(comparable(&base, &edited("quick", Json::Bool(true))).is_err());
        assert!(comparable(&base, &edited("seconds", Json::Num(5.0))).is_err());
    }
}
