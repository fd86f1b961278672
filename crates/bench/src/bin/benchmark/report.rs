//! Metric definitions and the arithmetic that turns independent rounds
//! into reported values, with the per-round series and its quartiles kept
//! beside each.

use crate::json::Json;
use crate::stats::{median, quantile, quartiles, sorted};
use crate::workload::{Round, Workload};

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

/// An end-to-end metric: what a user of the system sees. Every workload
/// reports every one of these from its untraced rounds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// `BENCHMARK.json`'s bound, the gate: the share of the parent's
    /// median by which the metric may get worse before a change is
    /// rejected outright. Sized to this host's run-to-run spread (see the
    /// README's "Steadiness"), so it is coarse.
    pub bound: f64,
    /// The bound `--compare` judges a pair by — the issue's 5 / 5 / 10 %.
    /// Finer than the gate; a pair whose own rounds spread wider than this
    /// comes out `unresolved`, not `ok`.
    pub compare_bound: f64,
}

const fn end_to_end_metric(
    name: &'static str,
    unit: &'static str,
    better: Better,
    compare_bound: f64,
) -> EndToEnd {
    EndToEnd { name, unit, better, bound: 0.25, compare_bound }
}

/// The end-to-end metrics, in reporting order.
pub const END_TO_END: [EndToEnd; 5] = [
    end_to_end_metric("goodput_per_s", "1/s", Better::Higher, 0.05),
    end_to_end_metric("latency_p50_ms", "ms", Better::Lower, 0.05),
    end_to_end_metric("latency_tail_ms", "ms", Better::Lower, 0.10),
    end_to_end_metric("rss_peak_mb", "MB", Better::Lower, 0.10),
    end_to_end_metric("setup_s", "s", Better::Lower, 0.10),
];

/// A per-layer metric: one layer measured from outside in the traced run.
/// *Exact* ones are counts that must repeat bit for bit for a given seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerLayer {
    /// Metric name, `layer.metric`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Whether the value is a count that repeats exactly for a seed.
    pub exact: bool,
}

const fn timed(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better, exact: false }
}

const fn exact(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better, exact: true }
}

use Better::{Higher, Lower};

/// The per-layer metrics, in reporting order (the README's glossary says
/// what each measures and which end-to-end metric it should move).
pub const PER_LAYER: [PerLayer; 58] = [
    timed("data.gen_ms_per_sample", "ms", Lower),
    timed("snn.forward_ms", "ms", Lower),
    timed("snn.infer_forward_ms", "ms", Lower),
    exact("snn.macs_per_op", "count", Lower),
    exact("snn.spike_density_mean", "ratio", Lower),
    exact("snn.layers_sparse_share", "ratio", Higher),
    timed("autograd.backward_ms", "ms", Lower),
    timed("autograd.optim_ms", "ms", Lower),
    exact("autograd.nodes_per_step", "count", Lower),
    timed("core.tt_forward_ms", "ms", Lower),
    timed("core.dense_equiv_forward_ms", "ms", Lower),
    timed("core.tt_step_speedup_vs_dense", "x", Higher),
    timed("core.merge_ms", "ms", Lower),
    exact("core.params_compression_x", "x", Higher),
    exact("core.macs_compression_x", "x", Higher),
    timed("tensor.conv_fwd_gflops", "GFLOP/s", Higher),
    timed("tensor.conv_bwd_input_gflops", "GFLOP/s", Higher),
    timed("tensor.conv_bwd_weight_gflops", "GFLOP/s", Higher),
    timed("tensor.gemm_gflops", "GFLOP/s", Higher),
    timed("tensor.qconv_gops", "GOP/s", Higher),
    timed("tensor.sparse_conv_speedup_vs_dense", "x", Higher),
    timed("tensor.sparse_qconv_speedup_vs_dense", "x", Higher),
    timed("tensor.pack_us", "us", Lower),
    timed("tensor.pool_region_us", "us", Lower),
    exact("tensor.arena_depth_growth_per_op_f32", "count", Lower),
    exact("tensor.arena_depth_growth_per_op_int8", "count", Lower),
    exact("tensor.bytes_moved_per_op", "bytes", Lower),
    timed("infer.plan_load_ms", "ms", Lower),
    timed("infer.quantize_ms", "ms", Lower),
    timed("infer.inproc_latency_p50_ms", "ms", Lower),
    timed("infer.sched_overhead_ms", "ms", Lower),
    timed("infer.mean_batch_size_shallow", "count", Higher),
    timed("infer.batches_per_s_shallow", "1/s", Higher),
    timed("infer.server_latency_mean_ms_shallow", "ms", Lower),
    timed("infer.mean_batch_size_deep", "count", Higher),
    timed("infer.batches_per_s_deep", "1/s", Higher),
    timed("infer.server_latency_mean_ms_deep", "ms", Lower),
    exact("infer.stream_executed_share", "ratio", Lower),
    exact("infer.stream_macs_skipped_share", "ratio", Higher),
    exact("infer.stream_state_bytes_peak", "bytes", Lower),
    timed("infer.stream_open_close_us", "us", Lower),
    exact("infer.failed", "count", Lower),
    exact("infer.expired", "count", Lower),
    exact("infer.rejected", "count", Lower),
    timed("serve.encode_request_us", "us", Lower),
    timed("serve.decode_request_us", "us", Lower),
    timed("serve.encode_response_us", "us", Lower),
    timed("serve.decode_response_us", "us", Lower),
    exact("serve.request_bytes", "bytes", Lower),
    exact("serve.response_bytes", "bytes", Lower),
    timed("serve.connect_ms", "ms", Lower),
    timed("serve.tcp_overhead_p50_ms", "ms", Lower),
    timed("obs.trace_overhead_pct", "%", Lower),
    exact("accel.modeled_energy_nj_per_op", "nJ", Lower),
    timed("bench.trace_overhead_pct", "%", Lower),
    timed("bench.mem_growth_kb_per_op", "KB", Lower),
    timed("bench.ops_per_round", "count", Higher),
    timed("bench.failed_share", "ratio", Lower),
];

/// One reported number with the per-round series behind it.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// The reported value.
    pub value: f64,
    /// One value per round (empty for a single reading).
    pub series: Vec<f64>,
}

impl Metric {
    /// A metric read once.
    pub fn single(name: &'static str, unit: &'static str, value: f64) -> Self {
        Metric { name, unit, value, series: Vec::new() }
    }

    /// A metric whose value is the median over rounds.
    pub fn over_rounds(name: &'static str, unit: &'static str, series: Vec<f64>) -> Self {
        Metric { name, unit, value: median(&series), series }
    }

    /// A metric whose value is picked from the rounds by another rule,
    /// with the per-round series kept for its spread.
    pub fn picked(name: &'static str, unit: &'static str, value: f64, series: Vec<f64>) -> Self {
        Metric { name, unit, value, series }
    }

    /// The record form: value, unit, quartiles and the series.
    pub fn to_json(&self) -> Json {
        let (q1, q3) =
            if self.series.is_empty() { (self.value, self.value) } else { quartiles(&self.series) };
        Json::obj([
            ("value", Json::Num(self.value)),
            ("unit", Json::str(self.unit)),
            ("q1", Json::Num(q1)),
            ("q3", Json::Num(q3)),
            ("rounds", Json::nums(&self.series)),
        ])
    }
}

/// The percentile reported as `latency_tail_ms`: the highest with at
/// least ten samples beyond it in the operations it is taken over (the
/// better half of a run's rounds). Those are over five thousand on a
/// serving workload, so p99; about a hundred steps on training, so p90.
pub fn tail_quantile(workload: Workload) -> f64 {
    match workload {
        Workload::TrainHttEvents => 0.90,
        _ => 0.99,
    }
}

/// The end-to-end metrics of an untraced run. `one_off_s` holds one
/// timing per repetition of the one-off preparation.
///
/// The three timing metrics come from the run's **least-disturbed**
/// rounds — the ones with the highest goodput — not from the median
/// round. On the shared 2-vCPU hosts this runs on, a vCPU drops to as
/// little as 0.55 of its speed for seconds to minutes at a time without
/// losing any time slice (a neighbour on the sibling hyperthread); that
/// only ever slows a round, and a 25 s run sits half inside such a spell
/// as often as not. So goodput and p50 are the best round's, and the
/// tail — which needs more samples than one round has — is taken over
/// the operations of the better half of the rounds. Across ten runs in
/// a noisy hour that halves the spread the median round gives (README,
/// "Steadiness"); in a quiet hour the two agree to a percent or two.
/// Every round's value stays in the record, with its quartiles.
pub fn end_to_end(
    workload: Workload,
    one_off_s: &[f64],
    rounds: &[Round],
    rss_peak_kb: Option<f64>,
) -> Vec<Metric> {
    let per_round = |f: &dyn Fn(&Round) -> f64| rounds.iter().map(f).collect::<Vec<f64>>();
    let goodput = |r: &Round| r.tally.good as f64 / r.window_s;
    let quantile_of = |r: &Round, q: f64| quantile(&sorted(r.tally.lat_ms.clone()), q);
    let tail_q = tail_quantile(workload);

    let mut ranked: Vec<&Round> = rounds.iter().collect();
    ranked.sort_by(|a, b| goodput(b).total_cmp(&goodput(a)));
    let best = ranked[0];
    let better_half: Vec<f64> = ranked[..rounds.len().div_ceil(2)]
        .iter()
        .flat_map(|r| r.tally.lat_ms.iter().copied())
        .collect();

    let one_off = median(one_off_s);
    let mut metrics = vec![
        Metric::picked("goodput_per_s", "1/s", goodput(best), per_round(&goodput)),
        Metric::picked(
            "latency_p50_ms",
            "ms",
            quantile_of(best, 0.5),
            per_round(&|r| quantile_of(r, 0.5)),
        ),
        Metric::picked(
            "latency_tail_ms",
            "ms",
            quantile(&sorted(better_half), tail_q),
            per_round(&|r| quantile_of(r, tail_q)),
        ),
    ];
    if let Some(kb) = rss_peak_kb {
        metrics.push(Metric::single("rss_peak_mb", "MB", kb / 1024.0));
    }
    metrics.push(Metric::over_rounds("setup_s", "s", per_round(&|r| one_off + r.prep_s)));
    metrics
}

/// Prints one `workload metric value unit` line per metric.
pub fn print_lines(workload: &str, metrics: &[Metric]) {
    for m in metrics {
        println!("{workload} {} {} {}", m.name, m.value, m.unit);
    }
}

/// The `metrics` object of the result line: `{name: {value, unit}}`.
pub fn result_metrics(metrics: &[Metric]) -> Json {
    Json::obj(
        metrics.iter().map(|m| {
            (m.name, Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]))
        }),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Tally;

    fn round(good: u64, window_s: f64, lat_ms: Vec<f64>, prep_s: f64) -> Round {
        let attempted = lat_ms.len() as u64;
        Round {
            prep_s,
            window_s,
            tally: Tally { lat_ms, good, attempted, failed: 0 },
            ..Round::default()
        }
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> =
            END_TO_END.iter().map(|m| m.name).chain(PER_LAYER.iter().map(|m| m.name)).collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a metric name is used twice");
        for n in names {
            assert!(
                n.len() <= 64 && n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            );
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END.iter().all(|m| m.compare_bound > 0.0 && m.compare_bound <= m.bound));
        assert!(END_TO_END.iter().any(|m| m.name == "setup_s" && m.unit == "s"));
    }

    #[test]
    fn timings_come_from_the_least_disturbed_rounds() {
        let rounds = vec![
            round(100, 1.0, vec![1.0, 2.0, 3.0], 0.5),
            round(300, 1.0, vec![2.0, 4.0, 6.0], 0.3),
            round(200, 2.0, vec![3.0, 3.0, 9.0], 0.4),
        ];
        let m = end_to_end(Workload::ServeTcpF32, &[1.0, 3.0, 2.0], &rounds, Some(2048.0));
        let get = |name: &str| m.iter().find(|x| x.name == name).unwrap();
        // The best round is the second: 300 /s, p50 4.
        assert_eq!(get("goodput_per_s").value, 300.0);
        assert_eq!(get("goodput_per_s").series, vec![100.0, 300.0, 100.0]);
        assert_eq!(get("latency_p50_ms").value, 4.0);
        assert_eq!(get("latency_p50_ms").series, vec![2.0, 4.0, 3.0]);
        // The tail pools the better half: the second round and one of the
        // tied others (the first, by order), never the third's 9.
        assert_eq!(get("latency_tail_ms").value, 6.0);
        assert_eq!(get("latency_tail_ms").series, vec![3.0, 6.0, 9.0]);
        assert_eq!(get("rss_peak_mb").value, 2.0);
        assert_eq!(get("setup_s").value, 2.4); // median one-off 2.0 + median prep 0.4
        assert_eq!(m.len(), END_TO_END.len());

        // Off Linux there is no memory reading and no memory metric.
        let t = end_to_end(Workload::TrainHttEvents, &[0.0], &rounds, None);
        assert!(t.iter().all(|x| x.name != "rss_peak_mb"));
    }
}
