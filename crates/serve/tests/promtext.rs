//! Prometheus text-exposition lint against a **live** `/metrics` scrape:
//! every family declares `# HELP` / `# TYPE` exactly once, every sample
//! belongs to a declared family, histogram `le` buckets are cumulative
//! and end in `+Inf`, and each histogram's `_count` equals its `+Inf`
//! bucket — including the process-level stage-latency families and the
//! telemetry plane's `ttsnn_slo_*` / `ttsnn_health_*` families, whose
//! label cardinality must stay bounded by plans × burn windows.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::time::Duration;

use ttsnn_core::TtMode;
use ttsnn_infer::Priority;
use ttsnn_obs::timeseries::TelemetryConfig;
use ttsnn_serve::wire::{Request, Status};
use ttsnn_serve::{http_get, Client, PlanSpec, Router, Server, ServerConfig, TelemetryOptions};
use ttsnn_snn::ConvPolicy;
use ttsnn_testutil::{samples, vgg_checkpoint, vgg_cluster_config};

/// Splits a sample line's series into `(metric name, labels)`.
fn parse_series(series: &str) -> (String, BTreeMap<String, String>) {
    let Some((name, rest)) = series.split_once('{') else {
        return (series.to_string(), BTreeMap::new());
    };
    let inner = rest.strip_suffix('}').expect("closing brace");
    let mut labels = BTreeMap::new();
    for pair in inner.split(',') {
        let (k, v) = pair.split_once('=').expect("label pair");
        let v = v.strip_prefix('"').and_then(|v| v.strip_suffix('"')).expect("quoted value");
        labels.insert(k.to_string(), v.to_string());
    }
    (name.to_string(), labels)
}

/// The family a sample belongs to: histogram samples drop their
/// `_bucket` / `_sum` / `_count` suffix when the base name is declared.
fn family_of(name: &str, declared: &HashSet<String>) -> Option<String> {
    if declared.contains(name) {
        return Some(name.to_string());
    }
    for suffix in ["_bucket", "_sum", "_count"] {
        if let Some(base) = name.strip_suffix(suffix) {
            if declared.contains(base) {
                return Some(base.to_string());
            }
        }
    }
    None
}

#[test]
fn live_metrics_scrape_passes_the_promtext_lint() {
    let (ckpt, _) = vgg_checkpoint(&ConvPolicy::tt(TtMode::Ptt), 81);
    let inputs = samples(82, 3);
    let router = Router::load(vec![PlanSpec {
        name: "vgg".into(),
        config: vgg_cluster_config(ConvPolicy::tt(TtMode::Ptt), 2, 1, 2, Duration::from_millis(1)),
        quant: None,
        checkpoint: ckpt,
    }])
    .unwrap();
    // A fast sampler tick so the telemetry families carry live data by
    // the time the page is linted.
    let telemetry = TelemetryOptions {
        timeseries: TelemetryConfig { resolution: Duration::from_millis(10), slots: 128 },
        ..Default::default()
    };
    let server =
        Server::bind(ServerConfig { workers: 2, telemetry, ..Default::default() }, router).unwrap();
    let addr = server.addr();
    let shared = server.telemetry();

    // Generate traffic so the latency, batch-size, and stage histograms
    // all carry observations.
    let mut client = Client::connect(addr).unwrap();
    for input in &inputs {
        let req = Request {
            trace: 0,
            tenant: 1,
            priority: Priority::Normal,
            deadline_ms: 0,
            plan: "vgg".into(),
            input: input.clone(),
        };
        let resp = client.request(&req).unwrap();
        assert_eq!(resp.status, Status::Ok, "{}", resp.message);
    }
    // Let the sampler observe the traffic (at least two ticks so the
    // burn windows have a counter baseline).
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    let first = shared.ticks();
    while shared.ticks() < first + 2 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }

    let (code, page) = http_get(addr, "/metrics").unwrap();
    assert_eq!(code, 200);

    // The families this PR added are on the page.
    for needle in [
        "# TYPE ttsnn_build_info gauge",
        "# TYPE ttsnn_uptime_seconds counter",
        "# TYPE ttsnn_stage_latency_seconds histogram",
        "ttsnn_build_info{version=\"",
        "ttsnn_stage_latency_seconds_count{stage=\"execute\"}",
        "ttsnn_stage_latency_seconds_count{stage=\"queue_wait\"}",
        "# TYPE ttsnn_health_state gauge",
        "# TYPE ttsnn_slo_burn_rate gauge",
        "# TYPE ttsnn_slo_availability gauge",
        "# TYPE ttsnn_slo_error_budget_remaining gauge",
        "# TYPE ttsnn_replica_heartbeat_age_seconds gauge",
        "# TYPE ttsnn_replica_arena_bytes gauge",
        "ttsnn_health_state{plan=\"vgg\"} 0",
    ] {
        assert!(page.contains(needle), "metrics page missing {needle:?}:\n{page}");
    }

    // The build-info series names the kernel lane set the process resolved.
    let lanes = ttsnn_tensor::runtime::lanes();
    let build: Vec<&str> = page.lines().filter(|l| l.starts_with("ttsnn_build_info{")).collect();
    assert_eq!(build.len(), 1, "{build:?}");
    assert!(build[0].contains(&format!("kernel_lanes=\"{lanes}\"")), "{build:?}");
    assert!(["avx2", "portable"].contains(&lanes), "{lanes}");

    // Telemetry-family cardinality is bounded by plans × windows: one
    // burn series per (plan, window), one health/availability/budget
    // series per plan, heartbeat series bounded by replicas.
    let series_with =
        |prefix: &str| -> Vec<&str> { page.lines().filter(|l| l.starts_with(prefix)).collect() };
    let burn = series_with("ttsnn_slo_burn_rate{");
    assert_eq!(burn.len(), 3, "1 plan x 3 windows:\n{burn:?}");
    for window in ["5m", "1h", "6h"] {
        assert!(
            burn.iter().any(|l| l.contains(&format!("window=\"{window}\""))),
            "missing window {window}: {burn:?}"
        );
    }
    assert!(burn.iter().all(|l| l.contains("plan=\"vgg\"")), "{burn:?}");
    assert_eq!(series_with("ttsnn_health_state{").len(), 1);
    assert_eq!(series_with("ttsnn_slo_availability{").len(), 1);
    assert_eq!(series_with("ttsnn_slo_error_budget_remaining{").len(), 1);
    assert!(series_with("ttsnn_replica_heartbeat_age_seconds{").len() <= 1, "1 replica mounted");
    // One arena gauge per (plan, replica); the replica has served and gone
    // back to the scheduler, so it has parked buffers to report.
    let arena = series_with("ttsnn_replica_arena_bytes{");
    assert_eq!(arena, series_with("ttsnn_replica_arena_bytes{plan=\"vgg\",replica=\"0\"}"));
    assert_eq!(arena.len(), 1, "1 plan x 1 replica:\n{arena:?}");
    let parked: f64 = arena[0].rsplit(' ').next().unwrap().parse().unwrap();
    assert!(parked > 0.0 && parked <= 64.0 * 1024.0 * 1024.0, "{arena:?}");

    // Pass 1: HELP/TYPE exactly once per family, HELP before TYPE.
    let mut help_count: HashMap<String, usize> = HashMap::new();
    let mut type_kind: HashMap<String, String> = HashMap::new();
    for line in page.lines() {
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let name = rest.split_whitespace().next().expect("HELP names a family");
            *help_count.entry(name.to_string()).or_insert(0) += 1;
        } else if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.split_whitespace();
            let name = it.next().expect("TYPE names a family");
            let kind = it.next().expect("TYPE carries a kind");
            assert!(help_count.contains_key(name), "# TYPE {name} appears before its # HELP");
            let prev = type_kind.insert(name.to_string(), kind.to_string());
            assert!(prev.is_none(), "duplicate # TYPE for {name}");
        }
    }
    for (name, n) in &help_count {
        assert_eq!(*n, 1, "family {name} declared HELP {n} times");
        assert!(type_kind.contains_key(name), "family {name} has HELP but no TYPE");
    }
    let declared: HashSet<String> = type_kind.keys().cloned().collect();

    // Pass 2: every sample belongs to a declared family; collect
    // histogram buckets and counts grouped by their non-`le` labels.
    type Group = (String, BTreeMap<String, String>);
    let mut buckets: HashMap<Group, Vec<(f64, f64)>> = HashMap::new();
    let mut counts: HashMap<Group, f64> = HashMap::new();
    for line in page.lines().filter(|l| !l.starts_with('#') && !l.is_empty()) {
        let (series, raw) = line.rsplit_once(' ').expect("sample line has a value");
        let v = if raw == "+Inf" { f64::INFINITY } else { raw.parse().expect("numeric value") };
        let (name, mut labels) = parse_series(series);
        let family = family_of(&name, &declared)
            .unwrap_or_else(|| panic!("sample {name} belongs to no declared family"));
        if type_kind[&family] != "histogram" {
            continue;
        }
        if name == format!("{family}_bucket") {
            let le = labels.remove("le").expect("bucket carries le");
            let le = if le == "+Inf" { f64::INFINITY } else { le.parse().expect("numeric le") };
            buckets.entry((family, labels)).or_default().push((le, v));
        } else if name == format!("{family}_count") {
            counts.insert((family, labels), v);
        }
    }

    // Pass 3: per group, `le` strictly increasing, counts cumulative
    // (non-decreasing), last bucket `+Inf`, `_count` == `+Inf` bucket.
    assert!(!buckets.is_empty(), "the scrape has histogram families");
    for (group, series) in &buckets {
        for pair in series.windows(2) {
            assert!(pair[0].0 < pair[1].0, "{group:?}: le edges not increasing");
            assert!(pair[0].1 <= pair[1].1, "{group:?}: bucket counts not cumulative");
        }
        let (last_le, last_count) = *series.last().unwrap();
        assert_eq!(last_le, f64::INFINITY, "{group:?}: buckets must end in +Inf");
        let count = counts
            .get(group)
            .unwrap_or_else(|| panic!("{group:?}: histogram without a _count sample"));
        assert_eq!(*count, last_count, "{group:?}: _count != +Inf bucket");
    }
    // The stage histograms carry the traffic we just generated.
    let execute = buckets
        .keys()
        .find(|(f, l)| {
            f == "ttsnn_stage_latency_seconds"
                && l.get("stage").map(String::as_str) == Some("execute")
        })
        .expect("stage histogram for execute");
    assert!(counts[execute] >= 1.0, "execute stage saw no observations");
}

/// The close-reason counter's label set is fixed: five `reason` values per
/// plan whatever the traffic, and — because a batch is recorded before its
/// replies are sent — a client holding every reply finds the reasons
/// summing to the batches executed.
#[test]
fn batch_close_counter_has_five_fixed_reasons_per_plan() {
    let (ckpt, _) = vgg_checkpoint(&ConvPolicy::tt(TtMode::Ptt), 83);
    let router = Router::load(vec![PlanSpec {
        name: "vgg".into(),
        config: vgg_cluster_config(ConvPolicy::tt(TtMode::Ptt), 2, 1, 2, Duration::from_millis(1)),
        quant: None,
        checkpoint: ckpt,
    }])
    .unwrap();
    let server = Server::bind(ServerConfig { workers: 2, ..Default::default() }, router).unwrap();
    let addr = server.addr();
    let mut client = Client::connect(addr).unwrap();
    for input in samples(84, 4) {
        let req = Request {
            trace: 0,
            tenant: 1,
            priority: Priority::Normal,
            deadline_ms: 0,
            plan: "vgg".into(),
            input,
        };
        let resp = client.request(&req).unwrap();
        assert_eq!(resp.status, Status::Ok, "{}", resp.message);
    }
    let (code, page) = http_get(addr, "/metrics").unwrap();
    assert_eq!(code, 200);
    assert!(page.contains("# TYPE ttsnn_batch_close_total counter"), "{page}");
    let value = |line: &str| -> f64 { line.rsplit(' ').next().unwrap().parse().unwrap() };
    let closes: Vec<&str> =
        page.lines().filter(|l| l.starts_with("ttsnn_batch_close_total{")).collect();
    let reasons: Vec<String> = closes
        .iter()
        .map(|l| parse_series(l.rsplit_once(' ').unwrap().0).1["reason"].clone())
        .collect();
    assert_eq!(reasons, ["full", "accounted", "window", "stream", "shutdown"], "{closes:?}");
    assert!(closes.iter().all(|l| l.contains("plan=\"vgg\"")), "{closes:?}");
    let executed = page
        .lines()
        .find(|l| l.starts_with("ttsnn_batches_executed_total{"))
        .map(value)
        .expect("batches executed");
    // One caller: four batches of one, the first closed by its window
    // (nothing known yet), the rest the moment their request was in.
    assert_eq!(executed, 4.0);
    assert_eq!(closes.iter().map(|l| value(l)).sum::<f64>(), executed, "{closes:?}");
    assert_eq!(closes.iter().map(|l| value(l)).collect::<Vec<_>>(), [0.0, 3.0, 1.0, 0.0, 0.0]);
}
