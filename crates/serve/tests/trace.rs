//! Request-lifecycle tracing acceptance: a request served over a real
//! socket yields a retrievable trace whose stage spans add up, and two
//! closed-loop clients close their batches accounted. The flood of
//! rejections that must never grow unbounded state runs in a process of
//! its own (`trace_rejections.rs`): it cycles the flight recorder, which
//! would evict the completion the served-request test looks for.
//!
//! These tests share one process-wide `ttsnn_obs` runtime (rings, stage
//! histograms, flight recorder) — every assertion is therefore written
//! against per-trace or bounded-by-construction state, never against
//! global counts another test could bump.

use std::time::{Duration, Instant};

use ttsnn_core::TtMode;
use ttsnn_infer::{ClusterConfig, Priority};
use ttsnn_obs::timeseries::TelemetryConfig;
use ttsnn_serve::wire::{Request, Status};
use ttsnn_serve::{http_get, Client, PlanSpec, Router, Server, ServerConfig, TelemetryOptions};
use ttsnn_snn::ConvPolicy;
use ttsnn_testutil::{samples, vgg_checkpoint, vgg_cluster_config};

const T: usize = 2;

fn policy() -> ConvPolicy {
    ConvPolicy::tt(TtMode::Ptt)
}

fn cluster_config(max_batch: usize) -> ClusterConfig {
    vgg_cluster_config(policy(), T, 1, max_batch, Duration::from_millis(1))
}

fn request(plan: &str, tenant: u32, input: ttsnn_tensor::Tensor) -> Request {
    Request {
        trace: 0,
        tenant,
        priority: Priority::Normal,
        deadline_ms: 0,
        plan: plan.into(),
        input,
    }
}

/// The telemetry sampler at a hot 25 ms × 256 tick: tracing and sampling
/// run side by side in every test here.
fn fast_telemetry() -> TelemetryOptions {
    TelemetryOptions {
        timeseries: TelemetryConfig { resolution: Duration::from_millis(25), slots: 256 },
        ..Default::default()
    }
}

/// Extracts the `dur` (microseconds) of every span named `name` from a
/// Chrome trace-event JSON export. Good enough for the hand-built JSON
/// `ttsnn_obs::chrome_trace_json` emits: in a span event `"dur":` always
/// follows its `"name":` before the next event starts.
fn span_durs_us(json: &str, name: &str) -> Vec<f64> {
    let needle = format!("\"name\":\"{name}\"");
    let mut out = Vec::new();
    let mut rest = json;
    while let Some(i) = rest.find(&needle) {
        let seg = &rest[i + needle.len()..];
        if let Some(d) = seg.find("\"dur\":") {
            let tail = &seg[d + 6..];
            let end = tail
                .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | 'e' | 'E' | '-' | '+')))
                .unwrap_or(tail.len());
            if let Ok(v) = tail[..end].parse::<f64>() {
                out.push(v);
            }
        }
        rest = seg;
    }
    out
}

/// The tentpole acceptance path: serve one request over the socket, pull
/// its trace back out over HTTP, and check the stage spans are all there
/// and sum to no more than the observed end-to-end latency.
#[test]
fn served_request_yields_a_retrievable_trace() {
    assert!(ttsnn_obs::enabled(), "tracing defaults to on in this suite");
    let (ckpt, _) = vgg_checkpoint(&policy(), 91);
    let input = samples(92, 1).remove(0);
    let router = Router::load(vec![PlanSpec {
        name: "vgg".into(),
        config: cluster_config(2),
        quant: None,
        checkpoint: ckpt,
    }])
    .unwrap();
    let server = Server::bind(
        ServerConfig { workers: 2, telemetry: fast_telemetry(), ..Default::default() },
        router,
    )
    .unwrap();
    let addr = server.addr();

    let mut client = Client::connect(addr).unwrap();
    let t0 = Instant::now();
    let resp = client.request(&request("vgg", 3, input)).unwrap();
    let e2e_us = t0.elapsed().as_secs_f64() * 1e6;
    assert_eq!(resp.status, Status::Ok, "{}", resp.message);
    assert_ne!(resp.trace, 0, "the server mints a trace id and echoes it");

    let (code, json) = http_get(addr, &format!("/trace?id={}", resp.trace)).unwrap();
    assert_eq!(code, 200, "trace export: {json}");
    assert!(json.contains(&format!("\"trace_id\":\"{}\"", resp.trace)));

    // The lifecycle spans recorded before the reply hit the wire.
    for span in ["admit", "queue_wait", "batch_form", "execute", "serialize"] {
        assert!(json.contains(&format!("\"name\":\"{span}\"")), "trace missing {span}:\n{json}");
    }
    // A whole-sequence request is one layer-major call into the model: one
    // `forward` child over all of the plan's timesteps, no per-timestep spans.
    let forwards = span_durs_us(&json, "forward");
    assert_eq!(forwards.len(), 1, "execute must carry one forward child:\n{json}");
    assert!(json.contains(&format!("\"steps\":{T},\"macs\":")), "forward payload:\n{json}");
    assert!(!json.contains("\"name\":\"timestep\""), "a timestep loop is back:\n{json}");
    let execute: f64 = span_durs_us(&json, "execute").iter().sum();
    assert!(forwards[0] <= execute, "forward ({}us) outlasts execute ({execute}us)", forwards[0]);
    // Kernel regions surface under execute via the runtime-pool hooks.
    assert!(
        json.contains("\"name\":\"conv2d\"") || json.contains("\"name\":\"gemm\""),
        "kernel regions missing from the trace:\n{json}"
    );

    // Stage attribution is consistent: the stages are disjoint slices of
    // the request's life, so their durations sum to at most the
    // client-observed end-to-end latency.
    let staged: f64 = ["queue_wait", "execute", "serialize"]
        .iter()
        .map(|s| span_durs_us(&json, s).iter().sum::<f64>())
        .sum();
    assert!(staged > 0.0, "stages carry real durations");
    assert!(
        staged <= e2e_us,
        "stage durations ({staged:.1}us) exceed end-to-end latency ({e2e_us:.1}us)"
    );

    // A bogus id is a 404, not an empty export.
    let (code, _) = http_get(addr, "/trace?id=0").unwrap();
    assert_eq!(code, 404);
    let (code, _) = http_get(addr, "/trace?id=18446744073709551615").unwrap();
    assert_eq!(code, 404);

    // The completion is browsable in the flight recorder.
    let (code, text) = http_get(addr, "/debug/requests").unwrap();
    assert_eq!(code, 200);
    assert!(
        text.contains(&format!("trace={} tenant=3 status=served", resp.trace)),
        "flight recorder missing the served request:\n{text}"
    );
}

/// The batch-close rule, seen from outside: two closed-loop clients can
/// never fill a batch of 8, and once the scheduler has seen that there are
/// two of them it stops waiting for a third — `batch_form` is a small
/// fraction of `max_wait` and the span says the batch closed `accounted`.
/// The window is long enough that waiting it out even once per request
/// would fail the test by arithmetic, not by luck.
#[test]
fn two_closed_loop_clients_close_their_batches_accounted() {
    if !ttsnn_obs::enabled() {
        return; // nothing to read back
    }
    const MAX_WAIT: Duration = Duration::from_millis(400);
    const REQUESTS: usize = 40;
    let (ckpt, _) = vgg_checkpoint(&policy(), 95);
    let input = samples(96, 1).remove(0);
    let router = Router::load(vec![PlanSpec {
        name: "vgg".into(),
        config: vgg_cluster_config(policy(), T, 1, 8, MAX_WAIT),
        quant: None,
        checkpoint: ckpt,
    }])
    .unwrap();
    // A worker per client connection and one for the trace fetches.
    let server = Server::bind(
        ServerConfig { workers: 3, telemetry: fast_telemetry(), ..Default::default() },
        router,
    )
    .unwrap();
    let addr = server.addr();

    // Each client reads its own trace back right after the reply, mid-run
    // (past the warm-up, both clients still calling): the replica's event
    // ring holds every kernel span of every request and wraps long before
    // the run ends.
    let started = Instant::now();
    let traces: Vec<String> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..2u32)
            .map(|tenant| {
                let input = input.clone();
                scope.spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    let mut traces = Vec::new();
                    for i in 0..REQUESTS {
                        let resp = client.request(&request("vgg", tenant, input.clone())).unwrap();
                        assert_eq!(resp.status, Status::Ok, "{}", resp.message);
                        if (REQUESTS / 4..REQUESTS / 2).contains(&i) {
                            let path = format!("/trace?id={}", resp.trace);
                            let (code, json) = http_get(addr, &path).unwrap();
                            assert_eq!(code, 200, "trace export: {json}");
                            traces.push(json);
                        }
                    }
                    traces
                })
            })
            .collect();
        clients.into_iter().flat_map(|c| c.join().unwrap()).collect()
    });
    // The cold first batch waits the window, and so may the slower
    // client's last requests once the other has left (twice at most).
    let budget = MAX_WAIT * 4;
    assert!(started.elapsed() < budget, "{REQUESTS} requests took {:?}", started.elapsed());

    assert_eq!(traces.len(), 2 * (REQUESTS / 4));
    for json in &traces {
        let form = span_durs_us(json, "batch_form");
        assert_eq!(form.len(), 1, "one batch_form span per request:\n{json}");
        assert!(
            form[0] < MAX_WAIT.as_secs_f64() * 1e6 / 10.0,
            "batch_form {}us is not << max_wait {MAX_WAIT:?}:\n{json}",
            form[0]
        );
        assert!(json.contains("\"closed\":\"accounted\""), "close reason:\n{json}");
    }
}
