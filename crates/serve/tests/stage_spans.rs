//! The stage contract: every traced request served over the wire records
//! each lifecycle stage exactly once — one span named [`Stage::name`] in its
//! trace and one observation in that stage's latency histogram.
//!
//! The stage histograms are process-wide, so this file is its own test
//! binary and holds one test: nothing else in the process records a stage.

use std::time::{Duration, Instant};

use ttsnn_core::TtMode;
use ttsnn_infer::Priority;
use ttsnn_obs::Stage;
use ttsnn_serve::wire::{Request, Status};
use ttsnn_serve::{Client, PlanSpec, Router, Server, ServerConfig};
use ttsnn_snn::ConvPolicy;
use ttsnn_testutil::{samples, vgg_checkpoint, vgg_cluster_config};

const T: usize = 2;
const N: usize = 6;

fn stage_counts() -> Vec<u64> {
    ttsnn_obs::stage_snapshot().iter().map(|(_, h)| h.count()).collect()
}

#[test]
fn every_wire_request_records_each_stage_once() {
    assert!(ttsnn_obs::enabled(), "tracing defaults to on in this suite");
    let policy = ConvPolicy::tt(TtMode::Ptt);
    let (ckpt, _) = vgg_checkpoint(&policy, 31);
    let config = vgg_cluster_config(policy, T, 1, 2, Duration::from_millis(1));
    let router =
        Router::load(vec![PlanSpec { name: "vgg".into(), config, quant: None, checkpoint: ckpt }])
            .unwrap();
    let server = Server::bind(ServerConfig::default(), router).unwrap();
    let before = stage_counts();

    let mut client = Client::connect(server.addr()).unwrap();
    let traces: Vec<u64> = samples(32, N)
        .into_iter()
        .map(|input| {
            let request = Request {
                trace: 0,
                tenant: 1,
                priority: Priority::Normal,
                deadline_ms: 0,
                plan: "vgg".into(),
                input,
            };
            let resp = client.request(&request).unwrap();
            assert_eq!(resp.status, Status::Ok, "{}", resp.message);
            assert_ne!(resp.trace, 0, "the server mints a trace id");
            resp.trace
        })
        .collect();

    // `write` is recorded once the reply bytes are on the wire, so the
    // client can see its last reply a moment before the server records it.
    let deadline = Instant::now() + Duration::from_secs(10);
    let gained = loop {
        let gained: Vec<u64> = stage_counts().iter().zip(&before).map(|(a, b)| a - b).collect();
        if gained.iter().all(|&g| g >= N as u64) || Instant::now() > deadline {
            break gained;
        }
        std::thread::sleep(Duration::from_millis(5));
    };
    for (stage, g) in Stage::ALL.iter().zip(&gained) {
        assert_eq!(
            *g,
            N as u64,
            "{} histogram gained {g} observations for {N} requests",
            stage.name()
        );
    }

    for trace in traces {
        let events = ttsnn_obs::trace_events(trace);
        for stage in Stage::ALL {
            let spans = events.iter().filter(|e| e.name == stage.name()).count();
            assert_eq!(spans, 1, "trace {trace}: {spans} `{}` spans", stage.name());
        }
    }
}
