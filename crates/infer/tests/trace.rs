//! An in-process request is traced as a wire request and a stream chunk
//! are: while tracing is on, admission mints it a trace id, and its
//! lifecycle stages and kernel regions come back from
//! `ttsnn_obs::trace_events`; while tracing is off, no id is minted.
//! Tracing never moves a logit: the traced and the untraced reply to one
//! input are equal bit for bit. One test, so the process's trace ids and
//! tracing gate are its alone.

use std::time::Duration;

use ttsnn_infer::Cluster;
use ttsnn_obs::Stage::{BatchForm, Execute, QueueWait};
use ttsnn_snn::ConvPolicy;
use ttsnn_tensor::Tensor;
use ttsnn_testutil::{samples, vgg_checkpoint, vgg_cluster_config};

const T: usize = 2;

#[test]
fn in_process_requests_are_traced_while_tracing_is_on() {
    let (ckpt, _) = vgg_checkpoint(&ConvPolicy::Baseline, 31);
    let config = vgg_cluster_config(ConvPolicy::Baseline, T, 1, 1, Duration::ZERO);
    let cluster = Cluster::load(config, ckpt.as_slice()).unwrap();
    let session = cluster.session();
    let x = samples(31, 1).remove(0);

    // On: the request takes the next id, and its spans are recorded
    // before its reply is sent.
    ttsnn_obs::set_enabled(true);
    let trace = ttsnn_obs::next_trace_id() + 1;
    let traced = session.infer(x.clone()).unwrap();
    assert_eq!(ttsnn_obs::next_trace_id(), trace + 1, "one id minted for the request");
    let names: Vec<&str> = ttsnn_obs::trace_events(trace).iter().map(|e| e.name).collect();
    for stage in [QueueWait, BatchForm, Execute] {
        assert!(names.contains(&stage.name()), "no {} span in {names:?}", stage.name());
    }
    assert!(names.contains(&"forward"), "no kernel regions in {names:?}");

    // Off: nothing is minted, so nothing is recorded.
    ttsnn_obs::set_enabled(false);
    let before = ttsnn_obs::next_trace_id();
    let untraced = session.infer(x).unwrap();
    assert_eq!(ttsnn_obs::next_trace_id(), before + 1, "an id minted with tracing off");
    let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&traced), bits(&untraced), "tracing moved a logit");
}
