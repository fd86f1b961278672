//! Streaming-session tour: pin a stateful session to a serving cluster,
//! feed a live event stream chunk by chunk, read any-time answers, and
//! let a spike-count-margin early exit stop integrating once the answer
//! is confident — then verify the chunked stream reproduced a
//! whole-stream request bit for bit.
//!
//! ```sh
//! cargo run --release --example serve_stream
//! ```

use std::time::Duration;

use tt_snn::core::TtMode;
use tt_snn::data::{stack_frames, GestureStream};
use tt_snn::infer::{
    ArchSpec, BatchPolicy, Cluster, ClusterConfig, EarlyExit, EngineConfig, StreamOptions,
};
use tt_snn::snn::{checkpoint, ConvPolicy, SpikingModel, VggConfig, VggSnn};
use tt_snn::tensor::Rng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = Rng::seed_from(7);
    let timesteps = 8usize;

    // Freeze one plan; streaming rides the same checkpoint hand-off as
    // batch serving.
    let cfg = VggConfig::vgg9(2, 4, (16, 16), 16);
    let policy = ConvPolicy::tt(TtMode::Ptt);
    let model = VggSnn::new(cfg.clone(), &policy, &mut rng);
    let mut ckpt = Vec::new();
    checkpoint::save_params(&model.params(), &mut ckpt)?;
    // Resident session state is bounded per replica: past 1 MiB the
    // least-recently-fed idle session is evicted.
    let bound = 1usize << 20;
    let cluster = Cluster::load(
        ClusterConfig::new(
            EngineConfig::new(ArchSpec::Vgg(cfg), policy, timesteps)
                .with_batching(BatchPolicy { max_batch: 4, max_wait: Duration::from_millis(2) }),
        )
        .with_replicas(2)
        .with_stream_state_bytes(Some(bound)),
        ckpt.as_slice(),
    )?;
    println!(
        "serving {} on {} replica(s); resident stream state bound: {bound} bytes per replica\n",
        cluster.info().model,
        cluster.replicas(),
    );

    // A live client: the synthetic DVS gesture stream, produced (and
    // resumable) in timestep slices — here 2 frames at a time, as an
    // event camera would deliver them.
    let dvs = GestureStream::dvs_gesture_like(16, 16, 4, timesteps);
    let session = cluster.session();
    let stream = session.open_stream(StreamOptions::default())?;
    println!("stream {} pinned to replica {}", stream.id(), stream.replica());
    let mut chunks = Vec::new();
    for t0 in (0..timesteps).step_by(2) {
        chunks.push(stack_frames(&dvs.slice(1, 99, t0, t0 + 2))?);
    }
    let mut chunked_final = None;
    for chunk in &chunks {
        // Each update is an any-time answer: cumulative logits over every
        // timestep so far — usable before the stream ends.
        let update = stream.push(chunk.clone())?;
        println!(
            "  t={}: class {} (margin {:.3}, {} MACs)",
            update.timesteps,
            update.logits.argmax(),
            margin(update.logits.data()),
            update.macs_executed,
        );
        chunked_final = Some(update);
    }

    // The headline guarantee: the chunked stream equals the whole-stream
    // request, bit for bit.
    let whole_frames = dvs.slice(1, 99, 0, timesteps);
    let whole = session.infer(stack_frames(&whole_frames)?)?;
    assert_eq!(chunked_final.unwrap().logits, whole, "chunked == whole, bit for bit");
    println!("\nverified: chunked streaming equals the whole-stream request bit-for-bit");

    // Early exit: stop integrating once the cumulative margin clears a
    // threshold — the skipped timesteps are banked MAC savings.
    let confident = session
        .open_stream(StreamOptions::early_exit(EarlyExit::margin(0.5).with_min_timesteps(2)))?;
    let mut last = None;
    for chunk in &chunks {
        last = Some(confident.push(chunk.clone())?);
    }
    let last = last.unwrap();
    match last.exited_at {
        Some(t) => println!(
            "early exit at t={t}: executed {}/{} timesteps, saved {} of {} MACs",
            last.executed,
            timesteps,
            last.macs_skipped,
            last.macs_executed + last.macs_skipped,
        ),
        None => println!("no early exit: margin never reached the threshold"),
    }

    // Everything the sessions did is observable. (Chunk replies land a
    // hair before the replicas record their metrics — wait for the
    // ledger to balance.)
    while {
        let s = cluster.metrics().sessions;
        s.chunks_served < s.chunks_submitted
    } {
        std::thread::sleep(Duration::from_millis(1));
    }
    let s = cluster.metrics().sessions;
    println!(
        "session metrics: {} opened, {} chunks served, {} timesteps executed + {} skipped",
        s.opened, s.chunks_served, s.timesteps_executed, s.timesteps_skipped,
    );
    Ok(())
}

/// `top1 - top2` of a logit row.
fn margin(logits: &[f32]) -> f32 {
    let mut v = logits.to_vec();
    v.sort_by(|a, b| b.partial_cmp(a).unwrap());
    v[0] - v[1]
}
