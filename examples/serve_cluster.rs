//! Serving-cluster tour: freeze one plan across N executor replicas, then
//! exercise everything the scheduler offers — priority classes, deadlines,
//! cancellation by dropping a ticket, backpressure, and the live metrics
//! snapshot — while the replica count stays invisible in the outputs.
//!
//! ```sh
//! TTSNN_NUM_REPLICAS=3 cargo run --release --example serve_cluster
//! ```

use std::time::Duration;

use tt_snn::core::TtMode;
use tt_snn::infer::{
    ArchSpec, BatchPolicy, Cluster, ClusterConfig, EngineConfig, Priority, SubmitOptions,
};
use tt_snn::snn::{checkpoint, ConvPolicy, SpikingModel, VggConfig, VggSnn};
use tt_snn::tensor::{Rng, Tensor};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = Rng::seed_from(7);
    let timesteps = 2usize;

    // One checkpoint is the whole hand-off from the training side.
    let cfg = VggConfig::vgg9(3, 4, (8, 8), 16);
    let policy = ConvPolicy::tt(TtMode::Ptt);
    let model = VggSnn::new(cfg.clone(), &policy, &mut rng);
    let mut ckpt = Vec::new();
    checkpoint::save_params(&model.params(), &mut ckpt)?;

    // Freeze the plan once; replicas come from TTSNN_NUM_REPLICAS (default:
    // available_parallelism). Weights are loaded once and Arc-shared — a
    // 10-replica cluster holds ONE copy of the checkpoint in memory.
    let cluster = Cluster::load(
        ClusterConfig::new(
            EngineConfig::new(ArchSpec::Vgg(cfg), policy, timesteps)
                .merged()
                .with_batching(BatchPolicy { max_batch: 4, max_wait: Duration::from_millis(5) }),
        )
        .with_queue_capacity(64),
        ckpt.as_slice(),
    )?;
    println!(
        "serving {} on {} replica(s), {} params loaded once",
        cluster.info().model,
        cluster.replicas(),
        cluster.info().num_params
    );

    let session = cluster.session();
    let inputs: Vec<Tensor> =
        (0..10).map(|_| Tensor::rand_uniform(&[3, 8, 8], 0.0, 1.0, &mut rng)).collect();

    // Mixed traffic: interactive requests jump the queue, bulk requests
    // yield, one request carries a deadline, and two get cancelled by
    // dropping their tickets before waiting.
    let mut tickets = Vec::new();
    for (i, x) in inputs.iter().enumerate() {
        let opts = match i % 3 {
            0 => SubmitOptions::priority(Priority::High),
            1 => SubmitOptions::default().with_deadline(Duration::from_secs(5)),
            _ => SubmitOptions::priority(Priority::Low),
        };
        let ticket = session.submit_with(x.clone(), opts)?;
        if i == 4 || i == 7 {
            // Cancellation: drop the ticket. If the request is still
            // queued when a replica would pick it up, it is reaped without
            // consuming executor time (watch the metrics below).
            drop(ticket);
        } else {
            tickets.push((i, ticket));
        }
    }
    let mut answers = Vec::new();
    for (i, ticket) in tickets {
        answers.push((i, ticket.wait()?));
    }
    for (i, logits) in &answers {
        println!("request {i}: class {}", logits.argmax());
    }

    // Replica-determinism check: a 1-replica cluster on the same checkpoint
    // produces bit-identical logits for every surviving request.
    let solo = Cluster::load(
        ClusterConfig::new(
            EngineConfig::new(
                ArchSpec::Vgg(VggConfig::vgg9(3, 4, (8, 8), 16)),
                ConvPolicy::tt(TtMode::Ptt),
                timesteps,
            )
            .merged()
            .with_batching(BatchPolicy { max_batch: 1, max_wait: Duration::ZERO }),
        )
        .with_replicas(1),
        ckpt.as_slice(),
    )?;
    let solo_session = solo.session();
    for (i, logits) in &answers {
        assert_eq!(
            &solo_session.infer(inputs[*i].clone())?,
            logits,
            "replica count must not change outputs"
        );
    }
    println!("verified: {}-replica and 1-replica serving agree bit-for-bit", cluster.replicas());

    // Live metrics: everything the burst did is observable.
    let m = cluster.metrics();
    let t = m.totals();
    println!(
        "metrics: {} submitted / {} served / {} cancelled, {} batches \
         (mean size {:.2}), p99 latency <= {:.1} ms",
        t.submitted,
        t.served,
        t.cancelled,
        m.batches_executed,
        m.batch_sizes.mean(),
        m.latency.quantile(0.99) * 1e3,
    );
    Ok(())
}
