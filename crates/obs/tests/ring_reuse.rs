//! Event rings are reused across threads, not kept one per thread that
//! ever recorded: a process that retires threads (a server reloading
//! plans, a benchmark starting fresh servers) holds as many rings as it
//! has threads recording at once. One test, so the process's ring count
//! is this test's alone.

use ttsnn_obs::{record_stage_span, Stage::Execute};

#[test]
fn dead_threads_rings_are_reused_and_stay_readable() {
    ttsnn_obs::set_enabled(true);
    let mut traces = Vec::new();
    for i in 0..200u64 {
        let trace = ttsnn_obs::next_trace_id();
        traces.push(trace);
        std::thread::spawn(move || record_stage_span(trace, Execute, i, 1, i, 0)).join().unwrap();
    }
    // One ring serves all 200 threads in turn (a second only if a thread's
    // exit had not yet returned its ring when the next one started —
    // `join` returns before the thread-local destructors are guaranteed
    // to have run on every platform).
    assert!(ttsnn_obs::ring_count() <= 2, "{} rings for 200 threads", ttsnn_obs::ring_count());
    // Every one of those threads is gone; their spans are not (200 events
    // are far below a ring's capacity, so none was overwritten).
    const { assert!(ttsnn_obs::RING_CAPACITY >= 200) };
    for (i, &trace) in traces.iter().enumerate() {
        let events = ttsnn_obs::trace_events(trace);
        assert_eq!(events.len(), 1, "thread {i}'s span must outlive the thread");
        assert_eq!((events[0].name, events[0].a), ("execute", i as u64));
    }
    // A thread that records while another still holds a lease gets a ring
    // of its own: reuse never shares a ring between two live threads.
    let before = ttsnn_obs::ring_count();
    let held = ttsnn_obs::next_trace_id();
    record_stage_span(held, Execute, 0, 1, 0, 0);
    let all_recorded = std::sync::Barrier::new(3);
    std::thread::scope(|scope| {
        for _ in 0..3 {
            scope.spawn(|| {
                record_stage_span(ttsnn_obs::next_trace_id(), Execute, 0, 1, 0, 0);
                all_recorded.wait();
            });
        }
    });
    assert!(ttsnn_obs::ring_count() >= 4.max(before), "four live recorders hold four rings");
}
