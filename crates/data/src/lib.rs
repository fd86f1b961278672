//! # ttsnn-data
//!
//! Synthetic dataset generators standing in for the paper's benchmarks.
//!
//! The paper evaluates on CIFAR10/100 (static images), N-Caltech101
//! (event-camera saccades over static scenes) and DVS128 Gesture (true
//! motion). Real downloads are unavailable in this environment, so this
//! crate generates **synthetic datasets with the same tensor layout and —
//! crucially — the same temporal statistics**:
//!
//! * [`StaticImages`] — CIFAR-like: class-conditional spatial patterns +
//!   noise, `(C, H, W)` floats in `[0, 1]`. Under direct coding the same
//!   frame repeats at every timestep, so information is concentrated in
//!   early timesteps — the regime where the paper finds HTT works well.
//! * [`EventStream`] — N-Caltech101-like: each timestep is a *distinct*
//!   2-polarity event frame produced by a simulated saccade over the class
//!   pattern, so later timesteps carry novel information — the regime where
//!   the paper finds HTT loses accuracy.
//! * [`GestureStream`] — DVS-Gesture-like: classes are motion patterns
//!   (direction/speed of a moving blob), only decodable from the temporal
//!   sequence.
//!
//! Batching ([`Batch`], [`Dataset::batches`]) produces per-timestep NCHW
//! tensors ready for the BPTT trainer in `ttsnn-snn`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod batch;
mod events;
mod synth;

pub use batch::{stack_frames, Batch, Dataset, Sample};
pub use events::{EventStream, GestureStream};
pub use synth::StaticImages;
