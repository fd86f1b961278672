//! Sample and batch containers shared by all dataset generators.

use ttsnn_tensor::{Rng, ShapeError, Tensor};

/// One labelled sample: a sequence of frames (one per timestep for dynamic
/// data; a single frame for static data, replicated by direct coding).
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Frames, each `(C, H, W)`. Static samples hold one frame.
    pub frames: Vec<Tensor>,
    /// Class label.
    pub label: usize,
}

impl Sample {
    /// Stacks the per-timestep frames into one `(T, C, H, W)` tensor — the
    /// explicit per-timestep input shape the serving layer accepts, both
    /// for whole-stream requests and for timestep chunks fed to a
    /// streaming session.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if the sample has no frames or the frames'
    /// shapes disagree.
    pub fn stacked(&self) -> Result<Tensor, ShapeError> {
        stack_frames(&self.frames)
    }
}

/// Stacks `(C, H, W)` frames into one `(T, C, H, W)` tensor (see
/// [`Sample::stacked`]).
///
/// # Errors
///
/// Returns [`ShapeError`] if `frames` is empty or the shapes disagree.
pub fn stack_frames(frames: &[Tensor]) -> Result<Tensor, ShapeError> {
    let first = frames
        .first()
        .ok_or_else(|| ShapeError::new("stack_frames: no frames to stack".to_string()))?;
    let mut shape = vec![frames.len()];
    shape.extend_from_slice(first.shape());
    let mut data = Vec::with_capacity(frames.len() * first.len());
    for f in frames {
        if f.shape() != first.shape() {
            return Err(ShapeError::new(format!(
                "stack_frames: frame shape {:?} differs from first frame {:?}",
                f.shape(),
                first.shape()
            )));
        }
        data.extend_from_slice(f.data());
    }
    Tensor::from_vec(data, &shape)
}

/// A mini-batch ready for BPTT training: per-timestep NCHW tensors plus
/// labels.
#[derive(Debug, Clone, PartialEq)]
pub struct Batch {
    /// One `(B, C, H, W)` tensor per timestep.
    pub frames: Vec<Tensor>,
    /// `B` class labels.
    pub labels: Vec<usize>,
}

impl Batch {
    /// Batch size.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Number of timesteps.
    pub fn timesteps(&self) -> usize {
        self.frames.len()
    }
}

/// A finite, in-memory dataset of [`Sample`]s with batching helpers.
///
/// ```
/// use ttsnn_data::{StaticImages, Dataset};
/// use ttsnn_tensor::Rng;
///
/// let gen = StaticImages::cifar10_like(8, 8);
/// let mut rng = Rng::seed_from(0);
/// let ds = gen.dataset(40, &mut rng);
/// let batches = ds.batches(10, 4, &mut rng).unwrap();
/// assert_eq!(batches.len(), 4);
/// assert_eq!(batches[0].timesteps(), 4);
/// assert_eq!(batches[0].frames[0].shape(), &[10, 3, 8, 8]);
/// ```
#[derive(Debug, Clone)]
pub struct Dataset {
    samples: Vec<Sample>,
    num_classes: usize,
}

impl Dataset {
    /// Wraps samples with their class count.
    ///
    /// # Panics
    ///
    /// Panics if any sample's label is out of range or a sample has no
    /// frames.
    pub fn new(samples: Vec<Sample>, num_classes: usize) -> Self {
        for s in &samples {
            assert!(s.label < num_classes, "label {} out of range", s.label);
            assert!(!s.frames.is_empty(), "sample has no frames");
        }
        Self { samples, num_classes }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// The underlying samples.
    pub fn samples(&self) -> &[Sample] {
        &self.samples
    }

    /// Splits into (train, test) at `train_fraction`.
    pub fn split(mut self, train_fraction: f32, rng: &mut Rng) -> (Dataset, Dataset) {
        rng.shuffle(&mut self.samples);
        let cut = ((self.samples.len() as f32) * train_fraction).round() as usize;
        let test = self.samples.split_off(cut.min(self.samples.len()));
        (
            Dataset { samples: self.samples, num_classes: self.num_classes },
            Dataset { samples: test, num_classes: self.num_classes },
        )
    }

    /// Shuffles and groups samples into batches of `batch_size` (dropping a
    /// ragged tail), expanding every sample to `timesteps` frames: static
    /// samples are replicated (direct coding); dynamic samples must provide
    /// at least `timesteps` frames and are truncated to the first
    /// `timesteps`.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if `batch_size == 0`, `timesteps == 0`, or
    /// frames within a batch disagree in shape.
    pub fn batches(
        &self,
        batch_size: usize,
        timesteps: usize,
        rng: &mut Rng,
    ) -> Result<Vec<Batch>, ShapeError> {
        if batch_size == 0 || timesteps == 0 {
            return Err(ShapeError::new("batches: batch_size and timesteps must be positive"));
        }
        let mut order: Vec<usize> = (0..self.samples.len()).collect();
        rng.shuffle(&mut order);
        let mut out = Vec::new();
        for chunk in order.chunks(batch_size) {
            if chunk.len() < batch_size {
                break;
            }
            let mut frames_t: Vec<Vec<Tensor>> = vec![Vec::with_capacity(batch_size); timesteps];
            let mut labels = Vec::with_capacity(batch_size);
            for &idx in chunk {
                let s = &self.samples[idx];
                for (t, slot) in frames_t.iter_mut().enumerate() {
                    let frame = if s.frames.len() == 1 {
                        &s.frames[0] // direct coding: repeat the static frame
                    } else {
                        s.frames.get(t).ok_or_else(|| {
                            ShapeError::new(format!(
                                "batches: sample has {} frames, need {timesteps}",
                                s.frames.len()
                            ))
                        })?
                    };
                    slot.push(frame.clone());
                }
                labels.push(s.label);
            }
            let frames =
                frames_t.into_iter().map(|fs| Tensor::stack(&fs)).collect::<Result<Vec<_>, _>>()?;
            out.push(Batch { frames, labels });
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_dataset(n: usize, frames_per_sample: usize) -> Dataset {
        let samples = (0..n)
            .map(|i| Sample {
                frames: (0..frames_per_sample)
                    .map(|t| Tensor::full(&[1, 2, 2], (i * 10 + t) as f32))
                    .collect(),
                label: i % 3,
            })
            .collect();
        Dataset::new(samples, 3)
    }

    #[test]
    fn batch_shapes_static() {
        let ds = toy_dataset(9, 1);
        let mut rng = Rng::seed_from(1);
        let batches = ds.batches(4, 3, &mut rng).unwrap();
        assert_eq!(batches.len(), 2); // 9/4 -> 2 full batches
        for b in &batches {
            assert_eq!(b.timesteps(), 3);
            assert_eq!(b.len(), 4);
            assert_eq!(b.frames[0].shape(), &[4, 1, 2, 2]);
            // direct coding repeats the frame
            assert_eq!(b.frames[0], b.frames[2]);
        }
    }

    #[test]
    fn batch_temporal_frames_differ() {
        let ds = toy_dataset(4, 4);
        let mut rng = Rng::seed_from(2);
        let batches = ds.batches(2, 4, &mut rng).unwrap();
        let b = &batches[0];
        assert_ne!(b.frames[0], b.frames[1]);
    }

    #[test]
    fn batch_errors() {
        let ds = toy_dataset(4, 2);
        let mut rng = Rng::seed_from(3);
        assert!(ds.batches(0, 2, &mut rng).is_err());
        assert!(ds.batches(2, 0, &mut rng).is_err());
        // dynamic sample with too few frames for requested timesteps
        assert!(ds.batches(2, 5, &mut rng).is_err());
    }

    #[test]
    fn split_preserves_samples() {
        let ds = toy_dataset(10, 1);
        let mut rng = Rng::seed_from(4);
        let (train, test) = ds.split(0.8, &mut rng);
        assert_eq!(train.len(), 8);
        assert_eq!(test.len(), 2);
        assert_eq!(train.num_classes(), 3);
    }

    #[test]
    #[should_panic(expected = "label")]
    fn new_validates_labels() {
        Dataset::new(vec![Sample { frames: vec![Tensor::zeros(&[1, 2, 2])], label: 5 }], 3);
    }
}
