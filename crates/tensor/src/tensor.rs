use std::sync::Arc;

use crate::error::ShapeError;
use crate::rng::Rng;
use crate::runtime::{self, Runtime};
use crate::shape::{num_elements, ravel, strides_for, unravel};

/// Backing storage of a [`Tensor`]: exclusively owned (the default) or
/// shared copy-on-write across threads.
///
/// Shared storage exists for **frozen serving weights**: a plan loaded once
/// can back the parameters of N executor replicas with a single allocation
/// (`Arc` handles instead of N copies). Reads are identical in both modes;
/// the first mutation of a shared tensor detaches it onto a private copy
/// ([`Tensor::data_mut`]), so sharing is invisible to numeric code.
#[derive(Debug)]
enum Storage {
    /// Exclusively owned buffer — mutations happen in place.
    Owned(Vec<f32>),
    /// `Arc`-shared buffer — cloning is O(1); mutation copies first.
    Shared(Arc<Vec<f32>>),
}

impl Storage {
    #[inline]
    fn as_slice(&self) -> &[f32] {
        match self {
            Storage::Owned(v) => v,
            Storage::Shared(a) => a,
        }
    }
}

/// A contiguous, row-major n-dimensional `f32` array.
///
/// `Tensor` is the single data type flowing through the whole TT-SNN stack:
/// images, spikes, membrane potentials, convolution weights and TT cores are
/// all `Tensor`s. The representation is always contiguous; operations that
/// change element order (e.g. [`Tensor::permute`]) copy.
///
/// Storage is exclusively owned by default. [`Tensor::into_shared`] moves
/// the buffer behind an `Arc` so clones are O(1) handle copies — how the
/// serving cluster shares one set of frozen weights across all executor
/// replicas. Mutating accessors ([`Tensor::data_mut`],
/// [`Tensor::map_inplace`], …) detach a shared tensor onto a private copy
/// first (copy-on-write), so numeric code never observes the difference.
///
/// ```
/// use ttsnn_tensor::Tensor;
///
/// # fn main() -> Result<(), ttsnn_tensor::ShapeError> {
/// let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
/// let y = x.map(|v| v * 2.0);
/// assert_eq!(y.data(), &[2.0, 4.0, 6.0, 8.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Tensor {
    data: Storage,
    shape: Vec<usize>,
}

impl Clone for Tensor {
    /// Owned tensors deep-copy; shared tensors clone the `Arc` handle
    /// (O(1), no data copy) and keep pointing at the same buffer.
    fn clone(&self) -> Self {
        let data = match &self.data {
            Storage::Owned(v) => Storage::Owned(v.clone()),
            Storage::Shared(a) => Storage::Shared(Arc::clone(a)),
        };
        Self { data, shape: self.shape.clone() }
    }
}

impl PartialEq for Tensor {
    /// Value equality: same shape, bitwise-equal element sequence —
    /// regardless of whether either side is shared.
    fn eq(&self, other: &Self) -> bool {
        self.shape == other.shape && self.data() == other.data()
    }
}

impl Tensor {
    // ---------------------------------------------------------------- ctors

    /// Internal: a tensor exclusively owning `data` (the default storage).
    #[inline]
    fn owned(data: Vec<f32>, shape: Vec<usize>) -> Self {
        Self { data: Storage::Owned(data), shape }
    }

    /// Internal: copy-on-write — detaches shared storage onto a private
    /// copy and returns the exclusively owned buffer.
    fn make_owned(&mut self) -> &mut Vec<f32> {
        if let Storage::Shared(a) = &self.data {
            self.data = Storage::Owned(a.as_ref().clone());
        }
        match &mut self.data {
            Storage::Owned(v) => v,
            Storage::Shared(_) => unreachable!("make_owned just detached"),
        }
    }

    /// A tensor of zeros with the given shape.
    pub fn zeros(shape: &[usize]) -> Self {
        Self::owned(vec![0.0; num_elements(shape)], shape.to_vec())
    }

    /// A tensor of the given shape whose buffer is checked out of the
    /// calling thread's [arena](crate::runtime) — contents **unspecified**
    /// (whatever the buffer's last user left), so the caller must write
    /// every element before reading any. The buffer's capacity is below
    /// twice its length. Pair with [`Tensor::recycle`].
    ///
    /// This is what every inference-plane producer (`conv2d`, the pooling
    /// kernels, the int8 and sparse kernels, the models' own
    /// intermediates) builds its output from.
    pub fn scratch(shape: &[usize]) -> Self {
        Self::owned(runtime::take_buffer(num_elements(shape)), shape.to_vec())
    }

    /// [`Tensor::scratch`] filled with zeros, for producers that
    /// accumulate into their output.
    pub fn scratch_zeroed(shape: &[usize]) -> Self {
        let mut t = Self::scratch(shape);
        t.make_owned().fill(0.0);
        t
    }

    /// A copy of `self` in a [`Tensor::scratch`] buffer — what the training
    /// tape uses where a value or gradient has to exist twice.
    pub fn scratch_copy(&self) -> Self {
        let mut t = Self::scratch(&self.shape);
        t.make_owned().copy_from_slice(self.data());
        t
    }

    /// Consumes the tensor and parks its buffer in the calling thread's
    /// arena for a later [`Tensor::scratch`] of similar size (dropped
    /// instead once the thread's parked-bytes budget is full). Any owned
    /// tensor may be recycled, wherever its buffer came from. Shared
    /// storage is reclaimed only when this is its last handle; a buffer
    /// someone else still holds is left alone — never copied.
    pub fn recycle(self) {
        match self.data {
            Storage::Owned(v) => runtime::recycle_buffer(v),
            Storage::Shared(a) => {
                if let Ok(v) = Arc::try_unwrap(a) {
                    runtime::recycle_buffer(v);
                }
            }
        }
    }

    /// A tensor of ones with the given shape.
    pub fn ones(shape: &[usize]) -> Self {
        Self::full(shape, 1.0)
    }

    /// A tensor filled with `value`.
    pub fn full(shape: &[usize], value: f32) -> Self {
        Self::owned(vec![value; num_elements(shape)], shape.to_vec())
    }

    /// Builds a tensor from a flat buffer.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if `data.len()` does not match the shape's
    /// element count.
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Result<Self, ShapeError> {
        if data.len() != num_elements(shape) {
            return Err(ShapeError::new(format!(
                "from_vec: buffer of {} elements does not fit shape {:?}",
                data.len(),
                shape
            )));
        }
        Ok(Self::owned(data, shape.to_vec()))
    }

    /// Standard-normal random tensor.
    pub fn randn(shape: &[usize], rng: &mut Rng) -> Self {
        let data = (0..num_elements(shape)).map(|_| rng.normal()).collect();
        Self::owned(data, shape.to_vec())
    }

    /// Uniform random tensor in `[lo, hi)`.
    pub fn rand_uniform(shape: &[usize], lo: f32, hi: f32, rng: &mut Rng) -> Self {
        let data = (0..num_elements(shape)).map(|_| rng.uniform_in(lo, hi)).collect();
        Self::owned(data, shape.to_vec())
    }

    /// Kaiming-normal initialization for a conv/linear weight: the first
    /// dimension is treated as the output (fan-out is the rest).
    ///
    /// Variance is `2 / fan_in` where `fan_in` is the product of all
    /// dimensions except the first — the convention for `(O, I, Kh, Kw)`
    /// convolution weights.
    pub fn kaiming(shape: &[usize], rng: &mut Rng) -> Self {
        let fan_in: usize = shape.iter().skip(1).product::<usize>().max(1);
        let std = (2.0 / fan_in as f32).sqrt();
        let data = (0..num_elements(shape)).map(|_| rng.normal() * std).collect();
        Self::owned(data, shape.to_vec())
    }

    /// Identity matrix of size `n`.
    pub fn eye(n: usize) -> Self {
        let mut t = Self::zeros(&[n, n]);
        let d = t.make_owned();
        for i in 0..n {
            d[i * n + i] = 1.0;
        }
        t
    }

    // ------------------------------------------------------------ accessors

    /// The tensor's shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Number of dimensions.
    pub fn ndim(&self) -> usize {
        self.shape.len()
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.as_slice().len()
    }

    /// Whether the tensor has zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.as_slice().is_empty()
    }

    /// Read-only view of the flat backing buffer (row-major).
    pub fn data(&self) -> &[f32] {
        self.data.as_slice()
    }

    /// Mutable view of the flat backing buffer (row-major).
    ///
    /// On a [shared](Tensor::into_shared) tensor this detaches onto a
    /// private copy first (copy-on-write); other handles to the shared
    /// buffer are unaffected.
    pub fn data_mut(&mut self) -> &mut [f32] {
        self.make_owned()
    }

    /// Consumes the tensor and returns the flat backing buffer.
    ///
    /// Owned storage is returned as-is (no copy). Shared storage is
    /// reclaimed without a copy when this handle is the last one;
    /// otherwise the contents are copied out and the shared buffer stays
    /// alive for the other handles. (To hand a spent tensor's buffer back
    /// to the arena use [`Tensor::recycle`], which never copies.)
    pub fn into_vec(self) -> Vec<f32> {
        match self.data {
            Storage::Owned(v) => v,
            Storage::Shared(a) => Arc::try_unwrap(a).unwrap_or_else(|a| a.as_ref().clone()),
        }
    }

    /// Moves the backing buffer behind an `Arc`, making subsequent
    /// [`Clone`]s O(1) handle copies of one shared allocation.
    ///
    /// This is how a serving plan's frozen weights back every executor
    /// replica without per-replica duplication. Mutation stays safe:
    /// [`Tensor::data_mut`] and friends detach a private copy first
    /// (copy-on-write). No-op if the storage is already shared.
    pub fn into_shared(self) -> Self {
        let data = match self.data {
            Storage::Owned(v) => Storage::Shared(Arc::new(v)),
            shared @ Storage::Shared(_) => shared,
        };
        Self { data, shape: self.shape }
    }

    /// Whether the backing buffer is `Arc`-shared storage (regardless of
    /// how many handles currently point at it).
    pub fn is_shared(&self) -> bool {
        matches!(self.data, Storage::Shared(_))
    }

    /// Whether `self` and `other` are backed by the **same** shared
    /// allocation — the observable behind the cluster's "weights are
    /// loaded once" contract (tests assert every replica's parameters
    /// alias the plan's single buffer).
    pub fn shares_storage_with(&self, other: &Self) -> bool {
        match (&self.data, &other.data) {
            (Storage::Shared(a), Storage::Shared(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }

    /// Element at multi-dimensional coordinates.
    ///
    /// # Panics
    ///
    /// Panics if `coords` has the wrong rank or is out of bounds.
    pub fn at(&self, coords: &[usize]) -> f32 {
        assert_eq!(coords.len(), self.ndim(), "at: rank mismatch");
        self.data()[ravel(coords, &self.shape)]
    }

    /// Mutable element at multi-dimensional coordinates.
    ///
    /// # Panics
    ///
    /// Panics if `coords` has the wrong rank or is out of bounds.
    pub fn at_mut(&mut self, coords: &[usize]) -> &mut f32 {
        assert_eq!(coords.len(), self.ndim(), "at_mut: rank mismatch");
        let idx = ravel(coords, &self.shape);
        &mut self.make_owned()[idx]
    }

    // ------------------------------------------------------------- reshape

    /// Returns a tensor with the same data and a new shape. Re-viewing
    /// shared storage keeps sharing (an O(1) handle clone): replicas
    /// reshaping frozen weights must not silently duplicate the plan's
    /// buffer.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if the element counts differ.
    pub fn reshape(&self, shape: &[usize]) -> Result<Self, ShapeError> {
        self.clone().into_reshaped(shape)
    }

    /// [`Tensor::reshape`] by value: the same buffer under a new shape, no
    /// copy.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if the element counts differ.
    pub fn into_reshaped(mut self, shape: &[usize]) -> Result<Self, ShapeError> {
        if num_elements(shape) != self.len() {
            return Err(ShapeError::new(format!(
                "reshape: cannot view {:?} ({} elems) as {:?} ({} elems)",
                self.shape,
                self.len(),
                shape,
                num_elements(shape)
            )));
        }
        self.shape = shape.to_vec();
        Ok(self)
    }

    /// Permutes the axes (copying into a new contiguous tensor).
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if `axes` is not a permutation of
    /// `0..self.ndim()`.
    pub fn permute(&self, axes: &[usize]) -> Result<Self, ShapeError> {
        let n = self.ndim();
        let mut seen = vec![false; n];
        if axes.len() != n || axes.iter().any(|&a| a >= n || std::mem::replace(&mut seen[a], true))
        {
            return Err(ShapeError::new(format!(
                "permute: {:?} is not a permutation of 0..{}",
                axes, n
            )));
        }
        let new_shape: Vec<usize> = axes.iter().map(|&a| self.shape[a]).collect();
        let mut out = Self::zeros(&new_shape);
        let old_strides = strides_for(&self.shape);
        let new_strides = strides_for(&new_shape);
        let src_data = self.data.as_slice();
        for (flat, v) in out.make_owned().iter_mut().enumerate() {
            // coordinates in the new tensor
            let mut rem = flat;
            let mut src = 0usize;
            for (d, &ns) in new_strides.iter().enumerate() {
                let c = rem / ns;
                rem %= ns;
                src += c * old_strides[axes[d]];
            }
            *v = src_data[src];
        }
        Ok(out)
    }

    /// 2-D transpose.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if the tensor is not 2-D.
    pub fn transpose(&self) -> Result<Self, ShapeError> {
        if self.ndim() != 2 {
            return Err(ShapeError::new(format!(
                "transpose: expected 2-D tensor, got {:?}",
                self.shape
            )));
        }
        self.permute(&[1, 0])
    }

    // --------------------------------------------------------- elementwise

    /// Applies `f` to every element, producing a new tensor (in a
    /// [`Tensor::scratch`] buffer, like every kernel output).
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Self {
        let mut out = Self::scratch(&self.shape);
        for (o, &v) in out.make_owned().iter_mut().zip(self.data()) {
            *o = f(v);
        }
        out
    }

    /// Applies `f` in place (copy-on-write on shared tensors).
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for v in self.make_owned() {
            *v = f(*v);
        }
    }

    /// Combines two same-shaped tensors elementwise (into a
    /// [`Tensor::scratch`] buffer).
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] on shape mismatch.
    pub fn zip(&self, other: &Self, f: impl Fn(f32, f32) -> f32) -> Result<Self, ShapeError> {
        if self.shape != other.shape {
            return Err(ShapeError::new(format!(
                "zip: shape mismatch {:?} vs {:?}",
                self.shape, other.shape
            )));
        }
        let mut out = Self::scratch(&self.shape);
        for ((o, &a), &b) in out.make_owned().iter_mut().zip(self.data()).zip(other.data()) {
            *o = f(a, b);
        }
        Ok(out)
    }

    /// [`Tensor::zip`] in place: `self[i] = f(self[i], other[i])`
    /// (copy-on-write on shared tensors).
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] on shape mismatch.
    pub fn zip_inplace(
        &mut self,
        other: &Self,
        f: impl Fn(f32, f32) -> f32,
    ) -> Result<(), ShapeError> {
        if self.shape != other.shape {
            return Err(ShapeError::new(format!(
                "zip_inplace: shape mismatch {:?} vs {:?}",
                self.shape, other.shape
            )));
        }
        for (a, &b) in self.make_owned().iter_mut().zip(other.data()) {
            *a = f(*a, b);
        }
        Ok(())
    }

    /// Elementwise sum.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] on shape mismatch.
    pub fn add(&self, other: &Self) -> Result<Self, ShapeError> {
        self.zip(other, |a, b| a + b)
    }

    /// Elementwise difference.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] on shape mismatch.
    pub fn sub(&self, other: &Self) -> Result<Self, ShapeError> {
        self.zip(other, |a, b| a - b)
    }

    /// Elementwise (Hadamard) product.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] on shape mismatch.
    pub fn mul(&self, other: &Self) -> Result<Self, ShapeError> {
        self.zip(other, |a, b| a * b)
    }

    /// Adds `other * alpha` into `self` in place (axpy).
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] on shape mismatch.
    pub fn add_scaled(&mut self, other: &Self, alpha: f32) -> Result<(), ShapeError> {
        if self.shape != other.shape {
            return Err(ShapeError::new(format!(
                "add_scaled: shape mismatch {:?} vs {:?}",
                self.shape, other.shape
            )));
        }
        for (a, &b) in self.make_owned().iter_mut().zip(other.data().iter()) {
            *a += alpha * b;
        }
        Ok(())
    }

    /// Multiplies every element by `s`.
    pub fn scale(&self, s: f32) -> Self {
        self.map(|v| v * s)
    }

    /// Adds `s` to every element.
    pub fn add_scalar(&self, s: f32) -> Self {
        self.map(|v| v + s)
    }

    // ----------------------------------------------------------- reductions

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data().iter().sum()
    }

    /// Mean of all elements (`0.0` for empty tensors).
    pub fn mean(&self) -> f32 {
        if self.is_empty() {
            0.0
        } else {
            self.sum() / self.len() as f32
        }
    }

    /// Maximum element (`-inf` for empty tensors).
    pub fn max(&self) -> f32 {
        self.data().iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum element (`+inf` for empty tensors).
    pub fn min(&self) -> f32 {
        self.data().iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Frobenius / L2 norm.
    pub fn norm(&self) -> f32 {
        self.data().iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// Index of the maximum element in the flat buffer.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is empty.
    pub fn argmax(&self) -> usize {
        assert!(!self.is_empty(), "argmax of empty tensor");
        let mut best = 0usize;
        let data = self.data();
        for (i, &v) in data.iter().enumerate() {
            if v > data[best] {
                best = i;
            }
        }
        best
    }

    /// Largest absolute difference from `other`, for approximate-equality
    /// assertions in tests.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] on shape mismatch.
    pub fn max_abs_diff(&self, other: &Self) -> Result<f32, ShapeError> {
        if self.shape != other.shape {
            return Err(ShapeError::new(format!(
                "max_abs_diff: shape mismatch {:?} vs {:?}",
                self.shape, other.shape
            )));
        }
        Ok(self
            .data()
            .iter()
            .zip(other.data().iter())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max))
    }

    // --------------------------------------------------------------- slices

    /// Extracts the `i`-th slab along axis 0 (e.g. one sample of a batch),
    /// dropping that axis.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if the tensor is 0-D or `i` is out of range.
    pub fn index_axis0(&self, i: usize) -> Result<Self, ShapeError> {
        if self.ndim() == 0 || i >= self.shape[0] {
            return Err(ShapeError::new(format!(
                "index_axis0: index {} out of range for shape {:?}",
                i, self.shape
            )));
        }
        let slab = self.len() / self.shape[0];
        let data = self.data()[i * slab..(i + 1) * slab].to_vec();
        Ok(Self::owned(data, self.shape[1..].to_vec()))
    }

    /// Stacks same-shaped tensors along a new leading axis.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if `parts` is empty or shapes differ.
    pub fn stack(parts: &[Self]) -> Result<Self, ShapeError> {
        let first = parts.first().ok_or_else(|| ShapeError::new("stack: empty input"))?;
        let mut data = Vec::with_capacity(first.len() * parts.len());
        for p in parts {
            if p.shape != first.shape {
                return Err(ShapeError::new(format!(
                    "stack: shape mismatch {:?} vs {:?}",
                    p.shape, first.shape
                )));
            }
            data.extend_from_slice(p.data());
        }
        let mut shape = vec![parts.len()];
        shape.extend_from_slice(&first.shape);
        Ok(Self::owned(data, shape))
    }

    // --------------------------------------------------------------- matmul

    /// Matrix product of two 2-D tensors (`[m,k] x [k,n] -> [m,n]`) through
    /// the parallel runtime GEMM ([`crate::runtime::gemm`]).
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if either tensor is not 2-D or the inner
    /// dimensions disagree.
    pub fn matmul(&self, other: &Self) -> Result<Self, ShapeError> {
        if self.ndim() != 2 || other.ndim() != 2 {
            return Err(ShapeError::new(format!(
                "matmul: expected 2-D tensors, got {:?} and {:?}",
                self.shape, other.shape
            )));
        }
        let (m, k) = (self.shape[0], self.shape[1]);
        let (k2, n) = (other.shape[0], other.shape[1]);
        if k != k2 {
            return Err(ShapeError::new(format!(
                "matmul: inner dims disagree: {:?} x {:?}",
                self.shape, other.shape
            )));
        }
        // No zero-fill: the GEMM overwrites every element.
        let mut out = Self::scratch(&[m, n]);
        let rt = Runtime::current();
        runtime::gemm(&rt, self.data(), other.data(), out.make_owned(), m, k, n);
        Ok(out)
    }

    /// `selfᵀ · other` for 2-D tensors (`self [k,m]`, `other [k,n]` →
    /// `[m,n]`) **without materializing the transpose** — the backward-pass
    /// companion of [`Tensor::matmul`].
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if either tensor is not 2-D or the shared
    /// `k` dimensions disagree.
    pub fn matmul_at_b(&self, other: &Self) -> Result<Self, ShapeError> {
        if self.ndim() != 2 || other.ndim() != 2 {
            return Err(ShapeError::new(format!(
                "matmul_at_b: expected 2-D tensors, got {:?} and {:?}",
                self.shape, other.shape
            )));
        }
        let (k, m) = (self.shape[0], self.shape[1]);
        let (k2, n) = (other.shape[0], other.shape[1]);
        if k != k2 {
            return Err(ShapeError::new(format!(
                "matmul_at_b: leading dims disagree: {:?}ᵀ x {:?}",
                self.shape, other.shape
            )));
        }
        let mut out = Self::scratch(&[m, n]);
        let rt = Runtime::current();
        runtime::gemm_at_b(&rt, self.data(), other.data(), out.make_owned(), m, k, n);
        Ok(out)
    }

    /// `self · otherᵀ` for 2-D tensors (`self [m,k]`, `other [n,k]` →
    /// `[m,n]`) **without materializing the transpose** — used by linear
    /// layers (`x · Wᵀ`) and matmul backward (`dA = g · Bᵀ`).
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if either tensor is not 2-D or the shared
    /// `k` dimensions disagree.
    pub fn matmul_a_bt(&self, other: &Self) -> Result<Self, ShapeError> {
        if self.ndim() != 2 || other.ndim() != 2 {
            return Err(ShapeError::new(format!(
                "matmul_a_bt: expected 2-D tensors, got {:?} and {:?}",
                self.shape, other.shape
            )));
        }
        let (m, k) = (self.shape[0], self.shape[1]);
        let (n, k2) = (other.shape[0], other.shape[1]);
        if k != k2 {
            return Err(ShapeError::new(format!(
                "matmul_a_bt: trailing dims disagree: {:?} x {:?}ᵀ",
                self.shape, other.shape
            )));
        }
        let mut out = Self::scratch(&[m, n]);
        let rt = Runtime::current();
        runtime::gemm_a_bt(&rt, self.data(), other.data(), out.make_owned(), m, k, n);
        Ok(out)
    }

    /// Sum over the given axis, dropping it.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if `axis >= self.ndim()`.
    pub fn sum_axis(&self, axis: usize) -> Result<Self, ShapeError> {
        if axis >= self.ndim() {
            return Err(ShapeError::new(format!(
                "sum_axis: axis {} out of range for shape {:?}",
                axis, self.shape
            )));
        }
        let mut new_shape = self.shape.clone();
        new_shape.remove(axis);
        let mut out = Self::scratch_zeroed(&new_shape);
        let src = self.data.as_slice();
        let dst_data = out.make_owned();
        for (flat, &v) in src.iter().enumerate() {
            let mut coords = unravel(flat, &self.shape);
            coords.remove(axis);
            let dst = if new_shape.is_empty() { 0 } else { ravel(&coords, &new_shape) };
            dst_data[dst] += v;
        }
        Ok(out)
    }
}

impl Default for Tensor {
    /// An empty 1-D tensor.
    fn default() -> Self {
        Self::owned(Vec::new(), vec![0])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(data: &[f32], shape: &[usize]) -> Tensor {
        Tensor::from_vec(data.to_vec(), shape).unwrap()
    }

    #[test]
    fn zeros_ones_full() {
        assert_eq!(Tensor::zeros(&[2, 2]).data(), &[0.0; 4]);
        assert_eq!(Tensor::ones(&[3]).data(), &[1.0; 3]);
        assert_eq!(Tensor::full(&[2], 2.5).data(), &[2.5, 2.5]);
    }

    #[test]
    fn from_vec_validates() {
        assert!(Tensor::from_vec(vec![1.0; 5], &[2, 2]).is_err());
        assert!(Tensor::from_vec(vec![1.0; 4], &[2, 2]).is_ok());
    }

    #[test]
    fn at_and_at_mut() {
        let mut x = t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        assert_eq!(x.at(&[0, 0]), 1.0);
        assert_eq!(x.at(&[1, 2]), 6.0);
        *x.at_mut(&[1, 0]) = 9.0;
        assert_eq!(x.at(&[1, 0]), 9.0);
    }

    #[test]
    fn reshape_preserves_data() {
        let x = t(&[1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let y = x.reshape(&[4]).unwrap();
        assert_eq!(y.data(), x.data());
        assert!(x.reshape(&[3]).is_err());
    }

    #[test]
    fn transpose_2d() {
        let x = t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let y = x.transpose().unwrap();
        assert_eq!(y.shape(), &[3, 2]);
        assert_eq!(y.data(), &[1.0, 4.0, 2.0, 5.0, 3.0, 6.0]);
        assert!(t(&[1.0], &[1]).transpose().is_err());
    }

    #[test]
    fn permute_matches_manual() {
        // (2,3,4) -> (4,2,3)
        let mut rng = Rng::seed_from(1);
        let x = Tensor::randn(&[2, 3, 4], &mut rng);
        let y = x.permute(&[2, 0, 1]).unwrap();
        assert_eq!(y.shape(), &[4, 2, 3]);
        for a in 0..2 {
            for b in 0..3 {
                for c in 0..4 {
                    assert_eq!(y.at(&[c, a, b]), x.at(&[a, b, c]));
                }
            }
        }
    }

    #[test]
    fn permute_rejects_invalid() {
        let x = Tensor::zeros(&[2, 3]);
        assert!(x.permute(&[0, 0]).is_err());
        assert!(x.permute(&[0]).is_err());
        assert!(x.permute(&[0, 2]).is_err());
    }

    #[test]
    fn permute_roundtrip() {
        let mut rng = Rng::seed_from(2);
        let x = Tensor::randn(&[3, 4, 5, 2], &mut rng);
        let y = x.permute(&[3, 1, 0, 2]).unwrap();
        // inverse of [3,1,0,2] is [2,1,3,0]
        let z = y.permute(&[2, 1, 3, 0]).unwrap();
        assert_eq!(z, x);
    }

    #[test]
    fn elementwise_ops() {
        let a = t(&[1.0, 2.0], &[2]);
        let b = t(&[3.0, 5.0], &[2]);
        assert_eq!(a.add(&b).unwrap().data(), &[4.0, 7.0]);
        assert_eq!(b.sub(&a).unwrap().data(), &[2.0, 3.0]);
        assert_eq!(a.mul(&b).unwrap().data(), &[3.0, 10.0]);
        assert_eq!(a.scale(2.0).data(), &[2.0, 4.0]);
        assert_eq!(a.add_scalar(1.0).data(), &[2.0, 3.0]);
        assert!(a.add(&t(&[1.0], &[1])).is_err());
    }

    #[test]
    fn add_scaled_axpy() {
        let mut a = t(&[1.0, 2.0], &[2]);
        let b = t(&[10.0, 20.0], &[2]);
        a.add_scaled(&b, 0.5).unwrap();
        assert_eq!(a.data(), &[6.0, 12.0]);
    }

    #[test]
    fn reductions() {
        let x = t(&[1.0, -2.0, 3.0, 4.0], &[2, 2]);
        assert_eq!(x.sum(), 6.0);
        assert_eq!(x.mean(), 1.5);
        assert_eq!(x.max(), 4.0);
        assert_eq!(x.min(), -2.0);
        assert_eq!(x.argmax(), 3);
        assert!((x.norm() - (1.0f32 + 4.0 + 9.0 + 16.0).sqrt()).abs() < 1e-6);
    }

    #[test]
    fn sum_axis_drops_axis() {
        let x = t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let s0 = x.sum_axis(0).unwrap();
        assert_eq!(s0.shape(), &[3]);
        assert_eq!(s0.data(), &[5.0, 7.0, 9.0]);
        let s1 = x.sum_axis(1).unwrap();
        assert_eq!(s1.shape(), &[2]);
        assert_eq!(s1.data(), &[6.0, 15.0]);
        assert!(x.sum_axis(2).is_err());
    }

    #[test]
    fn matmul_identity() {
        let mut rng = Rng::seed_from(3);
        let a = Tensor::randn(&[4, 4], &mut rng);
        let i = Tensor::eye(4);
        let prod = a.matmul(&i).unwrap();
        assert!(prod.max_abs_diff(&a).unwrap() < 1e-6);
    }

    #[test]
    fn matmul_known_values() {
        let a = t(&[1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let b = t(&[5.0, 6.0, 7.0, 8.0], &[2, 2]);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_rectangular() {
        let a = t(&[1.0, 0.0, 0.0, 1.0, 1.0, 1.0], &[3, 2]);
        let b = t(&[2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0], &[2, 4]);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.shape(), &[3, 4]);
        assert_eq!(&c.data()[0..4], &[2.0, 3.0, 4.0, 5.0]);
        assert_eq!(&c.data()[8..12], &[8.0, 10.0, 12.0, 14.0]);
    }

    #[test]
    fn matmul_shape_errors() {
        let a = Tensor::zeros(&[2, 3]);
        assert!(a.matmul(&Tensor::zeros(&[4, 2])).is_err());
        assert!(a.matmul(&Tensor::zeros(&[3])).is_err());
    }

    #[test]
    fn matmul_transpose_variants_match_explicit_transpose() {
        let mut rng = Rng::seed_from(30);
        let a = Tensor::randn(&[5, 7], &mut rng);
        let b = Tensor::randn(&[7, 4], &mut rng);
        let want = a.matmul(&b).unwrap();
        // Aᵀ stored, multiplied via matmul_at_b, must equal A·B.
        let at = a.transpose().unwrap();
        let got = at.matmul_at_b(&b).unwrap();
        assert!(got.max_abs_diff(&want).unwrap() < 1e-5);
        // Bᵀ stored, multiplied via matmul_a_bt, must equal A·B.
        let bt = b.transpose().unwrap();
        let got = a.matmul_a_bt(&bt).unwrap();
        assert!(got.max_abs_diff(&want).unwrap() < 1e-5);
    }

    #[test]
    fn matmul_transpose_variants_shape_errors() {
        let a = Tensor::zeros(&[2, 3]);
        assert!(a.matmul_at_b(&Tensor::zeros(&[3, 4])).is_err()); // k mismatch (2 vs 3)
        assert!(a.matmul_a_bt(&Tensor::zeros(&[4, 2])).is_err()); // k mismatch (3 vs 2)
        assert!(a.matmul_at_b(&Tensor::zeros(&[2])).is_err());
        assert!(a.matmul_a_bt(&Tensor::zeros(&[2])).is_err());
    }

    #[test]
    fn matmul_propagates_nan_through_zero() {
        // 0.0 * NaN must be NaN: the f32 kernels never skip a coefficient.
        let a = t(&[0.0, 1.0], &[1, 2]);
        let b = t(&[f32::NAN, 2.0], &[2, 1]);
        let c = a.matmul(&b).unwrap();
        assert!(c.data()[0].is_nan());
    }

    #[test]
    fn index_axis0_and_stack_roundtrip() {
        let mut rng = Rng::seed_from(4);
        let x = Tensor::randn(&[3, 2, 2], &mut rng);
        let parts: Vec<Tensor> = (0..3).map(|i| x.index_axis0(i).unwrap()).collect();
        let restacked = Tensor::stack(&parts).unwrap();
        assert_eq!(restacked, x);
        assert!(x.index_axis0(3).is_err());
        assert!(Tensor::stack(&[]).is_err());
    }

    #[test]
    fn kaiming_variance_scales_with_fan_in() {
        let mut rng = Rng::seed_from(5);
        let w = Tensor::kaiming(&[64, 32, 3, 3], &mut rng);
        let var = w.data().iter().map(|v| v * v).sum::<f32>() / w.len() as f32;
        let expected = 2.0 / (32.0 * 9.0);
        assert!((var - expected).abs() < expected * 0.2, "var {var} vs {expected}");
    }

    #[test]
    fn shared_clones_alias_one_buffer() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]).unwrap().into_shared();
        assert!(x.is_shared());
        let y = x.clone();
        assert!(x.shares_storage_with(&y), "clone of a shared tensor must alias, not copy");
        // Owned tensors never report aliasing, even with equal contents.
        let o = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]).unwrap();
        assert!(!o.shares_storage_with(&x));
        assert_eq!(o, x, "equality ignores the storage kind");
    }

    #[test]
    fn mutating_a_shared_tensor_detaches_privately() {
        let x = Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap().into_shared();
        let mut y = x.clone();
        y.data_mut()[0] = 9.0;
        assert_eq!(y.data(), &[9.0, 2.0]);
        assert_eq!(x.data(), &[1.0, 2.0], "copy-on-write must not touch other handles");
        assert!(!y.is_shared() && x.is_shared());
    }

    #[test]
    fn reshape_of_shared_tensor_keeps_sharing() {
        let x = Tensor::from_vec(vec![0.0; 6], &[2, 3]).unwrap().into_shared();
        let y = x.reshape(&[3, 2]).unwrap();
        assert!(y.shares_storage_with(&x), "re-viewing frozen weights must not duplicate them");
    }

    #[test]
    fn into_vec_reclaims_unique_shared_buffers() {
        let x = Tensor::from_vec(vec![5.0, 6.0], &[2]).unwrap().into_shared();
        // Sole handle: buffer is reclaimed (and recyclable) without a copy.
        assert_eq!(x.into_vec(), vec![5.0, 6.0]);
        // Aliased handle: contents are copied out, the original survives.
        let a = Tensor::from_vec(vec![7.0], &[1]).unwrap().into_shared();
        let b = a.clone();
        assert_eq!(b.into_vec(), vec![7.0]);
        assert_eq!(a.data(), &[7.0]);
    }

    #[test]
    fn scratch_and_recycle_close_the_loop() {
        let depth = runtime::scratch_depth();
        Tensor::full(&[3, 40], f32::NAN).recycle();
        assert_eq!(runtime::scratch_depth(), depth + 1);
        // Same size class: the parked buffer comes back, reshaped and zeroed.
        let z = Tensor::scratch_zeroed(&[2, 5, 10]);
        assert_eq!(runtime::scratch_depth(), depth);
        assert_eq!(z.shape(), &[2, 5, 10]);
        assert!(z.data().iter().all(|&v| v == 0.0));
        z.recycle();
        assert_eq!(Tensor::scratch(&[7, 9]).len(), 63);
    }

    #[test]
    fn recycle_leaves_a_shared_buffer_someone_else_holds() {
        let a = Tensor::from_vec(vec![7.0; 64], &[64]).unwrap().into_shared();
        let b = a.clone();
        let depth = runtime::scratch_depth();
        b.recycle();
        assert_eq!(runtime::scratch_depth(), depth, "an aliased buffer must not be parked");
        assert_eq!(a.data(), &[7.0; 64]);
        a.recycle();
        assert_eq!(runtime::scratch_depth(), depth + 1, "the last handle reclaims it");
    }

    #[test]
    fn eye_is_identity() {
        let i = Tensor::eye(3);
        assert_eq!(i.at(&[0, 0]), 1.0);
        assert_eq!(i.at(&[1, 2]), 0.0);
        assert_eq!(i.sum(), 3.0);
    }
}
