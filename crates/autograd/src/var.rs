use std::cell::{Cell, Ref, RefCell};
use std::rc::Rc;

use ttsnn_tensor::Tensor;

/// Closure that, given the gradient flowing into a node's output, pushes
/// gradient contributions into the node's parents (via [`Var::add_grad`]).
///
/// The gradient arrives **by value**: the node is its last reader, so the
/// closure may rewrite it in place and hand the same buffer on to a parent,
/// or [`Tensor::recycle`] it once consumed. Forward values are not captured
/// — a closure reads `parents[i].value()` when it runs.
pub type BackwardFn = Box<dyn Fn(Tensor, &[Var])>;

pub(crate) struct VarInner {
    id: u64,
    value: RefCell<Tensor>,
    grad: RefCell<Option<Tensor>>,
    requires_grad: bool,
    parents: Vec<Var>,
    backward: Option<BackwardFn>,
    /// Name of the op that produced this node (`"leaf"` for leaves).
    op: &'static str,
    /// Bumped by every [`Var::set_value`] / [`Var::update_value`].
    version: Cell<u64>,
    /// Each parent's version when this node was built: what its backward
    /// closure expects to still find there.
    #[cfg(debug_assertions)]
    parent_versions: Vec<u64>,
    /// The last backward sweep (see [`SWEEP`]) that visited this node.
    visited: Cell<u64>,
}

impl Drop for VarInner {
    /// A node that leaves the tape hands its value and gradient back to the
    /// thread's arena, where the next step's ops find them. A parameter's
    /// value is freed instead: it came from an initialiser or a checkpoint,
    /// not from an op, and a model drops one only when it leaves for good
    /// (TT cores merged to dense, f32 kernels frozen to int8), so no op is
    /// waiting for a buffer of its size.
    fn drop(&mut self) {
        let value = std::mem::take(self.value.get_mut());
        if !(self.requires_grad && self.parents.is_empty()) {
            value.recycle();
        }
        if let Some(g) = self.grad.get_mut().take() {
            g.recycle();
        }
    }
}

/// The traversal buffers of [`Var::backward_with_seed`], kept between calls
/// so a steady-state training step does not allocate them again.
#[derive(Default)]
struct Sweep {
    order: Vec<Var>,
    stack: Vec<(Var, bool)>,
}

thread_local! {
    static NEXT_ID: Cell<u64> = const { Cell::new(0) };
    /// Number of backward sweeps started on this thread; a node whose
    /// `visited` equals the current count has been seen by this sweep.
    static SWEEP: Cell<u64> = const { Cell::new(0) };
    static SWEEP_BUFFERS: RefCell<Sweep> = RefCell::new(Sweep::default());
}

fn fresh_id() -> u64 {
    NEXT_ID.with(|c| {
        let id = c.get();
        c.set(id + 1);
        id
    })
}

/// Total autograd nodes ever created on this thread (leaves and interior
/// nodes alike). Monotonic; never reset.
///
/// This is the observable behind the inference plane's "graph-free"
/// contract: code that must not build autograd graphs (e.g.
/// `ttsnn_snn::evaluate` routed through `InferForward`) is tested by
/// asserting the counter does not move across the call.
pub fn nodes_created() -> u64 {
    NEXT_ID.with(|c| c.get())
}

/// A node in the reverse-mode autodiff graph.
///
/// `Var` is a cheaply clonable handle (`Rc` inside) to a tensor value plus
/// the bookkeeping needed to backpropagate through the operation that
/// produced it. Leaf nodes are created with [`Var::param`] (trainable) or
/// [`Var::constant`] (inputs); interior nodes come from the ops in
/// [`crate::ops`], most of which are also exposed as methods.
///
/// # Who owns what
///
/// A node owns its value and, during a backward sweep, its gradient; both
/// live in buffers of the calling thread's arena (`Tensor::scratch`). The
/// tape keeps **one** copy of every forward value: backward closures read
/// their inputs through `parents[i].value()` rather than capturing copies,
/// which is only right while nobody rewrites a value between forward and
/// backward — see [`Var::set_value`]. Gradients are moved from node to
/// node, each interior gradient is taken by its node's closure as soon as
/// it is complete, and when the last handle to a node drops, its buffers
/// go back to the arena (dropped instead once the arena's 64 MiB budget is
/// full). A training loop in steady state therefore allocates no
/// activation- or gradient-sized memory.
///
/// `Var` is deliberately **not** `Send`/`Sync`: the training loop of the
/// paper (and of this reproduction) is single-threaded per model, and a
/// thread-local id counter keeps graph bookkeeping allocation-free.
///
/// ```
/// use ttsnn_autograd::Var;
/// use ttsnn_tensor::Tensor;
///
/// # fn main() -> Result<(), ttsnn_tensor::ShapeError> {
/// let a = Var::param(Tensor::from_vec(vec![1.0, 2.0], &[2])?);
/// let b = Var::param(Tensor::from_vec(vec![3.0, 4.0], &[2])?);
/// let loss = a.mul(&b)?.sum_to_scalar();
/// loss.backward();
/// assert_eq!(a.grad().unwrap().data(), &[3.0, 4.0]);
/// assert_eq!(b.grad().unwrap().data(), &[1.0, 2.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Clone)]
pub struct Var(pub(crate) Rc<VarInner>);

impl std::fmt::Debug for Var {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Var")
            .field("id", &self.0.id)
            .field("op", &self.0.op)
            .field("shape", &self.0.value.borrow().shape().to_vec())
            .field("requires_grad", &self.0.requires_grad)
            .field("parents", &self.0.parents.len())
            .finish()
    }
}

impl Var {
    fn node(
        op: &'static str,
        value: Tensor,
        requires_grad: bool,
        parents: Vec<Var>,
        backward: Option<BackwardFn>,
    ) -> Self {
        Self(Rc::new(VarInner {
            id: fresh_id(),
            value: RefCell::new(value),
            grad: RefCell::new(None),
            requires_grad,
            #[cfg(debug_assertions)]
            parent_versions: parents.iter().map(|p| p.0.version.get()).collect(),
            parents,
            backward,
            op,
            version: Cell::new(0),
            visited: Cell::new(0),
        }))
    }

    /// A trainable leaf: participates in gradient computation.
    pub fn param(value: Tensor) -> Self {
        Self::node("leaf", value, true, Vec::new(), None)
    }

    /// A non-trainable leaf (network input, label, constant).
    pub fn constant(value: Tensor) -> Self {
        Self::node("leaf", value, false, Vec::new(), None)
    }

    /// Builds a node for a **custom differentiable operation** defined
    /// outside this crate: `value` is the eagerly computed forward result,
    /// `parents` the inputs, and `backward` distributes the output
    /// gradient — which it receives by value — to the parents with
    /// [`Var::add_grad`]. A closure that needs a forward input reads it
    /// from `parents[i].value()` when it runs.
    ///
    /// Downstream crates use this to add ops without forking the engine —
    /// e.g. `ttsnn_core::quant::fake_quant_int8`'s straight-through
    /// estimator.
    ///
    /// ```
    /// use ttsnn_autograd::Var;
    /// use ttsnn_tensor::Tensor;
    ///
    /// # fn main() -> Result<(), ttsnn_tensor::ShapeError> {
    /// let x = Var::param(Tensor::from_vec(vec![-1.0, 2.0], &[2])?);
    /// // custom op: clamp(x, 0, 1) with straight-through gradient
    /// let y = Var::custom(
    ///     x.value().map(|v| v.clamp(0.0, 1.0)),
    ///     vec![x.clone()],
    ///     Box::new(|g, parents| parents[0].add_grad(g)),
    /// );
    /// y.sum_to_scalar().backward();
    /// assert_eq!(x.grad().unwrap().data(), &[1.0, 1.0]);
    /// # Ok(())
    /// # }
    /// ```
    pub fn custom(value: Tensor, parents: Vec<Var>, backward: BackwardFn) -> Self {
        Self::from_op("custom", value, parents, backward)
    }

    /// Accumulates a gradient contribution into this node, taking the
    /// tensor: the first contribution becomes the node's gradient as is,
    /// later ones are added into it and their buffer recycled (as is a
    /// contribution to a node that does not require gradients). Intended
    /// for use inside [`Var::custom`] backward closures.
    ///
    /// # Panics
    ///
    /// Panics if `g`'s shape differs from previously accumulated
    /// gradients.
    pub fn add_grad(&self, g: Tensor) {
        self.accumulate_grad(g);
    }

    pub(crate) fn from_op(
        op: &'static str,
        value: Tensor,
        parents: Vec<Var>,
        backward: BackwardFn,
    ) -> Self {
        let requires_grad = parents.iter().any(|p| p.0.requires_grad);
        Self::node(op, value, requires_grad, parents, requires_grad.then_some(backward))
    }

    /// Borrow of the node's current value.
    ///
    /// # Panics
    ///
    /// Panics if the value is concurrently mutably borrowed (only possible
    /// from inside op implementations).
    pub fn value(&self) -> Ref<'_, Tensor> {
        self.0.value.borrow()
    }

    /// Clone of the node's current value.
    pub fn to_tensor(&self) -> Tensor {
        self.0.value.borrow().clone()
    }

    /// The value's shape.
    pub fn shape(&self) -> Vec<usize> {
        self.0.value.borrow().shape().to_vec()
    }

    /// Whether gradients flow into this node.
    pub fn requires_grad(&self) -> bool {
        self.0.requires_grad
    }

    /// The accumulated gradient, if [`Var::backward`] has reached this node.
    pub fn grad(&self) -> Option<Tensor> {
        self.0.grad.borrow().clone()
    }

    /// Runs `f` on a borrow of the accumulated gradient (no copy).
    pub(crate) fn with_grad<R>(&self, f: impl FnOnce(Option<&Tensor>) -> R) -> R {
        f(self.0.grad.borrow().as_ref())
    }

    /// Clears the accumulated gradient (its buffer goes back to the arena).
    pub fn zero_grad(&self) {
        if let Some(g) = self.0.grad.borrow_mut().take() {
            g.recycle();
        }
    }

    /// Overwrites the value of a **leaf** in place (used by optimizers and
    /// checkpoint loading).
    ///
    /// Backward closures read their inputs from the tape when they run, so
    /// a value must not change between building a graph on it and calling
    /// `backward()` on that graph: update parameters **after** `backward`
    /// (as every optimizer does), or rebuild the graph after the update (as
    /// a finite-difference check does). Debug builds enforce this — a
    /// backward that finds a parent rewritten since the forward panics and
    /// names the op.
    ///
    /// # Panics
    ///
    /// Panics if the new tensor's shape differs from the current one.
    pub fn set_value(&self, value: Tensor) {
        assert_eq!(
            self.0.value.borrow().shape(),
            value.shape(),
            "set_value: shape must be preserved"
        );
        *self.0.value.borrow_mut() = value;
        self.0.version.set(self.0.version.get() + 1);
    }

    /// Applies `f` to the stored value in place (used by optimizers). The
    /// contract of [`Var::set_value`] applies: not between a forward and
    /// its backward.
    pub fn update_value(&self, f: impl FnOnce(&mut Tensor)) {
        f(&mut self.0.value.borrow_mut());
        self.0.version.set(self.0.version.get() + 1);
    }

    /// A new leaf sharing this node's current value but cut off from the
    /// graph — gradients will not flow past it. Mirrors `tensor.detach()` in
    /// PyTorch.
    pub fn detach(&self) -> Var {
        Var::constant(self.value().scratch_copy())
    }

    /// How many times the value was rewritten ([`Var::set_value`],
    /// [`Var::update_value`]): anything derived from the value holds it to
    /// tell whether it still is.
    pub fn version(&self) -> u64 {
        self.0.version.get()
    }

    /// Unique node id (useful for debugging graph structure).
    pub fn id(&self) -> u64 {
        self.0.id
    }

    /// Moves `g` into this node's gradient: stored as is if it is the first
    /// contribution, added in and recycled otherwise (or if the node does
    /// not track gradients).
    pub(crate) fn accumulate_grad(&self, g: Tensor) {
        if !self.0.requires_grad {
            return g.recycle();
        }
        let mut slot = self.0.grad.borrow_mut();
        match slot.as_mut() {
            Some(existing) => {
                existing.add_scaled(&g, 1.0).expect("gradient shape mismatch during accumulation");
                g.recycle();
            }
            None => *slot = Some(g),
        }
    }

    /// [`Var::accumulate_grad`] for a gradient the caller still needs: added
    /// in place, or copied if it is the first contribution.
    pub(crate) fn accumulate_grad_ref(&self, g: &Tensor) {
        if !self.0.requires_grad {
            return;
        }
        let mut slot = self.0.grad.borrow_mut();
        match slot.as_mut() {
            Some(existing) => {
                existing.add_scaled(g, 1.0).expect("gradient shape mismatch during accumulation");
            }
            None => *slot = Some(g.scratch_copy()),
        }
    }

    /// Adds `g` into leading-axis rows `row0..` of this node's gradient —
    /// how a row range hands its gradient to the tensor it was cut from. The
    /// gradient starts as zeros, so rows no range covers stay zero, and a
    /// row's first contribution is `0.0 + v`: `v` bit for bit unless `v` is
    /// `-0.0`, which no GEMM accumulator or col2im sum (what reaches a
    /// range on the training tape) can be.
    pub(crate) fn accumulate_grad_rows(&self, row0: usize, g: Tensor) {
        if !self.0.requires_grad {
            return g.recycle();
        }
        let mut slot = self.0.grad.borrow_mut();
        let full = slot.get_or_insert_with(|| Tensor::scratch_zeroed(self.value().shape()));
        let row = full.len() / full.shape()[0].max(1);
        let rows = &mut full.data_mut()[row0 * row..row0 * row + g.len()];
        for (a, &v) in rows.iter_mut().zip(g.data()) {
            *a += v;
        }
        g.recycle();
    }

    /// Installs a zero gradient if nothing has been accumulated yet, so a
    /// backward sweep runs this node's closure even when its gradient
    /// arrives some other way (see [`crate::ops::LifScan::carry`]).
    pub(crate) fn ensure_grad(&self) {
        let mut slot = self.0.grad.borrow_mut();
        if self.0.requires_grad && slot.is_none() {
            *slot = Some(Tensor::scratch_zeroed(self.value().shape()));
        }
    }

    /// Debug builds: panics if a parent's value was rewritten after this
    /// node was built on it (its backward closure would read the new one).
    fn assert_parents_unchanged(&self) {
        #[cfg(debug_assertions)]
        for (i, (p, &seen)) in self.0.parents.iter().zip(&self.0.parent_versions).enumerate() {
            assert!(
                p.0.version.get() == seen,
                "backward of `{}`: input {i} was rewritten (set_value / update_value) between \
                 forward and backward; its gradient would be computed from the new value",
                self.0.op
            );
        }
    }

    /// Runs reverse-mode differentiation from this node, accumulating
    /// gradients into every `requires_grad` node of the graph.
    ///
    /// The seed gradient is a tensor of ones shaped like this node's value,
    /// so calling `backward` on a scalar loss yields ordinary gradients.
    ///
    /// # Panics
    ///
    /// Panics if called on a node with more than one element (reduce to a
    /// scalar first, e.g. with [`Var::sum_to_scalar`]).
    pub fn backward(&self) {
        assert_eq!(
            self.value().len(),
            1,
            "backward: call on a scalar loss (got shape {:?})",
            self.shape()
        );
        self.backward_with_seed(&Tensor::ones(&self.shape()));
    }

    /// Runs reverse-mode differentiation with an explicit seed gradient
    /// (vector–Jacobian product).
    ///
    /// Each interior node's gradient is complete when the sweep reaches it;
    /// it is taken out of the node and moved into the node's backward
    /// closure, so after the sweep only leaves hold gradients.
    ///
    /// # Panics
    ///
    /// Panics if `seed`'s shape differs from this node's value shape, or
    /// (debug builds) if a value the graph was built on has been rewritten
    /// since — see [`Var::set_value`].
    pub fn backward_with_seed(&self, seed: &Tensor) {
        assert_eq!(
            seed.shape(),
            self.shape().as_slice(),
            "backward_with_seed: seed shape mismatch"
        );
        let sweep = SWEEP.with(|c| {
            c.set(c.get() + 1);
            c.get()
        });
        // A nested sweep (a backward closure calling `backward`) finds the
        // buffers taken and starts from empty ones of its own.
        let Sweep { mut order, mut stack } = SWEEP_BUFFERS.take();
        // Iterative topological sort (post-order DFS) to avoid recursion
        // depth limits on long BPTT chains.
        stack.push((self.clone(), false));
        while let Some((node, expanded)) = stack.pop() {
            if expanded {
                order.push(node);
                continue;
            }
            if node.0.visited.replace(sweep) == sweep || !node.0.requires_grad {
                continue;
            }
            stack.push((node.clone(), true));
            for p in &node.0.parents {
                if p.0.requires_grad && p.0.visited.get() != sweep {
                    stack.push((p.clone(), false));
                }
            }
        }
        self.accumulate_grad_ref(seed);
        for node in order.drain(..).rev() {
            let Some(backward) = node.0.backward.as_ref() else { continue };
            let Some(grad) = node.0.grad.borrow_mut().take() else { continue };
            node.assert_parents_unchanged();
            backward(grad, &node.0.parents);
        }
        SWEEP_BUFFERS.set(Sweep { order, stack });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ttsnn_tensor::Rng;

    #[test]
    fn leaf_properties() {
        let p = Var::param(Tensor::ones(&[2, 2]));
        assert!(p.requires_grad());
        assert!(p.grad().is_none());
        let c = Var::constant(Tensor::ones(&[2]));
        assert!(!c.requires_grad());
    }

    #[test]
    fn backward_on_scalar_sets_leaf_grad() {
        let p = Var::param(Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]).unwrap());
        let loss = p.sum_to_scalar();
        loss.backward();
        assert_eq!(p.grad().unwrap().data(), &[1.0, 1.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "scalar")]
    fn backward_on_non_scalar_panics() {
        let p = Var::param(Tensor::ones(&[3]));
        p.backward();
    }

    #[test]
    fn grads_accumulate_across_backwards() {
        let p = Var::param(Tensor::from_vec(vec![2.0], &[1]).unwrap());
        let l1 = p.scale(3.0).sum_to_scalar();
        l1.backward();
        let l2 = p.scale(5.0).sum_to_scalar();
        l2.backward();
        assert_eq!(p.grad().unwrap().data(), &[8.0]);
        p.zero_grad();
        assert!(p.grad().is_none());
    }

    #[test]
    fn detach_blocks_gradients() {
        let p = Var::param(Tensor::from_vec(vec![4.0], &[1]).unwrap());
        let d = p.detach();
        let loss = d.scale(10.0).sum_to_scalar();
        loss.backward();
        assert!(p.grad().is_none());
    }

    #[test]
    fn diamond_graph_accumulates_both_paths() {
        // y = x*x + x  => dy/dx = 2x + 1
        let x = Var::param(Tensor::from_vec(vec![3.0], &[1]).unwrap());
        let y = x.mul(&x).unwrap().add(&x).unwrap().sum_to_scalar();
        y.backward();
        assert_eq!(x.grad().unwrap().data(), &[7.0]);
    }

    #[test]
    fn shared_subexpression_visited_once() {
        // z = (x+x); y = z*z => dy/dx = 2*z*2 = 8x
        let x = Var::param(Tensor::from_vec(vec![1.5], &[1]).unwrap());
        let z = x.add(&x).unwrap();
        let y = z.mul(&z).unwrap().sum_to_scalar();
        y.backward();
        assert_eq!(x.grad().unwrap().data(), &[12.0]);
    }

    #[test]
    fn deep_chain_does_not_overflow_stack() {
        // 5000-node chain exercises the iterative DFS.
        let x = Var::param(Tensor::from_vec(vec![1.0], &[1]).unwrap());
        let mut y = x.clone();
        for _ in 0..5000 {
            y = y.add_scalar(0.0);
        }
        y.sum_to_scalar().backward();
        assert_eq!(x.grad().unwrap().data(), &[1.0]);
    }

    #[test]
    fn update_and_set_value() {
        let p = Var::param(Tensor::zeros(&[2]));
        p.update_value(|t| t.map_inplace(|_| 5.0));
        assert_eq!(p.to_tensor().data(), &[5.0, 5.0]);
        p.set_value(Tensor::ones(&[2]));
        assert_eq!(p.to_tensor().data(), &[1.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "shape")]
    fn set_value_rejects_shape_change() {
        let p = Var::param(Tensor::zeros(&[2]));
        p.set_value(Tensor::zeros(&[3]));
    }

    #[test]
    fn constant_only_graph_skips_backward() {
        let a = Var::constant(Tensor::ones(&[2]));
        let b = a.scale(2.0);
        assert!(!b.requires_grad());
        b.sum_to_scalar(); // no panic, no grads anywhere
    }

    #[test]
    fn backward_with_seed_weights_gradient() {
        let mut rng = Rng::seed_from(1);
        let p = Var::param(Tensor::randn(&[4], &mut rng));
        let y = p.scale(2.0);
        let seed = Tensor::from_vec(vec![1.0, 0.0, -1.0, 0.5], &[4]).unwrap();
        y.backward_with_seed(&seed);
        assert_eq!(p.grad().unwrap().data(), &[2.0, 0.0, -2.0, 1.0]);
    }

    /// The copy-free tape reads a weight when backward runs: rewriting it
    /// between forward and backward is caught, and the op is named.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "backward of `mul`: input 1 was rewritten")]
    fn rewriting_a_leaf_between_forward_and_backward_panics() {
        let x = Var::constant(Tensor::from_vec(vec![2.0, 3.0], &[2]).unwrap());
        let w = Var::param(Tensor::ones(&[2]));
        let loss = x.mul(&w).unwrap().sum_to_scalar();
        w.update_value(|t| t.map_inplace(|v| v + 1.0));
        loss.backward();
    }

    /// The two legitimate orders: update after backward (every optimizer),
    /// and rebuild the graph after a perturbation (every finite-difference
    /// check).
    #[test]
    fn update_after_backward_and_rebuild_after_update_are_fine() {
        let x = Var::constant(Tensor::from_vec(vec![2.0, 3.0], &[2]).unwrap());
        let w = Var::param(Tensor::ones(&[2]));
        let loss = x.mul(&w).unwrap().sum_to_scalar();
        loss.backward();
        let g = w.grad().unwrap();
        assert_eq!(g.data(), &[2.0, 3.0]);
        w.update_value(|t| t.add_scaled(&g, -0.5).unwrap());
        w.set_value(w.to_tensor());
        w.zero_grad();
        // A fresh graph on the updated value backpropagates normally.
        let loss = x.mul(&w).unwrap().mul(&w).unwrap().sum_to_scalar();
        loss.backward();
        assert_eq!(w.grad().unwrap().data(), &[2.0 * 2.0 * 0.0, 2.0 * 3.0 * -0.5]);
    }

    #[test]
    fn interior_gradients_are_consumed_and_dropped_nodes_return_their_buffers() {
        use ttsnn_tensor::runtime::scratch_depth;
        let p = Var::param(Tensor::ones(&[64]));
        let mid = p.scale(2.0);
        let loss = mid.scale(3.0).sum_to_scalar();
        loss.backward();
        assert!(mid.grad().is_none(), "an interior gradient outlived its backward");
        assert_eq!(p.grad().unwrap().data()[0], 6.0);
        let depth = scratch_depth();
        drop(loss);
        // `loss` held the `scale(3.0)` node alive; its 64-element value is
        // back in the arena (the `[1]` scalar too).
        assert!(scratch_depth() > depth, "a dropped node's value was not recycled");
    }

    #[test]
    fn dropped_parameters_are_freed_not_parked() {
        use ttsnn_tensor::runtime::scratch_depth;
        // A thread of its own: an arena no other test touches.
        std::thread::spawn(|| {
            let p = Var::param(Tensor::ones(&[64]));
            let c = Var::constant(Tensor::ones(&[64]));
            drop(p);
            assert_eq!(scratch_depth(), 0, "a dropped parameter was parked");
            drop(c);
            assert_eq!(scratch_depth(), 1, "a dropped constant was not recycled");
        })
        .join()
        .unwrap();
    }
}
