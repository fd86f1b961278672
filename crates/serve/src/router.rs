//! Multi-plan routing: several frozen checkpoints — f32 and int8 plans
//! alike — mounted behind one listener and addressed by plan name.
//!
//! [`Router::load`] freezes every [`PlanSpec`] into its own
//! [`Cluster`] (own replicas, scheduler, and metrics; weights of each
//! plan loaded once and `Arc`-shared across that plan's replicas). The
//! server routes each request by its wire-level plan name; `/metrics`
//! scrapes render every plan's snapshot side by side; and
//! [`Router::drift`] re-measures int8-vs-f32 logit drift **online**, on
//! live clusters, without touching their serving state.

use std::collections::BTreeMap;
use std::io;

use ttsnn_infer::{
    plan_drift, Cluster, ClusterConfig, ClusterMetrics, ClusterSession, InferError, PlanDrift,
    QuantSpec,
};
use ttsnn_obs::watchdog::HealthReport;
use ttsnn_tensor::Tensor;

use crate::telemetry::HealthBoard;

/// One plan to mount: a name, a serving config, an optional quantization
/// spec (present = freeze an int8 plan), and the checkpoint bytes.
pub struct PlanSpec {
    /// Routing key carried in each request frame.
    pub name: String,
    /// Cluster topology and engine config for this plan.
    pub config: ClusterConfig,
    /// `Some` freezes the checkpoint into an int8 plan
    /// (`Cluster::load_quantized`); `None` serves f32.
    pub quant: Option<QuantSpec>,
    /// Serialized checkpoint (`ttsnn_snn::checkpoint` format).
    pub checkpoint: Vec<u8>,
}

struct Plan {
    cluster: Cluster,
    session: ClusterSession,
}

/// A set of mounted plans, routed by name.
pub struct Router {
    plans: BTreeMap<String, Plan>,
    health: HealthBoard,
}

impl Router {
    /// Freezes every spec into its own serving cluster.
    ///
    /// # Errors
    ///
    /// `InvalidInput` for a duplicate or empty plan name, plus anything
    /// `Cluster::load` / `Cluster::load_quantized` rejects (bad config,
    /// malformed checkpoint, empty calibration set).
    pub fn load(specs: Vec<PlanSpec>) -> io::Result<Router> {
        let invalid = |msg: String| io::Error::new(io::ErrorKind::InvalidInput, msg);
        let mut plans = BTreeMap::new();
        for spec in specs {
            if spec.name.is_empty() {
                return Err(invalid("plan name must not be empty".into()));
            }
            if plans.contains_key(&spec.name) {
                return Err(invalid(format!("duplicate plan name {:?}", spec.name)));
            }
            let cluster = match spec.quant {
                Some(q) => Cluster::load_quantized(spec.config, q, spec.checkpoint.as_slice())?,
                None => Cluster::load(spec.config, spec.checkpoint.as_slice())?,
            };
            let session = cluster.session();
            plans.insert(spec.name, Plan { cluster, session });
        }
        Ok(Router { plans, health: HealthBoard::default() })
    }

    /// The health board the telemetry sampler publishes per-plan
    /// watchdog verdicts to (and `/healthz` reads from). Cloning shares
    /// the same board.
    pub fn health_board(&self) -> HealthBoard {
        self.health.clone()
    }

    /// A plan's current watchdog verdict — `Healthy` before the first
    /// sampler tick, or when telemetry is off.
    pub fn health(&self, plan: &str) -> HealthReport {
        self.health.get(plan)
    }

    /// Every mounted plan's current health, plan-name order.
    pub fn health_all(&self) -> Vec<(String, HealthReport)> {
        self.plans.keys().map(|name| (name.clone(), self.health.get(name))).collect()
    }

    /// Mounted plan names, sorted.
    pub fn plan_names(&self) -> Vec<&str> {
        self.plans.keys().map(String::as_str).collect()
    }

    /// The shared session of a mounted plan, or `None` for an unknown
    /// name.
    pub fn session(&self, plan: &str) -> Option<&ClusterSession> {
        self.plans.get(plan).map(|p| &p.session)
    }

    /// The underlying cluster of a mounted plan.
    pub fn cluster(&self, plan: &str) -> Option<&Cluster> {
        self.plans.get(plan).map(|p| &p.cluster)
    }

    /// A consistent metrics snapshot of every mounted plan, in name
    /// order — the `/metrics` page's data source.
    pub fn metrics(&self) -> Vec<(String, ClusterMetrics)> {
        self.plans.iter().map(|(name, p)| (name.clone(), p.cluster.metrics())).collect()
    }

    /// Measures `candidate`'s logit drift against `reference` **online**:
    /// [`ttsnn_infer::plan_drift`] on the two live clusters (per-sample
    /// determinism makes concurrent traffic irrelevant to the bits).
    ///
    /// # Errors
    ///
    /// `InferError::Shape` naming an unknown plan; otherwise the first
    /// ticket error from either plan.
    pub fn drift(
        &self,
        reference: &str,
        candidate: &str,
        inputs: &[Tensor],
    ) -> Result<PlanDrift, InferError> {
        let session = |name: &str| {
            self.session(name).ok_or_else(|| InferError::Shape(format!("unknown plan {name:?}")))
        };
        plan_drift(session(reference)?, session(candidate)?, inputs)
    }
}
