//! Trainable-parameter storage and the optimizer (Adam with decoupled
//! weight decay and global-norm gradient clipping).
//!
//! Parameters live in a [`ParamStore`] *between* steps. A training step:
//!
//! 1. creates a fresh [`Tape`](crate::Tape),
//! 2. binds each needed parameter as a leaf via [`ParamStore::bind`],
//! 3. runs the forward pass and [`Tape::backward`](crate::Tape::backward),
//! 4. collects per-parameter gradients with [`ParamStore::collect_grads`],
//! 5. applies an optimizer update in place.

use crate::tape::{Gradients, Tape, Var};
use crate::tensor::Tensor;

/// Stable handle to a parameter in a [`ParamStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ParamId(pub(crate) usize);

impl ParamId {
    /// The raw index (used by serialization).
    pub fn index(&self) -> usize {
        self.0
    }

    /// Rebuilds a handle from a raw index. The caller is responsible for
    /// using it only against the store it came from (used by the federated
    /// trainer to iterate a whole store).
    pub fn from_index(index: usize) -> Self {
        ParamId(index)
    }
}

/// Owns named parameter tensors and their binding to the current tape.
///
/// `Clone` is cheap-ish (tensors are `Arc`-backed; only names and the
/// binding table are deep-copied) and is how data-parallel workers get an
/// independent per-tape binding state over shared frozen values.
#[derive(Default, Clone)]
pub struct ParamStore {
    names: Vec<String>,
    values: Vec<Tensor>,
    /// Var each param was bound to on the current tape (reset per step).
    bound: Vec<Option<Var>>,
}

impl ParamStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a parameter. Names must be unique (checked).
    pub fn register(&mut self, name: impl Into<String>, value: Tensor) -> ParamId {
        let name = name.into();
        assert!(
            !self.names.contains(&name),
            "duplicate parameter name: {name}"
        );
        self.names.push(name);
        self.values.push(value);
        self.bound.push(None);
        ParamId(self.values.len() - 1)
    }

    /// Number of registered parameters (tensors, not scalars).
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if no parameters are registered.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Total number of scalar parameters.
    pub fn num_scalars(&self) -> usize {
        self.values.iter().map(|t| t.numel()).sum()
    }

    /// The parameter's name.
    pub fn name(&self, id: ParamId) -> &str {
        &self.names[id.0]
    }

    /// The current value.
    pub fn value(&self, id: ParamId) -> &Tensor {
        &self.values[id.0]
    }

    /// Overwrites a parameter value (used by deserialization and tests).
    pub fn set_value(&mut self, id: ParamId, value: Tensor) {
        assert_eq!(
            self.values[id.0].shape(),
            value.shape(),
            "set_value shape mismatch for {}",
            self.names[id.0]
        );
        self.values[id.0] = value;
    }

    /// Looks a parameter up by name.
    pub fn find(&self, name: &str) -> Option<ParamId> {
        self.names.iter().position(|n| n == name).map(ParamId)
    }

    /// Iterates over `(name, tensor)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Tensor)> {
        self.names.iter().map(String::as_str).zip(self.values.iter())
    }

    /// Binds the parameter onto `tape` as a leaf, memoizing per step so a
    /// parameter used twice maps to one node (gradient accumulation then
    /// happens inside the tape).
    pub fn bind(&mut self, tape: &Tape, id: ParamId) -> Var {
        if let Some(v) = self.bound[id.0] {
            return v;
        }
        let v = tape.leaf(self.values[id.0].clone());
        self.bound[id.0] = Some(v);
        v
    }

    /// Clears per-step bindings. Call at the start of each step.
    pub fn begin_step(&mut self) {
        for b in &mut self.bound {
            *b = None;
        }
    }

    /// Extracts the gradient for every bound parameter, as
    /// `(ParamId, gradient)` pairs, consuming them from `grads`.
    pub fn collect_grads(&self, grads: &mut Gradients) -> Vec<(ParamId, Tensor)> {
        let mut out = Vec::new();
        for (i, b) in self.bound.iter().enumerate() {
            if let Some(var) = b {
                if let Some(g) = grads.take(*var) {
                    out.push((ParamId(i), g));
                }
            }
        }
        out
    }
}

/// Rescales gradients so their global L2 norm is at most `max_norm`.
/// Returns the pre-clip norm.
pub fn clip_global_norm(grads: &mut [(ParamId, Tensor)], max_norm: f32) -> f32 {
    let (total, scale) = clip_scale(grads, max_norm);
    if let Some(scale) = scale {
        for (_, g) in grads.iter_mut() {
            g.map_inplace(|x| x * scale);
        }
    }
    total
}

/// The global L2 norm of `grads` and, when it exceeds `max_norm`, the
/// factor [`clip_global_norm`] scales every gradient element by.
fn clip_scale(grads: &[(ParamId, Tensor)], max_norm: f32) -> (f32, Option<f32>) {
    let total: f32 = grads.iter().map(|(_, g)| g.sq_norm()).sum::<f32>().sqrt();
    let scale = (total > max_norm && total > 0.0).then(|| max_norm / total);
    (total, scale)
}

/// Adam hyperparameters.
#[derive(Debug, Clone)]
pub struct AdamConfig {
    /// Base learning rate (may be overridden per step via [`Adam::set_lr`]).
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Numerical stabilizer.
    pub eps: f32,
    /// Decoupled (AdamW-style) weight decay.
    pub weight_decay: f32,
}

impl Default for AdamConfig {
    fn default() -> Self {
        Self {
            lr: 1e-3,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay: 0.0,
        }
    }
}

/// A checkpointable snapshot of Adam's mutable state: the step counter
/// and, for every parameter that has received a gradient, its first and
/// second moments keyed by parameter name (names survive re-registration
/// order changes; raw indices would not).
#[derive(Debug, Clone, Default)]
pub struct AdamState {
    /// Number of updates applied.
    pub t: u64,
    /// `(param name, m, v)` for every parameter with moments.
    pub moments: Vec<(String, Tensor, Tensor)>,
}

/// Adam / AdamW optimizer.
pub struct Adam {
    cfg: AdamConfig,
    m: Vec<Option<Tensor>>,
    v: Vec<Option<Tensor>>,
    t: u64,
}

impl Adam {
    /// Creates an Adam optimizer from a config.
    pub fn new(cfg: AdamConfig) -> Self {
        Self {
            cfg,
            m: Vec::new(),
            v: Vec::new(),
            t: 0,
        }
    }

    /// Current learning rate.
    pub fn lr(&self) -> f32 {
        self.cfg.lr
    }

    /// Overrides the learning rate (used by warmup schedules).
    pub fn set_lr(&mut self, lr: f32) {
        self.cfg.lr = lr;
    }

    /// Number of updates applied so far.
    pub fn steps(&self) -> u64 {
        self.t
    }

    /// Snapshots the mutable optimizer state for checkpointing. Tensors
    /// are copy-on-write, so this is cheap and later `step`s cannot
    /// mutate the snapshot.
    pub fn export_state(&self, params: &ParamStore) -> AdamState {
        let mut moments = Vec::new();
        for idx in 0..self.m.len().min(params.len()) {
            if let (Some(m), Some(v)) = (&self.m[idx], &self.v[idx]) {
                moments.push((
                    params.name(ParamId(idx)).to_string(),
                    m.clone(),
                    v.clone(),
                ));
            }
        }
        AdamState { t: self.t, moments }
    }

    /// Restores a snapshot taken by [`Adam::export_state`]. Any existing
    /// moments are discarded first, so a partial snapshot (or
    /// [`AdamState::default`], for params-only checkpoints) leaves the
    /// remaining moments cleanly reinitialized to zero-on-first-use.
    /// Moments for names absent from `params` are ignored (forward
    /// compatibility, mirroring parameter loading).
    pub fn import_state(
        &mut self,
        params: &ParamStore,
        state: &AdamState,
    ) -> Result<(), String> {
        let mut m = vec![None; params.len()];
        let mut v = vec![None; params.len()];
        for (name, sm, sv) in &state.moments {
            let Some(id) = params.find(name) else { continue };
            let shape = params.value(id).shape();
            if sm.shape() != shape || sv.shape() != shape {
                return Err(format!(
                    "adam moments for {} have shape {:?}/{:?} but the parameter is {:?}",
                    name,
                    sm.shape(),
                    sv.shape(),
                    shape
                ));
            }
            m[id.0] = Some(sm.clone());
            v[id.0] = Some(sv.clone());
        }
        self.m = m;
        self.v = v;
        self.t = state.t;
        Ok(())
    }

    /// Applies one Adam update in place.
    pub fn step(&mut self, params: &mut ParamStore, grads: &[(ParamId, Tensor)]) {
        self.update(params, grads, |g| g);
    }

    /// [`clip_global_norm`] to `max_norm` followed by [`Adam::step`], fused:
    /// the clip factor is applied to each gradient element as the update
    /// reads it, so the gradients are neither rewritten nor read twice.
    /// Every float operation is the unfused pair's, in the same order.
    /// Returns the pre-clip norm.
    pub fn step_clipped(
        &mut self,
        params: &mut ParamStore,
        grads: &[(ParamId, Tensor)],
        max_norm: f32,
    ) -> f32 {
        let (total, scale) = clip_scale(grads, max_norm);
        match scale {
            Some(scale) => self.update(params, grads, |g| g * scale),
            None => self.update(params, grads, |g| g),
        }
        total
    }

    /// The Adam update with each gradient element read through `grad`:
    /// one pass over zipped slices per parameter, free of bounds checks.
    /// Every operation is elementwise (no FMA contraction, IEEE-exact
    /// divide and square root), so the loop vectorizes without changing
    /// a bit.
    fn update(
        &mut self,
        params: &mut ParamStore,
        grads: &[(ParamId, Tensor)],
        grad: impl Fn(f32) -> f32,
    ) {
        if self.m.len() < params.len() {
            self.m.resize(params.len(), None);
            self.v.resize(params.len(), None);
        }
        self.t += 1;
        let t = self.t as f32;
        let bc1 = 1.0 - self.cfg.beta1.powf(t);
        let bc2 = 1.0 - self.cfg.beta2.powf(t);
        let (b1, b2, eps, lr, wd) = (
            self.cfg.beta1,
            self.cfg.beta2,
            self.cfg.eps,
            self.cfg.lr,
            self.cfg.weight_decay,
        );
        for (id, g) in grads {
            let idx = id.0;
            let m = self.m[idx].get_or_insert_with(|| Tensor::zeros(g.shape()));
            let v = self.v[idx].get_or_insert_with(|| Tensor::zeros(g.shape()));
            let pd = params.values[idx].data_mut();
            let name = &params.names[idx];
            assert_eq!(pd.len(), g.numel(), "gradient shape for {name}");
            for (((p, m), v), &gi) in pd
                .iter_mut()
                .zip(m.data_mut())
                .zip(v.data_mut())
                .zip(g.data())
            {
                let gi = grad(gi);
                *m = b1 * *m + (1.0 - b1) * gi;
                *v = b2 * *v + (1.0 - b2) * gi * gi;
                let mhat = *m / bc1;
                let vhat = *v / bc2;
                *p -= lr * (mhat / (vhat.sqrt() + eps) + wd * *p);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tape;

    /// Minimizes (w - 3)^2 and checks convergence.
    fn quadratic_convergence(mut step: impl FnMut(&mut ParamStore, &[(ParamId, Tensor)])) -> f32 {
        let mut params = ParamStore::new();
        let w = params.register("w", Tensor::scalar(0.0));
        for _ in 0..300 {
            params.begin_step();
            let tape = Tape::new();
            let wv = params.bind(&tape, w);
            let c = tape.constant(Tensor::scalar(3.0));
            let diff = tape.sub(wv, c);
            let loss = tape.mul(diff, diff);
            let mut grads = tape.backward(loss);
            let pg = params.collect_grads(&mut grads);
            step(&mut params, &pg);
        }
        params.value(w).data()[0]
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut opt = Adam::new(AdamConfig {
            lr: 0.1,
            ..Default::default()
        });
        let w = quadratic_convergence(|p, g| opt.step(p, g));
        assert!((w - 3.0).abs() < 1e-2, "w = {w}");
    }

    #[test]
    fn weight_decay_shrinks_unused_directions() {
        let mut params = ParamStore::new();
        let w = params.register("w", Tensor::scalar(5.0));
        let mut opt = Adam::new(AdamConfig {
            lr: 0.1,
            weight_decay: 0.1,
            ..Default::default()
        });
        // zero gradient: decoupled decay should still shrink the weight
        for _ in 0..50 {
            let g = vec![(w, Tensor::scalar(0.0))];
            opt.step(&mut params, &g);
        }
        assert!(params.value(w).data()[0] < 5.0 * 0.7);
    }

    #[test]
    fn adam_state_roundtrip_resumes_identically() {
        // drive two quadratics so both params get moments
        let build = || {
            let mut params = ParamStore::new();
            params.register("a", Tensor::scalar(4.0));
            params.register("b", Tensor::from_vec(vec![1.0, -2.0], &[2]).unwrap());
            params
        };
        let grads = |params: &ParamStore, step: u64| {
            vec![
                (
                    ParamId(0),
                    Tensor::scalar(params.value(ParamId(0)).data()[0] - 1.0),
                ),
                (
                    ParamId(1),
                    Tensor::from_vec(
                        params
                            .value(ParamId(1))
                            .data()
                            .iter()
                            .map(|x| x + step as f32 * 0.01)
                            .collect(),
                        &[2],
                    )
                    .unwrap(),
                ),
            ]
        };
        let cfg = AdamConfig {
            lr: 0.05,
            weight_decay: 0.01,
            ..Default::default()
        };

        // straight-through run
        let mut p1 = build();
        let mut o1 = Adam::new(cfg.clone());
        for s in 0..20 {
            let g = grads(&p1, s);
            o1.step(&mut p1, &g);
        }

        // run 10, snapshot, restore into a fresh optimizer, run 10 more
        let mut p2 = build();
        let mut o2 = Adam::new(cfg.clone());
        for s in 0..10 {
            let g = grads(&p2, s);
            o2.step(&mut p2, &g);
        }
        let snap = o2.export_state(&p2);
        assert_eq!(snap.t, 10);
        assert_eq!(snap.moments.len(), 2);
        let mut o3 = Adam::new(cfg);
        o3.import_state(&p2, &snap).unwrap();
        for s in 10..20 {
            let g = grads(&p2, s);
            o3.step(&mut p2, &g);
        }

        for id in [ParamId(0), ParamId(1)] {
            for (x, y) in p1.value(id).data().iter().zip(p2.value(id).data()) {
                assert_eq!(x.to_bits(), y.to_bits(), "resume diverged");
            }
        }
    }

    #[test]
    fn adam_import_rejects_shape_mismatch_and_skips_unknown() {
        let mut params = ParamStore::new();
        params.register("w", Tensor::zeros(&[2]));
        let mut opt = Adam::new(AdamConfig::default());
        let bad = AdamState {
            t: 3,
            moments: vec![("w".into(), Tensor::zeros(&[3]), Tensor::zeros(&[3]))],
        };
        assert!(opt.import_state(&params, &bad).is_err());
        let unknown = AdamState {
            t: 5,
            moments: vec![("gone".into(), Tensor::zeros(&[1]), Tensor::zeros(&[1]))],
        };
        opt.import_state(&params, &unknown).unwrap();
        assert_eq!(opt.steps(), 5);
    }

    #[test]
    fn clip_global_norm_rescales() {
        let mut params = ParamStore::new();
        let a = params.register("a", Tensor::zeros(&[2]));
        let mut grads = vec![(a, Tensor::from_vec(vec![3.0, 4.0], &[2]).unwrap())];
        let pre = clip_global_norm(&mut grads, 1.0);
        assert!((pre - 5.0).abs() < 1e-6);
        let post = grads[0].1.sq_norm().sqrt();
        assert!((post - 1.0).abs() < 1e-5);
        // below the threshold: untouched
        let mut grads2 = vec![(a, Tensor::from_vec(vec![0.3, 0.4], &[2]).unwrap())];
        clip_global_norm(&mut grads2, 1.0);
        assert_eq!(grads2[0].1.data(), &[0.3, 0.4]);
    }

    #[test]
    fn bind_memoizes_within_step() {
        let mut params = ParamStore::new();
        let w = params.register("w", Tensor::scalar(1.0));
        params.begin_step();
        let tape = Tape::new();
        let v1 = params.bind(&tape, w);
        let v2 = params.bind(&tape, w);
        assert_eq!(v1, v2);
        params.begin_step();
        let tape2 = Tape::new();
        let v3 = params.bind(&tape2, w);
        assert_eq!(v3.id, 0, "fresh tape starts over");
    }

    #[test]
    #[should_panic(expected = "duplicate parameter name")]
    fn duplicate_names_rejected() {
        let mut params = ParamStore::new();
        params.register("w", Tensor::scalar(1.0));
        params.register("w", Tensor::scalar(2.0));
    }
}
