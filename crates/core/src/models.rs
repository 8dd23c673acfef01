//! The model zoo (paper Sec. 5.1.3): DNN, MoE variants and MMoE.

use std::sync::Mutex;

use amoe_autograd::{Tape, Var};
use amoe_dataset::{Batch, DatasetMeta};
use amoe_nn::optim::{Adam, Optimizer};
use amoe_nn::{Bound, Mlp, MlpGrads, ParamId, ParamSet};
use amoe_tensor::matmul::matmul;
use amoe_tensor::{ops, pool, reduce, Matrix, Rng};

use crate::config::MoeConfig;
use crate::features::FeatureEncoder;
use crate::gating::{ExpertRoutes, GateOutput, NoisyTopKGate};
use crate::losses::{adversarial_loss, hsc_loss, load_balance_loss, sample_adversarial_mask};
use crate::ranker::{GateTelemetry, OptimConfig, Ranker, StepStats};
use crate::serving::ServingMoe;

/// Builds one expert tower's layer dims from the config.
fn tower_dims(input_dim: usize, hidden: &[usize]) -> Vec<usize> {
    let mut dims = Vec::with_capacity(hidden.len() + 2);
    dims.push(input_dim);
    dims.extend_from_slice(hidden);
    dims.push(1);
    dims
}

// ---------------------------------------------------------------------------
// MoE family: MoE / Adv-MoE / HSC-MoE / Adv & HSC-MoE
// ---------------------------------------------------------------------------

/// The unified MoE model. [`MoeConfig::adversarial`] and
/// [`MoeConfig::hsc`] select the paper's four variants.
pub struct MoeModel {
    config: MoeConfig,
    params: ParamSet,
    encoder: FeatureEncoder,
    experts: Vec<Mlp>,
    inference_gate: NoisyTopKGate,
    /// Present iff `config.hsc`: identical structure to the inference
    /// gate, fed with the TC embedding, never noisy (it is a target
    /// distribution, not a router).
    constraint_gate: Option<NoisyTopKGate>,
    optimizer: Adam,
    clip_norm: f32,
    rng: Rng,
    /// Gate-routing telemetry accumulated while `amoe_obs` is enabled;
    /// drained per epoch through [`Ranker::take_gate_telemetry`].
    gate_telemetry: GateTelemetry,
    /// Buffers [`MoeModel::accumulate_gradients`] reuses from step to
    /// step. Training holds `&mut self` and reaches it without locking;
    /// the mutex only keeps the model `Sync` for serving threads.
    workspace: Mutex<StepWorkspace>,
}

/// Everything one training step writes besides the parameters' own
/// gradients, kept across steps so a warmed-up step allocates almost
/// nothing and touches no fresh pages. Every buffer only grows and is
/// resized to each step's rows before use, so a short batch (a partial
/// refit batch, a 3-row step) never reads rows a longer one left.
struct StepWorkspace {
    /// The encoder's outputs: `X`, the gate input and (under HSC) the
    /// TC rows.
    x: Matrix,
    gate_in: Matrix,
    tc: Matrix,
    /// The gate/loss tape, reset each step.
    loss_tape: Tape,
    /// The gates' parameters, bound onto the gate/loss tape.
    head_ids: Vec<ParamId>,
    routes: ExpertRoutes,
    /// One tower's `B x 1` output column, copied onto the loss tape.
    column: Matrix,
    /// Per-expert tower buffers, handed to the pool lanes as disjoint
    /// `&mut` slots.
    towers: Vec<TowerScratch>,
    /// The `X` cotangent merged from the towers.
    d_x: Matrix,
    /// The encoder backward's batch-sized scatter scratch.
    order: Vec<(usize, usize)>,
}

/// One expert tower's step buffers.
struct TowerScratch {
    /// The routed rows of `X`, then each layer's output
    /// ([`Mlp::forward_into`]).
    acts: Vec<Matrix>,
    /// The routed rows of the tower output's cotangent.
    d_out: Matrix,
    grads: MlpGrads,
}

impl StepWorkspace {
    fn new(head_ids: Vec<ParamId>, n_experts: usize) -> Self {
        StepWorkspace {
            x: Matrix::scalar(0.0),
            gate_in: Matrix::scalar(0.0),
            tc: Matrix::scalar(0.0),
            loss_tape: Tape::new(),
            head_ids,
            routes: ExpertRoutes::default(),
            column: Matrix::scalar(0.0),
            towers: (0..n_experts)
                .map(|_| TowerScratch {
                    acts: vec![Matrix::scalar(0.0)],
                    d_out: Matrix::scalar(0.0),
                    grads: MlpGrads::default(),
                })
                .collect(),
            d_x: Matrix::scalar(0.0),
            order: Vec::new(),
        }
    }
}

/// Everything a forward pass produces that losses and analyses consume.
struct MoeForward<'t> {
    gate: GateOutput<'t>,
    /// `B x N` matrix of raw expert logits.
    expert_matrix: Var<'t>,
    /// `B x 1` ensemble logits.
    logit: Var<'t>,
}

impl MoeModel {
    /// Builds the model for a dataset schema.
    ///
    /// # Panics
    /// Panics if the config is inconsistent with the schema.
    #[must_use]
    pub fn new(meta: &DatasetMeta, config: MoeConfig, optim: OptimConfig) -> Self {
        Self::build(meta, config, optim, None).expect("a fresh model loads no checkpoint")
    }

    /// Builds an inference-ready model from checkpointed weights: the
    /// structure comes from `(meta, config)`, the values from `params`
    /// (by name — extra tensors in `params` are ignored, missing or
    /// mis-shaped ones are a typed [`amoe_nn::LoadError::Mismatch`]).
    ///
    /// No initialiser runs: each of the model's parameters is the
    /// loaded tensor of its name, moved in ([`ParamSet::fill_from`]),
    /// and no gradient buffer exists until a first training step, so
    /// the model holds the checkpoint's weights once and nothing else.
    /// The gating-noise stream forks from the seed as in
    /// [`MoeModel::new`], so a warm-started model trains bit for bit as
    /// one built by `new` and overwritten with the same values would.
    ///
    /// This is the one constructor shared by the trainer's export path
    /// (save `model.params()`, reload for analysis/fine-tuning) and the
    /// `amoe-serve` hot-swap path (`RELOAD <ckpt>` builds the new model
    /// off the serving thread, then an `Arc` swap publishes it).
    /// Construction touches only `(meta, config)`-sized state — no
    /// dataset, no training history — so a reload is milliseconds even
    /// when the original trainer process is long gone.
    ///
    /// # Panics
    /// Panics if `config` is inconsistent with `meta` (same contract as
    /// [`MoeModel::new`]); file-shaped problems are returned as errors.
    pub fn from_params(
        meta: &DatasetMeta,
        config: MoeConfig,
        optim: OptimConfig,
        params: ParamSet,
    ) -> Result<Self, amoe_nn::LoadError> {
        Self::build(meta, config, optim, Some(params))
    }

    /// Warm-starts a model from a checkpoint file: the entry point the
    /// online refit loop uses to resume from the previously exported
    /// generation. Weights come from the file; optimizer state starts
    /// fresh (it is not checkpointed).
    ///
    /// # Panics
    /// Panics if `config` is inconsistent with `meta` (same contract
    /// as [`MoeModel::new`]); file problems are returned as errors.
    pub fn from_checkpoint(
        meta: &DatasetMeta,
        config: MoeConfig,
        optim: OptimConfig,
        path: impl AsRef<std::path::Path>,
    ) -> Result<Self, amoe_nn::LoadError> {
        Self::from_params(meta, config, optim, ParamSet::load(path)?)
    }

    /// [`MoeModel::new`] when `loaded` is `None`; otherwise
    /// [`MoeModel::from_params`]. Registration order is parameter
    /// order, and the init stream is forked before the noise stream
    /// either way.
    fn build(
        meta: &DatasetMeta,
        config: MoeConfig,
        optim: OptimConfig,
        loaded: Option<ParamSet>,
    ) -> Result<Self, amoe_nn::LoadError> {
        config.validate(meta);
        let mut rng = Rng::seed_from(config.seed);
        let mut init_rng = rng.fork(1);
        let noise_rng = rng.fork(2);
        let mut register = |params: &mut ParamSet| {
            let encoder = FeatureEncoder::new(params, meta, &config, &mut init_rng);
            let dims = tower_dims(config.input_dim(meta), &config.tower.hidden);
            let experts: Vec<Mlp> = (0..config.n_experts)
                .map(|i| Mlp::new(params, &format!("expert{i}"), &dims, &mut init_rng))
                .collect();
            let inference_gate = NoisyTopKGate::new(
                params,
                "gate.inference",
                config.gate_input_dim(meta),
                config.n_experts,
                config.noisy_gating,
                &mut init_rng,
            );
            let constraint_gate = config.hsc.then(|| {
                NoisyTopKGate::new(
                    params,
                    "gate.constraint",
                    config.emb_dim,
                    config.n_experts,
                    false,
                    &mut init_rng,
                )
            });
            (encoder, experts, inference_gate, constraint_gate)
        };
        let (params, (encoder, experts, inference_gate, constraint_gate)) = match loaded {
            Some(loaded) => ParamSet::fill_from(loaded, register)?,
            None => {
                let mut params = ParamSet::new();
                let parts = register(&mut params);
                (params, parts)
            }
        };
        let mut head_ids = inference_gate.param_ids();
        if let Some(cg) = &constraint_gate {
            head_ids.extend(cg.param_ids());
        }
        let workspace = StepWorkspace::new(head_ids, experts.len());
        Ok(MoeModel {
            config,
            params,
            encoder,
            experts,
            inference_gate,
            constraint_gate,
            optimizer: Adam::adamw(optim.lr, optim.weight_decay),
            clip_norm: optim.clip_norm,
            rng: noise_rng,
            gate_telemetry: GateTelemetry::default(),
            workspace: Mutex::new(workspace),
        })
    }

    /// The model's configuration.
    #[must_use]
    pub fn config(&self) -> &MoeConfig {
        &self.config
    }

    /// Read access to the parameters (checkpointing, serving export).
    #[must_use]
    pub fn params(&self) -> &ParamSet {
        &self.params
    }

    /// Mutable access to the parameters (checkpoint restore).
    pub fn params_mut(&mut self) -> &mut ParamSet {
        &mut self.params
    }

    /// The dense forward: every expert on every row, no gating noise.
    /// It is the oracle behind [`MoeModel::predict_logits_dense`] and
    /// feeds the case study's [`MoeModel::expert_logits`]; evaluation
    /// scores through [`ServingMoe`], and training runs the sparse
    /// split-graph step of [`MoeModel::accumulate_gradients`]. Only the
    /// gate is on the tape; each tower's output enters it as a leaf.
    fn forward<'t>(&self, tape: &'t Tape, batch: &Batch) -> MoeForward<'t> {
        let bound = self
            .params
            .bind_subset(tape, &self.inference_gate.param_ids());
        let x = self.encoder_input_infer(batch);
        let gate_in = tape.leaf(self.gate_input_infer(batch));
        let gate = self
            .inference_gate
            .forward(&bound, gate_in, self.config.top_k, None);
        let outs: Vec<Var<'t>> = self
            .experts
            .iter()
            .map(|e| tape.leaf(e.infer(&self.params, &x)))
            .collect();
        let expert_matrix = Var::concat_cols(&outs);
        let logit = (gate.probs * expert_matrix).row_sum();
        MoeForward {
            gate,
            expert_matrix,
            logit,
        }
    }

    /// Full-support softmax of the clean inference-gate logits for a
    /// batch — the "inference MoE gate values" clustered in Fig. 6.
    #[must_use]
    pub fn gate_probs_full(&self, batch: &Batch) -> Matrix {
        ops::softmax_rows(&self.gate_logits_infer(&self.gate_input_infer(batch)))
    }

    /// The expert towers (read-only, used by the serving path).
    #[must_use]
    pub fn experts(&self) -> &[Mlp] {
        &self.experts
    }

    /// The feature encoder (read-only, used by extraction).
    pub(crate) fn encoder(&self) -> &FeatureEncoder {
        &self.encoder
    }

    /// The model input `X` (Eq. 2), as training and serving build it.
    #[must_use]
    pub fn encoder_input_infer(&self, batch: &Batch) -> Matrix {
        self.encoder.input_infer(&self.params, batch)
    }

    /// The inference-gate input under the configured
    /// [`crate::config::GateInput`] ablation (every variant is
    /// servable), as training and serving build it.
    #[must_use]
    pub fn gate_input_infer(&self, batch: &Batch) -> Matrix {
        self.encoder.gate_input_infer(&self.params, batch)
    }

    /// Tape-free clean gate logits for serving.
    #[must_use]
    pub fn gate_logits_infer(&self, gate_input: &Matrix) -> Matrix {
        self.inference_gate.logits_infer(&self.params, gate_input)
    }

    /// Raw ensemble logits (pre-sigmoid) through the dense tape graph —
    /// every expert computed, no gating noise. The oracle the sparse
    /// path (serving and evaluation alike) must equal bit for bit.
    #[must_use]
    pub fn predict_logits_dense(&self, batch: &Batch) -> Vec<f32> {
        let tape = Tape::new();
        self.forward(&tape, batch).logit.value().into_vec()
    }

    /// Raw per-expert logits and the top-K selection mask for a batch
    /// (the case-study visual, Table 7 / Fig. 8).
    #[must_use]
    pub fn expert_logits(&self, batch: &Batch) -> (Matrix, Matrix) {
        let tape = Tape::new();
        let fwd = self.forward(&tape, batch);
        (fwd.expert_matrix.value(), fwd.gate.topk_mask)
    }
}

impl Ranker for MoeModel {
    fn name(&self) -> String {
        match (self.config.adversarial, self.config.hsc) {
            (false, false) => "MoE".to_string(),
            (true, false) => "Adv-MoE".to_string(),
            (false, true) => "HSC-MoE".to_string(),
            (true, true) => "Adv & HSC-MoE".to_string(),
        }
    }

    fn train_step(&mut self, batch: &Batch) -> StepStats {
        let stats = self.accumulate_gradients(batch);
        self.optimizer.step(&mut self.params);
        stats
    }

    /// Scores through the sparse serving path, so evaluation runs the
    /// code that serves (bit-equal to the dense oracle
    /// [`MoeModel::predict_logits_dense`] through a sigmoid).
    fn predict(&self, batch: &Batch) -> Vec<f32> {
        ServingMoe::new(self).predict(batch)
    }

    fn num_parameters(&self) -> usize {
        self.params.num_scalars()
    }

    fn take_gate_telemetry(&mut self) -> Option<GateTelemetry> {
        if self.gate_telemetry.steps == 0 {
            return None;
        }
        Some(std::mem::take(&mut self.gate_telemetry))
    }
}

impl MoeModel {
    /// Runs one forward/backward pass, leaving fresh (clipped) gradients
    /// in the parameter set without applying an optimizer update. Used
    /// by [`Ranker::train_step`] and by [`crate::finetune::FineTuner`],
    /// which filters the gradients before stepping its own optimizer.
    ///
    /// # Sparsity
    ///
    /// Each expert tower runs forward and backward only on the rows
    /// routed to it: its top-K rows plus, under AdvLoss, the rows that
    /// sampled it as a disagreeing expert. Every other row has gate
    /// probability 0 and mask entries 0, so its cotangent is ±0. The
    /// weight-gradient GEMM chains, the bias `col_sum` and the merge of
    /// the `X` cotangents add over rows in ascending order starting from
    /// +0.0, so dropping those ±0 terms leaves every sum, and so every
    /// gradient, bit for bit what the dense step computed.
    ///
    /// # Parallelism
    ///
    /// The computation graph is split at its natural seams so the
    /// mutually independent expert towers can fan out across the
    /// [`pool`] runtime:
    ///
    /// 1. the encoder gathers its outputs (`X`, the gate input, the TC
    ///    rows) from the tables into workspace buffers, with no tape;
    /// 2. a gate/loss tape runs the gate forward, then the adversarial
    ///    mask is sampled (the RNG draw order is gating noise, then
    ///    mask), and the two masks route each expert its rows;
    /// 3. each expert tower runs the tape-free forward that serves it
    ///    ([`Mlp::forward_into`]) on its rows of `X`, keeping each
    ///    layer's input — one pool task per expert, nothing to do for
    ///    an expert with no rows; its outputs are scattered into a
    ///    `B x 1` zero column;
    /// 4. the gate/loss tape consumes those columns as leaves, builds
    ///    all loss terms, and back-propagates — serial;
    /// 5. each routed tower runs [`Mlp::backward_into`] from its rows of
    ///    its column's cotangent — one pool task per expert;
    /// 6. gradients merge serially **in expert order** (never in
    ///    completion order): each tower's parameter gradients are added
    ///    to the zeroed slots and its `X` cotangent rows are
    ///    scatter-added; then [`FeatureEncoder::backward`] scatter-adds
    ///    the `X` / gate-input / TC cotangents into the embedding
    ///    tables' gradients, touching only the rows the batch read.
    ///
    /// Every pool task writes only its expert's scratch slot and every
    /// floating-point merge runs on the caller in a fixed order, so
    /// losses and gradients are bit-identical for every thread count.
    ///
    /// # Buffers
    ///
    /// The encoder outputs, the gate/loss tape and every tower's buffers
    /// live in the model's step workspace: each step resets the tape and
    /// resizes each buffer to its own rows, so a warmed-up step
    /// allocates only a few small per-step values and runs the same
    /// kernels in the same order as a step on fresh buffers.
    pub fn accumulate_gradients(&mut self, batch: &Batch) -> StepStats {
        let b = batch.len();
        let ws = self
            .workspace
            .get_mut()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        ws.loss_tape.reset();
        let StepWorkspace {
            x,
            gate_in,
            tc,
            loss_tape,
            head_ids,
            routes,
            column,
            towers,
            d_x,
            order,
        } = ws;
        let loss_tape = &*loss_tape;

        // Stage 1: the encoder outputs, serial.
        self.encoder.input_into(&self.params, batch, x);
        self.encoder.gate_input_into(&self.params, batch, gate_in);
        let hsc = self.constraint_gate.is_some();
        if hsc {
            self.encoder.tc_into(&self.params, batch, tc);
        }
        let x = &*x;

        // Stage 2: gate forward, then the adversarial mask, then routing.
        let loss_bound = self.params.bind_subset(loss_tape, head_ids);
        let gate_in_leaf = loss_tape.leaf_from(gate_in);
        let mut step_rng = self.rng.fork(0);
        let noise = self.config.noisy_gating.then_some(&mut step_rng);
        let gate = self
            .inference_gate
            .forward(&loss_bound, gate_in_leaf, self.config.top_k, noise);
        let adv_mask = self.config.adversarial.then(|| {
            sample_adversarial_mask(&gate.topk_mask, self.config.n_adversarial, &mut step_rng)
        });
        routes.route(&gate.topk_mask, adv_mask.as_ref());
        let routes = &*routes;

        // Stage 3: tape-free tower forwards on the routed rows, one
        // pool task per expert, each in its own scratch slot.
        let experts = &self.experts;
        let params = &self.params;
        {
            let _stage = amoe_obs::StageScope::enter("train.expert_fwd");
            pool::for_each_mut(towers, |e, tower| {
                let rows = routes.rows(e);
                if !rows.is_empty() {
                    x.gather_rows_into(rows, &mut tower.acts[0]);
                    experts[e].forward_into(params, &mut tower.acts);
                }
            });
        }
        let out_leaves: Vec<Var<'_>> = towers
            .iter()
            .enumerate()
            .map(|(e, tower)| {
                column.resize_zeroed(b, 1);
                let rows = routes.rows(e);
                if !rows.is_empty() {
                    let out = tower.acts.last().expect("the tower output");
                    for (&r, &v) in rows.iter().zip(out.as_slice()) {
                        column[(r, 0)] = v;
                    }
                }
                loss_tape.leaf_from(column)
            })
            .collect();

        // Stage 4: the rest of the gate + loss tape, serial.
        let expert_matrix = Var::concat_cols(&out_leaves);
        let logit = (gate.probs * expert_matrix).row_sum();
        let tc_leaf = hsc.then(|| loss_tape.leaf_from(tc));
        // The constraint gate is a target, not a router: only its clean
        // logits enter the loss (Eq. 10), so it skips the top-K cut.
        let constraint_logits = self.constraint_gate.as_ref().map(|cg| {
            tc_leaf
                .expect("HSC implies a TC embedding")
                .matmul(loss_bound.var(cg.weight()))
        });

        let ce = logit.bce_with_logits(&batch.labels);
        let mut per_example = ce;
        let mut stats = StepStats::default();

        if let Some(c_logits) = constraint_logits {
            let hsc = hsc_loss(gate.clean_logits, c_logits, &gate.topk_mask);
            stats.hsc = reduce::mean(&hsc.value_ref());
            per_example = per_example + hsc.scale(self.config.lambda1);
        }
        if let Some(adv_mask) = &adv_mask {
            let adv = adversarial_loss(
                expert_matrix,
                &gate.topk_mask,
                adv_mask,
                self.config.top_k,
                self.config.n_adversarial,
            );
            stats.adv = reduce::mean(&adv.value_ref());
            per_example = per_example - adv.scale(self.config.lambda2);
        }
        stats.ce = reduce::mean(&ce.value_ref());

        let mut loss = per_example.mean_all();
        if self.config.load_balance > 0.0 {
            let lb = load_balance_loss(gate.probs);
            stats.load_balance = lb.value_ref()[(0, 0)];
            loss = loss + lb.scale(self.config.load_balance);
        }
        stats.loss = loss.value_ref()[(0, 0)];

        // Materialise the gate probabilities while the tape is alive;
        // the telemetry accumulator runs last.
        let gate_probs = amoe_obs::enabled().then(|| gate.probs.value());

        let loss_grads = loss_tape.backward(loss);

        // Boundary cotangents: each routed expert's rows of its output
        // column, plus the gate input and (under HSC) the TC embedding.
        for ((e, tower), &leaf) in towers.iter_mut().enumerate().zip(&out_leaves) {
            let rows = routes.rows(e);
            if rows.is_empty() {
                continue;
            }
            match loss_grads.get(leaf) {
                Some(d) => d.gather_rows_into(rows, &mut tower.d_out),
                None => tower.d_out.resize_zeroed(rows.len(), 1),
            }
        }

        // Stage 5: tower backward, one pool task per routed expert.
        {
            let _stage = amoe_obs::StageScope::enter("train.expert_bwd");
            pool::for_each_mut(towers, |e, tower| {
                if !routes.rows(e).is_empty() {
                    let inputs = &tower.acts[..experts[e].layers().len()];
                    experts[e].backward_into(params, inputs, &tower.d_out, &mut tower.grads);
                }
            });
        }

        // Stage 6: deterministic serial merge in expert order, then the
        // encoder. The loss tape, the towers and the encoder own
        // disjoint parameters.
        self.params.zero_grads();
        self.params.collect_grads(&loss_bound, &loss_grads);
        d_x.resize_zeroed(b, x.cols());
        for (e, tower) in towers.iter().enumerate() {
            let rows = routes.rows(e);
            if rows.is_empty() {
                continue;
            }
            let d_rows = tower.grads.d_x();
            for (i, &r) in rows.iter().enumerate() {
                for (d, &g) in d_x.row_mut(r).iter_mut().zip(d_rows.row(i)) {
                    *d += g;
                }
            }
            for (pid, g) in tower.grads.params() {
                ops::add_assign(self.params.grad_mut(*pid), g);
            }
        }

        // A cotangent the loss never reached is zero and adds nothing.
        self.encoder.backward(
            &mut self.params,
            batch,
            d_x,
            loss_grads.get(gate_in_leaf),
            tc_leaf.and_then(|v| loss_grads.get(v)),
            order,
        );

        if self.clip_norm > 0.0 {
            self.params.clip_grad_global_norm(self.clip_norm);
        }
        if let Some(probs) = gate_probs {
            record_gate_telemetry(&mut self.gate_telemetry, &probs);
        }
        stats
    }
}

/// Accumulates routing telemetry from one step's `B x N` top-K masked
/// gate probabilities: per-expert dispatch counts (positive entries) and
/// the batch-mean entropy of the masked distribution.
fn record_gate_telemetry(t: &mut GateTelemetry, probs: &Matrix) {
    let (b, n) = probs.shape();
    if t.dispatch.len() != n {
        t.dispatch = vec![0; n];
    }
    let mut entropy_total = 0f64;
    for r in 0..b {
        let mut h = 0f64;
        for (e, &p) in probs.row(r).iter().enumerate() {
            if p > 0.0 {
                t.dispatch[e] += 1;
                h -= f64::from(p) * f64::from(p).ln();
            }
        }
        entropy_total += h;
    }
    t.entropy_sum += entropy_total / b.max(1) as f64;
    t.steps += 1;
}

// ---------------------------------------------------------------------------
// Baselines: DNN and MMoE
// ---------------------------------------------------------------------------

/// One baseline training step (DNN, MMoE), leaving fresh (clipped)
/// gradients in `params`. The towers train as [`MoeModel`]'s experts
/// do, on the tape-free forward that scores them, and a tape holds only
/// the gates and the loss.
///
/// Each tower runs [`Mlp::forward_train`] on all of `X`. The tape takes
/// the towers' outputs and `X` as leaves and binds `gates`: DNN has
/// none, and its one tower output is the logit; MMoE [`mix`]es the
/// outputs under its task gates. After the tape's backward each tower
/// runs [`Mlp::backward`] from its output's cotangent, and
/// [`FeatureEncoder::backward`] runs last. `X`'s cotangent sums as a
/// tape of the whole graph summed it: the towers from the last to the
/// first, then the gates'.
fn baseline_gradients(
    params: &mut ParamSet,
    encoder: &FeatureEncoder,
    towers: &[Mlp],
    gates: &[ParamId],
    task_masks: &[Matrix],
    batch: &Batch,
    clip_norm: f32,
) -> StepStats {
    let tape = Tape::new();
    let bound = params.bind_subset(&tape, gates);
    let x = encoder.input_infer(params, batch);
    let (inputs, outs): (Vec<Vec<Matrix>>, Vec<Var<'_>>) = towers
        .iter()
        .map(|tower| {
            let (inputs, out) = tower.forward_train(params, x.clone());
            (inputs, tape.leaf(out))
        })
        .unzip();
    let x = tape.leaf(x);
    let logit = if gates.is_empty() {
        outs[0]
    } else {
        mix(&bound, gates, task_masks, x, &outs)
    };
    let loss = logit.bce_with_logits(&batch.labels).mean_all();
    let value = loss.value()[(0, 0)];
    let grads = tape.backward(loss);
    params.zero_grads();
    params.collect_grads(&bound, &grads);
    // Last tower first: ascending order moves the MMoE pin.
    let mut d_x: Option<Matrix> = None;
    for ((tower, inputs), &out) in towers.iter().zip(&inputs).zip(&outs).rev() {
        let d_out = grads.get(out).expect("the loss reads every tower");
        let (d_tower, tower_grads) = tower.backward(params, inputs, d_out);
        for (id, g) in &tower_grads {
            ops::add_assign(params.grad_mut(*id), g);
        }
        match &mut d_x {
            Some(d_x) => ops::add_assign(d_x, &d_tower),
            None => d_x = Some(d_tower),
        }
    }
    let mut d_x = d_x.expect("at least one tower");
    if let Some(d_gates) = grads.get(x) {
        ops::add_assign(&mut d_x, d_gates);
    }
    encoder.backward(params, batch, &d_x, None, None, &mut Vec::new());
    if clip_norm > 0.0 {
        params.clip_grad_global_norm(clip_norm);
    }
    StepStats {
        loss: value,
        ce: value,
        ..Default::default()
    }
}

/// MMoE's task-gated mixture of the tower outputs `outs`: each row's
/// gate logits come from its task's gate over `X` (rows of a task's
/// mask are 1 where the example belongs to the task), and their
/// softmax weights the towers.
fn mix<'t>(
    bound: &Bound<'t>,
    gates: &[ParamId],
    task_masks: &[Matrix],
    x: Var<'t>,
    outs: &[Var<'t>],
) -> Var<'t> {
    let mut mixed: Option<Var<'t>> = None;
    for (&gate, mask) in gates.iter().zip(task_masks) {
        let logits_t = x.matmul(bound.var(gate)).mul_const(mask);
        mixed = Some(match mixed {
            Some(acc) => acc + logits_t,
            None => logits_t,
        });
    }
    let probs = mixed.expect("at least one task gate").softmax_rows();
    (probs * Var::concat_cols(outs)).row_sum()
}

/// The plain feed-forward baseline: the same encoder feeding a single
/// tower of the same shape as one expert (Sec. 5.1.4).
pub struct DnnModel {
    params: ParamSet,
    encoder: FeatureEncoder,
    tower: Mlp,
    optimizer: Adam,
    clip_norm: f32,
}

impl DnnModel {
    /// Builds the baseline for a dataset schema. `config` supplies the
    /// embedding dim and tower shape; gating fields are ignored.
    #[must_use]
    pub fn new(meta: &DatasetMeta, config: &MoeConfig, optim: OptimConfig) -> Self {
        let mut rng = Rng::seed_from(config.seed);
        let mut init_rng = rng.fork(1);
        let mut params = ParamSet::new();
        let encoder = FeatureEncoder::new(&mut params, meta, config, &mut init_rng);
        let dims = tower_dims(config.input_dim(meta), &config.tower.hidden);
        let tower = Mlp::new(&mut params, "dnn", &dims, &mut init_rng);
        DnnModel {
            params,
            encoder,
            tower,
            optimizer: Adam::adamw(optim.lr, optim.weight_decay),
            clip_norm: optim.clip_norm,
        }
    }

    /// Read access to the parameters.
    #[must_use]
    pub fn params(&self) -> &ParamSet {
        &self.params
    }
}

impl Ranker for DnnModel {
    fn name(&self) -> String {
        "DNN".to_string()
    }

    fn train_step(&mut self, batch: &Batch) -> StepStats {
        let stats = baseline_gradients(
            &mut self.params,
            &self.encoder,
            std::slice::from_ref(&self.tower),
            &[],
            &[],
            batch,
            self.clip_norm,
        );
        self.optimizer.step(&mut self.params);
        stats
    }

    fn predict(&self, batch: &Batch) -> Vec<f32> {
        let x = self.encoder.input_infer(&self.params, batch);
        ops::sigmoid(&self.tower.infer(&self.params, &x)).into_vec()
    }

    fn num_parameters(&self) -> usize {
        self.params.num_scalars()
    }
}

// ---------------------------------------------------------------------------
// MMoE baseline
// ---------------------------------------------------------------------------

/// Multi-gate Mixture-of-Experts (Ma et al. 2018, the paper's ref \[18\]):
/// the prediction tasks under different top-category buckets are treated
/// as separate tasks, each with its own softmax gate over the shared
/// experts (paper Sec. 5.1.3–5.1.4).
pub struct MmoeModel {
    n_experts: usize,
    params: ParamSet,
    encoder: FeatureEncoder,
    experts: Vec<Mlp>,
    /// Per-task gate weight matrices (`input_dim x N`, no bias).
    gates: Vec<ParamId>,
    /// `tc → task bucket` assignment.
    task_of_tc: Vec<usize>,
    optimizer: Adam,
    clip_norm: f32,
}

impl MmoeModel {
    /// Builds an MMoE with `n_experts` experts and one gate per task
    /// bucket. `task_of_tc` maps each top-category to its bucket (see
    /// `amoe_dataset::buckets::equal_count_task_buckets`).
    ///
    /// # Panics
    /// Panics if `task_of_tc` is empty or shorter than the TC vocabulary.
    #[must_use]
    pub fn new(
        meta: &DatasetMeta,
        config: &MoeConfig,
        n_experts: usize,
        task_of_tc: Vec<usize>,
        optim: OptimConfig,
    ) -> Self {
        assert_eq!(
            task_of_tc.len(),
            meta.tc_vocab,
            "MmoeModel: task map covers {} TCs, vocabulary has {}",
            task_of_tc.len(),
            meta.tc_vocab
        );
        let n_tasks = task_of_tc.iter().copied().max().unwrap_or(0) + 1;
        let mut rng = Rng::seed_from(config.seed);
        let mut init_rng = rng.fork(1);
        let mut params = ParamSet::new();
        let encoder = FeatureEncoder::new(&mut params, meta, config, &mut init_rng);
        let input_dim = config.input_dim(meta);
        let dims = tower_dims(input_dim, &config.tower.hidden);
        let experts: Vec<Mlp> = (0..n_experts)
            .map(|i| Mlp::new(&mut params, &format!("expert{i}"), &dims, &mut init_rng))
            .collect();
        let gates: Vec<ParamId> = (0..n_tasks)
            .map(|t| {
                params.add_with(format!("gate.task{t}.w"), input_dim, n_experts, || {
                    amoe_nn::Init::XavierUniform.sample(input_dim, n_experts, &mut init_rng)
                })
            })
            .collect();
        MmoeModel {
            n_experts,
            params,
            encoder,
            experts,
            gates,
            task_of_tc,
            optimizer: Adam::adamw(optim.lr, optim.weight_decay),
            clip_norm: optim.clip_norm,
        }
    }

    /// Read access to the parameters.
    #[must_use]
    pub fn params(&self) -> &ParamSet {
        &self.params
    }

    /// Number of task gates.
    #[must_use]
    pub fn n_tasks(&self) -> usize {
        self.gates.len()
    }

    /// Builds the per-example task-selection masks (`B x N`, rows of a
    /// task's mask are 1 where the example belongs to the task).
    fn task_masks(&self, batch: &Batch) -> Vec<Matrix> {
        let b = batch.len();
        let mut masks = vec![Matrix::zeros(b, self.n_experts); self.gates.len()];
        for (i, &tc) in batch.tc.iter().enumerate() {
            let t = self.task_of_tc[tc];
            masks[t].row_mut(i).fill(1.0);
        }
        masks
    }
}

impl Ranker for MmoeModel {
    fn name(&self) -> String {
        format!("{}-MMoE", self.n_experts)
    }

    fn train_step(&mut self, batch: &Batch) -> StepStats {
        let masks = self.task_masks(batch);
        let stats = baseline_gradients(
            &mut self.params,
            &self.encoder,
            &self.experts,
            &self.gates,
            &masks,
            batch,
            self.clip_norm,
        );
        self.optimizer.step(&mut self.params);
        stats
    }

    /// Scores without a tape: the same kernels as the training forward
    /// (`mix` over the towers' outputs), in the same order, so the
    /// scores equal that forward's through a sigmoid bit for bit.
    fn predict(&self, batch: &Batch) -> Vec<f32> {
        let x = self.encoder.input_infer(&self.params, batch);
        let mut mixed: Option<Matrix> = None;
        for (gate, mask) in self.gates.iter().zip(&self.task_masks(batch)) {
            let mut logits_t = matmul(&x, self.params.value(*gate));
            ops::mul_assign(&mut logits_t, mask);
            mixed = Some(match mixed {
                Some(mut acc) => {
                    ops::add_assign(&mut acc, &logits_t);
                    acc
                }
                None => logits_t,
            });
        }
        let mut probs = ops::softmax_rows(&mixed.expect("at least one task gate"));
        let outs: Vec<Matrix> = self
            .experts
            .iter()
            .map(|e| e.infer(&self.params, &x))
            .collect();
        ops::mul_assign(&mut probs, &Matrix::hcat(&outs.iter().collect::<Vec<_>>()));
        ops::sigmoid(&reduce::row_sum(&probs)).into_vec()
    }

    fn num_parameters(&self) -> usize {
        self.params.num_scalars()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amoe_dataset::buckets::equal_count_task_buckets;
    use amoe_dataset::{generate, GeneratorConfig};

    fn data() -> amoe_dataset::Dataset {
        generate(&GeneratorConfig::tiny(21))
    }

    fn small_cfg() -> MoeConfig {
        MoeConfig {
            n_experts: 6,
            top_k: 2,
            tower: crate::config::TowerConfig {
                hidden: vec![16, 8],
            },
            ..MoeConfig::default()
        }
    }

    #[test]
    fn names_match_variants() {
        let d = data();
        let o = OptimConfig::default();
        assert_eq!(MoeModel::new(&d.meta, small_cfg(), o).name(), "MoE");
        let adv = MoeConfig {
            adversarial: true,
            ..small_cfg()
        };
        assert_eq!(MoeModel::new(&d.meta, adv, o).name(), "Adv-MoE");
        let hsc = MoeConfig {
            hsc: true,
            ..small_cfg()
        };
        assert_eq!(MoeModel::new(&d.meta, hsc, o).name(), "HSC-MoE");
        let both = MoeConfig {
            adversarial: true,
            hsc: true,
            ..small_cfg()
        };
        assert_eq!(MoeModel::new(&d.meta, both, o).name(), "Adv & HSC-MoE");
    }

    #[test]
    fn train_step_reduces_loss_over_steps() {
        let d = data();
        let mut model = MoeModel::new(&d.meta, small_cfg(), OptimConfig::default());
        let idx: Vec<usize> = (0..128.min(d.train.len())).collect();
        let batch = Batch::from_split(&d.train, &idx);
        let first = model.train_step(&batch).loss;
        let mut last = first;
        for _ in 0..30 {
            last = model.train_step(&batch).loss;
        }
        assert!(last < first, "loss did not decrease: {first} -> {last}");
        assert!(model.params().all_finite());
    }

    #[test]
    fn hsc_variant_reports_hsc_component() {
        let d = data();
        let cfg = MoeConfig {
            hsc: true,
            ..small_cfg()
        };
        let mut model = MoeModel::new(&d.meta, cfg, OptimConfig::default());
        let batch = Batch::from_split(&d.train, &(0..64).collect::<Vec<_>>());
        let stats = model.train_step(&batch);
        assert!(stats.hsc > 0.0, "hsc component missing: {stats:?}");
        // Plain MoE reports zero HSC.
        let mut plain = MoeModel::new(&d.meta, small_cfg(), OptimConfig::default());
        assert_eq!(plain.train_step(&batch).hsc, 0.0);
    }

    #[test]
    fn adv_variant_reports_adv_component() {
        let d = data();
        let cfg = MoeConfig {
            adversarial: true,
            ..small_cfg()
        };
        let mut model = MoeModel::new(&d.meta, cfg, OptimConfig::default());
        let batch = Batch::from_split(&d.train, &(0..64).collect::<Vec<_>>());
        let stats = model.train_step(&batch);
        assert!(stats.adv >= 0.0);
        // After a few steps the adversarial reward should be non-trivial.
        let mut s = stats;
        for _ in 0..20 {
            s = model.train_step(&batch);
        }
        assert!(s.adv > 0.0, "adv component stayed zero: {s:?}");
    }

    /// A copy of `ps`'s values, as a checkpoint load would hand over.
    fn exported(ps: &ParamSet) -> ParamSet {
        let mut copy = ParamSet::new();
        for (name, value) in ps.iter() {
            copy.add(name, value.clone());
        }
        copy
    }

    /// Every parameter's f32 bits, in registration order.
    fn param_bits(model: &MoeModel) -> Vec<u32> {
        let values = model.params().iter().flat_map(|(_, m)| m.as_slice());
        values.map(|v| v.to_bits()).collect()
    }

    #[test]
    fn from_params_round_trips_predictions() {
        let d = data();
        let mut model = MoeModel::new(&d.meta, small_cfg(), OptimConfig::default());
        let batch = Batch::from_split(&d.train, &(0..64).collect::<Vec<_>>());
        for _ in 0..5 {
            model.train_step(&batch);
        }
        // Rebuild from the exported weights with a *different* seed:
        // the checkpoint values must fully determine the predictions.
        let cfg = MoeConfig {
            seed: 999,
            ..small_cfg()
        };
        let restored = MoeModel::from_params(
            &d.meta,
            cfg,
            OptimConfig::default(),
            exported(model.params()),
        )
        .unwrap();
        assert_eq!(model.predict(&batch), restored.predict(&batch));

        // Skipping the init draws changes no training bit: a model
        // filled from the checkpoint trains exactly as one built by
        // `new` (every initialiser run) and then overwritten with it.
        let o = OptimConfig::default();
        let mut filled =
            MoeModel::from_params(&d.meta, small_cfg(), o, exported(model.params())).unwrap();
        let mut overwritten = MoeModel::new(&d.meta, small_cfg(), o);
        overwritten
            .params_mut()
            .load_values_from(model.params())
            .unwrap();
        assert_eq!(param_bits(&filled), param_bits(&overwritten));
        for _ in 0..3 {
            filled.train_step(&batch);
            overwritten.train_step(&batch);
        }
        assert_eq!(param_bits(&filled), param_bits(&overwritten));
        assert_ne!(param_bits(&filled), param_bits(&model));
    }

    #[test]
    fn from_params_rejects_foreign_checkpoint() {
        let d = data();
        let small = MoeModel::new(&d.meta, small_cfg(), OptimConfig::default());
        // A config with more experts needs tensors the checkpoint lacks.
        let bigger = MoeConfig {
            n_experts: 8,
            ..small_cfg()
        };
        let err = MoeModel::from_params(
            &d.meta,
            bigger,
            OptimConfig::default(),
            exported(small.params()),
        );
        assert!(matches!(err, Err(amoe_nn::LoadError::Mismatch(_))));
    }

    #[test]
    fn predictions_are_probabilities() {
        let d = data();
        let model = MoeModel::new(&d.meta, small_cfg(), OptimConfig::default());
        let batch = Batch::from_split(&d.train, &(0..32).collect::<Vec<_>>());
        let p = model.predict(&batch);
        assert_eq!(p.len(), 32);
        assert!(p.iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn predict_deterministic_in_eval_mode() {
        let d = data();
        let model = MoeModel::new(&d.meta, small_cfg(), OptimConfig::default());
        let batch = Batch::from_split(&d.train, &(0..16).collect::<Vec<_>>());
        assert_eq!(model.predict(&batch), model.predict(&batch));
    }

    #[test]
    fn gate_probs_shapes_and_support() {
        let d = data();
        let cfg = small_cfg();
        let model = MoeModel::new(&d.meta, cfg.clone(), OptimConfig::default());
        let batch = Batch::from_split(&d.train, &(0..10).collect::<Vec<_>>());
        let full = model.gate_probs_full(&batch);
        assert_eq!(full.shape(), (10, cfg.n_experts));
        for r in 0..10 {
            assert!((full.row(r).iter().sum::<f32>() - 1.0).abs() < 1e-5);
        }
        // The tape-free probabilities equal the dense tape's, bit for bit.
        let tape = Tape::new();
        let clean = model.forward(&tape, &batch).gate.clean_logits;
        assert_eq!(full, ops::softmax_rows(&clean.value()));
    }

    #[test]
    fn dnn_trains_and_predicts() {
        let d = data();
        let mut dnn = DnnModel::new(&d.meta, &small_cfg(), OptimConfig::default());
        let batch = Batch::from_split(&d.train, &(0..64).collect::<Vec<_>>());
        let first = dnn.train_step(&batch).loss;
        let mut last = first;
        for _ in 0..30 {
            last = dnn.train_step(&batch).loss;
        }
        assert!(last < first);
        let p = dnn.predict(&batch);
        assert!(p.iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn mmoe_trains_and_matches_capacity_claim() {
        let d = data();
        let task_of_tc = equal_count_task_buckets(&d.train, d.hierarchy.num_tc(), 4);
        let cfg = small_cfg();
        let mut mmoe = MmoeModel::new(&d.meta, &cfg, 6, task_of_tc, OptimConfig::default());
        assert_eq!(mmoe.name(), "6-MMoE");
        assert_eq!(mmoe.n_tasks(), 4);
        let batch = Batch::from_split(&d.train, &(0..64).collect::<Vec<_>>());
        let first = mmoe.train_step(&batch).loss;
        let mut last = first;
        for _ in 0..30 {
            last = mmoe.train_step(&batch).loss;
        }
        assert!(last < first);
        // Same expert count ⇒ comparable parameter count to the MoE model
        // (MMoE swaps one noisy gate for several task gates).
        let moe = MoeModel::new(&d.meta, cfg, OptimConfig::default());
        let ratio = mmoe.num_parameters() as f64 / moe.num_parameters() as f64;
        assert!((0.8..1.3).contains(&ratio), "capacity ratio {ratio}");
    }

    #[test]
    fn mmoe_predict_is_bit_equal_to_the_tape_forward() {
        let d = data();
        let task_of_tc = equal_count_task_buckets(&d.train, d.hierarchy.num_tc(), 4);
        let mut mmoe = MmoeModel::new(&d.meta, &small_cfg(), 6, task_of_tc, OptimConfig::default());
        let batch = Batch::from_split(&d.train, &(0..37).collect::<Vec<_>>());
        for _ in 0..3 {
            mmoe.train_step(&batch);
        }
        let tape = Tape::new();
        let bound = mmoe.params.bind_subset(&tape, &mmoe.gates);
        let oracle = ops::sigmoid(&mmoe.forward(&tape, &bound, &batch).value());
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&mmoe.predict(&batch)), bits(oracle.as_slice()));
    }

    impl MmoeModel {
        /// The training step's forward in one call, its towers' outputs
        /// and `X` as leaves: the oracle that [`Ranker::predict`] is
        /// pinned to.
        fn forward<'t>(&self, tape: &'t Tape, bound: &Bound<'t>, batch: &Batch) -> Var<'t> {
            let x = self.encoder.input_infer(&self.params, batch);
            let outs: Vec<Var<'t>> = self
                .experts
                .iter()
                .map(|e| tape.leaf(e.infer(&self.params, &x)))
                .collect();
            let masks = self.task_masks(batch);
            mix(bound, &self.gates, &masks, tape.leaf(x), &outs)
        }
    }

    #[test]
    fn expert_logits_expose_case_study_view() {
        let d = data();
        let cfg = small_cfg();
        let model = MoeModel::new(&d.meta, cfg.clone(), OptimConfig::default());
        let batch = Batch::from_split(&d.train, &(0..5).collect::<Vec<_>>());
        let (scores, mask) = model.expert_logits(&batch);
        assert_eq!(scores.shape(), (5, cfg.n_experts));
        assert_eq!(mask.shape(), (5, cfg.n_experts));
        for r in 0..5 {
            assert_eq!(mask.row(r).iter().filter(|&&v| v > 0.0).count(), cfg.top_k);
        }
    }
}
