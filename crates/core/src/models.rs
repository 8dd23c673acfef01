//! The model zoo (paper Sec. 5.1.3): DNN, MoE variants and MMoE.

use amoe_autograd::{Tape, Var};
use amoe_dataset::{Batch, DatasetMeta};
use amoe_nn::optim::{Adam, Optimizer};
use amoe_nn::{Mlp, ParamId, ParamSet};
use amoe_tensor::{ops, pool, Matrix, Rng};

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
        config.validate(meta);
        let mut rng = Rng::seed_from(config.seed);
        let mut init_rng = rng.fork(1);
        let noise_rng = rng.fork(2);
        let mut params = ParamSet::new();
        let encoder = FeatureEncoder::new(&mut params, meta, &config, &mut init_rng);
        let input_dim = config.input_dim(meta);
        let dims = tower_dims(input_dim, &config.tower.hidden);
        let experts: Vec<Mlp> = (0..config.n_experts)
            .map(|i| Mlp::new(&mut params, &format!("expert{i}"), &dims, &mut init_rng))
            .collect();
        let inference_gate = NoisyTopKGate::new(
            &mut params,
            "gate.inference",
            config.gate_input_dim(meta),
            config.n_experts,
            config.noisy_gating,
            &mut init_rng,
        );
        let constraint_gate = config.hsc.then(|| {
            NoisyTopKGate::new(
                &mut params,
                "gate.constraint",
                config.emb_dim,
                config.n_experts,
                false,
                &mut init_rng,
            )
        });
        MoeModel {
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
        }
    }

    /// Builds an inference-ready model from checkpointed weights: the
    /// structure comes from `(meta, config)`, the values from `params`
    /// (by name — extra tensors in `params` are ignored, missing or
    /// mis-shaped ones are a typed [`amoe_nn::LoadError::Mismatch`]).
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
        params: &ParamSet,
    ) -> Result<Self, amoe_nn::LoadError> {
        let mut model = Self::new(meta, config, optim);
        model.params.load_values_from(params)?;
        Ok(model)
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
        let params = ParamSet::load(path)?;
        Self::from_params(meta, config, optim, &params)
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
    /// split-graph step of [`MoeModel::accumulate_gradients`].
    fn forward<'t>(
        &self,
        tape: &'t Tape,
        bound: &amoe_nn::Bound<'t>,
        batch: &Batch,
    ) -> MoeForward<'t> {
        let x = self.encoder.input(tape, bound, batch);
        let gate_in = self
            .encoder
            .gate_input(tape, bound, batch, self.config.gate_input);
        let gate = self
            .inference_gate
            .forward(tape, bound, gate_in, self.config.top_k, None);
        let outs: Vec<Var<'t>> = self.experts.iter().map(|e| e.forward(bound, x)).collect();
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

    /// Tape-free dense input assembly (Eq. 2) for serving.
    #[must_use]
    pub fn encoder_input_infer(&self, batch: &Batch) -> Matrix {
        self.encoder.input_infer(&self.params, batch)
    }

    /// Tape-free inference-gate input for serving, honouring the
    /// configured [`crate::config::GateInput`] ablation (every variant
    /// is servable, matching the tape path column for column).
    #[must_use]
    pub fn gate_input_infer(&self, batch: &Batch) -> Matrix {
        self.encoder
            .gate_input_infer(&self.params, batch, self.config.gate_input)
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
        let bound = self.params.bind(&tape);
        let fwd = self.forward(&tape, &bound, batch);
        fwd.logit.value().into_vec()
    }

    /// Raw per-expert logits and the top-K selection mask for a batch
    /// (the case-study visual, Table 7 / Fig. 8).
    #[must_use]
    pub fn expert_logits(&self, batch: &Batch) -> (Matrix, Matrix) {
        let tape = Tape::new();
        let bound = self.params.bind(&tape);
        let fwd = self.forward(&tape, &bound, batch);
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
    /// 1. a shared-prefix tape builds the encoder outputs (`X`, the
    ///    gate input, the TC embedding) serially;
    /// 2. a gate/loss tape runs the gate forward, then the adversarial
    ///    mask is sampled (the RNG draw order is gating noise, then
    ///    mask), and the two masks route each expert its rows;
    /// 3. each expert tower runs the tape-free forward that serves it
    ///    ([`Mlp::forward_train`]) on its rows of `X`, keeping each
    ///    layer's input — one pool task per expert, none for an expert
    ///    with no rows; its outputs are scattered into a `B x 1` zero
    ///    column;
    /// 4. the gate/loss tape consumes those columns as leaves, builds
    ///    all loss terms, and back-propagates — serial;
    /// 5. each routed tower runs [`Mlp::backward`] from its rows of its
    ///    column's cotangent — one pool task per routed expert;
    /// 6. gradients merge serially **in expert order** (never in
    ///    completion order): each tower's parameter gradients are added
    ///    to the zeroed slots, its `X` cotangent rows are scatter-added,
    ///    and one multi-seed sweep pushes the `X` / gate-input / TC
    ///    cotangents through the shared-prefix tape.
    ///
    /// Every pool task returns its result in its expert's slot and every
    /// floating-point merge runs on the caller in a fixed order, so
    /// losses and gradients are bit-identical for every thread count.
    pub fn accumulate_gradients(&mut self, batch: &Batch) -> StepStats {
        let b = batch.len();
        let n_experts = self.experts.len();

        // Stage 1: shared-prefix (encoder) tape, serial.
        let enc_tape = Tape::new();
        let enc_bound = self
            .params
            .bind_subset(&enc_tape, &self.encoder.param_ids());
        let x = self.encoder.input(&enc_tape, &enc_bound, batch);
        let gate_in = self
            .encoder
            .gate_input(&enc_tape, &enc_bound, batch, self.config.gate_input);
        let tc_emb = self
            .constraint_gate
            .is_some()
            .then(|| self.encoder.tc_embedding(&enc_bound, batch));
        let x_val = x.value();
        let gate_in_val = gate_in.value();
        let tc_val = tc_emb.map(|v| v.value());

        // Stage 2: gate forward, then the adversarial mask, then routing.
        let loss_tape = Tape::new();
        let mut head_ids = self.inference_gate.param_ids();
        if let Some(cg) = &self.constraint_gate {
            head_ids.extend(cg.param_ids());
        }
        let loss_bound = self.params.bind_subset(&loss_tape, &head_ids);
        let gate_in_leaf = loss_tape.leaf(gate_in_val);
        let mut step_rng = self.rng.fork(0);
        let noise = self.config.noisy_gating.then_some(&mut step_rng);
        let gate = self.inference_gate.forward(
            &loss_tape,
            &loss_bound,
            gate_in_leaf,
            self.config.top_k,
            noise,
        );
        let adv_mask = self.config.adversarial.then(|| {
            sample_adversarial_mask(&gate.topk_mask, self.config.n_adversarial, &mut step_rng)
        });
        let routes = ExpertRoutes::new(&gate.topk_mask, adv_mask.as_ref());

        // Stage 3: tape-free tower forwards on the routed rows, one
        // pool task per expert that has any.
        let experts = &self.experts;
        let params = &self.params;
        let x_ref = &x_val;
        let fwds: Vec<Option<(Vec<Matrix>, Matrix)>> = {
            let _stage = amoe_obs::StageScope::enter("train.expert_fwd");
            pool::map_tasks(n_experts, |e| {
                let rows = routes.rows(e);
                (!rows.is_empty())
                    .then(|| experts[e].forward_train(params, x_ref.gather_rows(rows)))
            })
        };
        let out_leaves: Vec<Var<'_>> = fwds
            .iter()
            .enumerate()
            .map(|(e, f)| {
                let mut col = Matrix::zeros(b, 1);
                if let Some((_, out)) = f {
                    for (&r, &v) in routes.rows(e).iter().zip(out.as_slice()) {
                        col[(r, 0)] = v;
                    }
                }
                loss_tape.leaf(col)
            })
            .collect();

        // Stage 4: the rest of the gate + loss tape, serial.
        let expert_matrix = Var::concat_cols(&out_leaves);
        let logit = (gate.probs * expert_matrix).row_sum();
        let tc_leaf = tc_val.map(|v| loss_tape.leaf(v));
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
            stats.hsc = amoe_tensor::reduce::mean(&hsc.value());
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
            stats.adv = amoe_tensor::reduce::mean(&adv.value());
            per_example = per_example - adv.scale(self.config.lambda2);
        }
        stats.ce = amoe_tensor::reduce::mean(&ce.value());

        let mut loss = per_example.mean_all();
        if self.config.load_balance > 0.0 {
            let lb = load_balance_loss(gate.probs);
            stats.load_balance = lb.value()[(0, 0)];
            loss = loss + lb.scale(self.config.load_balance);
        }
        stats.loss = loss.value()[(0, 0)];

        // Materialise the gate probabilities while the tape is alive;
        // the telemetry accumulator needs `&mut self` and runs last.
        let gate_probs = amoe_obs::enabled().then(|| gate.probs.value());

        let loss_grads = loss_tape.backward(loss);

        // Boundary cotangents: each routed expert's rows of its output
        // column, plus the gate input and (under HSC) the TC embedding.
        let d_outs: Vec<Option<Matrix>> = out_leaves
            .iter()
            .enumerate()
            .map(|(e, &v)| {
                let rows = routes.rows(e);
                (!rows.is_empty()).then(|| {
                    loss_grads
                        .get(v)
                        .map_or_else(|| Matrix::zeros(rows.len(), 1), |d| d.gather_rows(rows))
                })
            })
            .collect();
        let d_gate_in = loss_grads.get_or_zeros(gate_in_leaf, b, gate_in_leaf.shape().1);
        let d_tc = tc_leaf.map(|v| loss_grads.get_or_zeros(v, b, v.shape().1));

        // Stage 5: tower backward, one pool task per routed expert.
        let backs = {
            let _stage = amoe_obs::StageScope::enter("train.expert_bwd");
            pool::map_tasks(n_experts, |e| {
                let (inputs, _) = fwds[e].as_ref()?;
                let d_out = d_outs[e].as_ref()?;
                Some(experts[e].backward(params, inputs, d_out))
            })
        };

        // Stage 6: deterministic serial merge in expert order. The loss
        // tape, the towers and the encoder own disjoint parameters.
        self.params.zero_grads();
        self.params.collect_grads(&loss_bound, &loss_grads);
        let mut d_x = Matrix::zeros(b, x_val.cols());
        for (e, back) in backs.into_iter().enumerate() {
            let Some((d_rows, param_grads)) = back else {
                continue;
            };
            for (i, &r) in routes.rows(e).iter().enumerate() {
                for (d, &g) in d_x.row_mut(r).iter_mut().zip(d_rows.row(i)) {
                    *d += g;
                }
            }
            for (pid, g) in param_grads {
                ops::add_assign(self.params.grad_mut(pid), &g);
            }
        }

        // One multi-seed sweep through the shared prefix.
        let mut seeds = vec![(x, d_x), (gate_in, d_gate_in)];
        if let (Some(tc), Some(d)) = (tc_emb, d_tc) {
            seeds.push((tc, d));
        }
        let enc_grads = enc_tape.backward_multi(seeds);
        self.params.collect_grads(&enc_bound, &enc_grads);

        if self.clip_norm > 0.0 {
            self.params.clip_grad_global_norm(self.clip_norm);
        }
        if let Some(probs) = gate_probs {
            self.record_gate_telemetry(&probs);
        }
        stats
    }

    /// Accumulates routing telemetry from one step's `B x N` top-K
    /// masked gate probabilities: per-expert dispatch counts (positive
    /// entries) and the batch-mean entropy of the masked distribution.
    fn record_gate_telemetry(&mut self, probs: &Matrix) {
        let (b, n) = probs.shape();
        let t = &mut self.gate_telemetry;
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
}

// ---------------------------------------------------------------------------
// DNN baseline
// ---------------------------------------------------------------------------

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
        let tape = Tape::new();
        let bound = self.params.bind(&tape);
        let x = self.encoder.input(&tape, &bound, batch);
        let logit = self.tower.forward(&bound, x);
        let loss = logit.bce_with_logits(&batch.labels).mean_all();
        let stats = StepStats {
            loss: loss.value()[(0, 0)],
            ce: loss.value()[(0, 0)],
            ..Default::default()
        };
        let grads = tape.backward(loss);
        self.params.zero_grads();
        self.params.collect_grads(&bound, &grads);
        drop(bound);
        if self.clip_norm > 0.0 {
            self.params.clip_grad_global_norm(self.clip_norm);
        }
        self.optimizer.step(&mut self.params);
        stats
    }

    fn predict(&self, batch: &Batch) -> Vec<f32> {
        let x = self.encoder.input_infer(&self.params, batch);
        ops::sigmoid(&self.tower.infer(&self.params, x)).into_vec()
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
                params.add(
                    format!("gate.task{t}.w"),
                    amoe_nn::Init::XavierUniform.sample(input_dim, n_experts, &mut init_rng),
                )
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

    fn forward<'t>(&self, tape: &'t Tape, bound: &amoe_nn::Bound<'t>, batch: &Batch) -> Var<'t> {
        let x = self.encoder.input(tape, bound, batch);
        let masks = self.task_masks(batch);
        // Per-example gate logits: each row comes from its task's gate.
        let mut mixed: Option<Var<'t>> = None;
        for (gate, mask) in self.gates.iter().zip(&masks) {
            let logits_t = x.matmul(bound.var(*gate)).mul_const(mask);
            mixed = Some(match mixed {
                Some(acc) => acc + logits_t,
                None => logits_t,
            });
        }
        let probs = mixed.expect("at least one task gate").softmax_rows();
        let outs: Vec<Var<'t>> = self.experts.iter().map(|e| e.forward(bound, x)).collect();
        let expert_matrix = Var::concat_cols(&outs);
        (probs * expert_matrix).row_sum()
    }
}

impl Ranker for MmoeModel {
    fn name(&self) -> String {
        format!("{}-MMoE", self.n_experts)
    }

    fn train_step(&mut self, batch: &Batch) -> StepStats {
        let tape = Tape::new();
        let bound = self.params.bind(&tape);
        let logit = self.forward(&tape, &bound, batch);
        let loss = logit.bce_with_logits(&batch.labels).mean_all();
        let stats = StepStats {
            loss: loss.value()[(0, 0)],
            ce: loss.value()[(0, 0)],
            ..Default::default()
        };
        let grads = tape.backward(loss);
        self.params.zero_grads();
        self.params.collect_grads(&bound, &grads);
        drop(bound);
        if self.clip_norm > 0.0 {
            self.params.clip_grad_global_norm(self.clip_norm);
        }
        self.optimizer.step(&mut self.params);
        stats
    }

    fn predict(&self, batch: &Batch) -> Vec<f32> {
        let tape = Tape::new();
        let bound = self.params.bind(&tape);
        let logit = self.forward(&tape, &bound, batch);
        ops::sigmoid(&logit.value()).into_vec()
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
        let restored =
            MoeModel::from_params(&d.meta, cfg, OptimConfig::default(), model.params()).unwrap();
        assert_eq!(model.predict(&batch), restored.predict(&batch));
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
        let err = MoeModel::from_params(&d.meta, bigger, OptimConfig::default(), small.params());
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
        let bound = model.params.bind(&tape);
        let clean = model.forward(&tape, &bound, &batch).gate.clean_logits;
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
