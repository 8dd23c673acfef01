//! Server tuning knobs and the checkpoint sidecar spec.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;
use std::time::Duration;

use amoe_core::{GateInput, MoeConfig, TowerConfig};
use amoe_dataset::DatasetMeta;

/// What to do with a score request when the admission queue is full.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OverloadPolicy {
    /// Reply with an overloaded `SCORE_ERROR` immediately (shed load;
    /// the default).
    Reject,
    /// Block the connection thread for up to this long waiting for
    /// queue space, then reply with an overloaded `SCORE_ERROR`.
    Block(Duration),
}

/// Micro-batcher and admission-control configuration.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Coalesce at most this many feature rows into one model call. A
    /// single larger request still runs, as a batch of its own.
    pub max_batch_rows: usize,
    /// Admission queue capacity in *requests* (not rows).
    pub queue_cap: usize,
    /// Full-queue behaviour.
    pub overload: OverloadPolicy,
    /// Test-only throttle: sleep this long before every model call so
    /// tests can fill the queue deterministically. `None` in
    /// production.
    pub batcher_delay: Option<Duration>,
    /// Serve with int8-quantized expert weights
    /// ([`amoe_core::serving::QuantizedExperts`]). Opt-in: scores drift
    /// from the f32 oracle by up to
    /// [`amoe_core::serving::QUANT_SCORE_TOLERANCE`]; routing is
    /// unaffected (the gate stays f32). Applies to the initial load and
    /// every `RELOAD`.
    pub quantized: bool,
    /// Length of the sliding window behind the p50/p95/p99 readout
    /// ([`crate::Server::window_stats`], `/vars`, the `/metrics` window
    /// families: latency, queue wait, compute, reply write, queue
    /// depth). Always on — windowed accounting is a handful of
    /// histogram increments per request, independent of `AMOE_OBS`.
    pub stats_window: Duration,
    /// Bind address for the HTTP observability listener (`/metrics`,
    /// `/healthz`, `/readyz`, `/vars`, `/trace`) — a **separate** port
    /// from the score protocol, so scrapes never compete with the
    /// binary framing. `None` (the default) disables the listener.
    /// Use port 0 for an ephemeral port
    /// ([`crate::Server::obs_addr`] resolves it).
    pub obs_addr: Option<String>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_batch_rows: 256,
            queue_cap: 128,
            overload: OverloadPolicy::Reject,
            batcher_delay: None,
            quantized: false,
            stats_window: Duration::from_secs(60),
            obs_addr: None,
        }
    }
}

impl ServeConfig {
    /// Panics on nonsensical settings (zero capacities).
    pub fn validate(&self) {
        assert!(self.max_batch_rows > 0, "max_batch_rows must be positive");
        assert!(self.queue_cap > 0, "queue_cap must be positive");
        assert!(
            self.stats_window > Duration::ZERO,
            "stats_window must be positive"
        );
    }
}

/// Everything needed to rebuild a model's *structure* from a
/// weights-only `AMOE` checkpoint: the dataset vocabulary sizes plus
/// the architecture fields of [`MoeConfig`].
///
/// Stored as a `key=value` text sidecar next to the checkpoint so a
/// server can be pointed at `(model.amoe, model.spec)` with no access
/// to the training process.
#[derive(Clone, Debug)]
pub struct ModelSpec {
    /// Vocabulary sizes and numeric width.
    pub meta: DatasetMeta,
    /// Architecture configuration (loss weights ride along so a
    /// fine-tune resuming from the spec reproduces training behaviour).
    pub config: MoeConfig,
    /// Deployment hint: serve this checkpoint with int8 expert weights.
    /// The server ORs it with its own `--quantized` flag; older specs
    /// without the key parse as `false`, and older parsers skip the key
    /// (unknown keys are ignored on both sides).
    pub serve_quantized: bool,
}

impl ModelSpec {
    /// Serialises the spec to its text form.
    #[must_use]
    pub fn to_text(&self) -> String {
        let m = &self.meta;
        let c = &self.config;
        let mut s = String::new();
        let _ = writeln!(s, "# amoe-serve model spec v1");
        for (k, v) in [
            ("sc_vocab", m.sc_vocab),
            ("tc_vocab", m.tc_vocab),
            ("brand_vocab", m.brand_vocab),
            ("shop_vocab", m.shop_vocab),
            ("user_segment_vocab", m.user_segment_vocab),
            ("price_bucket_vocab", m.price_bucket_vocab),
            ("query_vocab", m.query_vocab),
            ("n_numeric", m.n_numeric),
            ("n_experts", c.n_experts),
            ("top_k", c.top_k),
            ("n_adversarial", c.n_adversarial),
            ("emb_dim", c.emb_dim),
        ] {
            let _ = writeln!(s, "{k}={v}");
        }
        for (k, v) in [
            ("adversarial", c.adversarial),
            ("hsc", c.hsc),
            ("noisy_gating", c.noisy_gating),
            ("serve_quantized", self.serve_quantized),
        ] {
            let _ = writeln!(s, "{k}={v}");
        }
        let _ = writeln!(s, "lambda1={}", c.lambda1);
        let _ = writeln!(s, "lambda2={}", c.lambda2);
        let _ = writeln!(s, "load_balance={}", c.load_balance);
        let hidden: Vec<String> = c.tower.hidden.iter().map(ToString::to_string).collect();
        let _ = writeln!(s, "tower_hidden={}", hidden.join(","));
        let _ = writeln!(s, "gate_input={}", gate_input_name(c.gate_input));
        let _ = writeln!(s, "seed={}", c.seed);
        s
    }

    /// Parses the text form produced by [`ModelSpec::to_text`].
    /// Unknown keys are ignored (forward compatibility); missing
    /// required keys are an error.
    pub fn from_text(text: &str) -> io::Result<ModelSpec> {
        let mut meta = DatasetMeta {
            sc_vocab: 0,
            tc_vocab: 0,
            brand_vocab: 0,
            shop_vocab: 0,
            user_segment_vocab: 0,
            price_bucket_vocab: 0,
            query_vocab: 0,
            n_numeric: 0,
        };
        let mut config = MoeConfig::default();
        let mut serve_quantized = false;
        let mut seen_sc = false;
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| bad(format!("spec line {}: expected key=value", lineno + 1)))?;
            let (key, value) = (key.trim(), value.trim());
            match key {
                "sc_vocab" => {
                    meta.sc_vocab = parse_usize(key, value)?;
                    seen_sc = true;
                }
                "tc_vocab" => meta.tc_vocab = parse_usize(key, value)?,
                "brand_vocab" => meta.brand_vocab = parse_usize(key, value)?,
                "shop_vocab" => meta.shop_vocab = parse_usize(key, value)?,
                "user_segment_vocab" => meta.user_segment_vocab = parse_usize(key, value)?,
                "price_bucket_vocab" => meta.price_bucket_vocab = parse_usize(key, value)?,
                "query_vocab" => meta.query_vocab = parse_usize(key, value)?,
                "n_numeric" => meta.n_numeric = parse_usize(key, value)?,
                "n_experts" => config.n_experts = parse_usize(key, value)?,
                "top_k" => config.top_k = parse_usize(key, value)?,
                "n_adversarial" => config.n_adversarial = parse_usize(key, value)?,
                "emb_dim" => config.emb_dim = parse_usize(key, value)?,
                "adversarial" => config.adversarial = parse_bool(key, value)?,
                "hsc" => config.hsc = parse_bool(key, value)?,
                "noisy_gating" => config.noisy_gating = parse_bool(key, value)?,
                "serve_quantized" => serve_quantized = parse_bool(key, value)?,
                "lambda1" => config.lambda1 = parse_f32(key, value)?,
                "lambda2" => config.lambda2 = parse_f32(key, value)?,
                "load_balance" => config.load_balance = parse_f32(key, value)?,
                "tower_hidden" => {
                    let mut hidden = Vec::new();
                    for part in value.split(',').filter(|p| !p.trim().is_empty()) {
                        hidden.push(parse_usize(key, part.trim())?);
                    }
                    config.tower = TowerConfig { hidden };
                }
                "gate_input" => config.gate_input = parse_gate_input(value)?,
                "seed" => {
                    config.seed = value
                        .parse::<u64>()
                        .map_err(|_| bad(format!("spec key {key}: bad u64 {value:?}")))?;
                }
                _ => {}
            }
        }
        if !seen_sc || meta.sc_vocab == 0 || meta.n_numeric == 0 {
            return Err(bad("spec missing required vocabulary/n_numeric keys"));
        }
        Ok(ModelSpec {
            meta,
            config,
            serve_quantized,
        })
    }

    /// Writes the spec sidecar file.
    pub fn save(&self, path: impl AsRef<Path>) -> io::Result<()> {
        fs::write(path, self.to_text())
    }

    /// Writes the spec via a sibling temp file plus `rename`, pairing
    /// with [`amoe_nn::ParamSet::save_atomic`] so a versioned export
    /// directory never holds a torn sidecar while a server is being
    /// pointed at it.
    pub fn save_atomic(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let path = path.as_ref();
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = std::path::PathBuf::from(tmp);
        fs::write(&tmp, self.to_text())?;
        fs::rename(&tmp, path).inspect_err(|_| {
            let _ = fs::remove_file(&tmp);
        })
    }

    /// Reads a spec sidecar file.
    pub fn load(path: impl AsRef<Path>) -> io::Result<ModelSpec> {
        Self::from_text(&fs::read_to_string(path)?)
    }
}

fn gate_input_name(g: GateInput) -> &'static str {
    match g {
        GateInput::Sc => "sc",
        GateInput::TcSc => "tc_sc",
        GateInput::QueryTcSc => "query_tc_sc",
        GateInput::UserTcSc => "user_tc_sc",
        GateInput::All => "all",
    }
}

fn parse_gate_input(value: &str) -> io::Result<GateInput> {
    Ok(match value {
        "sc" => GateInput::Sc,
        "tc_sc" => GateInput::TcSc,
        "query_tc_sc" => GateInput::QueryTcSc,
        "user_tc_sc" => GateInput::UserTcSc,
        "all" => GateInput::All,
        other => return Err(bad(format!("spec: unknown gate_input {other:?}"))),
    })
}

fn parse_usize(key: &str, value: &str) -> io::Result<usize> {
    value
        .parse::<usize>()
        .map_err(|_| bad(format!("spec key {key}: bad integer {value:?}")))
}

fn parse_bool(key: &str, value: &str) -> io::Result<bool> {
    match value {
        "true" => Ok(true),
        "false" => Ok(false),
        _ => Err(bad(format!("spec key {key}: bad bool {value:?}"))),
    }
}

fn parse_f32(key: &str, value: &str) -> io::Result<f32> {
    let v = value
        .parse::<f32>()
        .map_err(|_| bad(format!("spec key {key}: bad float {value:?}")))?;
    if !v.is_finite() {
        return Err(bad(format!("spec key {key}: non-finite value")));
    }
    Ok(v)
}

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_spec() -> ModelSpec {
        ModelSpec {
            meta: DatasetMeta {
                sc_vocab: 24,
                tc_vocab: 3,
                brand_vocab: 30,
                shop_vocab: 12,
                user_segment_vocab: 4,
                price_bucket_vocab: 5,
                query_vocab: 50,
                n_numeric: 8,
            },
            config: MoeConfig {
                n_experts: 6,
                top_k: 2,
                tower: TowerConfig {
                    hidden: vec![12, 6],
                },
                adversarial: true,
                hsc: true,
                seed: 999,
                ..MoeConfig::default()
            },
            serve_quantized: true,
        }
    }

    #[test]
    fn spec_round_trips_through_text() {
        let spec = sample_spec();
        let parsed = ModelSpec::from_text(&spec.to_text()).expect("parse");
        assert_eq!(parsed.meta, spec.meta);
        assert_eq!(parsed.config.n_experts, spec.config.n_experts);
        assert_eq!(parsed.config.top_k, spec.config.top_k);
        assert_eq!(parsed.config.tower.hidden, spec.config.tower.hidden);
        assert_eq!(parsed.config.gate_input, spec.config.gate_input);
        assert_eq!(parsed.config.adversarial, spec.config.adversarial);
        assert_eq!(parsed.config.hsc, spec.config.hsc);
        assert_eq!(parsed.config.noisy_gating, spec.config.noisy_gating);
        assert_eq!(parsed.config.seed, spec.config.seed);
        assert_eq!(parsed.serve_quantized, spec.serve_quantized);
    }

    #[test]
    fn spec_without_quantized_key_defaults_to_f32() {
        let text = sample_spec()
            .to_text()
            .lines()
            .filter(|l| !l.starts_with("serve_quantized"))
            .collect::<Vec<_>>()
            .join("\n");
        let parsed = ModelSpec::from_text(&text).expect("parse");
        assert!(!parsed.serve_quantized);
    }

    #[test]
    fn spec_rejects_missing_required_keys() {
        assert!(ModelSpec::from_text("n_experts=4\n").is_err());
    }

    #[test]
    fn spec_rejects_malformed_lines() {
        let mut text = sample_spec().to_text();
        text.push_str("not a key value line\n");
        assert!(ModelSpec::from_text(&text).is_err());
    }

    #[test]
    fn spec_ignores_unknown_keys() {
        let mut text = sample_spec().to_text();
        text.push_str("future_knob=42\n");
        assert!(ModelSpec::from_text(&text).is_ok());
    }
}
