//! Serving: export a trained MoE to the tape-free sparse top-K path and
//! demonstrate the paper's constant-serving-cost property — latency
//! stays roughly flat as the expert count N grows (at fixed K), while
//! the dense path grows linearly.
//!
//! Run with: `cargo run --release --example serving`

use std::time::Instant;

use adv_hsc_moe::dataset::{generate, Batch, GeneratorConfig};
use adv_hsc_moe::moe::ranker::OptimConfig;
use adv_hsc_moe::moe::serving::ServingMoe;
use adv_hsc_moe::moe::{MoeConfig, MoeModel, TrainConfig, Trainer};

fn main() {
    let data = generate(&GeneratorConfig {
        train_sessions: 1_200,
        test_sessions: 400,
        ..GeneratorConfig::default()
    });
    let idx: Vec<usize> = (0..512.min(data.test.len())).collect();
    let batch = Batch::from_split(&data.test, &idx);
    let trainer = Trainer::new(TrainConfig {
        epochs: 1,
        ..TrainConfig::default()
    });

    println!(
        "batch of {} candidates, K = 4 active experts\n",
        batch.len()
    );
    println!(
        "{:>4}  {:>12}  {:>12}  {:>8}",
        "N", "sparse (ms)", "dense (ms)", "ratio"
    );

    for n in [8usize, 16, 32, 64] {
        let mut model = MoeModel::new(
            &data.meta,
            MoeConfig {
                n_experts: n,
                top_k: 4,
                ..MoeConfig::default()
            },
            OptimConfig::default(),
        );
        trainer.fit(&mut model, &data.train);

        // Verify the sparse path equals the dense one bit for bit first.
        let serving = ServingMoe::new(&model);
        let dense = model.predict_logits_dense(&batch);
        let sparse = serving.predict_logits(&batch);
        assert!(
            dense
                .iter()
                .zip(&sparse)
                .all(|(a, b)| a.to_bits() == b.to_bits()),
            "sparse and dense logits differ"
        );

        let time = |f: &dyn Fn() -> Vec<f32>| -> f64 {
            let reps = 20;
            let t = Instant::now();
            for _ in 0..reps {
                std::hint::black_box(f());
            }
            t.elapsed().as_secs_f64() * 1000.0 / f64::from(reps)
        };
        let sparse_ms = time(&|| serving.predict_logits(&batch));
        let dense_ms = time(&|| model.predict_logits_dense(&batch));
        println!(
            "{n:>4}  {sparse_ms:>12.3}  {dense_ms:>12.3}  {:>7.1}x",
            dense_ms / sparse_ms
        );
    }

    println!(
        "\nSparse serving computes only the K selected towers per example\n\
         (expert-major batching), so its cost is ~flat in N — the property\n\
         that lets MoE capacity grow at constant serving cost (paper Sec. 1)."
    );
}
