//! Fig. 12: impact of model architecture — layer composition (a) and SSM
//! state dimension (b).

use crate::times;
use marconi_model::ModelConfig;
use marconi_sim::{Comparison, SystemKind};
use marconi_workload::{ArrivalConfig, DatasetKind, Trace, TraceGenerator};
use std::fmt::Write as _;

/// Hit rates of the three systems for one model variant.
#[derive(Debug, Clone)]
pub struct ArchPoint {
    /// Variant label (e.g. `"(24,12)"` or `"dstate=64"`).
    pub label: String,
    /// Marconi's token hit rate.
    pub marconi: f64,
    /// SGLang+'s token hit rate.
    pub sglang: f64,
    /// vLLM+'s token hit rate.
    pub vllm: f64,
}

fn arch_trace() -> Trace {
    TraceGenerator::new(DatasetKind::ShareGpt)
        .sessions(120)
        .arrival(ArrivalConfig::new(1.0, 10.0))
        .seed(12)
        .generate()
}

/// Bytes the whole trace's distinct prefixes would occupy for `model`
/// (per-session final context KVs + two checkpoints per session).
fn working_set_bytes(model: &ModelConfig, trace: &Trace) -> u64 {
    let mut final_len: std::collections::HashMap<u64, u64> = Default::default();
    for r in &trace.requests {
        let e = final_len.entry(r.session_id).or_insert(0);
        *e = (*e).max(r.total_len());
    }
    let tokens: u64 = final_len.values().sum();
    tokens * model.kv_bytes_per_token() + 2 * final_len.len() as u64 * model.ssm_checkpoint_bytes()
}

/// Runs one variant with capacity at a fixed fraction of that variant's
/// working set, so contention is comparable across architectures.
fn run_model(model: ModelConfig, label: String, trace: &Trace, ws_fraction: f64) -> ArchPoint {
    let capacity = (working_set_bytes(&model, trace) as f64 * ws_fraction) as u64;
    let result = Comparison::new(model, capacity)
        .systems(&[
            SystemKind::VllmPlus,
            SystemKind::SglangPlus,
            SystemKind::Marconi,
        ])
        .run(trace);
    let rate = |s| {
        result
            .report(s)
            .map(|r: &marconi_sim::EventReport| r.token_hit_rate())
            .unwrap_or(0.0)
    };
    ArchPoint {
        label,
        marconi: rate(SystemKind::Marconi),
        sglang: rate(SystemKind::SglangPlus),
        vllm: rate(SystemKind::VllmPlus),
    }
}

/// Fig. 12a: layer-composition sweep `(SSM, Attn)` per the paper.
#[must_use]
pub fn run_layer_compositions() -> Vec<ArchPoint> {
    let trace = arch_trace();
    [(32u64, 4u64), (30, 5), (28, 7), (24, 12), (0, 36)]
        .iter()
        .map(|&(ssm, attn)| {
            run_model(
                ModelConfig::with_layer_composition(ssm, attn),
                format!("({ssm},{attn})"),
                &trace,
                0.3,
            )
        })
        .collect()
}

/// Fig. 12b: SSM state-dimension sweep.
#[must_use]
pub fn run_state_dims() -> Vec<ArchPoint> {
    let trace = arch_trace();
    [128u64, 64, 32, 16]
        .iter()
        .map(|&n| {
            run_model(
                ModelConfig::with_state_dim(n),
                format!("dstate={n}"),
                &trace,
                0.3,
            )
        })
        .collect()
}

fn render(points: &[ArchPoint], title: &str, check: &str) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# {title}");
    let _ = writeln!(
        out,
        "{:<12} {:>9} {:>9} {:>9} {:>14} {:>14}",
        "variant", "marconi", "sglang+", "vllm+", "vs sglang+", "vs vllm+"
    );
    for p in points {
        let norm = |x: f64| if p.marconi > 0.0 { x / p.marconi } else { 0.0 };
        let _ = writeln!(
            out,
            "{:<12} {:>9.3} {:>9.3} {:>9.3} {:>14} {:>14}",
            p.label,
            1.0,
            norm(p.sglang),
            norm(p.vllm),
            if p.sglang > 0.0 {
                times(p.marconi / p.sglang)
            } else {
                "∞".to_owned()
            },
            if p.vllm > 0.0 {
                times(p.marconi / p.vllm)
            } else {
                "∞".to_owned()
            },
        );
    }
    let _ = writeln!(out, "paper check: {check}");
    out
}

/// Fig. 12a rendered as text (hit rates normalized to Marconi).
#[must_use]
pub fn fig12a() -> String {
    render(
        &run_layer_compositions(),
        "Fig 12a: varying layer composition (SSM, Attn); hit rate normalized to Marconi",
        "Marconi's advantage grows with the SSM ratio (paper: 13.5% → 66.6% → 2.6× over vLLM+);\n\
         for the pure Transformer (0,36) the three systems converge",
    )
}

/// Fig. 12b rendered as text.
#[must_use]
pub fn fig12b() -> String {
    render(
        &run_state_dims(),
        "Fig 12b: varying SSM state dimension; hit rate normalized to Marconi",
        "larger states (Mamba1 16 → Mamba2 128) amplify Marconi's win over vLLM+\n\
         (paper: 5.7× → 35.4×) while the SGLang+ gap stays ~1.6-1.9×",
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pure_transformer_composition_converges() {
        let trace = TraceGenerator::new(DatasetKind::ShareGpt)
            .sessions(12)
            .seed(12)
            .generate();
        let p = run_model(
            ModelConfig::with_layer_composition(0, 36),
            "(0,36)".into(),
            &trace,
            0.5,
        );
        // No SSM constraint: radix systems identical, vLLM+ within one
        // block per request.
        assert!((p.marconi - p.sglang).abs() < 0.02, "{p:?}");
        assert!((p.marconi - p.vllm).abs() < 0.1, "{p:?}");
    }

    #[test]
    fn vllm_gap_grows_with_state_dim() {
        let trace = TraceGenerator::new(DatasetKind::ShareGpt)
            .sessions(16)
            .seed(13)
            .generate();
        let small = run_model(ModelConfig::with_state_dim(16), "16".into(), &trace, 0.3);
        let large = run_model(ModelConfig::with_state_dim(128), "128".into(), &trace, 0.3);
        let gap = |p: &ArchPoint| {
            if p.vllm > 0.0 {
                p.marconi / p.vllm
            } else {
                f64::INFINITY
            }
        };
        assert!(
            gap(&large) >= gap(&small),
            "small {:?} large {:?}",
            gap(&small),
            gap(&large)
        );
    }
}
