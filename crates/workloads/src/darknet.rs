//! Darknet: YOLO-style convolutional network inference.
//!
//! Reproduces the memory behaviour DrGPUM found in Darknet (Sec. 7.2):
//!
//! * `l.weights_gpu` — **dead write**: `cuda_make_array` initializes the
//!   weights from the host at layer-construction time, and
//!   `cuda_push_array` initializes them *again* before the forward pass
//!   with no intervening read;
//! * `l.output_gpu` — **early allocation**: outputs are allocated during
//!   network parsing but first used in the forward pass;
//! * `l.delta_gpu` — **unused allocation**: gradient buffers are never
//!   touched during inference;
//! * the global `workspace` is never freed — a **memory leak**;
//! * per-layer outputs are only ever read by the next layer, so they admit
//!   **redundant allocation** (ping-pong reuse) and sit **temporarily
//!   idle**; everything else is **late-deallocated**.
//!
//! The optimized variant removes the first weight upload, drops the delta
//! buffers, ping-pongs two activation buffers, and frees the workspace —
//! the paper reports an 83 % peak-memory reduction.

use crate::common::{checksum, finish, in_frame, synth_data, RunOutcome, Variant};
use crate::registry::RunConfig;
use gpu_sim::{DeviceContext, DevicePtr, LaunchConfig, Result, StreamId};

/// Number of convolutional layers.
pub const LAYERS: usize = 10;
/// Elements per activation map.
pub const ACT_LEN: u64 = 16 * 1024;
/// Elements per layer's weights.
pub const W_LEN: u64 = 2 * 1024;
/// Elements of the shared im2col workspace.
pub const WS_LEN: u64 = 8 * 1024;

fn conv_kernel(
    ctx: &mut DeviceContext,
    layer: usize,
    input: DevicePtr,
    weights: DevicePtr,
    workspace: DevicePtr,
    output: DevicePtr,
) -> Result<()> {
    ctx.launch(
        &format!("forward_convolutional_layer_{layer}"),
        LaunchConfig::cover(ACT_LEN, 128)?,
        StreamId::DEFAULT,
        move |t| {
            let i = t.global_x();
            if i < ACT_LEN {
                let x = t.load_f32(input + i * 4);
                let w = t.load_f32(weights + (i % W_LEN) * 4);
                // im2col staging into the shared workspace.
                let ws = workspace + (i % WS_LEN) * 4;
                t.store_f32(ws, x * w);
                let staged = t.load_f32(ws);
                let acc = staged + x * 0.5;
                // Leaky-ReLU-ish activation keeps values bounded.
                let y = if acc > 0.0 { acc } else { acc * 0.1 };
                t.store_f32(output + i * 4, y);
                t.flop(5);
            }
        },
    )?;
    Ok(())
}

fn host_conv(input: &[f32], weights: &[f32]) -> Vec<f32> {
    input
        .iter()
        .enumerate()
        .map(|(i, &x)| {
            let w = weights[i % W_LEN as usize];
            let acc = x * w + x * 0.5;
            if acc > 0.0 {
                acc
            } else {
                acc * 0.1
            }
        })
        .collect()
}

/// Runs the Darknet inference workload.
///
/// # Errors
///
/// Propagates simulator errors (they indicate workload bugs).
///
/// # Panics
///
/// Panics if the final activation disagrees with the host reference.
pub fn run(ctx: &mut DeviceContext, variant: Variant, _cfg: &RunConfig) -> Result<RunOutcome> {
    let act = ACT_LEN as usize;
    let image = synth_data(act, 81);
    let layer_weights: Vec<Vec<f32>> = (0..LAYERS)
        .map(|l| synth_data(W_LEN as usize, 82 + l as u32))
        .collect();
    let mut reference = image.clone();
    for w in &layer_weights {
        reference = host_conv(&reference, w);
    }
    let expected = checksum(&reference);

    let act_bytes = ACT_LEN * 4;
    let w_bytes = W_LEN * 4;
    let ws_bytes = WS_LEN * 4;

    let out_host = in_frame(ctx, "main", "detector.c", 620, |ctx| -> Result<Vec<f32>> {
        match variant {
            Variant::Unoptimized => {
                // --- parse_network_cfg: build every layer eagerly. -------
                let mut weights = Vec::new();
                let mut outputs = Vec::new();
                let mut deltas = Vec::new();
                in_frame(ctx, "parse_network_cfg", "parser.c", 1189, |ctx| {
                    for (l, w_host) in layer_weights.iter().enumerate() {
                        let w = in_frame(
                            ctx,
                            "make_convolutional_layer",
                            "convolutional_layer.c",
                            473,
                            |ctx| {
                                let w = ctx.malloc(w_bytes, format!("l{l}.weights_gpu"))?;
                                // cuda_make_array uploads l.weights immediately —
                                // the write that turns out to be dead.
                                ctx.h2d_f32(w, w_host)?;
                                Ok::<_, gpu_sim::SimError>(w)
                            },
                        )?;
                        weights.push(w);
                        outputs.push(ctx.malloc(act_bytes, format!("l{l}.output_gpu"))?);
                        deltas.push(ctx.malloc(act_bytes, format!("l{l}.delta_gpu"))?);
                    }
                    Ok::<_, gpu_sim::SimError>(())
                })?;
                let workspace = ctx.malloc(ws_bytes, "net.workspace")?;
                // --- load_weights: push every layer's weights again. -----
                in_frame(ctx, "load_weights", "parser.c", 1310, |ctx| {
                    for (w, w_host) in weights.iter().zip(&layer_weights) {
                        // cuda_push_array: the second initialization.
                        ctx.h2d_f32(*w, w_host)?;
                    }
                    Ok::<_, gpu_sim::SimError>(())
                })?;
                // --- inference. ------------------------------------------
                let input = ctx.malloc(act_bytes, "net.input_gpu")?;
                ctx.h2d_f32(input, &image)?;
                let mut cur = input;
                for l in 0..LAYERS {
                    conv_kernel(ctx, l, cur, weights[l], workspace, outputs[l])?;
                    cur = outputs[l];
                }
                let mut out = vec![0.0f32; act];
                ctx.d2h_f32(&mut out, cur)?;
                // Free everything except the workspace (the leak).
                ctx.free(input)?;
                for l in 0..LAYERS {
                    ctx.free(weights[l])?;
                    ctx.free(outputs[l])?;
                    ctx.free(deltas[l])?;
                }
                Ok(out)
            }
            Variant::Optimized => {
                // Weights uploaded once, no deltas, ping-pong activations.
                let mut weights = Vec::new();
                for (l, w_host) in layer_weights.iter().enumerate() {
                    let w = ctx.malloc(w_bytes, format!("l{l}.weights_gpu"))?;
                    ctx.h2d_f32(w, w_host)?;
                    weights.push(w);
                }
                let workspace = ctx.malloc(ws_bytes, "net.workspace")?;
                let ping = ctx.malloc(act_bytes, "act_ping")?;
                let pong = ctx.malloc(act_bytes, "act_pong")?;
                ctx.h2d_f32(ping, &image)?;
                let (mut cur, mut next) = (ping, pong);
                for (l, w) in weights.iter().enumerate() {
                    conv_kernel(ctx, l, cur, *w, workspace, next)?;
                    std::mem::swap(&mut cur, &mut next);
                }
                let mut out = vec![0.0f32; act];
                ctx.d2h_f32(&mut out, cur)?;
                for w in weights {
                    ctx.free(w)?;
                }
                ctx.free(workspace)?;
                ctx.free(ping)?;
                ctx.free(pong)?;
                Ok(out)
            }
        }
    })?;

    let got = checksum(&out_host);
    crate::common::assert_checksums_match(got, expected);
    assert_eq!(out_host, reference, "inference output must match reference");
    Ok(finish(ctx, got, None))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variants_agree_and_peak_drops_83_percent() {
        let u = run(
            &mut DeviceContext::new_default(),
            Variant::Unoptimized,
            &RunConfig::default(),
        )
        .unwrap();
        let o = run(
            &mut DeviceContext::new_default(),
            Variant::Optimized,
            &RunConfig::default(),
        )
        .unwrap();
        crate::common::assert_checksums_match(u.checksum, o.checksum);
        let reduction = 100.0 * (1.0 - o.peak_bytes as f64 / u.peak_bytes as f64);
        assert!(
            (reduction - 83.0).abs() < 2.0,
            "expected ~83% reduction, got {reduction:.1}%"
        );
    }
}
