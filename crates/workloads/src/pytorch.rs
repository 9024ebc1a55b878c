//! PyTorch: ResNet-style convolutional forward pass through a caching
//! memory pool (the paper's Sec. 5.4 / 7.4 case study).
//!
//! Tensors are carved out of a pre-allocated pool slab with custom
//! allocator APIs that the Sanitizer cannot see; DrGPUM observes them
//! through its pool-profiling interface. The reproduced inefficiency is the
//! paper's PyTorch patch (upstreamed as PR 79183): `slow_conv2d_forward`
//! always allocates the `columns` im2col buffer, even for 1×1 convolutions
//! whose `requires_columns` is false — an **unused allocation**.
//! Conditionally skipping it trims the convolutional layers' peak pool
//! memory by ~3 %. Weight tensors created at model-build time are **early
//! allocations**, retained activations are **late-deallocated** and sit
//! **temporarily idle** after their consumer layer, and the per-layer
//! `columns` buffers admit **redundant allocation** (equal sizes, disjoint
//! lifetimes).

use crate::common::{checksum, finish, in_frame, synth_data, RunOutcome, Variant};
use crate::registry::RunConfig;
use gpu_sim::pool::CachingPool;
use gpu_sim::{DeviceContext, DevicePtr, LaunchConfig, Result, StreamId};

/// Number of convolutional layers.
pub const LAYERS: usize = 4;
/// Elements per activation tensor.
pub const ACT_LEN: u64 = 16 * 1024; // 64 KiB
/// Elements per weight tensor.
pub const W_LEN: u64 = 4 * 1024; // 16 KiB
/// Elements per `columns` (im2col) tensor.
pub const COL_LEN: u64 = 3 * 1024; // 12 KiB
/// Elements per batch-norm running-stats tensor (allocated at model build,
/// first touched during that layer's forward pass — an early allocation).
pub const BN_LEN: u64 = 256; // 1 KiB
/// Bytes reserved by the caching allocator's slab.
pub const SLAB_BYTES: u64 = 1 << 20;

/// Which layers are 3×3 convolutions (and therefore really use `columns`).
const USES_COLUMNS: [bool; LAYERS] = [true, true, false, false];

fn conv_kernel(
    ctx: &mut DeviceContext,
    layer: usize,
    x: DevicePtr,
    w: DevicePtr,
    columns: Option<DevicePtr>,
    bn_stats: DevicePtr,
    y: DevicePtr,
) -> Result<()> {
    ctx.launch(
        &format!("slow_conv2d_forward_{layer}"),
        LaunchConfig::cover(ACT_LEN, 128)?,
        StreamId::DEFAULT,
        move |t| {
            let i = t.global_x();
            if i < ACT_LEN {
                let xv = t.load_f32(x + i * 4);
                let wv = t.load_f32(w + (i % W_LEN) * 4);
                let v = if let Some(cols) = columns {
                    // 3×3 path: stage through the im2col buffer.
                    let c = cols + (i % COL_LEN) * 4;
                    t.store_f32(c, xv * wv);
                    t.load_f32(c) + 0.25
                } else {
                    // 1×1 path: straight GEMM on the input.
                    xv * wv + 0.25
                };
                t.store_f32(y + i * 4, v.max(0.0));
                // Update the layer's running batch-norm statistics.
                t.store_f32(bn_stats + (i % BN_LEN) * 4, v);
                t.flop(4);
            }
        },
    )?;
    Ok(())
}

fn host_conv(x: &[f32], w: &[f32]) -> Vec<f32> {
    x.iter()
        .enumerate()
        .map(|(i, &xv)| (xv * w[i % W_LEN as usize] + 0.25).max(0.0))
        .collect()
}

/// Runs the PyTorch workload. If `cfg.pool_observer` is set, it is
/// registered with the caching pool before any tensor is created.
///
/// # Errors
///
/// Propagates simulator errors (they indicate workload bugs).
///
/// # Panics
///
/// Panics if the final activation disagrees with the host reference.
pub fn run(ctx: &mut DeviceContext, variant: Variant, cfg: &RunConfig) -> Result<RunOutcome> {
    let image = synth_data(ACT_LEN as usize, 121);
    let weights: Vec<Vec<f32>> = (0..LAYERS)
        .map(|l| synth_data(W_LEN as usize, 122 + l as u32))
        .collect();
    let mut reference = image.clone();
    for w in &weights {
        reference = host_conv(&reference, w);
    }
    let expected = checksum(&reference);

    let mut pool = CachingPool::reserve(ctx, SLAB_BYTES)?;
    if let Some(observer) = &cfg.pool_observer {
        pool.register_observer(observer.clone());
    }

    let out = in_frame(
        ctx,
        "resnet50_forward",
        "torchvision/resnet.py",
        285,
        |ctx| -> Result<Vec<f32>> {
            // Model build: all weight and batch-norm tensors up front. The
            // bn running-stats tensors are zero-initialized lazily by the
            // device and first touched in the forward pass — early allocations.
            let mut w_tensors = Vec::new();
            let mut bn_tensors = Vec::new();
            in_frame(
                ctx,
                "Conv2d.__init__",
                "torch/nn/modules/conv.py",
                430,
                |ctx| {
                    for (l, w_host) in weights.iter().enumerate() {
                        let w = pool.alloc(ctx, W_LEN * 4, format!("conv{l}.weight"))?;
                        ctx.h2d_f32(w, w_host)?;
                        w_tensors.push(w);
                        bn_tensors.push(pool.alloc(
                            ctx,
                            BN_LEN * 4,
                            format!("bn{l}.running_stats"),
                        )?);
                    }
                    Ok::<_, gpu_sim::SimError>(())
                },
            )?;

            // Forward pass, retaining every activation (as autograd would).
            let mut acts = Vec::new();
            let x0 = pool.alloc(ctx, ACT_LEN * 4, "input")?;
            ctx.h2d_f32(x0, &image)?;
            acts.push(x0);
            for l in 0..LAYERS {
                let y = pool.alloc(ctx, ACT_LEN * 4, format!("act{l}"))?;
                // The paper's PyTorch inefficiency: `columns` is allocated
                // unconditionally, even when requires_columns is false.
                let requires_columns = USES_COLUMNS[l];
                let columns = if requires_columns || !variant.is_optimized() {
                    Some(in_frame(
                        ctx,
                        "slow_conv2d_forward",
                        "aten/src/ATen/native/ConvolutionMM2d.cpp",
                        127,
                        |ctx| pool.alloc(ctx, COL_LEN * 4, format!("columns{l}")),
                    )?)
                } else {
                    None
                };
                let kernel_columns = if requires_columns { columns } else { None };
                conv_kernel(
                    ctx,
                    l,
                    acts[l],
                    w_tensors[l],
                    kernel_columns,
                    bn_tensors[l],
                    y,
                )?;
                if let Some(c) = columns {
                    pool.free(c)?;
                }
                acts.push(y);
            }
            let mut out = vec![0.0f32; ACT_LEN as usize];
            ctx.d2h_f32(&mut out, acts[LAYERS])?;
            // Teardown: everything released only now (late deallocations).
            for t in acts {
                pool.free(t)?;
            }
            for w in w_tensors {
                pool.free(w)?;
            }
            for bn in bn_tensors {
                pool.free(bn)?;
            }
            Ok(out)
        },
    )?;

    let pool_peak = pool.stats().peak_allocated_bytes;
    pool.release(ctx)?;
    let got = checksum(&out);
    crate::common::assert_checksums_match(got, expected);
    assert_eq!(out, reference, "forward output must match host reference");
    Ok(finish(ctx, got, Some(pool_peak)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variants_agree_and_pool_peak_drops_3_percent() {
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
        let up = u.pool_peak_bytes.unwrap() as f64;
        let op = o.pool_peak_bytes.unwrap() as f64;
        let reduction = 100.0 * (1.0 - op / up);
        assert!(
            (reduction - 3.0).abs() < 1.0,
            "expected ~3% pool-peak reduction, got {reduction:.1}%"
        );
    }

    #[test]
    fn cuda_level_peak_is_just_the_slab() {
        let u = run(
            &mut DeviceContext::new_default(),
            Variant::Unoptimized,
            &RunConfig::default(),
        )
        .unwrap();
        assert_eq!(u.peak_bytes, SLAB_BYTES);
    }
}
