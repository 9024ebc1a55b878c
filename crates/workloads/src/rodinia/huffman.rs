//! Rodinia/huffman: GPU Huffman encoding (histogram → host codebook →
//! encode).
//!
//! DrGPUM's findings (Table 4): `d_cw32` is an **unused allocation** (a
//! large codeword scratch table the run configuration never touches) and
//! `d_sourceData` is **late-deallocated**; the usual eager batch allocation
//! adds **early allocations**, the equal-sized histogram/table/encode
//! buffers admit a **redundant allocation**, and the source sits
//! **temporarily idle** between the histogram and encode phases. Fixing
//! them cuts peak memory by ~67 %.

use crate::common::{finish, in_frame, RunOutcome, Variant};
use crate::registry::RunConfig;
use gpu_sim::{DeviceContext, DevicePtr, LaunchConfig, Result, StreamId};

/// Number of input symbols.
pub const SRC_LEN: u64 = 3072;
/// Number of histogram bins / codebook entries.
pub const BINS: u64 = 512;
/// Bytes of the (never accessed) `d_cw32` codeword scratch table.
pub const CW32_BYTES: u64 = 30 * 1024;

fn synth_symbols(n: u64, seed: u32) -> Vec<u32> {
    let mut state = seed.wrapping_mul(747796405).wrapping_add(1);
    (0..n)
        .map(|_| {
            state = state.wrapping_mul(1664525).wrapping_add(1013904223);
            (state >> 27) & 0xF
        })
        .collect()
}

fn histogram_kernel(ctx: &mut DeviceContext, src: DevicePtr, hist: DevicePtr) -> Result<()> {
    ctx.launch(
        "vlc_histogram",
        LaunchConfig::cover(SRC_LEN, 64)?,
        StreamId::DEFAULT,
        move |t| {
            let i = t.global_x();
            if i < SRC_LEN {
                let sym = u64::from(t.load_u32(src + i * 4));
                let cur = t.load_u32(hist + sym * 4);
                t.store_u32(hist + sym * 4, cur + 1);
                t.flop(1);
            }
        },
    )?;
    Ok(())
}

fn encode_kernel(
    ctx: &mut DeviceContext,
    src: DevicePtr,
    table: DevicePtr,
    enc: DevicePtr,
) -> Result<()> {
    ctx.launch(
        "vlc_encode_kernel",
        LaunchConfig::cover(SRC_LEN, 64)?,
        StreamId::DEFAULT,
        move |t| {
            let i = t.global_x();
            if i < SRC_LEN {
                let sym = u64::from(t.load_u32(src + i * 4));
                let code = t.load_u32(table + sym * 4);
                let slot = i % BINS;
                let cur = t.load_u32(enc + slot * 4);
                t.store_u32(enc + slot * 4, cur ^ code.rotate_left((i % 31) as u32));
                t.flop(3);
            }
        },
    )?;
    Ok(())
}

/// Host-side reference of the full pipeline, for validation.
fn host_reference(symbols: &[u32]) -> (Vec<u32>, Vec<u32>) {
    let mut hist = vec![0u32; BINS as usize];
    for &s in symbols {
        hist[s as usize] += 1;
    }
    let table: Vec<u32> = hist
        .iter()
        .map(|&h| h.wrapping_mul(2654435761) | 1)
        .collect();
    let mut enc = vec![0u32; BINS as usize];
    for (i, &s) in symbols.iter().enumerate() {
        let code = table[s as usize];
        let slot = i % BINS as usize;
        enc[slot] ^= code.rotate_left((i % 31) as u32);
    }
    (table, enc)
}

/// Runs huffman; see the module docs for the two variants.
///
/// # Errors
///
/// Propagates simulator errors (they indicate workload bugs).
///
/// # Panics
///
/// Panics if the encoded output disagrees with the host reference.
pub fn run(ctx: &mut DeviceContext, variant: Variant, _cfg: &RunConfig) -> Result<RunOutcome> {
    let symbols = synth_symbols(SRC_LEN, 61);
    let (ref_table, ref_enc) = host_reference(&symbols);
    let src_bytes = SRC_LEN * 4;
    let bin_bytes = BINS * 4;

    let enc_out = in_frame(
        ctx,
        "main",
        "main_test_cu.cu",
        220,
        |ctx| -> Result<Vec<u32>> {
            match variant {
                Variant::Unoptimized => {
                    // Eager batch allocation, including the never-used d_cw32.
                    let (src, _cw32, hist, table, enc) =
                        in_frame(ctx, "initParams", "main_test_cu.cu", 64, |ctx| {
                            Ok::<_, gpu_sim::SimError>((
                                ctx.malloc(src_bytes, "d_sourceData")?,
                                ctx.malloc(CW32_BYTES, "d_cw32")?,
                                ctx.malloc(bin_bytes, "d_histogram")?,
                                ctx.malloc(bin_bytes, "d_codeTable")?,
                                ctx.malloc(bin_bytes, "d_encoded")?,
                            ))
                        })?;
                    ctx.h2d_u32(src, &symbols)?;
                    ctx.memset(hist, 0, bin_bytes)?;
                    histogram_kernel(ctx, src, hist)?;
                    let mut hist_host = vec![0u32; BINS as usize];
                    ctx.d2h_u32(&mut hist_host, hist)?;
                    // Host builds the codebook from the histogram.
                    let table_host: Vec<u32> = hist_host
                        .iter()
                        .map(|&h| h.wrapping_mul(2654435761) | 1)
                        .collect();
                    ctx.h2d_u32(table, &table_host)?;
                    ctx.memset(enc, 0, bin_bytes)?;
                    encode_kernel(ctx, src, table, enc)?;
                    let mut out = vec![0u32; BINS as usize];
                    ctx.d2h_u32(&mut out, enc)?;
                    // Everything released only at program exit.
                    for ptr in [src, _cw32, hist, table, enc] {
                        ctx.free(ptr)?;
                    }
                    assert_eq!(table_host, ref_table);
                    Ok(out)
                }
                Variant::Optimized => {
                    // No d_cw32 at all (UA fix); the histogram buffer is freed
                    // as soon as the host has read it, and the code table and
                    // encode buffers reuse its space (RA fix).
                    let src = ctx.malloc(src_bytes, "d_sourceData")?;
                    ctx.h2d_u32(src, &symbols)?;
                    let hist = ctx.malloc(bin_bytes, "d_histogram")?;
                    ctx.memset(hist, 0, bin_bytes)?;
                    histogram_kernel(ctx, src, hist)?;
                    let mut hist_host = vec![0u32; BINS as usize];
                    ctx.d2h_u32(&mut hist_host, hist)?;
                    ctx.free(hist)?;
                    let table_host: Vec<u32> = hist_host
                        .iter()
                        .map(|&h| h.wrapping_mul(2654435761) | 1)
                        .collect();
                    let table = ctx.malloc(bin_bytes, "d_codeTable")?;
                    ctx.h2d_u32(table, &table_host)?;
                    let enc = ctx.malloc(bin_bytes, "d_encoded")?;
                    ctx.memset(enc, 0, bin_bytes)?;
                    encode_kernel(ctx, src, table, enc)?;
                    let mut out = vec![0u32; BINS as usize];
                    ctx.d2h_u32(&mut out, enc)?;
                    // Free the source right after its last GPU use (LD fix).
                    ctx.free(src)?;
                    ctx.free(table)?;
                    ctx.free(enc)?;
                    assert_eq!(table_host, ref_table);
                    Ok(out)
                }
            }
        },
    )?;

    assert_eq!(enc_out, ref_enc, "encoded output must match host reference");
    let sum: f64 = enc_out.iter().map(|&v| f64::from(v)).sum();
    Ok(finish(ctx, sum, None))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variants_agree_and_peak_drops_two_thirds() {
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
            (reduction - 67.0).abs() < 2.0,
            "expected ~67% reduction, got {reduction:.1}%"
        );
    }
}
