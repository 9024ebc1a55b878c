//! Platform configuration: the simulated analogue of the paper's Table 3.
//!
//! The DrGPUM paper evaluates on two machines (NVIDIA RTX 3090 + Intel Xeon
//! 4316, and NVIDIA A100 + AMD EPYC 7402). The simulator reproduces the
//! *relative* characteristics of the two platforms — memory bandwidth, access
//! latency, host-side speed — through a [`PlatformConfig`] that drives the
//! simulated-time cost model in [`crate::api::DeviceContext`].

/// Cost-model parameters for one simulated GPU platform.
///
/// All latencies are in simulated nanoseconds; bandwidths are in bytes per
/// simulated nanosecond (i.e. GB/s).
///
/// # Examples
///
/// ```
/// use gpu_sim::PlatformConfig;
///
/// let a100 = PlatformConfig::a100();
/// let rtx = PlatformConfig::rtx3090();
/// assert!(a100.global_bandwidth_bpns > rtx.global_bandwidth_bpns);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PlatformConfig {
    /// Human-readable platform name (e.g. `"rtx3090"`).
    pub name: String,
    /// Total device memory capacity in bytes.
    pub device_memory_bytes: u64,
    /// Global-memory bandwidth, bytes per simulated nanosecond (== GB/s).
    pub global_bandwidth_bpns: f64,
    /// Host↔device (PCIe/NVLink) bandwidth, bytes per simulated nanosecond.
    pub interconnect_bandwidth_bpns: f64,
    /// Latency of one uncoalesced global-memory access, in ns.
    pub global_latency_ns: f64,
    /// Latency of one shared-memory access, in ns. The paper cites a ~100×
    /// speedup of on-chip memory over global memory (Sec. 3.2).
    pub shared_latency_ns: f64,
    /// Fixed cost of a `cudaMalloc`-family call, in ns.
    pub malloc_overhead_ns: u64,
    /// Fixed cost of a `cudaFree`-family call, in ns.
    pub free_overhead_ns: u64,
    /// Fixed cost of launching a kernel, in ns.
    pub launch_overhead_ns: u64,
    /// Fixed cost of a memcpy/memset API call (driver overhead), in ns.
    pub copy_overhead_ns: u64,
    /// Number of streaming multiprocessors; the kernel cost model divides
    /// aggregate per-thread work by an effective parallelism derived from it.
    pub sm_count: u32,
    /// Threads concurrently resident per SM used by the parallelism model.
    pub threads_per_sm: u32,
    /// Relative host (CPU) speed factor; > 1.0 means a slower CPU. Models the
    /// paper's observation that dwt2d overhead is higher on the (slower)
    /// AMD EPYC host of the A100 machine.
    pub cpu_factor: f64,
    /// Cost of one arithmetic instruction per thread, in ns.
    pub flop_ns: f64,
    /// Cost of migrating one unified-memory page between host and device,
    /// in ns. Page faults are expensive — the paper cites up to 10×
    /// slowdowns from unified-memory page migration (Sec. 1).
    pub page_migration_ns: u64,
}

impl PlatformConfig {
    /// Configuration modelled after the paper's RTX 3090 platform
    /// (24 GB GDDR6X, Intel Xeon 4316 host).
    pub fn rtx3090() -> Self {
        PlatformConfig {
            name: "rtx3090".to_owned(),
            device_memory_bytes: 24 * (1 << 30),
            global_bandwidth_bpns: 936.0,
            interconnect_bandwidth_bpns: 16.0,
            global_latency_ns: 400.0,
            shared_latency_ns: 4.0,
            malloc_overhead_ns: 10_000,
            free_overhead_ns: 6_000,
            launch_overhead_ns: 5_000,
            copy_overhead_ns: 4_000,
            sm_count: 82,
            threads_per_sm: 1536,
            cpu_factor: 1.0,
            flop_ns: 0.7,
            page_migration_ns: 20_000,
        }
    }

    /// Configuration modelled after the paper's A100 platform
    /// (40 GB HBM2, AMD EPYC 7402 host).
    pub fn a100() -> Self {
        PlatformConfig {
            name: "a100".to_owned(),
            device_memory_bytes: 40 * (1 << 30),
            global_bandwidth_bpns: 1555.0,
            interconnect_bandwidth_bpns: 24.0,
            global_latency_ns: 350.0,
            shared_latency_ns: 3.5,
            malloc_overhead_ns: 9_000,
            free_overhead_ns: 5_500,
            launch_overhead_ns: 4_500,
            copy_overhead_ns: 3_500,
            sm_count: 108,
            threads_per_sm: 2048,
            cpu_factor: 1.25,
            flop_ns: 0.5,
            page_migration_ns: 18_000,
        }
    }

    /// A tiny test platform with a small device memory, handy for forcing
    /// out-of-memory conditions and for fast unit tests.
    pub fn test_tiny() -> Self {
        PlatformConfig {
            name: "test-tiny".to_owned(),
            device_memory_bytes: 1 << 20, // 1 MiB
            ..PlatformConfig::rtx3090()
        }
    }

    /// Effective number of concurrently executing threads used by the kernel
    /// cost model.
    pub fn effective_parallelism(&self) -> f64 {
        f64::from(self.sm_count) * f64::from(self.threads_per_sm)
    }

    /// Simulated duration of a host↔device transfer of `bytes`.
    pub fn transfer_ns(&self, bytes: u64) -> u64 {
        self.copy_overhead_ns + (bytes as f64 / self.interconnect_bandwidth_bpns) as u64
    }

    /// Simulated duration of a device-internal streaming operation over
    /// `bytes` (memset, device-to-device copy).
    pub fn device_stream_ns(&self, bytes: u64) -> u64 {
        self.copy_overhead_ns + (bytes as f64 / self.global_bandwidth_bpns) as u64
    }
}

impl Default for PlatformConfig {
    fn default() -> Self {
        PlatformConfig::rtx3090()
    }
}

/// Top-level simulator configuration: the platform cost model plus
/// execution knobs that are properties of the *simulator*, not of the
/// simulated hardware.
///
/// # Examples
///
/// ```
/// use gpu_sim::{DeviceContext, SimConfig};
///
/// let cfg = SimConfig::default().with_kernel_deadline_ms(500);
/// let ctx = DeviceContext::with_config(cfg);
/// assert_eq!(ctx.kernel_deadline_ms(), Some(500));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// The simulated platform (cost model, device memory size).
    pub platform: PlatformConfig,
    /// Wall-clock watchdog deadline, in milliseconds, for each kernel's
    /// block loop. When a kernel's execution exceeds the deadline the
    /// simulator stops at the next block boundary, delivers the partial
    /// results to every registered tool, and the launch returns
    /// [`crate::SimError::KernelFaulted`] — mirroring how a profiler's
    /// watchdog cancels a runaway kernel without losing the run. `None`
    /// (the default) never interrupts; the
    /// `DRGPUM_KERNEL_DEADLINE_MS` environment variable fills this for
    /// contexts built via [`crate::DeviceContext::new`].
    pub kernel_deadline_ms: Option<u64>,
}

impl SimConfig {
    /// A configuration for `platform` with no kernel watchdog.
    pub fn new(platform: PlatformConfig) -> Self {
        SimConfig {
            platform,
            kernel_deadline_ms: None,
        }
    }

    /// Sets the per-kernel wall-clock watchdog deadline (builder style);
    /// `0` disables the watchdog.
    pub fn with_kernel_deadline_ms(mut self, ms: u64) -> Self {
        self.kernel_deadline_ms = (ms >= 1).then_some(ms);
        self
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig::new(PlatformConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_table3_relationships() {
        let rtx = PlatformConfig::rtx3090();
        let a100 = PlatformConfig::a100();
        // A100 has more device memory and higher bandwidth (Table 3 / Sec. 6).
        assert!(a100.device_memory_bytes > rtx.device_memory_bytes);
        assert!(a100.global_bandwidth_bpns > rtx.global_bandwidth_bpns);
        // The A100 machine's CPU is slower (dwt2d takeaway in Sec. 6).
        assert!(a100.cpu_factor > rtx.cpu_factor);
    }

    #[test]
    fn shared_memory_is_orders_of_magnitude_faster() {
        let cfg = PlatformConfig::rtx3090();
        assert!(cfg.global_latency_ns / cfg.shared_latency_ns >= 90.0);
    }

    #[test]
    fn transfer_cost_scales_with_bytes() {
        let cfg = PlatformConfig::rtx3090();
        assert!(cfg.transfer_ns(1 << 20) < cfg.transfer_ns(1 << 24));
        assert!(cfg.transfer_ns(0) == cfg.copy_overhead_ns);
    }

    #[test]
    fn default_is_rtx3090() {
        assert_eq!(PlatformConfig::default().name, "rtx3090");
    }

    #[test]
    fn tiny_platform_is_small() {
        assert!(PlatformConfig::test_tiny().device_memory_bytes <= 1 << 20);
    }

    #[test]
    fn sim_config_defaults_to_rtx3090_without_watchdog() {
        let cfg = SimConfig::default();
        assert_eq!(cfg.kernel_deadline_ms, None);
        assert_eq!(cfg.platform, PlatformConfig::rtx3090());
    }
}
