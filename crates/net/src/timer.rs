//! Compute-phase timing sources for the replay.
//!
//! MUSA's integration step replaces the durations of the trace's compute
//! phases "by the results obtained in the simulations" (§II-A). The
//! replay is generic over where those durations come from:
//!
//! * [`BurstTimer`] — hardware-agnostic burst-mode scheduling of each
//!   region for a given core count (used by the Fig. 2 scaling study);
//! * [`FixedRatioTimer`] — burst-mode timing rescaled by the ratio
//!   detailed/burst observed on the sampled representative region: the
//!   MUSA sampling methodology, used for full-application estimates
//!   under a specific hardware configuration.
//!
//! A region's burst makespan depends only on the region and the core
//! count, so the design-space sweep schedules each region once per core
//! count into a [`BurstTable`] and replays against the table
//! ([`crate::replay_scaled`]) instead of rescheduling it for every
//! configuration.

use musa_tasksim::simulate_region_burst;
use musa_trace::{AppTrace, ComputeRegion};

/// Supplies the simulated duration of a compute region.
pub trait ComputeTimer {
    /// Duration in nanoseconds of `region` executed by `rank`.
    fn region_time_ns(&mut self, rank: u32, region: &ComputeRegion) -> f64;
}

/// Burst-mode (hardware-agnostic) timer: schedules each region's work
/// items on `cores` cores with trace durations.
#[derive(Debug, Clone, Copy)]
pub struct BurstTimer {
    /// Cores per node.
    pub cores: u32,
}

impl ComputeTimer for BurstTimer {
    fn region_time_ns(&mut self, _rank: u32, region: &ComputeRegion) -> f64 {
        burst_makespan_ns(region, self.cores)
    }
}

/// Burst-mode timing rescaled by a detailed/burst time ratio (the MUSA
/// sampling extrapolation).
#[derive(Debug, Clone, Copy)]
pub struct FixedRatioTimer {
    /// Cores per node.
    pub cores: u32,
    /// detailed-time / burst-time ratio measured on the sampled region.
    pub ratio: f64,
}

impl ComputeTimer for FixedRatioTimer {
    fn region_time_ns(&mut self, _rank: u32, region: &ComputeRegion) -> f64 {
        burst_makespan_ns(region, self.cores) * self.ratio
    }
}

/// Burst makespan of one region, counted in `net.burst_schedules`.
fn burst_makespan_ns(region: &ComputeRegion, cores: u32) -> f64 {
    musa_obs::counter_add("net.burst_schedules", 1);
    simulate_region_burst(region, cores).makespan_ns
}

/// The burst makespan of every compute region of one trace at one core
/// count: one row per rank (in `trace.ranks` order), one entry per
/// compute region in that rank's program order. Replaying against it
/// with a ratio reproduces [`FixedRatioTimer`] bit for bit.
#[derive(Debug)]
pub struct BurstTable {
    rows: Vec<Vec<f64>>,
}

impl BurstTable {
    /// Schedule every compute region of `trace` on `cores` cores.
    pub fn build(trace: &AppTrace, cores: u32) -> BurstTable {
        let rows = trace
            .ranks
            .iter()
            .map(|rt| rt.regions().map(|r| burst_makespan_ns(r, cores)).collect())
            .collect();
        BurstTable { rows }
    }

    /// Burst makespan of the `k`-th compute region of `trace.ranks[rank]`.
    pub fn makespan_ns(&self, rank: usize, k: usize) -> f64 {
        self.rows[rank][k]
    }

    /// Burst makespan of the trace's sampled region
    /// ([`AppTrace::sampled_slot`]); `trace` must be the one the table
    /// was built from.
    pub fn sampled_ns(&self, trace: &AppTrace) -> Option<f64> {
        let (rank, k) = trace.sampled_slot()?;
        Some(self.makespan_ns(rank, k))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use musa_trace::{RegionWork, WorkItem};

    fn region() -> ComputeRegion {
        ComputeRegion {
            region_id: 0,
            name: "r".into(),
            work: RegionWork::ParallelFor {
                chunks: (0..8).map(|i| WorkItem::simple(i, 100.0)).collect(),
                schedule: musa_trace::LoopSchedule::Dynamic,
            },
            spawn_overhead_ns: 0.0,
            dispatch_overhead_ns: 0.0,
        }
    }

    #[test]
    fn burst_timer_scales_with_cores() {
        let r = region();
        let t1 = BurstTimer { cores: 1 }.region_time_ns(0, &r);
        let t8 = BurstTimer { cores: 8 }.region_time_ns(0, &r);
        assert!((t1 - 800.0).abs() < 1e-9);
        assert!((t8 - 100.0).abs() < 1e-9);
    }

    #[test]
    fn table_holds_every_region_and_the_sampled_baseline() {
        let trace = musa_apps::generate(musa_apps::AppId::Hydro, &musa_apps::GenParams::tiny());
        let table = BurstTable::build(&trace, 32);
        for (r, rt) in trace.ranks.iter().enumerate() {
            for (k, region) in rt.regions().enumerate() {
                let want = simulate_region_burst(region, 32).makespan_ns;
                assert_eq!(table.makespan_ns(r, k).to_bits(), want.to_bits());
            }
        }
        let sampled = simulate_region_burst(trace.sampled_region().unwrap(), 32).makespan_ns;
        assert_eq!(table.sampled_ns(&trace), Some(sampled));
    }

    #[test]
    fn ratio_timer_rescales() {
        let r = region();
        let t = FixedRatioTimer {
            cores: 8,
            ratio: 1.5,
        }
        .region_time_ns(0, &r);
        assert!((t - 150.0).abs() < 1e-9);
    }
}
