//! The multiscale simulation of one (application, configuration) pair —
//! MUSA's end-to-end flow (§II-A):
//!
//! 1. detailed simulation of the sampled representative region on the
//!    target node configuration (`musa-tasksim`);
//! 2. extrapolation: the detailed/burst time ratio of the sampled region
//!    rescales every rank's burst-mode compute phases;
//! 3. full-application replay of all compute + MPI events over the
//!    network model (`musa-net`), against the trace's burst table at
//!    the configuration's core count;
//! 4. power estimation of the node during the region (`musa-power` +
//!    `musa-mem`) and energy-to-solution over the whole run.

use std::sync::{Arc, OnceLock};

use musa_arch::{CoresPerNode, NodeConfig};
use musa_cache::{ArtifactCache, ArtifactKey, DetailArtifact};
use musa_net::{replay, replay_scaled, BurstTable, NetworkParams, ReplayResult};
use musa_power::{PowerBreakdown, PowerModel};
use musa_tasksim::NodeSim;
use musa_trace::{AppTrace, ComputeRegion, DetailedTrace};

/// Scalar summary of one multiscale simulation, the unit of the DSE
/// result table.
#[derive(Debug, Clone, PartialEq)]
pub struct ConfigResult {
    /// Application label.
    pub app: String,
    /// Node configuration.
    pub config: NodeConfig,
    /// Full-application parallel runtime (256-rank replay), ns.
    pub time_ns: f64,
    /// Detailed makespan of the sampled compute region, ns.
    pub region_ns: f64,
    /// Node power during the sampled region.
    pub power: PowerBreakdown,
    /// Node energy-to-solution over the full run, joules.
    pub energy_j: f64,
    /// L1 misses per kilo-instruction (128-bit baseline).
    pub l1_mpki: f64,
    /// L2 MPKI.
    pub l2_mpki: f64,
    /// L3 MPKI.
    pub l3_mpki: f64,
    /// DRAM requests (incl. write-backs) per kilo-instruction.
    pub mem_mpki: f64,
    /// DRAM requests per second during the region (×10⁹ = the paper's
    /// "Giga-MemRequest/s").
    pub gmemreq_per_s: f64,
    /// Bandwidth roofline stretch applied by the contention model.
    pub mem_stretch: f64,
    /// Parallel efficiency of the sampled region's schedule.
    pub region_efficiency: f64,
}

musa_obs::json_struct!(ConfigResult {
    app,
    config,
    time_ns,
    region_ns,
    power,
    energy_j,
    l1_mpki,
    l2_mpki,
    l3_mpki,
    mem_mpki,
    gmemreq_per_s,
    mem_stretch,
    region_efficiency,
});

/// The multiscale simulator for one application trace.
pub struct MultiscaleSim<'a> {
    trace: &'a AppTrace,
    net: NetworkParams,
    /// The trace's burst table per core count, at
    /// [`CoresPerNode::index`]. A region's burst makespan depends only on
    /// the region and the core count, so the paper-scale 864-point
    /// sweep schedules the trace just once per core count. Each table
    /// is built on the first full-replay point at its core count; one
    /// lock per slot lets the sweep's threads build different core
    /// counts at once.
    tables: [OnceLock<Arc<BurstTable>>; CoresPerNode::ALL.len()],
    /// Artifact cache plus this trace's key (which seeds every detail
    /// and burst key), when the caller attached one.
    cache: Option<(Arc<ArtifactCache>, ArtifactKey)>,
}

impl<'a> MultiscaleSim<'a> {
    /// New simulator over a trace, with the MareNostrum4-class network.
    pub fn new(trace: &'a AppTrace) -> Self {
        MultiscaleSim {
            trace,
            net: NetworkParams::marenostrum4(),
            tables: Default::default(),
            cache: None,
        }
    }

    /// Override the network parameters.
    pub fn with_network(mut self, net: NetworkParams) -> Self {
        self.net = net;
        self
    }

    /// Attach an artifact cache. `trace_key` must be the key under
    /// which `trace` itself is cached ([`musa_cache::trace_key`]);
    /// detailed windows and burst tables are then looked up before
    /// being computed, and recorded after.
    pub fn with_cache(mut self, cache: Arc<ArtifactCache>, trace_key: ArtifactKey) -> Self {
        self.cache = Some((cache, trace_key));
        self
    }

    /// Run the multiscale flow for one node configuration.
    ///
    /// `full_replay`, if false, skips steps 2 and 3 (region-only
    /// studies): the row's time is the region's detailed makespan.
    pub fn simulate(&self, config: NodeConfig, full_replay: bool) -> ConfigResult {
        // `sim.point` failpoint: keyed by (app, config label) so chaos
        // runs poison the same points regardless of thread order.
        if musa_fault::active() {
            musa_fault::failpoint(
                "sim.point",
                musa_fault::key_of(&[self.trace.meta.app.as_bytes(), config.label().as_bytes()]),
            );
        }
        let region = self
            .trace
            .sampled_region()
            .expect("trace has a sampled region");
        let detail = self
            .trace
            .detail
            .as_ref()
            .expect("trace has a detailed trace");

        // Step 1: detailed simulation of the representative region.
        // Steps 1+2 share the detailed-sim phase: the burst baseline is
        // part of producing the rescale ratio, not a separate stage.
        // Both consult the artifact cache first when one is attached; a
        // hit makes the phase near-instant.
        let detailed = musa_obs::span_app(musa_obs::phase::DETAILED_SIM, &self.trace.meta.app);
        let det = self.detail_window(config, detail, region);
        let region_ns = det.region_ns;

        // Step 2: detailed/burst rescale ratio; the sampled region's
        // burst baseline is its entry in the burst table.
        let scaled = full_replay.then(|| {
            let table = {
                let _burst = musa_obs::span_app(musa_obs::phase::BURST, &self.trace.meta.app);
                self.burst_table(config.cores)
            };
            let burst_ns = table
                .sampled_ns(self.trace)
                .expect("trace has a sampled region");
            let ratio = if burst_ns > 0.0 {
                region_ns / burst_ns
            } else {
                1.0
            };
            (table, ratio)
        });
        drop(detailed);

        // Step 3: full-application replay.
        let time_ns = match scaled {
            Some((table, ratio)) => replay_scaled(self.trace, &self.net, table, ratio).total_ns,
            None => region_ns,
        };

        // Step 4: power and energy.
        let power = {
            let _power = musa_obs::span_app(musa_obs::phase::POWER, &self.trace.meta.app);
            PowerModel::new(config).node_power(&det.stats, &det.dram, region_ns, det.busy_ns)
        };
        let energy_j = power.energy_j(time_ns);
        musa_obs::counter_add("sim.points", 1);

        let s = &det.stats;
        let instr_rate = if region_ns > 0.0 {
            s.mem_requests() / (region_ns * 1e-9)
        } else {
            0.0
        };

        ConfigResult {
            app: self.trace.meta.app.clone(),
            config,
            time_ns,
            region_ns,
            power,
            energy_j,
            l1_mpki: s.mpki(&s.l1),
            l2_mpki: s.mpki(&s.l2),
            l3_mpki: s.mpki(&s.l3),
            mem_mpki: s.l3_mpki_with_writebacks(),
            gmemreq_per_s: instr_rate / 1e9,
            mem_stretch: det.mem_stretch,
            region_efficiency: det.efficiency,
        }
    }

    /// The detailed window of `config`: cache lookup, else a fresh
    /// `NodeSim` run (persisted when a cache is attached). Cached and
    /// fresh paths yield the same [`DetailArtifact`] — the rest of the
    /// flow runs the same arithmetic on the same numbers either way.
    fn detail_window(
        &self,
        config: NodeConfig,
        detail: &DetailedTrace,
        region: &ComputeRegion,
    ) -> DetailArtifact {
        let slot = self
            .cache
            .as_ref()
            .map(|(c, tk)| (c, musa_cache::detail_key(*tk, &config)));
        if let Some((cache, key)) = &slot {
            match cache.detail(*key) {
                Some(art) => {
                    musa_prof::cache_note(true);
                    return art;
                }
                None => musa_prof::cache_note(false),
            }
        }
        let mut node = NodeSim::new(config, detail, region);
        let det = node.simulate_region(region);
        let art = DetailArtifact {
            region_ns: det.schedule.makespan_ns,
            busy_ns: det.schedule.busy_ns,
            efficiency: det.schedule.parallel_efficiency(),
            mem_stretch: det.mem_stretch,
            stats: det.stats,
            dram: det.dram,
        };
        if let Some((cache, key)) = slot {
            cache.put_detail(key, &art);
        }
        art
    }

    /// The trace's burst table at `cores`: this simulator's slot, else
    /// the artifact cache, else built (and recorded in both).
    fn burst_table(&self, cores: CoresPerNode) -> &BurstTable {
        self.tables[cores.index()].get_or_init(|| {
            let n = cores.count();
            let Some((cache, tk)) = &self.cache else {
                return Arc::new(BurstTable::build(self.trace, n));
            };
            let key = musa_cache::burst_key(*tk, n);
            if let Some(table) = cache.burst(key) {
                musa_prof::cache_note(true);
                return table;
            }
            musa_prof::cache_note(false);
            let table = Arc::new(BurstTable::build(self.trace, n));
            cache.put_burst(key, Arc::clone(&table));
            table
        })
    }

    /// Full replay of the trace in burst mode at a core count (used by
    /// the scaling study, Fig. 2b).
    pub fn burst_replay(&self, cores: u32) -> ReplayResult {
        replay(self.trace, &self.net, &mut musa_net::BurstTimer { cores })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use musa_apps::{generate, AppId, GenParams};
    use musa_arch::{CoresPerNode, MemConfig, VectorWidth};

    fn result(app: AppId, config: NodeConfig) -> ConfigResult {
        let trace = generate(app, &GenParams::tiny());
        MultiscaleSim::new(&trace).simulate(config, true)
    }

    fn cfg64() -> NodeConfig {
        NodeConfig::REFERENCE.with_cores(CoresPerNode::C64)
    }

    #[test]
    fn produces_complete_results() {
        let r = result(AppId::Hydro, cfg64());
        assert!(r.time_ns > 0.0);
        assert!(r.region_ns > 0.0);
        assert!(r.time_ns >= r.region_ns, "full app includes many regions");
        assert!(r.power.total_w() > 0.0);
        assert!(r.energy_j > 0.0);
        assert!(r.l1_mpki > 0.0);
        assert!(r.region_efficiency > 0.0 && r.region_efficiency <= 1.0);
        assert_eq!(r.app, "hydro");
    }

    #[test]
    fn wider_simd_speeds_up_spmz_end_to_end() {
        let base = result(AppId::Spmz, cfg64().with_vector(VectorWidth::V128));
        let wide = result(AppId::Spmz, cfg64().with_vector(VectorWidth::V512));
        let speedup = base.time_ns / wide.time_ns;
        assert!(speedup > 1.2, "end-to-end spmz 512-bit speedup {speedup}");
    }

    #[test]
    fn lulesh_gains_from_channels_end_to_end() {
        let c4 = result(AppId::Lulesh, cfg64().with_mem(MemConfig::DDR4_4CH));
        let c8 = result(AppId::Lulesh, cfg64().with_mem(MemConfig::DDR4_8CH));
        let speedup = c4.time_ns / c8.time_ns;
        assert!(speedup > 1.1, "lulesh 8ch end-to-end speedup {speedup}");
        // And DRAM power roughly doubles.
        let ratio = c8.power.mem_w / c4.power.mem_w;
        assert!(ratio > 1.5, "dram power ratio {ratio}");
    }

    #[test]
    fn region_only_mode_skips_replay() {
        let trace = generate(AppId::Btmz, &GenParams::tiny());
        let sim = MultiscaleSim::new(&trace);
        let r = sim.simulate(cfg64(), false);
        assert!((r.time_ns - r.region_ns).abs() < 1e-9);
    }
}
