//! `net.burst_schedules` counts one per region the burst scheduler
//! runs: a full-replay sweep at one core count schedules each compute
//! region of the trace exactly once, however many configurations share
//! that core count. Alone in its test binary, so no other test moves
//! the process-wide counter while it runs.

use musa_apps::{generate, AppId, GenParams};
use musa_arch::{CoresPerNode, DesignSpace, NodeConfig};
use musa_core::{sweep_app, SweepOptions};

#[test]
fn a_sweep_schedules_each_region_once_per_core_count() {
    musa_obs::enable_metrics(true);
    let gen = GenParams::tiny();
    let configs: Vec<NodeConfig> = DesignSpace::iter()
        .filter(|c| c.cores == CoresPerNode::C32)
        .take(9)
        .collect();
    assert_eq!(configs.len(), 9);
    let trace = generate(AppId::Hydro, &gen);
    let regions: u64 = trace.ranks.iter().map(|r| r.regions().count() as u64).sum();

    let before = musa_obs::snapshot().counter("net.burst_schedules");
    let opts = SweepOptions {
        gen,
        full_replay: true,
    };
    sweep_app(AppId::Hydro, &configs, &opts);
    let scheduled = musa_obs::snapshot().counter("net.burst_schedules") - before;
    assert_eq!(scheduled, regions);
}
