//! Benchmarks of the paper's case studies (Table 1, §5.1–5.2) and the A4
//! scaling sweep over the number of DDS disk clusters.
//!
//! Run: `cargo bench -p arcade-bench --bench cases`

use arcade::cases::dds::{dds_scaled, FIVE_WEEKS_H};
use arcade::cases::rcs::rcs;
use arcade::engine::EngineOptions;
use arcade::modular::modular_analysis;
use arcade::Measure;
use arcade_bench::bench;

fn main() {
    // Table 1 measures through the modular analysis.
    let def = dds_scaled(6);
    bench("dds/table1-modular", 10, || {
        modular_analysis(&def, &EngineOptions::new())
            .expect("dds")
            .evaluate(&[
                Measure::SteadyStateAvailability,
                Measure::Reliability(FIVE_WEEKS_H),
            ])
            .expect("dds measures")
    });

    // Scaling sweep over the number of disk clusters.
    for clusters in [1usize, 2, 4, 6] {
        let def = dds_scaled(clusters);
        bench(&format!("dds-scaling/clusters/{clusters}"), 10, || {
            modular_analysis(&def, &EngineOptions::new())
                .expect("dds")
                .evaluate(&[Measure::SteadyStateAvailability])
                .expect("dds availability")
        });
    }

    // RCS 50-hour measures.
    let def = rcs();
    bench("rcs/modular-50h", 10, || {
        modular_analysis(&def, &EngineOptions::new())
            .expect("rcs")
            .evaluate(&[
                Measure::PointUnavailability(50.0),
                Measure::UnreliabilityWithRepair(50.0),
            ])
            .expect("rcs measures")
    });
}
