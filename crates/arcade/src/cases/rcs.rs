//! The reactor cooling system (paper §5.2, after \[22, 7\]).
//!
//! Two parallel pump lines (pump + filter + inlet/outlet control valves),
//! a heat exchanger unit (exchanger + filter + two valves) with a bypass
//! of two motor-driven valves. Pumps load-share: when one fails the other
//! runs degraded at twice the phase rate (Erlang-2 failure and repair,
//! shared FCFS repair unit). Valves have two equiprobable failure modes,
//! stuck-open (m1) and stuck-closed (m2); only stuck-closed breaks a pump
//! line. All other components have dedicated repair.
//!
//! The paper (and its source \[7\]) does not enumerate the exact number of
//! control valves ("a number of control valves"); this reconstruction uses
//! two per pump line, two in the heat-exchanger unit and two motor-driven
//! bypass valves — the substitution is documented in DESIGN.md.

use crate::ast::{BcDef, OmGroup, RepairStrategy, RuDef, SystemDef};
use crate::dist::Dist;
use crate::expr::Expr;

/// Pump Erlang-2 phase rate, normal mode (per hour, §5.2.1).
pub const PUMP_PHASE_RATE: f64 = 5.44e-6;
/// Pump Erlang-2 phase rate in degraded (load-sharing) mode.
pub const PUMP_PHASE_RATE_DEGRADED: f64 = 10.88e-6;
/// Pump Erlang-2 repair phase rate.
pub const PUMP_REPAIR_PHASE_RATE: f64 = 0.1;
/// Valve total failure rate (two modes at 4.2e-8 each).
pub const VALVE_RATE: f64 = 8.4e-8;
/// Filter failure rate.
pub const FILTER_RATE: f64 = 2.19e-6;
/// Heat exchanger failure rate.
pub const HX_RATE: f64 = 1.14e-6;
/// Repair rate of valves, filters and the heat exchanger.
pub const COMMON_REPAIR_RATE: f64 = 0.1;

fn valve(name: &str) -> BcDef {
    BcDef::new(name, Dist::exp(VALVE_RATE), Dist::exp(COMMON_REPAIR_RATE)).with_failure_modes(
        [0.5, 0.5],
        [Dist::exp(COMMON_REPAIR_RATE), Dist::exp(COMMON_REPAIR_RATE)],
    )
}

fn dedicated(def: &mut SystemDef, comp: &str) {
    def.add_repair_unit(RuDef::new(
        format!("{comp}.rep"),
        [comp],
        RepairStrategy::Dedicated,
    ));
}

/// Builds the full RCS model (2 control valves per pump line — see the
/// inventory note in the module docs).
pub fn rcs() -> SystemDef {
    rcs_with_valves(2)
}

/// Builds an RCS variant with `valves_per_line` control valves per pump
/// line. The paper's source \[7\] says only "a number of control valves";
/// the `exp_rcs_inventory` experiment sweeps this parameter to show how
/// the published numbers pin it down.
///
/// # Panics
///
/// Panics if `valves_per_line` is 0.
pub fn rcs_with_valves(valves_per_line: usize) -> SystemDef {
    assert!(valves_per_line > 0, "a pump line needs at least one valve");
    let mut def = SystemDef::new(format!("rcs-{valves_per_line}v"));

    // Pumps with load sharing: P1 degrades when P2 is down and vice versa.
    for (me, other) in [("P1", "P2"), ("P2", "P1")] {
        def.add_component(
            BcDef::new(
                me,
                Dist::erlang(2, PUMP_PHASE_RATE),
                Dist::erlang(2, PUMP_REPAIR_PHASE_RATE),
            )
            .with_om_group(OmGroup::NormalDegraded(Expr::down(other)))
            .with_ttf([
                Dist::erlang(2, PUMP_PHASE_RATE),
                Dist::erlang(2, PUMP_PHASE_RATE_DEGRADED),
            ]),
        );
    }
    def.add_repair_unit(RuDef::new("P.rep", ["P1", "P2"], RepairStrategy::Fcfs));

    // Pump lines: filter + inlet/outlet valves.
    for line in 1..=2 {
        let f = format!("FP{line}");
        def.add_component(BcDef::new(
            &f,
            Dist::exp(FILTER_RATE),
            Dist::exp(COMMON_REPAIR_RATE),
        ));
        dedicated(&mut def, &f);
        for k in 0..valves_per_line {
            let v = match k {
                0 => format!("VIP{line}"),
                1 => format!("VOP{line}"),
                n => format!("VC{line}_{n}"),
            };
            def.add_component(valve(&v));
            dedicated(&mut def, &v);
        }
    }

    // Heat exchanger unit: HX + filter + two valves.
    def.add_component(BcDef::new(
        "HX",
        Dist::exp(HX_RATE),
        Dist::exp(COMMON_REPAIR_RATE),
    ));
    dedicated(&mut def, "HX");
    def.add_component(BcDef::new(
        "FHX",
        Dist::exp(FILTER_RATE),
        Dist::exp(COMMON_REPAIR_RATE),
    ));
    dedicated(&mut def, "FHX");
    for v in ["VHX1", "VHX2"] {
        def.add_component(valve(v));
        dedicated(&mut def, v);
    }

    // Bypass: two motor-driven valves.
    for v in ["MDV1", "MDV2"] {
        def.add_component(valve(v));
        dedicated(&mut def, v);
    }

    // A pump line is down if its pump, filter, or a stuck-closed valve is
    // down; the HX unit if anything in it fails; the bypass if an MDV is
    // stuck closed (§5.2).
    let line = |i: u32| {
        let mut parts = vec![
            Expr::down(format!("P{i}")),
            Expr::down(format!("FP{i}")),
            Expr::down_mode(format!("VIP{i}"), 2),
        ];
        if valves_per_line >= 2 {
            parts.push(Expr::down_mode(format!("VOP{i}"), 2));
        }
        for n in 2..valves_per_line {
            parts.push(Expr::down_mode(format!("VC{i}_{n}"), 2));
        }
        Expr::Or(parts)
    };
    let hx_unit = Expr::or([
        Expr::down("HX"),
        Expr::down("FHX"),
        Expr::down("VHX1"),
        Expr::down("VHX2"),
    ]);
    let bypass = Expr::or([Expr::down_mode("MDV1", 2), Expr::down_mode("MDV2", 2)]);
    def.set_system_down(Expr::or([
        Expr::and([line(1), line(2)]),
        Expr::and([hx_unit, bypass]),
    ]));
    def
}

/// Builds a scaled RCS family with `lines` redundant pump lines (the
/// paper's system has 2). Every pump load-shares with the others: it runs
/// degraded at the doubled phase rate as soon as *any* other pump is down,
/// and all pumps share one FCFS repair unit — so the pump subsystem grows
/// combinatorially with `lines`, which is exactly what the scaling sweep
/// (`exp_scaling`) wants to stress. The heat-exchanger unit and bypass are
/// as in [`rcs`]; the system is down when **all** pump lines are down or
/// the heat-exchanger path and its bypass both fail.
///
/// # Panics
///
/// Panics if `lines < 2` (a single "redundant" line is not an RCS).
pub fn rcs_scaled(lines: usize) -> SystemDef {
    rcs_scaled_kofn(lines, 1)
}

/// The k-of-n variant of [`rcs_scaled`]: `lines` redundant pump lines of
/// which at least `k` must work — the system's pump subsystem is down as
/// soon as more than `lines - k` lines are down (a `(lines-k+1)`-of-`lines`
/// failure gate). `rcs_scaled_kofn(n, 1)` is exactly [`rcs_scaled`]`(n)`
/// ("down when every line is down"). Higher `k` keeps the per-line failure
/// *count* observable, so bisimulation can collapse much less of the pump
/// product space — the family's CTMCs grow steeply with `k`, which is what
/// the scaling sweep wants.
///
/// # Panics
///
/// Panics if `lines < 2` (a single "redundant" line is not an RCS) or
/// `k` is not in `1..=lines`.
pub fn rcs_scaled_kofn(lines: usize, k: usize) -> SystemDef {
    assert!(lines >= 2, "the RCS family needs at least two pump lines");
    assert!(
        (1..=lines).contains(&k),
        "need 1 <= k <= lines working lines, got k={k} of {lines}"
    );
    let mut def = SystemDef::new(if k == 1 {
        format!("rcs-{lines}l")
    } else {
        format!("rcs-{lines}l-{k}ofn")
    });

    // Pumps with load sharing against every sibling.
    let pump_names: Vec<String> = (1..=lines).map(|i| format!("P{i}")).collect();
    for (i, me) in pump_names.iter().enumerate() {
        let others: Vec<Expr> = pump_names
            .iter()
            .enumerate()
            .filter(|&(j, _)| j != i)
            .map(|(_, p)| Expr::down(p))
            .collect();
        def.add_component(
            BcDef::new(
                me,
                Dist::erlang(2, PUMP_PHASE_RATE),
                Dist::erlang(2, PUMP_REPAIR_PHASE_RATE),
            )
            .with_om_group(OmGroup::NormalDegraded(Expr::Or(others)))
            .with_ttf([
                Dist::erlang(2, PUMP_PHASE_RATE),
                Dist::erlang(2, PUMP_PHASE_RATE_DEGRADED),
            ]),
        );
    }
    def.add_repair_unit(RuDef::new(
        "P.rep",
        pump_names.clone(),
        RepairStrategy::Fcfs,
    ));

    // Pump lines: filter + inlet/outlet valves, dedicated repair.
    for line in 1..=lines {
        let f = format!("FP{line}");
        def.add_component(BcDef::new(
            &f,
            Dist::exp(FILTER_RATE),
            Dist::exp(COMMON_REPAIR_RATE),
        ));
        dedicated(&mut def, &f);
        for v in [format!("VIP{line}"), format!("VOP{line}")] {
            def.add_component(valve(&v));
            dedicated(&mut def, &v);
        }
    }

    // Heat exchanger unit + bypass, as in the 2-line model.
    def.add_component(BcDef::new(
        "HX",
        Dist::exp(HX_RATE),
        Dist::exp(COMMON_REPAIR_RATE),
    ));
    dedicated(&mut def, "HX");
    def.add_component(BcDef::new(
        "FHX",
        Dist::exp(FILTER_RATE),
        Dist::exp(COMMON_REPAIR_RATE),
    ));
    dedicated(&mut def, "FHX");
    for v in ["VHX1", "VHX2"] {
        def.add_component(valve(v));
        dedicated(&mut def, v);
    }
    for v in ["MDV1", "MDV2"] {
        def.add_component(valve(v));
        dedicated(&mut def, v);
    }

    let line_down = |i: usize| {
        Expr::or([
            Expr::down(format!("P{i}")),
            Expr::down(format!("FP{i}")),
            Expr::down_mode(format!("VIP{i}"), 2),
            Expr::down_mode(format!("VOP{i}"), 2),
        ])
    };
    let hx_unit = Expr::or([
        Expr::down("HX"),
        Expr::down("FHX"),
        Expr::down("VHX1"),
        Expr::down("VHX2"),
    ]);
    let bypass = Expr::or([Expr::down_mode("MDV1", 2), Expr::down_mode("MDV2", 2)]);
    let line_failures: Vec<Expr> = (1..=lines).map(line_down).collect();
    let pumps_down = if k == 1 {
        Expr::And(line_failures)
    } else {
        // Down as soon as fewer than k lines work, i.e. at least
        // lines - k + 1 line failures.
        Expr::k_of_n((lines - k + 1) as u32, line_failures)
    };
    def.set_system_down(Expr::or([pumps_down, Expr::and([hx_unit, bypass])]));
    def
}

/// Stiff repair-phase rate of the [`rcs_stiff`] family (per hour): three
/// orders of magnitude above [`COMMON_REPAIR_RATE`], seven above the
/// component failure rates.
pub const STIFF_REPAIR_RATE: f64 = 100.0;

/// Builds the **stiff** RCS family: `lines` redundant pump lines (pump +
/// filter, load-sharing pumps on one FCFS repair unit) plus the heat
/// exchanger and its filter, with every repair running at
/// [`STIFF_REPAIR_RATE`] — seven orders of magnitude above the failure
/// rates. The family exists to exercise the **adaptive-Λ lever** of the
/// transient engine: the global uniformization rate is `O(components ·
/// STIFF_REPAIR_RATE)` (many concurrent repairs), while virtually all
/// probability mass sits on the all-up state and a thin shell of
/// single-failure states whose exit rate is `O(STIFF_REPAIR_RATE)` —
/// so a support-windowed, per-segment-Λ engine needs a small fraction of
/// the classical scheme's DTMC steps and row traffic. Valves are left
/// out to keep the family's state space lean (the windowing lever is
/// benchmarked on `rcs_scaled`; this family isolates stiffness).
///
/// The system is down when all pump lines are down (a line needs its
/// pump and filter) or the heat-exchanger unit fails.
///
/// # Panics
///
/// Panics if `lines < 2` (a single "redundant" line is not an RCS).
pub fn rcs_stiff(lines: usize) -> SystemDef {
    assert!(lines >= 2, "the RCS family needs at least two pump lines");
    let mut def = SystemDef::new(format!("rcs-stiff-{lines}l"));

    // Pumps with load sharing against every sibling, stiff shared repair.
    let pump_names: Vec<String> = (1..=lines).map(|i| format!("P{i}")).collect();
    for (i, me) in pump_names.iter().enumerate() {
        let others: Vec<Expr> = pump_names
            .iter()
            .enumerate()
            .filter(|&(j, _)| j != i)
            .map(|(_, p)| Expr::down(p))
            .collect();
        def.add_component(
            BcDef::new(
                me,
                Dist::erlang(2, PUMP_PHASE_RATE),
                Dist::erlang(2, STIFF_REPAIR_RATE),
            )
            .with_om_group(OmGroup::NormalDegraded(Expr::Or(others)))
            .with_ttf([
                Dist::erlang(2, PUMP_PHASE_RATE),
                Dist::erlang(2, PUMP_PHASE_RATE_DEGRADED),
            ]),
        );
    }
    def.add_repair_unit(RuDef::new(
        "P.rep",
        pump_names.clone(),
        RepairStrategy::Fcfs,
    ));

    // Per-line filters and the heat-exchanger unit, stiff dedicated
    // repair.
    let stiff = |def: &mut SystemDef, name: &str, rate: f64| {
        def.add_component(BcDef::new(
            name,
            Dist::exp(rate),
            Dist::exp(STIFF_REPAIR_RATE),
        ));
        dedicated(def, name);
    };
    for line in 1..=lines {
        stiff(&mut def, &format!("FP{line}"), FILTER_RATE);
    }
    stiff(&mut def, "HX", HX_RATE);
    stiff(&mut def, "FHX", FILTER_RATE);

    let line_down =
        |i: usize| Expr::or([Expr::down(format!("P{i}")), Expr::down(format!("FP{i}"))]);
    let hx_unit = Expr::or([Expr::down("HX"), Expr::down("FHX")]);
    let line_failures: Vec<Expr> = (1..=lines).map(line_down).collect();
    def.set_system_down(Expr::or([Expr::And(line_failures), hx_unit]));
    def
}

/// The parametric variant of [`rcs_scaled`]: same model, with the
/// exponential rate constants declared as sweep parameters —
/// `valve_rate` ([`VALVE_RATE`]), `filter_rate` ([`FILTER_RATE`]),
/// `hx_rate` ([`HX_RATE`]) and `repair_rate` ([`COMMON_REPAIR_RATE`]).
/// Parameters bind by exact rate value: `repair_rate` also covers the
/// pump Erlang repair phases, whose rate
/// ([`PUMP_REPAIR_PHASE_RATE`]) equals [`COMMON_REPAIR_RATE`]. The pump
/// *failure* phases stay concrete (their normal and degraded rates are
/// distinct constants and scale together only as a pair).
///
/// # Panics
///
/// Panics if `lines < 2`, like [`rcs_scaled`].
pub fn rcs_scaled_parametric(lines: usize) -> SystemDef {
    let mut def = rcs_scaled(lines);
    def.add_param("valve_rate", VALVE_RATE)
        .add_param("filter_rate", FILTER_RATE)
        .add_param("hx_rate", HX_RATE)
        .add_param("repair_rate", COMMON_REPAIR_RATE);
    def
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::validate;

    #[test]
    fn rcs_shape() {
        let def = rcs();
        // 2 pumps + 2*(filter+2 valves) + HX + FHX + 2 VHX + 2 MDV = 14
        assert_eq!(def.components.len(), 14);
        // 1 shared pump RU + 12 dedicated
        assert_eq!(def.repair_units.len(), 13);
        validate(&def).unwrap();
    }

    #[test]
    fn valve_sweep_validates() {
        for v in 1..=4 {
            let def = rcs_with_valves(v);
            crate::model::validate(&def).unwrap();
            assert_eq!(def.components.len(), 2 + 2 * (1 + v) + 4 + 2);
        }
    }

    #[test]
    fn scaled_family_validates_and_grows() {
        for lines in 2..=4 {
            let def = rcs_scaled(lines);
            validate(&def).unwrap();
            // lines * (pump + filter + 2 valves) + HX + FHX + 2 VHX + 2 MDV
            assert_eq!(def.components.len(), 4 * lines + 6);
            // 1 shared pump RU + dedicated for everything else
            assert_eq!(def.repair_units.len(), 1 + 3 * lines + 6);
        }
    }

    #[test]
    fn scaled_two_lines_matches_baseline_measures() {
        use crate::engine::EngineOptions;
        use crate::modular::modular_analysis;
        use crate::query::Measure;
        // rcs_scaled(2) only differs from rcs() in the trigger shape
        // (`Or([x])` vs `x`), which must not change any measure.
        let (t, tol) = (50.0, 1e-12);
        let batch = [
            Measure::PointUnavailability(t),
            Measure::UnreliabilityWithRepair(t),
        ];
        let evaluate = |def: &SystemDef| {
            modular_analysis(def, &EngineOptions::new())
                .unwrap()
                .evaluate(&batch)
                .unwrap()
        };
        let (base, scaled) = (evaluate(&rcs()), evaluate(&rcs_scaled(2)));
        assert!((base[0] - scaled[0]).abs() < tol);
        assert!((base[1] - scaled[1]).abs() < tol);
    }

    #[test]
    fn kofn_family_validates_and_matches_special_cases() {
        for lines in 2..=3 {
            for k in 1..=lines {
                validate(&rcs_scaled_kofn(lines, k)).unwrap();
            }
        }
        // k = 1 is definitionally rcs_scaled
        assert_eq!(rcs_scaled_kofn(3, 1), rcs_scaled(3));
        // k = lines means any line failure downs the pump subsystem: the
        // gate must be a 1-of-n
        let def = rcs_scaled_kofn(3, 3);
        match def.system_down.as_ref().unwrap() {
            Expr::Or(branches) => match &branches[0] {
                Expr::KofN(1, cs) => assert_eq!(cs.len(), 3),
                other => panic!("expected 1-of-3 gate, got {other:?}"),
            },
            other => panic!("top must be OR, got {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "1 <= k <= lines")]
    fn kofn_rejects_bad_k() {
        let _ = rcs_scaled_kofn(3, 4);
    }

    #[test]
    fn stiff_family_validates_and_is_stiff() {
        for lines in 2..=3 {
            let def = rcs_stiff(lines);
            validate(&def).unwrap();
            // lines pumps + lines filters + HX + FHX
            assert_eq!(def.components.len(), 2 * lines + 2);
            assert_eq!(def.repair_units.len(), 1 + lines + 2);
        }
        // Stiffness: repair-to-failure ratio spans ≥ 7 orders of
        // magnitude — the regime the adaptive-Λ engine targets.
        let stiffness = STIFF_REPAIR_RATE / PUMP_PHASE_RATE;
        assert!(stiffness >= 1e7, "stiffness ratio fell to {stiffness:e}");
    }

    #[test]
    #[should_panic(expected = "at least two pump lines")]
    fn stiff_family_rejects_single_line() {
        let _ = rcs_stiff(1);
    }

    #[test]
    fn pumps_load_share() {
        let def = rcs();
        let p1 = def.component("P1").unwrap();
        assert_eq!(p1.num_operational_states(), 2);
        assert_eq!(p1.ttf[1], Dist::erlang(2, PUMP_PHASE_RATE_DEGRADED));
    }
}
