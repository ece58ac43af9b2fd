//! Integration tests for spare management (§3.3, including the multi-spare
//! configuration the paper sketches) and repair strategies (§3.2).

use arcade::prelude::*;

fn n_spare_system(n_spares: usize, cold: bool) -> SystemDef {
    let mut def = SystemDef::new(format!("spares{n_spares}"));
    def.add_component(BcDef::new("pp", Dist::exp(0.02), Dist::exp(0.2)));
    let mut all = vec!["pp".to_owned()];
    for i in 0..n_spares {
        let name = format!("sp{i}");
        let inactive = if cold { Dist::Never } else { Dist::exp(0.02) };
        def.add_component(
            BcDef::new(&name, Dist::exp(0.02), Dist::exp(0.2))
                .with_om_group(OmGroup::ActiveInactive)
                .with_ttf([inactive, Dist::exp(0.02)]),
        );
        all.push(name);
    }
    def.add_repair_unit(RuDef::new("shop", all.clone(), RepairStrategy::Fcfs));
    def.add_smu(SmuDef::new("smu", "pp", all[1..].to_vec()));
    def.set_system_down(Expr::And(all.iter().map(Expr::down).collect()));
    def
}

/// More spares monotonically improve MTTF and availability.
#[test]
fn more_spares_help() {
    let mut last_mttf = 0.0;
    let mut last_avail = 0.0;
    for n in 1..=3usize {
        let v = Session::new(&n_spare_system(n, false))
            .unwrap()
            .evaluate(&[Measure::Mttf, Measure::SteadyStateAvailability])
            .unwrap();
        let (mttf, avail) = (v[0], v[1]);
        assert!(
            mttf > last_mttf,
            "{n} spares: MTTF {mttf} not better than {last_mttf}"
        );
        assert!(avail > last_avail);
        last_mttf = mttf;
        last_avail = avail;
    }
}

/// A cold spare (cannot fail while inactive) beats a hot spare.
#[test]
fn cold_spare_beats_hot_spare() {
    let t = 100.0;
    let batch = [Measure::Mttf, Measure::Reliability(t)];
    let hot = Session::new(&n_spare_system(1, false))
        .unwrap()
        .evaluate(&batch)
        .unwrap();
    let cold = Session::new(&n_spare_system(1, true))
        .unwrap()
        .evaluate(&batch)
        .unwrap();
    assert!(cold[0] > hot[0]);
    assert!(cold[1] > hot[1]);
    // cold-spare closed form without repair: hypoexponential(λ, λ):
    // R(t) = e^{-λt}(1 + λt)
    let l = 0.02;
    let expected = (-l * t).exp() * (1.0 + l * t);
    let got = cold[1];
    assert!((got - expected).abs() < 1e-9, "{got} vs {expected}");
}

/// With two spares, the SMU walks the chain: cold spares without repair
/// give an Erlang-3 system lifetime.
#[test]
fn two_cold_spares_erlang_lifetime() {
    let session = Session::new(&n_spare_system(2, true)).unwrap();
    let (l, t) = (0.02f64, 120.0);
    // no repair: pp fails, sp0 activated, fails, sp1 activated, fails:
    // total lifetime Erlang-3(λ)
    let x = l * t;
    let expected = (-x).exp() * (1.0 + x + x * x / 2.0);
    let got = session.value(&Measure::Reliability(t)).unwrap();
    assert!((got - expected).abs() < 1e-9, "{got} vs {expected}");
}

/// Priority strategies allocate the repair shop: giving the only critical
/// component priority improves availability over FCFS.
#[test]
fn priorities_help_the_critical_component() {
    let build = |strategy: RepairStrategy, prios: Vec<u32>| {
        let mut def = SystemDef::new("prio");
        // c0 is critical; c1/c2 fail often and clog the shop under FCFS.
        def.add_component(BcDef::new("c0", Dist::exp(0.01), Dist::exp(0.5)));
        def.add_component(BcDef::new("c1", Dist::exp(0.2), Dist::exp(0.5)));
        def.add_component(BcDef::new("c2", Dist::exp(0.2), Dist::exp(0.5)));
        let mut ru = RuDef::new("shop", ["c0", "c1", "c2"], strategy);
        if !prios.is_empty() {
            ru = ru.with_priorities(prios);
        }
        def.add_repair_unit(ru);
        def.set_system_down(Expr::down("c0"));
        Session::new(&def)
            .unwrap()
            .value(&Measure::SteadyStateUnavailability)
            .unwrap()
    };
    let u_fcfs = build(RepairStrategy::Fcfs, vec![]);
    let u_pnp = build(RepairStrategy::NonPreemptivePriority, vec![3, 1, 1]);
    let u_pp = build(RepairStrategy::PreemptivePriority, vec![3, 1, 1]);
    assert!(u_pnp < u_fcfs, "PNP {u_pnp} vs FCFS {u_fcfs}");
    assert!(u_pp < u_pnp, "PP {u_pp} vs PNP {u_pnp}");
}
