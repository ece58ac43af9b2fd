//! The input generator: seeded decks of wire requests built from the
//! benchmark's own model templates (DDS-shaped, RCS-shaped and stiff
//! independent-component systems), never from the program's case
//! library or fuzzer, so that a program change cannot change a workload.
//!
//! Each template scales every failure-rate *class* by one seeded factor,
//! so that identical components stay identical and bisimulation still
//! lumps them. Repair rates are never scaled: with the horizon they set
//! Λt, the uniformization cost, and a seed must change an op's answers,
//! not its cost. A deck has the same composition and order of op
//! classes for every seed; the seed draws rates and sweep points.

use std::fmt::Write as _;

use crate::json::quote;
use crate::rng::Rng;

/// The paper's DDS rates (per hour): processors and controllers, disks,
/// repairs, and the 5-week mission time.
pub const DDS_PROC: f64 = 1.0 / 2000.0;
pub const DDS_DISK: f64 = 1.0 / 6000.0;
pub const DDS_REPAIR: f64 = 1.0;
pub const MISSION_H: f64 = 840.0;

/// Registry name every `cold_models`/`stiff_small` op loads its text as;
/// each `load` drops the previous session.
pub const COLD_NAME: &str = "cold";

/// The one built-in input: the parametric 2-line RCS, whose rate
/// parameters have no textual form. Its declared parameters and base
/// values, in declaration order.
pub const SWEEP_MODEL: &str = "rcs_scaled_parametric(2)";
pub const SWEEP_PARAMS: [(&str, f64); 4] = [
    ("valve_rate", 8.4e-8),
    ("filter_rate", 2.19e-6),
    ("hx_rate", 1.14e-6),
    ("repair_rate", 0.1),
];
/// `param_sweep` op classes: name, points per op (the base point plus a
/// Latin hypercube) and ops per pass, in order of cost. Few points keep an
/// op near half a second, short enough for the probes around it to see
/// the speed it ran at; one op in five sweeps twice the points, so that
/// the 90th percentile sits at that class's centre and the median at the
/// other's, as in the other decks.
const SWEEP_CLASSES: [(&str, usize, usize); 2] = [("sweep4", 4, 4), ("sweep8", 8, 1)];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ColdModels,
    ServedWarm,
    StiffSmall,
    ParamSweep,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ColdModels,
        Workload::ServedWarm,
        Workload::StiffSmall,
        Workload::ParamSweep,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdModels => "cold_models",
            Workload::ServedWarm => "served_warm",
            Workload::StiffSmall => "stiff_small",
            Workload::ParamSweep => "param_sweep",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Client connections the load generator opens.
    pub fn connections(self) -> usize {
        match self {
            Workload::ServedWarm => 2,
            _ => 1,
        }
    }
}

/// A wire measure kind, in the order the server expands it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    SteadyUnavailability,
    Mttf,
    Unavailability,
    UnreliabilityWithRepair,
    Reliability,
}

impl Kind {
    pub fn wire(self) -> &'static str {
        match self {
            Kind::SteadyUnavailability => "steady_state_unavailability",
            Kind::Mttf => "mttf",
            Kind::Unavailability => "unavailability",
            Kind::UnreliabilityWithRepair => "unreliability_with_repair",
            Kind::Reliability => "reliability",
        }
    }

    pub fn timed(self) -> bool {
        !matches!(self, Kind::SteadyUnavailability | Kind::Mttf)
    }
}

/// A query's measure batch: string kinds crossed with one time grid.
#[derive(Debug, Clone, PartialEq)]
pub struct Batch {
    pub kinds: Vec<Kind>,
    pub times: Vec<f64>,
}

impl Batch {
    /// The values of `kind` in a response row, in grid order.
    pub fn slice<'a>(&self, kind: Kind, row: &'a [f64]) -> Option<&'a [f64]> {
        let mut at = 0;
        for &k in &self.kinds {
            let n = if k.timed() { self.times.len() } else { 1 };
            if k == kind {
                return row.get(at..at + n);
            }
            at += n;
        }
        None
    }

    /// Values per response row.
    pub fn width(&self) -> usize {
        self.kinds
            .iter()
            .map(|k| if k.timed() { self.times.len() } else { 1 })
            .sum()
    }

    fn json_fields(&self) -> String {
        let kinds: Vec<String> = self.kinds.iter().map(|k| quote(k.wire())).collect();
        let mut out = format!("\"measures\":[{}]", kinds.join(","));
        if !self.times.is_empty() {
            let ts: Vec<String> = self.times.iter().map(|t| format!("{t}")).collect();
            let _ = write!(out, ",\"times\":[{}]", ts.join(","));
        }
        out
    }
}

/// A structure function over component indices: when is the system down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Structure {
    /// Down when every component is down.
    Parallel,
    /// Two redundant pairs in series: (c1 AND c2) OR (c3 AND c4).
    Pairs,
}

impl Structure {
    pub fn is_down(self, n: usize, down_mask: u32) -> bool {
        match self {
            Structure::Parallel => down_mask == (1u32 << n) - 1,
            Structure::Pairs => down_mask & 0b11 == 0b11 || down_mask & 0b1100 == 0b1100,
        }
    }

    fn text(self, n: usize) -> String {
        let d = |i: usize| format!("c{}.down", i + 1);
        match self {
            Structure::Parallel => (0..n).map(d).collect::<Vec<_>>().join(" AND "),
            Structure::Pairs => format!("({} AND {}) OR ({} AND {})", d(0), d(1), d(2), d(3)),
        }
    }
}

/// One independent component with dedicated repair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Comp {
    pub fail: f64,
    pub repair: f64,
}

/// What an op's answer must match beyond the invariants every answer
/// meets (values in [0, 1], reliability non-increasing in t,
/// unreliability with repair at most 1 − reliability).
#[derive(Debug, Clone, PartialEq)]
pub enum Expect {
    /// Invariants only.
    Invariants,
    /// The paper's DDS at its published rates: the values pinned in the
    /// repository's regression tests.
    PaperDds,
    /// Independent components: closed-form point unavailability and
    /// reliability.
    ClosedForm(Vec<Comp>, Structure),
    /// Bitwise equal to the answer the same request got during set-up.
    SameAsSetup,
    /// The first sweep point is the base point: bitwise equal to the
    /// set-up query of the base model.
    BaseRowAsSetup,
}

/// One closed-loop op: optionally `load` a model text, then one `query`
/// or `sweep` whose answer is checked.
#[derive(Debug, Clone, PartialEq)]
pub struct Op {
    pub class: &'static str,
    /// Model text loaded under [`COLD_NAME`] first.
    pub source: Option<String>,
    pub model: String,
    pub batch: Batch,
    /// Explicit sweep points over [`SWEEP_PARAMS`], one value each.
    pub sweep: Option<Vec<Vec<f64>>>,
    pub expect: Expect,
}

impl Op {
    /// The request lines the op sends, in order.
    pub fn lines(&self) -> Vec<String> {
        let mut lines = Vec::new();
        if let Some(src) = &self.source {
            lines.push(format!(
                "{{\"cmd\":\"load\",\"name\":{},\"source\":{}}}",
                quote(&self.model),
                quote(src)
            ));
        }
        lines.push(match &self.sweep {
            None => format!(
                "{{\"cmd\":\"query\",\"model\":{},{}}}",
                quote(&self.model),
                self.batch.json_fields()
            ),
            Some(points) => {
                let names: Vec<String> = SWEEP_PARAMS.iter().map(|(n, _)| quote(n)).collect();
                let rows: Vec<String> = points
                    .iter()
                    .map(|p| {
                        let vs: Vec<String> = p.iter().map(|v| format!("{v}")).collect();
                        format!("[{}]", vs.join(","))
                    })
                    .collect();
                format!(
                    "{{\"cmd\":\"sweep\",\"model\":{},{},\"params\":[{}],\"points\":[{}]}}",
                    quote(&self.model),
                    self.batch.json_fields(),
                    names.join(","),
                    rows.join(",")
                )
            }
        });
        lines
    }
}

/// Everything one workload sends: set-up requests (resident models,
/// answers kept as references) and the deck of ops run in whole passes.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// Models `load`ed during set-up: (name, text).
    pub resident: Vec<(String, String)>,
    /// Requests answered during set-up; their answers are the references
    /// for [`Expect::SameAsSetup`] and [`Expect::BaseRowAsSetup`].
    pub warm: Vec<Op>,
    pub deck: Vec<Op>,
}

pub fn plan(workload: Workload, seed: u64) -> Plan {
    // Decorrelate the workloads' streams for equal seeds.
    let mut rng = Rng::new(seed ^ (workload as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F));
    match workload {
        Workload::ColdModels => cold_models(&mut rng),
        Workload::ServedWarm => served_warm(&mut rng),
        Workload::StiffSmall => stiff_small(&mut rng),
        Workload::ParamSweep => param_sweep(&mut rng),
    }
}

/// Seeded factors for `classes` failure-rate classes, and their
/// reciprocals. The range is narrow so that a seed moves answers more
/// than cost; a seeded op and its twin at the reciprocal factors bracket
/// the published rates, so that their class's cost is centred there for
/// every seed.
fn twin_factors(rng: &mut Rng, classes: usize) -> [Vec<f64>; 2] {
    let f: Vec<f64> = (0..classes).map(|_| rng.log_uniform(0.8, 1.25)).collect();
    let inv = f.iter().map(|x| 1.0 / x).collect();
    [f, inv]
}

fn cold_batch() -> Batch {
    Batch {
        kinds: vec![
            Kind::SteadyUnavailability,
            Kind::Mttf,
            Kind::Unavailability,
            Kind::UnreliabilityWithRepair,
            Kind::Reliability,
        ],
        times: vec![84.0, 420.0, MISSION_H],
    }
}

/// DDS-shaped text: two processors (one spare under an SMU, shared FCFS
/// repair), four controllers in two FCFS-repaired sets and `clusters`
/// clusters of four FCFS-repaired disks. Down when both processors, a
/// whole controller set or two disks of one cluster are down.
pub fn dds_text(name: &str, clusters: usize, proc: f64, disk: f64, repair: f64) -> String {
    let mut t = format!("# {name}\n");
    let comp = |t: &mut String, n: &str, rate: f64| {
        let _ = write!(
            t,
            "\nCOMPONENT: {n}\nTIME-TO-FAILURES: exp({rate})\nTIME-TO-REPAIRS: exp({repair})\n"
        );
    };
    comp(&mut t, "pp", proc);
    let _ = write!(
        t,
        "\nCOMPONENT: ps\nOPERATIONAL MODES: (inactive, active)\n\
         TIME-TO-FAILURES: exp({proc}), exp({proc})\nTIME-TO-REPAIRS: exp({repair})\n"
    );
    for i in 1..=4 {
        comp(&mut t, &format!("dc_{i}"), proc);
    }
    for d in 1..=4 * clusters {
        comp(&mut t, &format!("d_{d}"), disk);
    }
    let ru = |t: &mut String, n: &str, comps: &[String]| {
        let _ = write!(
            t,
            "\nREPAIR UNIT: {n}\nCOMPONENTS: {}\nREPAIR STRATEGY: FCFS\n",
            comps.join(", ")
        );
    };
    let names = |prefix: &str, r: std::ops::RangeInclusive<usize>| -> Vec<String> {
        r.map(|i| format!("{prefix}{i}")).collect()
    };
    ru(&mut t, "p.rep", &["pp".into(), "ps".into()]);
    ru(&mut t, "cs1.rep", &names("dc_", 1..=2));
    ru(&mut t, "cs2.rep", &names("dc_", 3..=4));
    for c in 0..clusters {
        ru(
            &mut t,
            &format!("cluster{}.rep", c + 1),
            &names("d_", 4 * c + 1..=4 * c + 4),
        );
    }
    let _ = write!(t, "\nSMU: p.smu\nCOMPONENTS: pp, ps\n");
    let mut down = vec![
        "(pp.down AND ps.down)".to_owned(),
        "(dc_1.down AND dc_2.down)".to_owned(),
        "(dc_3.down AND dc_4.down)".to_owned(),
    ];
    for c in 0..clusters {
        let disks: Vec<String> = (4 * c + 1..=4 * c + 4)
            .map(|d| format!("d_{d}.down"))
            .collect();
        down.push(format!("2of4({})", disks.join(", ")));
    }
    let _ = write!(t, "\nSYSTEM DOWN: {}\n", down.join(" OR "));
    t
}

/// RCS-shaped text: two load-sharing pumps (Erlang-2 phases, shared FCFS
/// repair), two pump lines of filter plus inlet and outlet valves (two
/// failure modes), and a heat-exchanger unit with a two-valve bypass.
/// Down as soon as one pump line is down (both lines must work), or the
/// heat-exchanger unit and its bypass are both down.
pub fn rcs_text(name: &str, pump: f64, valve: f64, filter: f64, hx: f64) -> String {
    const REPAIR: f64 = 0.1;
    let mut t = format!("# {name}\n");
    for (me, other) in [("P1", "P2"), ("P2", "P1")] {
        let _ = write!(
            t,
            "\nCOMPONENT: {me}\nOPERATIONAL MODES: (normal, degraded)\n\
             NORMAL-TO-DEGRADED: ({other}.down)\n\
             TIME-TO-FAILURES: erlang(2, {pump}), erlang(2, {})\n\
             TIME-TO-REPAIRS: erlang(2, {REPAIR})\n",
            2.0 * pump
        );
    }
    let exp = |t: &mut String, n: &str, rate: f64| {
        let _ = write!(
            t,
            "\nCOMPONENT: {n}\nTIME-TO-FAILURES: exp({rate})\nTIME-TO-REPAIRS: exp({REPAIR})\n"
        );
    };
    let valve_comp = |t: &mut String, n: &str| {
        let _ = write!(
            t,
            "\nCOMPONENT: {n}\nTIME-TO-FAILURES: exp({valve})\n\
             FAILURE MODE PROBABILITIES: 0.5, 0.5\n\
             TIME-TO-REPAIRS: exp({REPAIR}), exp({REPAIR})\n"
        );
    };
    let mut dedicated = Vec::new();
    for line in 1..=2 {
        exp(&mut t, &format!("FP{line}"), filter);
        valve_comp(&mut t, &format!("VIP{line}"));
        valve_comp(&mut t, &format!("VOP{line}"));
        dedicated.extend([
            format!("FP{line}"),
            format!("VIP{line}"),
            format!("VOP{line}"),
        ]);
    }
    exp(&mut t, "HX", hx);
    exp(&mut t, "FHX", filter);
    for v in ["VHX1", "VHX2", "MDV1", "MDV2"] {
        valve_comp(&mut t, v);
    }
    dedicated.extend(["HX", "FHX", "VHX1", "VHX2", "MDV1", "MDV2"].map(String::from));
    let _ = write!(
        t,
        "\nREPAIR UNIT: P.rep\nCOMPONENTS: P1, P2\nREPAIR STRATEGY: FCFS\n"
    );
    for c in &dedicated {
        let _ = write!(
            t,
            "\nREPAIR UNIT: {c}.rep\nCOMPONENTS: {c}\nREPAIR STRATEGY: DEDICATED\n"
        );
    }
    let line = |i: u32| format!("(P{i}.down OR FP{i}.down OR VIP{i}.down.m2 OR VOP{i}.down.m2)");
    let _ = write!(
        t,
        "\nSYSTEM DOWN: 1of2({}, {}) OR ((HX.down OR FHX.down OR VHX1.down OR VHX2.down) \
         AND (MDV1.down.m2 OR MDV2.down.m2))\n",
        line(1),
        line(2)
    );
    t
}

/// Stiff independent components with dedicated repair.
pub fn stiff_text(name: &str, comps: &[Comp], structure: Structure) -> String {
    let mut t = format!("# {name}\n");
    for (i, c) in comps.iter().enumerate() {
        let _ = write!(
            t,
            "\nCOMPONENT: c{}\nTIME-TO-FAILURES: exp({})\nTIME-TO-REPAIRS: exp({})\n",
            i + 1,
            c.fail,
            c.repair
        );
    }
    for i in 1..=comps.len() {
        let _ = write!(
            t,
            "\nREPAIR UNIT: c{i}.rep\nCOMPONENTS: c{i}\nREPAIR STRATEGY: DEDICATED\n"
        );
    }
    let _ = write!(t, "\nSYSTEM DOWN: {}\n", structure.text(comps.len()));
    t
}

fn cold_op(class: &'static str, source: String, expect: Expect) -> Op {
    Op {
        class,
        source: Some(source),
        model: COLD_NAME.to_owned(),
        batch: cold_batch(),
        sweep: None,
        expect,
    }
}

/// DDS text with its two failure classes scaled by `f`.
fn scaled_dds(name: &str, clusters: usize, f: &[f64]) -> String {
    dds_text(name, clusters, DDS_PROC * f[0], DDS_DISK * f[1], DDS_REPAIR)
}

/// `cold_models`: the write path. Every pass loads and analyses each
/// model of the deck once, in order of cost. As many ops are cheaper than
/// the `dds5` class as are dearer, so the median sits at that class's
/// centre, its op at the published rates; the 90th percentile sits in
/// the `dds6` class, whose centre is the paper's DDS.
fn cold_models(rng: &mut Rng) -> Plan {
    let mut deck = Vec::new();
    let [f, _] = twin_factors(rng, 2);
    deck.push(cold_op(
        "dds2",
        scaled_dds("dds2", 2, &f),
        Expect::Invariants,
    ));
    let [f, _] = twin_factors(rng, 2);
    deck.push(cold_op(
        "dds3",
        scaled_dds("dds3", 3, &f),
        Expect::Invariants,
    ));
    for twin in twin_factors(rng, 2) {
        deck.push(cold_op(
            "dds4",
            scaled_dds("dds4", 4, &twin),
            Expect::Invariants,
        ));
    }
    let [f, inv] = twin_factors(rng, 2);
    for factors in [f, vec![1.0, 1.0], inv] {
        deck.push(cold_op(
            "dds5",
            scaled_dds("dds5", 5, &factors),
            Expect::Invariants,
        ));
    }
    let [f, _] = twin_factors(rng, 4);
    let rcs = rcs_text(
        "rcs-2of2",
        5.44e-6 * f[0],
        8.4e-8 * f[1],
        2.19e-6 * f[2],
        1.14e-6 * f[3],
    );
    deck.push(cold_op("rcs", rcs, Expect::Invariants));
    let [f, inv] = twin_factors(rng, 2);
    deck.push(cold_op(
        "dds6",
        scaled_dds("dds6", 6, &f),
        Expect::Invariants,
    ));
    let paper = dds_text("dds-paper", 6, DDS_PROC, DDS_DISK, DDS_REPAIR);
    deck.push(cold_op("dds6", paper, Expect::PaperDds));
    deck.push(cold_op(
        "dds6",
        scaled_dds("dds6", 6, &inv),
        Expect::Invariants,
    ));
    Plan {
        resident: Vec::new(),
        warm: Vec::new(),
        deck,
    }
}

/// A stiff shape: class, base failure rates, repair rates, structure,
/// and ops per pass.
type Shape = (
    &'static str,
    &'static [f64],
    &'static [f64],
    Structure,
    usize,
);

/// The stiff shapes, in order of cost. Each has a component that fails
/// and is repaired fast next to one whose repair/failure ratio reaches
/// 1e9; the fast repair rate (never scaled) times the 1000 h horizon is
/// the op's Λt, which sets its cost. Of ten ops per pass, the middle four
/// are `stiff`, so the median sits at their centre, and the top two are
/// `cliff`, so the 90th percentile sits at theirs.
const STIFF_SHAPES: [Shape; 4] = [
    ("mild", &[0.5, 3e-4], &[30.0, 0.5], Structure::Parallel, 3),
    (
        "stiff",
        &[1.0, 2e-7, 1e-3],
        &[60.0, 100.0, 0.5],
        Structure::Parallel,
        4,
    ),
    (
        "heavy",
        &[1.0, 5e-7, 2e-4, 5e-4],
        &[150.0, 250.0, 1.0, 2.0],
        Structure::Pairs,
        1,
    ),
    (
        "cliff",
        &[1.0, 1e-6, 2e-4, 5e-4],
        &[500.0, 500.0, 1.0, 2.0],
        Structure::Pairs,
        2,
    ),
];

fn stiff_batch() -> Batch {
    Batch {
        kinds: vec![
            Kind::Unavailability,
            Kind::UnreliabilityWithRepair,
            Kind::Reliability,
        ],
        times: vec![10.0, 100.0, 1000.0],
    }
}

/// `stiff_small`: tiny models whose cost is set by Λt, not size.
fn stiff_small(rng: &mut Rng) -> Plan {
    let mut deck = Vec::new();
    for (class, fails, repairs, structure, count) in STIFF_SHAPES {
        // Twin pairs, plus the published rates when the count is odd.
        let mut factors = Vec::new();
        while factors.len() + 1 < count {
            factors.extend(twin_factors(rng, 1).map(|f| f[0]));
        }
        if factors.len() < count {
            factors.push(1.0);
        }
        for f in factors {
            let comps: Vec<Comp> = fails
                .iter()
                .zip(repairs)
                .map(|(&l, &m)| Comp {
                    fail: l * f,
                    repair: m,
                })
                .collect();
            deck.push(Op {
                class,
                source: Some(stiff_text(class, &comps, structure)),
                model: COLD_NAME.to_owned(),
                batch: stiff_batch(),
                sweep: None,
                expect: Expect::ClosedForm(comps, structure),
            });
        }
    }
    Plan {
        resident: Vec::new(),
        warm: Vec::new(),
        deck,
    }
}

/// `served_warm`: the read path over resident models. Three memo
/// requests (answered from memoized steady-state and MTTF artifacts) per
/// curve request (a 16-point point-unavailability grid on the paper's
/// DDS), so the median falls among memo requests and the 90th
/// percentile among curves.
fn served_warm(rng: &mut Rng) -> Plan {
    let resident = vec![
        (
            "dds".to_owned(),
            dds_text("dds-paper", 6, DDS_PROC, DDS_DISK, DDS_REPAIR),
        ),
        (
            "dds4".to_owned(),
            scaled_dds("dds4", 4, &twin_factors(rng, 2)[0]),
        ),
        (
            "dds3".to_owned(),
            scaled_dds("dds3", 3, &twin_factors(rng, 2)[0]),
        ),
    ];
    let query = |class: &'static str, model: &str, kinds: Vec<Kind>, times: Vec<f64>| Op {
        class,
        source: None,
        model: model.to_owned(),
        batch: Batch { kinds, times },
        sweep: None,
        expect: Expect::Invariants,
    };
    let mut warm = Vec::new();
    for (name, _) in &resident {
        for kind in [Kind::SteadyUnavailability, Kind::Mttf] {
            warm.push(query("memo", name, vec![kind], Vec::new()));
        }
    }
    let grid: Vec<f64> = (1..=16).map(|k| MISSION_H * f64::from(k) / 16.0).collect();
    warm.push(query("curve", "dds", vec![Kind::Unavailability], grid));
    // Each distinct memo request twice, a curve after every three.
    let deck = (0..12)
        .flat_map(|i| {
            let mut ops = vec![warm[i % 6].clone()];
            if i % 3 == 2 {
                ops.push(warm[6].clone());
            }
            ops
        })
        .map(|op| Op {
            expect: Expect::SameAsSetup,
            ..op
        })
        .collect();
    Plan {
        resident,
        warm,
        deck,
    }
}

/// `param_sweep`: re-rating over the built-in parametric RCS. Each op
/// sweeps the base point plus a Latin hypercube over the four rate
/// parameters in [0.5x, 2x] of their bases. A point's cost depends on
/// its rates (the repair rate sets Λ), so every op uses the same Latin
/// square of strata, and the seed only jitters each point inside the
/// middle fifth of its stratum: ops cost the same for every seed.
fn param_sweep(rng: &mut Rng) -> Plan {
    let batch = Batch {
        kinds: vec![Kind::Unavailability, Kind::UnreliabilityWithRepair],
        times: vec![100.0, 1000.0],
    };
    let base: Vec<f64> = SWEEP_PARAMS.iter().map(|&(_, b)| b).collect();
    let warm = vec![Op {
        class: "base",
        source: None,
        model: SWEEP_MODEL.to_owned(),
        batch: batch.clone(),
        sweep: None,
        expect: Expect::Invariants,
    }];
    let mut deck = Vec::new();
    for (class, n, count) in SWEEP_CLASSES {
        let strata = n - 1;
        for _ in 0..count {
            let mut points = vec![base.clone(); n];
            for (p, &b) in base.iter().enumerate() {
                for row in 0..strata {
                    let s = (row + 2 * p) % strata;
                    // log2 of the factor, inside stratum `s` of [-1, 1).
                    let at = s as f64 + 0.4 + 0.2 * rng.unit();
                    points[row + 1][p] = b * (-1.0 + 2.0 * at / strata as f64).exp2();
                }
            }
            deck.push(Op {
                class,
                source: None,
                model: SWEEP_MODEL.to_owned(),
                batch: batch.clone(),
                sweep: Some(points),
                expect: Expect::BaseRowAsSetup,
            });
        }
    }
    Plan {
        resident: Vec::new(),
        warm,
        deck,
    }
}

/// The deck's composition: each class with its op count, sorted.
#[cfg(test)]
pub fn composition(deck: &[Op]) -> Vec<(&'static str, usize)> {
    let mut out: Vec<(&'static str, usize)> = Vec::new();
    for op in deck {
        match out.iter_mut().find(|(c, _)| *c == op.class) {
            Some((_, n)) => *n += 1,
            None => out.push((op.class, 1)),
        }
    }
    out.sort_unstable();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bytes(p: &Plan) -> Vec<String> {
        let mut out: Vec<String> = p
            .resident
            .iter()
            .map(|(n, t)| format!("{n}\n{t}"))
            .collect();
        for op in p.warm.iter().chain(&p.deck) {
            out.extend(op.lines());
        }
        out
    }

    #[test]
    fn same_seed_gives_byte_identical_inputs() {
        for w in Workload::ALL {
            assert_eq!(bytes(&plan(w, 7)), bytes(&plan(w, 7)), "{}", w.name());
            assert_ne!(bytes(&plan(w, 7)), bytes(&plan(w, 8)), "{}", w.name());
        }
    }

    #[test]
    fn every_deck_has_the_same_composition() {
        for w in Workload::ALL {
            let first = plan(w, 0);
            for seed in 1..20 {
                let p = plan(w, seed);
                assert_eq!(
                    composition(&p.deck),
                    composition(&first.deck),
                    "{}",
                    w.name()
                );
                assert_eq!(p.warm.len(), first.warm.len());
                assert_eq!(p.resident.len(), first.resident.len());
            }
        }
        let cold = plan(Workload::ColdModels, 3);
        assert_eq!(
            cold.deck
                .iter()
                .filter(|op| op.expect == Expect::PaperDds)
                .count(),
            1,
            "every cold deck holds the paper's DDS once"
        );
    }

    #[test]
    fn sweep_points_start_at_the_base_and_stay_in_range() {
        let p = plan(Workload::ParamSweep, 11);
        for op in &p.deck {
            let points = op.sweep.as_ref().unwrap();
            let n = points.len();
            assert!(SWEEP_CLASSES
                .iter()
                .any(|&(class, m, _)| class == op.class && m == n));
            for (k, &(_, b)) in SWEEP_PARAMS.iter().enumerate() {
                assert_eq!(points[0][k].to_bits(), b.to_bits());
                // One point per stratum of log2(factor) in [-1, 1).
                let mut strata: Vec<usize> = points[1..]
                    .iter()
                    .map(|pt| ((pt[k] / b).log2() + 1.0) / 2.0 * (n - 1) as f64)
                    .map(|x| x.floor() as usize)
                    .collect();
                strata.sort_unstable();
                assert_eq!(strata, (0..n - 1).collect::<Vec<_>>());
            }
        }
    }

    #[test]
    fn batch_slices_follow_the_wire_expansion() {
        let b = cold_batch();
        let row: Vec<f64> = (0..b.width()).map(|i| i as f64).collect();
        assert_eq!(b.width(), 11);
        assert_eq!(b.slice(Kind::Mttf, &row), Some(&row[1..2]));
        assert_eq!(
            b.slice(Kind::UnreliabilityWithRepair, &row),
            Some(&row[5..8])
        );
        assert_eq!(b.slice(Kind::Reliability, &row), Some(&row[8..11]));
    }
}
