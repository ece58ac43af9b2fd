//! Parser for the Arcade textual syntax (paper §3.5).
//!
//! The input is line-oriented: `KEYWORD: value` lines grouped into
//! `COMPONENT`, `REPAIR UNIT` (or `RU`), `SMU` and `SYSTEM DOWN` blocks.
//! Blank lines and `#`/`//` comments are ignored.
//!
//! ```text
//! COMPONENT: pp
//! TIME-TO-FAILURE: exp(1/2000)
//! TIME-TO-REPAIR: exp(1)
//!
//! COMPONENT: ps
//! OPERATIONAL MODES: (inactive, active)
//! TIME-TO-FAILURES: exp(1/2000), exp(1/2000)
//! TIME-TO-REPAIR: exp(1)
//!
//! REPAIR UNIT: p.rep
//! COMPONENTS: pp, ps
//! REPAIR STRATEGY: FCFS
//!
//! SMU: p.smu
//! COMPONENTS: pp, ps
//!
//! SYSTEM DOWN: pp.down AND ps.down
//! ```
//!
//! Distributions: `exp(r)`, `erlang(k, r)`, `hypo(r1, r2, ...)`, `never`;
//! numbers accept scientific notation and the paper's `1/2000` fractions.
//! Expressions: literals `x.down`, `x.down.mK`, `x.down.df`; operators
//! `AND`/`OR` (or `&`/`|`), parentheses, and the `2of4(...)` shorthand.
//! When a component has a `DESTRUCTIVE FDEP`, the *last* entry of
//! `TIME-TO-REPAIRS` is the DF repair distribution (`exp(µdf)` in the
//! paper's line (9)).

use crate::ast::{BcDef, OmGroup, RepairStrategy, RuDef, SmuDef, SystemDef};
use crate::dist::Dist;
use crate::error::ArcadeError;
use crate::expr::{Expr, Literal, ModeRef};

/// Parses a complete Arcade system description.
///
/// # Errors
///
/// Returns [`ArcadeError::Parse`] with a line number on syntax errors; the
/// result is *not* yet semantically validated (use
/// [`crate::model::validate`] or [`crate::Session::new`]).
pub fn parse_system(input: &str) -> Result<SystemDef, ArcadeError> {
    let mut def = SystemDef::new("parsed");
    let mut block: Option<Block> = None;

    for (lineno, raw) in input.lines().enumerate() {
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        let lineno = lineno + 1;
        let (key, value) = split_keyword(line, lineno)?;
        let key_norm = key.to_ascii_uppercase();
        match key_norm.as_str() {
            "COMPONENT" => {
                flush(&mut def, block.take(), lineno)?;
                block = Some(Block::Component(ComponentBlock::new(value)));
            }
            "REPAIR UNIT" | "RU" => {
                flush(&mut def, block.take(), lineno)?;
                block = Some(Block::Ru(RuBlock::new(value)));
            }
            "SMU" => {
                flush(&mut def, block.take(), lineno)?;
                block = Some(Block::Smu(SmuBlock::new(value)));
            }
            "SYSTEM DOWN" => {
                flush(&mut def, block.take(), lineno)?;
                def.set_system_down(parse_expr(value, lineno)?);
            }
            _ => match &mut block {
                Some(Block::Component(c)) => c.line(&key_norm, value, lineno)?,
                Some(Block::Ru(r)) => r.line(&key_norm, value, lineno)?,
                Some(Block::Smu(s)) => s.line(&key_norm, value, lineno)?,
                None => return Err(parse_err(lineno, format!("`{key}` outside of any block"))),
            },
        }
    }
    flush(&mut def, block.take(), input.lines().count())?;
    Ok(def)
}

fn strip_comment(line: &str) -> &str {
    let cut = line.find('#').unwrap_or(line.len());
    let cut2 = line.find("//").unwrap_or(line.len());
    &line[..cut.min(cut2)]
}

fn split_keyword(line: &str, lineno: usize) -> Result<(&str, &str), ArcadeError> {
    let colon = line
        .find(':')
        .ok_or_else(|| parse_err(lineno, "expected `KEYWORD: value`"))?;
    Ok((line[..colon].trim(), line[colon + 1..].trim()))
}

fn parse_err(line: usize, message: impl Into<String>) -> ArcadeError {
    ArcadeError::Parse {
        line,
        message: message.into(),
    }
}

#[allow(clippy::large_enum_variant)] // one block is live at a time
enum Block {
    Component(ComponentBlock),
    Ru(RuBlock),
    Smu(SmuBlock),
}

fn flush(def: &mut SystemDef, block: Option<Block>, lineno: usize) -> Result<(), ArcadeError> {
    match block {
        None => Ok(()),
        Some(Block::Component(c)) => {
            def.add_component(c.finish(lineno)?);
            Ok(())
        }
        Some(Block::Ru(r)) => {
            def.add_repair_unit(r.finish(lineno)?);
            Ok(())
        }
        Some(Block::Smu(s)) => {
            def.add_smu(s.finish(lineno)?);
            Ok(())
        }
    }
}

struct ComponentBlock {
    name: String,
    groups: Vec<String>,
    acc_expr: Option<Expr>,
    on_off_expr: Option<Expr>,
    degraded_expr: Option<Expr>,
    inacc_means_down: bool,
    ttf: Vec<Dist>,
    probs: Vec<f64>,
    ttr: Vec<Dist>,
    df: Option<Expr>,
}

impl ComponentBlock {
    fn new(name: &str) -> Self {
        Self {
            name: name.to_owned(),
            groups: Vec::new(),
            acc_expr: None,
            on_off_expr: None,
            degraded_expr: None,
            inacc_means_down: false,
            ttf: Vec::new(),
            probs: Vec::new(),
            ttr: Vec::new(),
            df: None,
        }
    }

    fn line(&mut self, key: &str, value: &str, lineno: usize) -> Result<(), ArcadeError> {
        match key {
            "OPERATIONAL MODES" => {
                self.groups = parse_groups(value, lineno)?;
            }
            "ACCESSIBLE-TO-INACCESSIBLE" => self.acc_expr = Some(parse_expr(value, lineno)?),
            "INACCESSIBLE MEANS DOWN" => {
                self.inacc_means_down = match value.to_ascii_uppercase().as_str() {
                    "YES" => true,
                    "NO" => false,
                    other => {
                        return Err(parse_err(
                            lineno,
                            format!("expected YES or NO, got `{other}`"),
                        ))
                    }
                }
            }
            "ON-TO-OFF" => self.on_off_expr = Some(parse_expr(value, lineno)?),
            "NORMAL-TO-DEGRADED" => self.degraded_expr = Some(parse_expr(value, lineno)?),
            "TIME-TO-FAILURE" | "TIME-TO-FAILURES" => {
                self.ttf = split_args(value)
                    .iter()
                    .map(|v| parse_dist(v, lineno))
                    .collect::<Result<_, _>>()?;
            }
            "FAILURE MODE PROBABILITIES" => {
                self.probs = split_args(value)
                    .iter()
                    .map(|v| parse_number(v, lineno))
                    .collect::<Result<_, _>>()?;
            }
            "TIME-TO-REPAIR" | "TIME-TO-REPAIRS" => {
                self.ttr = split_args(value)
                    .iter()
                    .map(|v| parse_dist(v, lineno))
                    .collect::<Result<_, _>>()?;
            }
            "DESTRUCTIVE FDEP" => self.df = Some(parse_expr(value, lineno)?),
            other => {
                return Err(parse_err(
                    lineno,
                    format!("unknown component line `{other}`"),
                ))
            }
        }
        Ok(())
    }

    fn finish(mut self, lineno: usize) -> Result<BcDef, ArcadeError> {
        if self.ttf.is_empty() {
            return Err(parse_err(
                lineno,
                format!("component `{}` misses TIME-TO-FAILURE", self.name),
            ));
        }
        let mut om_groups = Vec::new();
        for g in &self.groups {
            let group = match g.as_str() {
                "inactive,active" | "active,inactive" => OmGroup::ActiveInactive,
                "on,off" => OmGroup::OnOff(self.on_off_expr.take().ok_or_else(|| {
                    parse_err(
                        lineno,
                        format!("component `{}`: (on, off) needs ON-TO-OFF", self.name),
                    )
                })?),
                "accessible,inaccessible" => {
                    OmGroup::AccessibleInaccessible(self.acc_expr.take().ok_or_else(|| {
                        parse_err(
                            lineno,
                            format!(
                                "component `{}`: (accessible, inaccessible) needs \
                                 ACCESSIBLE-TO-INACCESSIBLE",
                                self.name
                            ),
                        )
                    })?)
                }
                "normal,degraded" => {
                    OmGroup::NormalDegraded(self.degraded_expr.take().ok_or_else(|| {
                        parse_err(
                            lineno,
                            format!(
                                "component `{}`: (normal, degraded) needs NORMAL-TO-DEGRADED",
                                self.name
                            ),
                        )
                    })?)
                }
                other => {
                    return Err(parse_err(
                        lineno,
                        format!("unknown operational mode group `({other})`"),
                    ))
                }
            };
            om_groups.push(group);
        }
        let probs = if self.probs.is_empty() {
            vec![1.0]
        } else {
            self.probs
        };
        let mut ttr = if self.ttr.is_empty() {
            vec![Dist::exp(1.0); probs.len()]
        } else {
            self.ttr
        };
        // With a DESTRUCTIVE FDEP, the last repair entry is µ_df (§3.5.1
        // line (9)).
        let ttr_df = if self.df.is_some() {
            if ttr.len() == probs.len() + 1 {
                ttr.pop()
            } else if ttr.len() == probs.len() {
                Some(ttr.last().expect("nonempty").clone())
            } else {
                return Err(parse_err(
                    lineno,
                    format!(
                        "component `{}`: expected {} or {} repair distributions",
                        self.name,
                        probs.len(),
                        probs.len() + 1
                    ),
                ));
            }
        } else {
            None
        };
        Ok(BcDef {
            name: self.name,
            om_groups,
            inaccessible_means_down: self.inacc_means_down,
            ttf: self.ttf,
            failure_mode_probs: probs,
            ttr,
            ttr_df,
            df: self.df,
        })
    }
}

struct RuBlock {
    name: String,
    components: Vec<String>,
    strategy: Option<RepairStrategy>,
    priorities: Vec<u32>,
}

impl RuBlock {
    fn new(name: &str) -> Self {
        Self {
            name: name.to_owned(),
            components: Vec::new(),
            strategy: None,
            priorities: Vec::new(),
        }
    }

    fn line(&mut self, key: &str, value: &str, lineno: usize) -> Result<(), ArcadeError> {
        match key {
            "COMPONENTS" => {
                self.components = split_args(value).iter().map(|s| s.to_string()).collect()
            }
            "STRATEGY" | "REPAIR STRATEGY" => {
                self.strategy = Some(match value.to_ascii_uppercase().as_str() {
                    "DEDICATED" => RepairStrategy::Dedicated,
                    "FCFS" => RepairStrategy::Fcfs,
                    "PP" => RepairStrategy::PreemptivePriority,
                    "PNP" => RepairStrategy::NonPreemptivePriority,
                    other => return Err(parse_err(lineno, format!("unknown strategy `{other}`"))),
                })
            }
            "PRIORITIES" => {
                self.priorities = split_args(value)
                    .iter()
                    .map(|v| {
                        v.parse::<u32>()
                            .map_err(|_| parse_err(lineno, format!("bad priority `{v}`")))
                    })
                    .collect::<Result<_, _>>()?;
            }
            other => return Err(parse_err(lineno, format!("unknown RU line `{other}`"))),
        }
        Ok(())
    }

    fn finish(self, lineno: usize) -> Result<RuDef, ArcadeError> {
        let strategy = self
            .strategy
            .ok_or_else(|| parse_err(lineno, format!("RU `{}` misses STRATEGY", self.name)))?;
        Ok(RuDef {
            name: self.name,
            components: self.components,
            strategy,
            priorities: self.priorities,
        })
    }
}

struct SmuBlock {
    name: String,
    components: Vec<String>,
    failover: Option<Dist>,
}

impl SmuBlock {
    fn new(name: &str) -> Self {
        Self {
            name: name.to_owned(),
            components: Vec::new(),
            failover: None,
        }
    }

    fn line(&mut self, key: &str, value: &str, lineno: usize) -> Result<(), ArcadeError> {
        match key {
            "COMPONENTS" => {
                self.components = split_args(value).iter().map(|s| s.to_string()).collect()
            }
            "FAILOVER-TIME" => self.failover = Some(parse_dist(value, lineno)?),
            other => return Err(parse_err(lineno, format!("unknown SMU line `{other}`"))),
        }
        Ok(())
    }

    fn finish(self, lineno: usize) -> Result<SmuDef, ArcadeError> {
        if self.components.len() < 2 {
            return Err(parse_err(
                lineno,
                format!("SMU `{}` needs a primary and at least one spare", self.name),
            ));
        }
        let mut smu = SmuDef::new(
            self.name,
            self.components[0].clone(),
            self.components[1..].to_vec(),
        );
        if let Some(f) = self.failover {
            smu = smu.with_failover(f);
        }
        Ok(smu)
    }
}

/// Splits a comma-separated list, respecting parentheses (so
/// `erlang(2, 0.1), exp(1)` splits into two items).
fn split_args(value: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut depth = 0usize;
    let mut start = 0usize;
    for (i, ch) in value.char_indices() {
        match ch {
            '(' => depth += 1,
            ')' => depth = depth.saturating_sub(1),
            ',' if depth == 0 => {
                out.push(value[start..i].trim());
                start = i + 1;
            }
            _ => {}
        }
    }
    let last = value[start..].trim();
    if !last.is_empty() {
        out.push(last);
    }
    out
}

fn parse_groups(value: &str, lineno: usize) -> Result<Vec<String>, ArcadeError> {
    // "(inactive, active) (on, off)" -> ["inactive,active", "on,off"]
    let mut out = Vec::new();
    let mut rest = value.trim();
    while !rest.is_empty() {
        if !rest.starts_with('(') {
            return Err(parse_err(
                lineno,
                "operational mode groups must be parenthesized",
            ));
        }
        let close = rest
            .find(')')
            .ok_or_else(|| parse_err(lineno, "unclosed `(` in OPERATIONAL MODES"))?;
        let inner: String = rest[1..close]
            .split(',')
            .map(|s| s.trim().to_ascii_lowercase())
            .collect::<Vec<_>>()
            .join(",");
        out.push(inner);
        rest = rest[close + 1..].trim_start_matches(|c: char| c == ',' || c.is_whitespace());
    }
    Ok(out)
}

/// Parses a number: float literal, scientific notation, or a `p/q`
/// fraction as the paper writes rates like `exp(1/2000)`.
fn parse_number(s: &str, lineno: usize) -> Result<f64, ArcadeError> {
    let s = s.trim();
    if let Some((num, den)) = s.split_once('/') {
        let n: f64 = num
            .trim()
            .parse()
            .map_err(|_| parse_err(lineno, format!("bad number `{s}`")))?;
        let d: f64 = den
            .trim()
            .parse()
            .map_err(|_| parse_err(lineno, format!("bad number `{s}`")))?;
        if d == 0.0 {
            return Err(parse_err(lineno, format!("division by zero in `{s}`")));
        }
        return Ok(n / d);
    }
    // Allow the paper's `5.44 · 10−6` style only in its ASCII form 5.44e-6.
    s.parse()
        .map_err(|_| parse_err(lineno, format!("bad number `{s}`")))
}

/// Parses a distribution: `exp(r)`, `erlang(k, r)`, `hypo(...)`, `never`.
pub fn parse_dist(s: &str, lineno: usize) -> Result<Dist, ArcadeError> {
    let s = s.trim();
    if s.eq_ignore_ascii_case("never") {
        return Ok(Dist::Never);
    }
    let open = s
        .find('(')
        .ok_or_else(|| parse_err(lineno, format!("bad distribution `{s}`")))?;
    if !s.ends_with(')') {
        return Err(parse_err(lineno, format!("bad distribution `{s}`")));
    }
    let head = s[..open].trim().to_ascii_lowercase();
    let args = split_args(&s[open + 1..s.len() - 1]);
    match head.as_str() {
        "exp" => {
            if args.len() != 1 {
                return Err(parse_err(lineno, "exp takes one rate"));
            }
            let r = parse_number(args[0], lineno)?;
            if !(r.is_finite() && r >= 0.0) {
                return Err(parse_err(lineno, format!("bad rate `{}`", args[0])));
            }
            Ok(Dist::exp(r))
        }
        "erlang" => {
            if args.len() != 2 {
                return Err(parse_err(lineno, "erlang takes (phases, rate)"));
            }
            let k: u32 = args[0]
                .parse()
                .map_err(|_| parse_err(lineno, format!("bad phase count `{}`", args[0])))?;
            let r = parse_number(args[1], lineno)?;
            if k == 0 || !(r.is_finite() && r > 0.0) {
                return Err(parse_err(lineno, format!("bad erlang `{s}`")));
            }
            Ok(Dist::erlang(k, r))
        }
        "hypo" => {
            let rates: Vec<f64> = args
                .iter()
                .map(|a| parse_number(a, lineno))
                .collect::<Result<_, _>>()?;
            if rates.is_empty() || rates.iter().any(|r| !(r.is_finite() && *r > 0.0)) {
                return Err(parse_err(lineno, format!("bad hypo `{s}`")));
            }
            Ok(Dist::hypo(rates))
        }
        other => Err(parse_err(lineno, format!("unknown distribution `{other}`"))),
    }
}

/// Parses an AND/OR/K-of-N expression.
pub fn parse_expr(s: &str, lineno: usize) -> Result<Expr, ArcadeError> {
    let tokens = tokenize(s, lineno)?;
    let mut p = ExprParser {
        tokens,
        pos: 0,
        lineno,
    };
    let e = p.parse_or()?;
    if p.pos != p.tokens.len() {
        return Err(parse_err(
            lineno,
            format!("unexpected `{}`", p.tokens[p.pos]),
        ));
    }
    Ok(e)
}

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    LParen,
    RParen,
    Comma,
    And,
    Or,
    Pand,
    KofN(u32, u32),
    Ident(String),
}

impl std::fmt::Display for Tok {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Tok::LParen => write!(f, "("),
            Tok::RParen => write!(f, ")"),
            Tok::Comma => write!(f, ","),
            Tok::And => write!(f, "AND"),
            Tok::Or => write!(f, "OR"),
            Tok::Pand => write!(f, "PAND"),
            Tok::KofN(k, n) => write!(f, "{k}of{n}"),
            Tok::Ident(s) => write!(f, "{s}"),
        }
    }
}

fn tokenize(s: &str, lineno: usize) -> Result<Vec<Tok>, ArcadeError> {
    let mut out = Vec::new();
    let chars: Vec<char> = s.chars().collect();
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        match c {
            ' ' | '\t' => i += 1,
            '(' => {
                out.push(Tok::LParen);
                i += 1;
            }
            ')' => {
                out.push(Tok::RParen);
                i += 1;
            }
            ',' => {
                out.push(Tok::Comma);
                i += 1;
            }
            '&' | '∧' => {
                out.push(Tok::And);
                i += 1;
            }
            '|' | '∨' => {
                out.push(Tok::Or);
                i += 1;
            }
            _ if c.is_alphanumeric() || c == '_' || c == '.' => {
                let start = i;
                while i < chars.len()
                    && (chars[i].is_alphanumeric() || chars[i] == '_' || chars[i] == '.')
                {
                    i += 1;
                }
                let word: String = chars[start..i].iter().collect();
                let upper = word.to_ascii_uppercase();
                if upper == "AND" {
                    out.push(Tok::And);
                } else if upper == "OR" {
                    out.push(Tok::Or);
                } else if upper == "PAND" {
                    out.push(Tok::Pand);
                } else if let Some(kn) = parse_kofn_word(&word) {
                    out.push(Tok::KofN(kn.0, kn.1));
                } else {
                    out.push(Tok::Ident(word));
                }
            }
            other => return Err(parse_err(lineno, format!("unexpected character `{other}`"))),
        }
    }
    Ok(out)
}

/// Recognizes `2of4`-style words.
fn parse_kofn_word(w: &str) -> Option<(u32, u32)> {
    let lower = w.to_ascii_lowercase();
    let (k, n) = lower.split_once("of")?;
    Some((k.parse().ok()?, n.parse().ok()?))
}

struct ExprParser {
    tokens: Vec<Tok>,
    pos: usize,
    lineno: usize,
}

impl ExprParser {
    fn peek(&self) -> Option<&Tok> {
        self.tokens.get(self.pos)
    }

    fn eat(&mut self, t: &Tok) -> Result<(), ArcadeError> {
        if self.peek() == Some(t) {
            self.pos += 1;
            Ok(())
        } else {
            Err(parse_err(
                self.lineno,
                format!(
                    "expected `{t}`, found `{}`",
                    self.peek().map_or("end".to_owned(), ToString::to_string)
                ),
            ))
        }
    }

    fn parse_or(&mut self) -> Result<Expr, ArcadeError> {
        let mut items = vec![self.parse_and()?];
        while self.peek() == Some(&Tok::Or) {
            self.pos += 1;
            items.push(self.parse_and()?);
        }
        Ok(if items.len() == 1 {
            items.pop().expect("one item")
        } else {
            Expr::Or(items)
        })
    }

    fn parse_and(&mut self) -> Result<Expr, ArcadeError> {
        let mut items = vec![self.parse_atom()?];
        while self.peek() == Some(&Tok::And) {
            self.pos += 1;
            items.push(self.parse_atom()?);
        }
        Ok(if items.len() == 1 {
            items.pop().expect("one item")
        } else {
            Expr::And(items)
        })
    }

    fn parse_atom(&mut self) -> Result<Expr, ArcadeError> {
        match self.peek().cloned() {
            Some(Tok::LParen) => {
                self.pos += 1;
                let e = self.parse_or()?;
                self.eat(&Tok::RParen)?;
                Ok(e)
            }
            Some(Tok::Pand) => {
                self.pos += 1;
                self.eat(&Tok::LParen)?;
                let mut children = vec![self.parse_or()?];
                while self.peek() == Some(&Tok::Comma) {
                    self.pos += 1;
                    children.push(self.parse_or()?);
                }
                self.eat(&Tok::RParen)?;
                if children.len() < 2 {
                    return Err(parse_err(self.lineno, "PAND needs at least two operands"));
                }
                Ok(Expr::Pand(children))
            }
            Some(Tok::KofN(k, n)) => {
                self.pos += 1;
                self.eat(&Tok::LParen)?;
                let mut children = vec![self.parse_or()?];
                while self.peek() == Some(&Tok::Comma) {
                    self.pos += 1;
                    children.push(self.parse_or()?);
                }
                self.eat(&Tok::RParen)?;
                if children.len() != n as usize {
                    return Err(parse_err(
                        self.lineno,
                        format!("{k}of{n} applied to {} operands", children.len()),
                    ));
                }
                Ok(Expr::KofN(k, children))
            }
            Some(Tok::Ident(word)) => {
                self.pos += 1;
                parse_literal(&word, self.lineno)
            }
            other => Err(parse_err(
                self.lineno,
                format!(
                    "expected an expression, found `{}`",
                    other.map_or("end".to_owned(), |t| t.to_string())
                ),
            )),
        }
    }
}

/// Parses `name.down`, `name.down.mK`, `name.down.df` literals.
fn parse_literal(word: &str, lineno: usize) -> Result<Expr, ArcadeError> {
    let parts: Vec<&str> = word.rsplitn(3, '.').collect();
    // parts are reversed: [last, middle, rest...]
    if parts.len() >= 2 && parts[0].eq_ignore_ascii_case("down") {
        let component = {
            let mut c: Vec<&str> = parts[1..].to_vec();
            c.reverse();
            c.join(".")
        };
        return Ok(Expr::Lit(Literal {
            component,
            mode: ModeRef::Any,
        }));
    }
    if parts.len() == 3 && parts[1].eq_ignore_ascii_case("down") {
        let component = parts[2].to_owned();
        let mode = if parts[0].eq_ignore_ascii_case("df") {
            ModeRef::Df
        } else if let Some(num) = parts[0].strip_prefix('m') {
            ModeRef::Mode(
                num.parse()
                    .map_err(|_| parse_err(lineno, format!("bad failure mode `{}`", parts[0])))?,
            )
        } else {
            return Err(parse_err(lineno, format!("bad literal `{word}`")));
        };
        return Ok(Expr::Lit(Literal { component, mode }));
    }
    Err(parse_err(
        lineno,
        format!("bad literal `{word}` (expected `x.down[.mK|.df]`)"),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_paper_dds_processors() {
        let text = "
COMPONENT: pp
TIME-TO-FAILURE: exp(1/2000)
TIME-TO-REPAIR: exp(1)

COMPONENT: ps
OPERATIONAL MODES: (inactive, active)
TIME-TO-FAILURES: exp(1/2000), exp(1/2000)
TIME-TO-REPAIR: exp(1)

REPAIR UNIT: p.rep
COMPONENTS: pp, ps
REPAIR STRATEGY: FCFS

SMU: p.smu
COMPONENTS: pp, ps

SYSTEM DOWN: pp.down AND ps.down
";
        let def = parse_system(text).unwrap();
        assert_eq!(def.components.len(), 2);
        assert_eq!(def.components[0].ttf, vec![Dist::exp(1.0 / 2000.0)]);
        assert!(def.components[1].has_active_inactive());
        assert_eq!(def.components[1].ttf.len(), 2);
        assert_eq!(def.repair_units[0].strategy, RepairStrategy::Fcfs);
        assert_eq!(def.smus[0].primary, "pp");
        assert_eq!(
            def.system_down.as_ref().unwrap().to_string(),
            "(pp.down AND ps.down)"
        );
    }

    #[test]
    fn parses_rcs_pump() {
        let text = "
COMPONENT: P2
TIME-TO-FAILURE: exp(1)
TIME-TO-REPAIR: exp(1)

COMPONENT: P1
OPERATIONAL MODES: (normal, degraded)
NORMAL-TO-DEGRADED: P2.down
TIME-TO-FAILURES: erlang(2, 5.44e-6), erlang(2, 10.88e-6)
TIME-TO-REPAIR: erlang(2, 0.1)

SYSTEM DOWN: P1.down OR P2.down
";
        let def = parse_system(text).unwrap();
        let p1 = def.component("P1").unwrap();
        assert_eq!(p1.om_groups.len(), 1);
        assert_eq!(p1.ttf[0], Dist::erlang(2, 5.44e-6));
        assert_eq!(p1.ttf[1], Dist::erlang(2, 10.88e-6));
        crate::model::validate(&def).unwrap();
    }

    #[test]
    fn parses_failure_modes_with_df() {
        let text = "
COMPONENT: fan
TIME-TO-FAILURE: exp(0.001)
TIME-TO-REPAIR: exp(1)

COMPONENT: cpu
TIME-TO-FAILURE: exp(8.4e-8)
FAILURE MODE PROBABILITIES: 0.5, 0.5
TIME-TO-REPAIRS: exp(0.1), exp(0.2), exp(0.3)
DESTRUCTIVE FDEP: fan.down

SYSTEM DOWN: cpu.down.m2 OR cpu.down.df
";
        let def = parse_system(text).unwrap();
        let cpu = def.component("cpu").unwrap();
        assert_eq!(cpu.failure_mode_probs, vec![0.5, 0.5]);
        assert_eq!(cpu.ttr.len(), 2);
        assert_eq!(cpu.ttr_df, Some(Dist::exp(0.3)));
        crate::model::validate(&def).unwrap();
    }

    #[test]
    fn parses_kofn_and_nested() {
        let e = parse_expr(
            "(a.down AND b.down) OR 2of4(c.down, d.down, e.down, f.down)",
            1,
        )
        .unwrap();
        match e {
            Expr::Or(cs) => {
                assert!(matches!(cs[0], Expr::And(_)));
                assert!(matches!(cs[1], Expr::KofN(2, _)));
            }
            _ => panic!("expected OR"),
        }
    }

    #[test]
    fn kofn_arity_mismatch_rejected() {
        assert!(parse_expr("2of4(a.down, b.down)", 1).is_err());
    }

    #[test]
    fn failover_smu() {
        let text = "
COMPONENT: pp
TIME-TO-FAILURE: exp(0.001)

COMPONENT: ps
OPERATIONAL MODES: (inactive, active)
TIME-TO-FAILURES: exp(0.001), exp(0.001)

SMU: m
COMPONENTS: pp, ps
FAILOVER-TIME: exp(10)

SYSTEM DOWN: pp.down AND ps.down
";
        let def = parse_system(text).unwrap();
        assert_eq!(def.smus[0].failover, Some(Dist::exp(10.0)));
    }

    #[test]
    fn errors_carry_line_numbers() {
        let err = parse_system("COMPONENT: x\nBOGUS LINE: 3\n").unwrap_err();
        match err {
            ArcadeError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("expected parse error, got {other}"),
        }
    }

    #[test]
    fn comments_and_blank_lines_skipped() {
        let def = parse_system(
            "# a comment\nCOMPONENT: x // trailing\nTIME-TO-FAILURE: exp(1)\n\nSYSTEM DOWN: x.down\n",
        )
        .unwrap();
        assert_eq!(def.components.len(), 1);
    }

    #[test]
    fn fraction_numbers() {
        assert_eq!(parse_number("1/2000", 1).unwrap(), 1.0 / 2000.0);
        assert!(parse_number("1/0", 1).is_err());
        assert_eq!(parse_number("5.44e-6", 1).unwrap(), 5.44e-6);
    }

    #[test]
    fn bad_inputs_rejected() {
        assert!(parse_dist("exp()", 1).is_err());
        assert!(parse_dist("weibull(1,2)", 1).is_err());
        assert!(parse_expr("x.downy", 1).is_err());
        assert!(parse_expr("x.down AND", 1).is_err());
        assert!(parse_system("STRAY: 1\n").is_err());
    }
}
