//! The one result schema, renderer, parser and gate of every bench bin.
//!
//! A run is a list of [`Row`]s, one number each, named by `case`,
//! `params` and `metric`, with its unit and the direction that counts
//! as better. [`Report::finish`] always writes the fresh rows to
//! `target/bench/<file>.json` and checks them against the run's
//! [`Bound`]s; a failed bound exits 1. The checked-in
//! `BENCH_<file>.json` is rewritten only under `BENCH_REBASELINE=1`,
//! which waives every bound except the hard ones (correctness floors
//! that hold on any host). Inside a socket/shm worker a report prints,
//! writes and gates nothing: the worker is replaying the program to
//! reach its own run, and its replayed numbers are not results.
//!
//! The file holds one row per line, so a diff shows one number per line
//! and a row line parses on its own:
//!
//! ```text
//! {
//!   "bench": "sched",
//!   "host": {"nproc": 2, "commit": "a1b2c3d"},
//!   "rows": [
//!     {"case": "fanin", "params": {"pes": 4, "mailbox": "legacy"}, "metric": "rate", "unit": "msgs/s", "better": "higher", "value": 19867306.3}
//!   ]
//! }
//! ```

use std::fmt::Display;
use std::path::Path;

/// Which direction of a row's value is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Latencies, costs, counts of waste.
    Lower,
    /// Rates, counts of work done.
    Higher,
}

/// One measured number.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// The workload measured.
    pub case: String,
    /// The settings that identify this row within its case, in order.
    pub params: Vec<(String, String)>,
    /// What was measured (`p50`, `rate`, `makespan`, …).
    pub metric: String,
    /// Unit of `value`.
    pub unit: String,
    /// Which direction is an improvement.
    pub better: Better,
    /// The measurement.
    pub value: f64,
}

impl Row {
    /// A row with no params yet; add them with [`Row::with`].
    pub fn new(case: &str, metric: &str, unit: &str, better: Better, value: f64) -> Row {
        Row {
            case: case.into(),
            params: Vec::new(),
            metric: metric.into(),
            unit: unit.into(),
            better,
            value,
        }
    }

    /// Append one param.
    pub fn with(mut self, key: &str, value: impl Display) -> Row {
        self.params.push((key.into(), value.to_string()));
        self
    }

    /// The identity baseline matching and bounds use:
    /// `case{k=v,…}.metric`.
    pub fn id(&self) -> String {
        let params: Vec<String> = self
            .params
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        format!("{}{{{}}}.{}", self.case, params.join(","), self.metric)
    }

    /// The value of param `key`, if set.
    pub fn param(&self, key: &str) -> Option<&str> {
        self.params
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// A condition a run must meet.
pub enum Bound {
    /// Each fresh row `rows` selects against the baseline row with the
    /// same id: a lower-better row fails above `base * factor + slack`,
    /// a higher-better row below `base / factor - slack`. Waived by
    /// `BENCH_REBASELINE=1`.
    Baseline {
        /// Selects the gated rows.
        rows: fn(&Row) -> bool,
        /// Multiplicative tolerance (1.25 = 25 %).
        factor: f64,
        /// Additive tolerance, in the row's unit.
        slack: f64,
    },
    /// Same run: `value(num) / value(den) >= floor`.
    Ratio {
        /// Id of the numerator row.
        num: String,
        /// Id of the denominator row.
        den: String,
        /// Least acceptable ratio.
        floor: f64,
        /// Not waived by `BENCH_REBASELINE=1`.
        hard: bool,
    },
    /// Same run: one row no worse than `limit` in its `better`
    /// direction (a ceiling for lower-better rows, a floor otherwise).
    /// Never waived by `BENCH_REBASELINE=1`.
    Limit {
        /// Id of the row.
        row: String,
        /// The ceiling or floor.
        limit: f64,
    },
}

/// The outcome of one bound on one row or pair of rows.
struct Check {
    /// The bound held.
    pass: bool,
    /// A failure is not waived by `BENCH_REBASELINE=1`.
    hard: bool,
    /// What was compared.
    what: String,
}

/// `BENCH_SMOKE=1`: run the reduced CI subset.
pub fn smoke() -> bool {
    flag("BENCH_SMOKE")
}

fn flag(name: &str) -> bool {
    std::env::var(name).is_ok_and(|v| v == "1")
}

/// The `p`-quantile (0.0–1.0) of `samples`, nearest rank; sorts them.
pub fn pctl(samples: &mut [f64], p: f64) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[((samples.len() - 1) as f64 * p).round() as usize]
}

/// Collects a bin's rows and bounds, and settles them at the end.
pub struct Report {
    file: &'static str,
    rows: Vec<Row>,
    bounds: Vec<Bound>,
    quiet: bool,
}

impl Report {
    /// A report named `file`: fresh rows go to
    /// `target/bench/<file>.json`, the checked-in baseline is
    /// `BENCH_<file>.json`. Prints `title` (outside workers).
    pub fn new(file: &'static str, title: &str) -> Report {
        let quiet = converse_machine::in_socket_worker();
        if !quiet {
            println!("{title}\n");
        }
        Report {
            file,
            rows: Vec::new(),
            bounds: Vec::new(),
            quiet,
        }
    }

    /// Record and print one row; returns its id for use in bounds.
    pub fn push(&mut self, row: Row) -> String {
        if !self.quiet {
            let params: Vec<String> = row.params.iter().map(|(k, v)| format!("{k}={v}")).collect();
            let prec = if row.value.abs() < 100.0 { 3 } else { 0 };
            println!(
                "{:>18} {:<52} {:>9} {:>14.prec$} {}",
                row.case,
                params.join(" "),
                row.metric,
                row.value,
                row.unit
            );
        }
        let id = row.id();
        self.rows.push(row);
        id
    }

    /// Add a bound to check at [`Report::finish`].
    pub fn bound(&mut self, bound: Bound) {
        self.bounds.push(bound);
    }

    /// Write, gate and (under `BENCH_REBASELINE=1`) re-baseline in the
    /// working directory; exit 1 when the run fails. No-op in workers.
    pub fn finish(self) {
        if self.quiet {
            return;
        }
        if self.settle(Path::new("."), flag("BENCH_REBASELINE"), smoke()) {
            eprintln!(
                "BENCH_{}.json FAILED (BENCH_REBASELINE=1 waives all but hard bounds)",
                self.file
            );
            std::process::exit(1);
        }
    }

    /// [`Report::finish`] rooted at `dir`; returns true when the run
    /// fails. The checked-in file is rewritten only when `rebaseline`
    /// is set, the run is not a smoke subset and no hard bound failed.
    fn settle(&self, dir: &Path, rebaseline: bool, smoke: bool) -> bool {
        let text = render(self.file, &self.rows);
        let fresh_dir = dir.join("target").join("bench");
        let fresh = fresh_dir.join(format!("{}.json", self.file));
        std::fs::create_dir_all(&fresh_dir).expect("create target/bench");
        std::fs::write(&fresh, &text).expect("write fresh bench report");
        println!("\nwrote {} ({} rows)", fresh.display(), self.rows.len());

        let checked_in = dir.join(format!("BENCH_{}.json", self.file));
        let baseline = std::fs::read_to_string(&checked_in).ok();
        let checks = gate(&self.rows, baseline.as_deref(), &self.bounds);
        for c in &checks {
            let tag = match (c.pass, c.hard) {
                (true, _) => "ok",
                (false, true) => "FAIL (hard)",
                (false, false) => "FAIL",
            };
            println!("gate {tag}: {}", c.what);
        }
        let hard = checks.iter().any(|c| !c.pass && c.hard);
        let soft = checks.iter().any(|c| !c.pass && !c.hard);
        if rebaseline && !smoke && !hard {
            std::fs::write(&checked_in, &text).expect("write checked-in baseline");
            println!("BENCH_REBASELINE=1: rewrote {}", checked_in.display());
        } else if rebaseline {
            println!("BENCH_REBASELINE=1 ignored: smoke subset or hard failure");
        }
        hard || (soft && !rebaseline)
    }
}

/// Check `fresh` against `bounds`. `baseline` is the checked-in file's
/// text, if one exists: every row line in it must parse, and at least
/// one of its rows must share an id with a fresh row, or the gate
/// fails — a baseline nothing can be compared with checks nothing.
fn gate(fresh: &[Row], baseline: Option<&str>, bounds: &[Bound]) -> Vec<Check> {
    let check = |pass, hard, what| Check { pass, hard, what };
    let mut out = Vec::new();
    let base = match baseline.map(parse) {
        Some(Err(e)) => {
            out.push(check(false, false, e));
            Vec::new()
        }
        Some(Ok(rows)) => rows,
        None => Vec::new(),
    };
    let base_of = |r: &Row| base.iter().find(|b| b.id() == r.id());
    if baseline.is_some() && !fresh.iter().any(|r| base_of(r).is_some()) {
        out.push(check(
            false,
            false,
            "no baseline row matches a fresh row".into(),
        ));
    }
    let find = |id: &str| fresh.iter().find(|r| r.id() == id);
    for bound in bounds {
        match bound {
            // Without a checked-in file (a first run) there is nothing
            // to compare; smoke runs measure a subset, so fresh rows
            // without a baseline row pass.
            Bound::Baseline {
                rows,
                factor,
                slack,
            } if baseline.is_some() => {
                let compared = out.len();
                for r in fresh.iter().filter(|r| rows(r)) {
                    let Some(b) = base_of(r) else { continue };
                    let limit = match r.better {
                        Better::Lower => b.value * factor + slack,
                        Better::Higher => b.value / factor - slack,
                    };
                    let what = format!(
                        "{} {:.1} vs baseline {:.1} (limit {limit:.1})",
                        r.id(),
                        r.value,
                        b.value
                    );
                    out.push(check(within(r, limit), false, what));
                }
                if out.len() == compared {
                    let what = "baseline has no row a baseline bound selects".into();
                    out.push(check(false, false, what));
                }
            }
            Bound::Baseline { .. } => {}
            Bound::Ratio {
                num,
                den,
                floor,
                hard,
            } => out.push(match (find(num), find(den)) {
                (Some(n), Some(d)) => {
                    let ratio = n.value / d.value;
                    check(
                        ratio >= *floor,
                        *hard,
                        format!("{num} / {den} = {ratio:.3} (floor {floor})"),
                    )
                }
                _ => check(false, *hard, format!("missing row for {num} / {den}")),
            }),
            Bound::Limit { row, limit } => out.push(match find(row) {
                Some(r) => check(
                    within(r, *limit),
                    true,
                    format!("{row} = {:.1} (limit {limit})", r.value),
                ),
                None => check(false, true, format!("missing row {row}")),
            }),
        }
    }
    out
}

/// `r` is no worse than `limit` in its `better` direction.
fn within(r: &Row, limit: f64) -> bool {
    match r.better {
        Better::Lower => r.value <= limit,
        Better::Higher => r.value >= limit,
    }
}

fn host() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let commit = std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or("unknown".to_string(), |s| s.trim().to_string());
    format!("{{\"nproc\": {nproc}, \"commit\": \"{commit}\"}}")
}

/// A param value as JSON: numbers bare, everything else quoted.
fn json_value(v: &str) -> String {
    if v.parse::<f64>().is_ok_and(f64::is_finite) {
        v.to_string()
    } else {
        format!("\"{v}\"")
    }
}

fn render_row(r: &Row) -> String {
    let params: Vec<String> = r
        .params
        .iter()
        .map(|(k, v)| format!("\"{k}\": {}", json_value(v)))
        .collect();
    format!(
        "{{\"case\": \"{}\", \"params\": {{{}}}, \"metric\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"value\": {}}}",
        r.case,
        params.join(", "),
        r.metric,
        r.unit,
        match r.better {
            Better::Lower => "lower",
            Better::Higher => "higher",
        },
        r.value
    )
}

/// Render a whole report file for `bench`, host block included.
fn render(bench: &str, rows: &[Row]) -> String {
    let lines: Vec<String> = rows
        .iter()
        .map(|r| format!("    {}", render_row(r)))
        .collect();
    format!(
        "{{\n  \"bench\": \"{bench}\",\n  \"host\": {},\n  \"rows\": [\n{}\n  ]\n}}\n",
        host(),
        lines.join(",\n")
    )
}

/// Parse every row line (a line starting `{"`) of a report file.
fn parse(text: &str) -> Result<Vec<Row>, String> {
    text.lines()
        .map(str::trim)
        .filter(|l| l.starts_with("{\""))
        .map(|l| {
            parse_row(l.trim_end_matches(',')).ok_or_else(|| format!("unparsable row line: {l}"))
        })
        .collect()
}

/// A JSON value of the subset rows use: a scalar kept as its text, or
/// a flat object.
enum Val {
    Text(String),
    Obj(Vec<(String, Val)>),
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn peek(&mut self) -> Option<u8> {
        while self.s.get(self.i).is_some_and(u8::is_ascii_whitespace) {
            self.i += 1;
        }
        self.s.get(self.i).copied()
    }

    fn eat(&mut self, c: u8) -> Option<()> {
        (self.peek()? == c).then(|| self.i += 1)
    }

    fn text(&mut self, quoted: bool) -> Option<String> {
        let start = self.i;
        let end = |c: &u8| {
            if quoted {
                *c == b'"'
            } else {
                b",}".contains(c) || c.is_ascii_whitespace()
            }
        };
        while !end(self.s.get(self.i)?) {
            self.i += 1;
        }
        let t = std::str::from_utf8(&self.s[start..self.i])
            .ok()?
            .to_string();
        self.i += quoted as usize;
        (quoted || !t.is_empty()).then_some(t)
    }

    fn value(&mut self) -> Option<Val> {
        match self.peek()? {
            b'{' => self.object().map(Val::Obj),
            b'"' => {
                self.i += 1;
                self.text(true).map(Val::Text)
            }
            _ => self.text(false).map(Val::Text),
        }
    }

    fn object(&mut self) -> Option<Vec<(String, Val)>> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        if self.eat(b'}').is_some() {
            return Some(fields);
        }
        loop {
            self.eat(b'"')?;
            let key = self.text(true)?;
            self.eat(b':')?;
            fields.push((key, self.value()?));
            if self.eat(b',').is_none() {
                self.eat(b'}')?;
                return Some(fields);
            }
        }
    }
}

fn parse_row(line: &str) -> Option<Row> {
    let mut p = Parser {
        s: line.as_bytes(),
        i: 0,
    };
    let fields = p.object()?;
    if p.peek().is_some() {
        return None;
    }
    let get = |k: &str| fields.iter().find(|(key, _)| key == k).map(|(_, v)| v);
    let text = |k: &str| match get(k)? {
        Val::Text(t) => Some(t.clone()),
        Val::Obj(_) => None,
    };
    let Some(Val::Obj(params)) = get("params") else {
        return None;
    };
    let params = params
        .iter()
        .map(|(k, v)| match v {
            Val::Text(t) => Some((k.clone(), t.clone())),
            Val::Obj(_) => None,
        })
        .collect::<Option<Vec<_>>>()?;
    Some(Row {
        case: text("case")?,
        params,
        metric: text("metric")?,
        unit: text("unit")?,
        better: match text("better")?.as_str() {
            "lower" => Better::Lower,
            "higher" => Better::Higher,
            _ => return None,
        },
        value: text("value")?.parse().ok()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(case: &str, better: Better, value: f64) -> Row {
        Row::new(case, "p50", "ns", better, value)
            .with("pes", 2)
            .with("transport", "socket")
    }

    /// One fresh row against a one-row baseline under one bound.
    fn against(fresh: f64, base: f64, better: Better, factor: f64, slack: f64) -> bool {
        let b = render("t", &[row("c", better, base)]);
        let bound = Bound::Baseline {
            rows: |_| true,
            factor,
            slack,
        };
        let checks = gate(&[row("c", better, fresh)], Some(&b), &[bound]);
        checks.iter().all(|c| c.pass)
    }

    #[test]
    fn render_then_parse_round_trips() {
        let rows = vec![
            row("rtt", Better::Lower, 35661.0),
            Row::new("fanin", "rate", "msgs/s", Better::Higher, 0.145).with("ldb", "-"),
            Row::new("soak", "elapsed", "ms", Better::Lower, 46.0),
        ];
        assert_eq!(parse(&render("t", &rows)).unwrap(), rows);
    }

    #[test]
    fn lower_better_bound_is_base_times_factor() {
        // sched, threads, wire RTT: fail above base * 1.25.
        assert!(against(1250.0, 1000.0, Better::Lower, 1.25, 0.0));
        assert!(!against(1250.1, 1000.0, Better::Lower, 1.25, 0.0));
    }

    #[test]
    fn higher_better_bound_is_base_over_factor() {
        // fanout, wire fan-in: fail below base / 1.25.
        assert!(against(800.0, 1000.0, Better::Higher, 1.25, 0.0));
        assert!(!against(799.9, 1000.0, Better::Higher, 1.25, 0.0));
    }

    #[test]
    fn slack_is_added_after_the_factor() {
        // taskbench: fail above base * 3 + 50 µs.
        assert!(against(80_000.0, 10_000.0, Better::Lower, 3.0, 50_000.0));
        assert!(!against(80_000.1, 10_000.0, Better::Lower, 3.0, 50_000.0));
    }

    #[test]
    fn same_run_ratio_floor_is_inclusive() {
        // steal: off / on >= 1.5.
        let off = Row::new("tb", "makespan", "ns", Better::Lower, 150.0).with("steal", false);
        let on = |v| Row::new("tb", "makespan", "ns", Better::Lower, v).with("steal", true);
        let bound = |on: &Row| Bound::Ratio {
            num: off.id(),
            den: on.id(),
            floor: 1.5,
            hard: false,
        };
        let pass = |v| {
            let on = on(v);
            gate(&[off.clone(), on.clone()], None, &[bound(&on)])[0].pass
        };
        assert!(pass(100.0));
        assert!(!pass(100.1));
    }

    #[test]
    fn limit_is_a_ceiling_for_lower_better_rows() {
        let r = row("wakeup", Better::Lower, 1000.0);
        let limit = |limit| Bound::Limit { row: r.id(), limit };
        assert!(gate(std::slice::from_ref(&r), None, &[limit(1000.0)])[0].pass);
        let over = &gate(std::slice::from_ref(&r), None, &[limit(999.0)])[0];
        assert!(!over.pass && over.hard, "a limit is never waived");
    }

    #[test]
    fn unparsable_baseline_row_fails_the_gate() {
        let old = "{\n  \"results\": [\n    {\"kind\": \"pingpong_loopback\", \"after\": 259.0}\n  ]\n}\n";
        let checks = gate(&[row("c", Better::Lower, 1.0)], Some(old), &[]);
        assert!(checks
            .iter()
            .any(|c| !c.pass && c.what.contains("unparsable")));
    }

    #[test]
    fn baseline_without_a_matching_row_fails_the_gate() {
        let fresh = [row("c", Better::Lower, 1.0), row("d", Better::Lower, 1.0)];
        let fails = |base: &str| {
            let bound = Bound::Baseline {
                rows: |r| r.case == "c",
                factor: 1.25,
                slack: 0.0,
            };
            let b = render("t", &[row(base, Better::Lower, 1.0)]);
            gate(&fresh, Some(&b), &[bound]).iter().any(|c| !c.pass)
        };
        assert!(fails("other"), "no row in common");
        assert!(fails("d"), "a row in common, but not one the bound selects");
        assert!(!fails("c"));
    }

    #[test]
    fn checked_in_baselines_parse() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        for entry in std::fs::read_dir(&root).unwrap() {
            let path = entry.unwrap().path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            if name.starts_with("BENCH_") && name.ends_with(".json") {
                let rows = parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
                assert!(!rows.is_empty(), "{name} has no rows");
            }
        }
    }

    #[test]
    fn only_rebaseline_rewrites_the_checked_in_file() {
        let dir =
            std::env::temp_dir().join(format!("converse-bench-report-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let checked_in = dir.join("BENCH_t.json");
        let base = render("t", &[row("c", Better::Lower, 100.0)]);
        std::fs::write(&checked_in, &base).unwrap();
        let mut report = Report {
            file: "t",
            rows: Vec::new(),
            bounds: vec![Bound::Baseline {
                rows: |_| true,
                factor: 1.25,
                slack: 0.0,
            }],
            quiet: true,
        };
        report.rows.push(row("c", Better::Lower, 90.0));
        assert!(!report.settle(&dir, false, false), "passing run");
        report.rows[0].value = 500.0;
        assert!(report.settle(&dir, false, false), "failing run");
        assert_eq!(std::fs::read_to_string(&checked_in).unwrap(), base);
        assert!(dir.join("target/bench/t.json").exists());
        assert!(!report.settle(&dir, true, false), "waived by the flag");
        assert!(std::fs::read_to_string(&checked_in)
            .unwrap()
            .contains("500"));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
