//! Holds the program to `BENCHMARK.json`: every workload's `--smoke` run
//! prints exactly the declared metric names with the declared units, exact
//! metrics repeat bit for bit for one seed, and another seed gives other
//! inputs.

use amr_benchmark::metrics::{Source, PER_LAYER};
use amr_benchmark::workloads::NAMES;
use std::collections::BTreeMap;
use std::process::Command;

/// A minimal JSON value: the repo vendors no JSON crate.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(
            self.s.get(self.i),
            Some(&c),
            "expected {:?} at byte {}",
            c as char,
            self.i
        );
        self.i += 1;
    }

    fn value(&mut self) -> Json {
        self.ws();
        match self.s[self.i] {
            b'{' => {
                self.i += 1;
                let mut fields = Vec::new();
                self.ws();
                if self.s[self.i] == b'}' {
                    self.i += 1;
                    return Json::Obj(fields);
                }
                loop {
                    self.ws();
                    let key = self.string();
                    self.eat(b':');
                    fields.push((key, self.value()));
                    self.ws();
                    self.i += 1;
                    match self.s[self.i - 1] {
                        b',' => continue,
                        b'}' => return Json::Obj(fields),
                        c => panic!("unexpected {:?} in object", c as char),
                    }
                }
            }
            b'[' => {
                self.i += 1;
                let mut items = Vec::new();
                self.ws();
                if self.s[self.i] == b']' {
                    self.i += 1;
                    return Json::Arr(items);
                }
                loop {
                    items.push(self.value());
                    self.ws();
                    self.i += 1;
                    match self.s[self.i - 1] {
                        b',' => continue,
                        b']' => return Json::Arr(items),
                        c => panic!("unexpected {:?} in array", c as char),
                    }
                }
            }
            b'"' => Json::Str(self.string()),
            b't' => self.word("true", Json::Bool(true)),
            b'f' => self.word("false", Json::Bool(false)),
            b'n' => self.word("null", Json::Null),
            _ => {
                let start = self.i;
                while self.i < self.s.len() && b"+-.eE0123456789".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.i]).unwrap();
                Json::Num(
                    text.parse()
                        .unwrap_or_else(|_| panic!("bad number {text:?}")),
                )
            }
        }
    }

    fn word(&mut self, w: &str, v: Json) -> Json {
        assert!(self.s[self.i..].starts_with(w.as_bytes()), "expected {w}");
        self.i += w.len();
        v
    }

    /// Strings without escapes are all either file uses.
    fn string(&mut self) -> String {
        assert_eq!(self.s[self.i], b'"');
        let start = self.i + 1;
        let len = self.s[start..]
            .iter()
            .position(|&c| c == b'"')
            .expect("unterminated string");
        let text = std::str::from_utf8(&self.s[start..start + len]).unwrap();
        assert!(!text.contains('\\'), "escapes are not supported: {text}");
        self.i = start + len + 1;
        text.to_string()
    }
}

fn parse(text: &str) -> Json {
    let mut p = Parser {
        s: text.as_bytes(),
        i: 0,
    };
    let v = p.value();
    p.ws();
    assert_eq!(p.i, p.s.len(), "trailing bytes after the JSON value");
    v
}

impl Json {
    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(fields) => fields
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .unwrap_or_else(|| panic!("no key {key}")),
            other => panic!("{other:?} is not an object"),
        }
    }
    fn keys(&self) -> Vec<&str> {
        match self {
            Json::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
            other => panic!("{other:?} is not an object"),
        }
    }
    fn items(&self) -> &[Json] {
        match self {
            Json::Arr(items) => items,
            other => panic!("{other:?} is not an array"),
        }
    }
    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("{other:?} is not a string"),
        }
    }
    fn num(&self) -> f64 {
        match self {
            Json::Num(n) => *n,
            other => panic!("{other:?} is not a number"),
        }
    }
}

fn declared() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
}

/// name → unit of one declared metric list.
fn declared_metrics(spec: &Json, list: &str) -> BTreeMap<String, String> {
    spec.get(list)
        .items()
        .iter()
        .map(|m| {
            (
                m.get("name").str().to_string(),
                m.get("unit").str().to_string(),
            )
        })
        .collect()
}

/// name → (value, unit) of one `--smoke` run's result line.
fn smoke(workload: &str, seed: u64, trace: u8) -> BTreeMap<String, (f64, String)> {
    let out = Command::new(env!("CARGO_BIN_EXE_amr-benchmark"))
        .args(["--workload", workload, "--seconds", "1", "--smoke"])
        .args(["--seed", &seed.to_string(), "--trace", &trace.to_string()])
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        out.status.success(),
        "{workload} --trace {trace} exited with {}:\n{stdout}",
        out.status
    );
    let result = parse(stdout.lines().last().expect("a result line"));
    assert_eq!(result.keys(), ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(result.get("correct"), &Json::Bool(true));
    assert!(result.get("attempted").num() >= 1.0);
    assert_eq!(result.get("failed").num(), 0.0);
    let metrics = result.get("metrics");
    metrics
        .keys()
        .into_iter()
        .map(|name| {
            let m = metrics.get(name);
            assert_eq!(m.keys(), ["value", "unit"], "{name}");
            (
                name.to_string(),
                (m.get("value").num(), m.get("unit").str().to_string()),
            )
        })
        .collect()
}

fn well_formed(s: &str, extra: &str, max: usize) -> bool {
    !s.is_empty()
        && s.len() <= max
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
}

#[test]
fn benchmark_json_is_within_the_contract() {
    let spec = declared();
    assert_eq!(
        spec.keys(),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    assert_eq!(spec.get("paths").items(), [Json::Str("benchmark".into())]);
    let seconds = spec.get("run_seconds").num();
    assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);
    // The driver makes 4 + 22 runs per workload and two builds inside 3420 s.
    // A run lasts `run_seconds` + ~3 s in the host's slow regime (README);
    // keep two minutes for the builds and 15 % in reserve.
    let runs = 4.0 + 22.0 * spec.get("workloads").items().len() as f64;
    assert!(
        runs * (seconds + 3.0) <= (3420.0 - 120.0) * 0.85,
        "{runs} runs of {seconds} s do not fit the driver's time cap"
    );

    let workloads: Vec<&str> = spec
        .get("workloads")
        .items()
        .iter()
        .map(|w| {
            assert_eq!(w.keys(), ["name", "why"]);
            let why = w.get("why").str();
            assert!(
                why.len() <= 200 && !why.contains('\n'),
                "why of {:?}",
                w.get("name")
            );
            w.get("name").str()
        })
        .collect();
    assert_eq!(workloads, NAMES);

    let e2e = spec.get("end_to_end").items();
    let layers = spec.get("per_layer").items();
    assert!((1..=16).contains(&e2e.len()) && (1..=128).contains(&layers.len()));
    let mut names = Vec::new();
    for m in e2e {
        assert_eq!(m.keys(), ["name", "unit", "better", "bound"]);
        let bound = m.get("bound").num();
        assert!(bound > 0.0 && bound <= 0.25, "bound of {:?}", m.get("name"));
    }
    for m in layers {
        assert_eq!(m.keys(), ["name", "unit", "better"]);
    }
    for m in e2e.iter().chain(layers) {
        let name = m.get("name").str();
        assert!(
            well_formed(name, "_.-", 64) && name.starts_with(|c: char| c.is_ascii_alphanumeric()),
            "{m:?}"
        );
        assert!(well_formed(m.get("unit").str(), "_/%.-", 16), "{m:?}");
        assert!(
            ["lower", "higher"].contains(&m.get("better").str()),
            "{m:?}"
        );
        names.push(m.get("name").str());
    }
    names.extend(&workloads);
    let count = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), count, "a name is used twice");
    let setup = e2e
        .iter()
        .find(|m| m.get("name").str() == "setup_s")
        .expect("setup_s");
    assert_eq!(
        (setup.get("unit").str(), setup.get("better").str()),
        ("s", "lower")
    );
}

#[test]
fn every_workload_prints_exactly_the_declared_metrics() {
    let spec = declared();
    for (list, trace) in [("end_to_end", 0), ("per_layer", 1)] {
        let want = declared_metrics(&spec, list);
        for workload in NAMES {
            let got: BTreeMap<String, String> = smoke(workload, 7, trace)
                .into_iter()
                .map(|(name, (_, unit))| (name, unit))
                .collect();
            assert_eq!(got, want, "{workload} --trace {trace}");
        }
    }
    // The program's own table and the declaration list the same layers.
    let table: BTreeMap<String, String> = PER_LAYER
        .iter()
        .map(|p| (p.name.to_string(), p.unit.to_string()))
        .collect();
    assert_eq!(table, declared_metrics(&spec, "per_layer"));
}

#[test]
fn exact_metrics_repeat_for_a_seed_and_virtual_time_follows_it() {
    for workload in NAMES {
        let a = smoke(workload, 11, 1);
        let b = smoke(workload, 11, 1);
        for p in PER_LAYER.iter().filter(|p| p.source == Source::Exact) {
            assert_eq!(
                a[p.name].0.to_bits(),
                b[p.name].0.to_bits(),
                "{workload}: {} differs between two runs of one seed",
                p.name
            );
        }
        let virt = |seed| smoke(workload, seed, 0)["virt_ms"].0;
        assert_eq!(
            virt(11).to_bits(),
            virt(11).to_bits(),
            "{workload}: virt_ms"
        );
        assert!(virt(11) > 0.0);

        // The seed drives the simulated machine's jitter stream, not the
        // meshes (README): virtual time follows it, the amount of work does
        // not.
        assert_ne!(virt(11), virt(12), "{workload}: virt_ms ignores the seed");
        let c = smoke(workload, 12, 1);
        assert_eq!(
            a["mesh.blocks"].0, c["mesh.blocks"].0,
            "{workload}: mesh.blocks"
        );
    }
}
