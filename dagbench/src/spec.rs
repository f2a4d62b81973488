//! The benchmark's definition, read from `BENCHMARK.json` at build time so
//! the names, units and regression bounds exist in one place.

use dagscope_serve::Json;

const SPEC: &str = include_str!("../../BENCHMARK.json");
const PINS: &str = include_str!("../pins.json");

pub struct Metric {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may worsen; end
    /// to end metrics only.
    pub bound: f64,
}

impl Metric {
    /// True when `a` reads better than `b`.
    pub fn better(&self, a: f64, b: f64) -> bool {
        if self.higher_is_better {
            a > b
        } else {
            a < b
        }
    }

    /// How much worse `b` is than `a`, as a share of `a` (negative when
    /// better).
    pub fn worsening(&self, a: f64, b: f64) -> f64 {
        let rel = (b - a) / a.abs().max(f64::MIN_POSITIVE);
        if self.higher_is_better {
            -rel
        } else {
            rel
        }
    }
}

pub struct Spec {
    pub workloads: Vec<String>,
    pub run_seconds: f64,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

fn field<'a>(doc: &'a Json, key: &str) -> Result<&'a Json, String> {
    doc.get(key)
        .ok_or_else(|| format!("BENCHMARK.json: missing {key:?}"))
}

fn text(doc: &Json, key: &str) -> Result<String, String> {
    field(doc, key)?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| format!("BENCHMARK.json: {key:?} is not a string"))
}

fn metrics(doc: &Json, key: &str) -> Result<Vec<Metric>, String> {
    let list = field(doc, key)?
        .as_arr()
        .ok_or_else(|| format!("BENCHMARK.json: {key:?} is not a list"))?;
    list.iter()
        .map(|m| {
            Ok(Metric {
                name: text(m, "name")?,
                unit: text(m, "unit")?,
                higher_is_better: text(m, "better")? == "higher",
                bound: m.get("bound").and_then(Json::as_num).unwrap_or(0.0),
            })
        })
        .collect()
}

impl Spec {
    pub fn load() -> Result<Spec, String> {
        let doc = Json::parse(SPEC).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let workloads = field(&doc, "workloads")?
            .as_arr()
            .ok_or("BENCHMARK.json: \"workloads\" is not a list")?
            .iter()
            .map(|w| text(w, "name"))
            .collect::<Result<_, _>>()?;
        Ok(Spec {
            workloads,
            run_seconds: field(&doc, "run_seconds")?
                .as_num()
                .ok_or("BENCHMARK.json: \"run_seconds\" is not a number")?,
            end_to_end: metrics(&doc, "end_to_end")?,
            per_layer: metrics(&doc, "per_layer")?,
        })
    }
}

/// The pinned output checksum of `workload` at `seed`, if one is pinned.
pub fn pin(workload: &str, seed: u64) -> Result<Option<u64>, String> {
    let doc = Json::parse(PINS).map_err(|e| format!("pins.json: {e}"))?;
    let Some(hex) = doc
        .get(workload)
        .and_then(|w| w.get(&seed.to_string()))
        .and_then(Json::as_str)
    else {
        return Ok(None);
    };
    u64::from_str_radix(hex, 16)
        .map(Some)
        .map_err(|_| format!("pins.json: {workload}/{seed} is not a hex checksum"))
}
