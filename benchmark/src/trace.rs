//! In-memory spans recorded around the benchmark's calls into the harness.
//!
//! The span tree of one traced pass is pass → {`harness.expand`, one
//! `harness.scenario` per scenario, `harness.report`, `harness.json`}, and
//! scenario → {`harness.resolve`, `harness.build`, `harness.run`,
//! `harness.collect`}. The scenario children are laid end to end from the
//! contiguous phase laps `Scenario::run_phased_in` reports, so they tile
//! their parent; self time is a span's duration minus its children's.

use harness::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// One timed interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Index in [`Trace::spans`].
    pub id: u64,
    /// The enclosing span (`None` for a pass).
    pub parent: Option<u64>,
    /// Layer name, `harness.<step>`.
    pub name: &'static str,
    /// Workload of the pass.
    pub workload: &'static str,
    /// Pass index within the workload.
    pub pass: u64,
    /// Start, nanoseconds since the trace began.
    pub start_ns: u64,
    /// End, nanoseconds since the trace began.
    pub end_ns: u64,
}

/// Every span of a run, kept in memory until the run ends.
#[derive(Debug, Clone)]
pub struct Trace {
    origin: Instant,
    /// Spans in recording order; a span's id is its index.
    pub spans: Vec<Span>,
}

impl Default for Trace {
    fn default() -> Self {
        Trace {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Trace {
    /// Appends a span and returns its id.
    pub fn push(
        &mut self,
        parent: Option<u64>,
        name: &'static str,
        (workload, pass): (&'static str, u64),
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = self.spans.len() as u64;
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            id,
            parent,
            name,
            workload,
            pass,
            start_ns: at(start),
            end_ns: at(end),
        });
        id
    }

    /// Self time of every span, indexed by id.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(parent) = s.parent {
                let p = parent as usize;
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    /// Per traced pass of `workload`: summed self time by span name, plus
    /// the pass's wall time under the key `"pass"`.
    pub fn pass_layers(&self, workload: &str) -> Vec<BTreeMap<&'static str, u64>> {
        let own = self.self_ns();
        let mut passes: BTreeMap<u64, BTreeMap<&'static str, u64>> = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(own) {
            if s.workload != workload {
                continue;
            }
            let layers = passes.entry(s.pass).or_default();
            *layers.entry(s.name).or_default() += self_ns;
            if s.parent.is_none() {
                layers.insert("pass", s.end_ns - s.start_ns);
            }
        }
        passes.into_values().collect()
    }

    /// The `trace.json` document.
    pub fn to_json(&self) -> Json {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Json::obj()
                    .with("id", Json::U64(s.id))
                    .with("parent", s.parent.map_or(Json::Null, Json::U64))
                    .with("name", Json::str(s.name))
                    .with("workload", Json::str(s.workload))
                    .with("pass", Json::U64(s.pass))
                    .with("start_ns", Json::U64(s.start_ns))
                    .with("end_ns", Json::U64(s.end_ns))
            })
            .collect();
        Json::obj()
            .with("schema_version", Json::U64(1))
            .with("kind", Json::str("benchmark-trace"))
            .with("spans", Json::Arr(spans))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Trace::default();
        let t0 = t.origin;
        let ms = |n: u64| t0 + Duration::from_millis(n);
        let pass = t.push(None, "harness.pass", ("w", 0), ms(0), ms(10));
        let sc = t.push(Some(pass), "harness.scenario", ("w", 0), ms(1), ms(9));
        t.push(Some(sc), "harness.run", ("w", 0), ms(1), ms(8));
        assert_eq!(t.self_ns(), vec![2_000_000, 1_000_000, 7_000_000]);
        let layers = t.pass_layers("w");
        assert_eq!(layers.len(), 1);
        assert_eq!(layers[0]["pass"], 10_000_000);
        assert_eq!(layers[0]["harness.run"], 7_000_000);
        assert!(t.pass_layers("other").is_empty());
    }
}
