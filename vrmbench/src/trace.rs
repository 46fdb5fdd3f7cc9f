//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer's public functions: name, start, end, parent span, and the id
//! of the verdict (or request) they belong to. Each span also carries
//! the change of every `vrm-obs` counter across the call, read with
//! [`vrm_obs::snapshot`] before and after. Spans stay in memory until
//! the run ends and are then written out as JSON lines.

use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Non-zero counter deltas across the call, sorted by name.
    pub counters: Vec<(String, u64)>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A span recorder; when off, [`Tracer::call`] is a plain call.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` for verdict `id`. Spans
    /// opened inside `f` become its children.
    pub fn call<T>(&mut self, name: &'static str, id: u64, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let before = vrm_obs::snapshot(0).counters;
        let idx = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            id,
            parent,
            start_ns,
            end_ns: start_ns,
            counters: Vec::new(),
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        let end_ns = self.now_ns();
        let after = vrm_obs::snapshot(0).counters;
        let span = &mut self.spans[idx];
        span.end_ns = end_ns;
        span.counters = counter_deltas(&before, &after);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Adds another recorder's spans (e.g. a second client thread's),
    /// re-basing their parent links.
    pub fn merge(&mut self, other: Tracer) {
        let base = self.spans.len();
        let shift = other.epoch.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s.start_ns += shift;
            s.end_ns += shift;
            s
        }));
    }

    /// Self time of span `idx`: its duration minus the part of it its
    /// child spans cover.
    pub fn self_ns(&self, idx: usize) -> u64 {
        let s = &self.spans[idx];
        let children: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(idx))
            .map(|c| (c.start_ns, c.end_ns))
            .collect();
        self_time(s.start_ns, s.end_ns, &children)
    }

    /// Total self time, in ms, of every span named `name`.
    pub fn busy_ms(&self, name: &str) -> f64 {
        let ns: u64 = (0..self.spans.len())
            .filter(|&i| self.spans[i].name == name)
            .map(|i| self.self_ns(i))
            .sum();
        ns as f64 / 1e6
    }

    /// Mean duration, in ms, of the spans named `name` (0 if none).
    pub fn mean_ms(&self, name: &str) -> f64 {
        let durs: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e6)
            .collect();
        crate::stats::mean(&durs)
    }

    /// Summed delta of `counter` across every span named `name`.
    pub fn counter(&self, name: &str, counter: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .flat_map(|s| s.counters.iter())
            .filter(|(c, _)| c == counter)
            .map(|(_, v)| *v)
            .sum()
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let mut w = vrm_obs::json::ObjWriter::new();
            w.field_u64("span", i as u64)
                .field_str("name", s.name)
                .field_u64("id", s.id)
                .field_u64("start_ns", s.start_ns)
                .field_u64("end_ns", s.end_ns)
                .field_u64("self_ns", self.self_ns(i));
            if let Some(p) = s.parent {
                w.field_u64("parent", p as u64);
            }
            let mut c = vrm_obs::json::ObjWriter::new();
            for (name, v) in &s.counters {
                c.field_u64(name, *v);
            }
            w.field_raw("counters", &c.finish());
            out.push_str(&w.finish());
            out.push('\n');
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

fn counter_deltas(before: &[(String, u64)], after: &[(String, u64)]) -> Vec<(String, u64)> {
    after
        .iter()
        .filter_map(|(name, v)| {
            let b = before
                .binary_search_by(|(n, _)| n.as_str().cmp(name))
                .map_or(0, |i| before[i].1);
            (*v > b).then(|| (name.clone(), v - b))
        })
        .collect()
}

/// `end - start` minus the length of the union of `children`, each
/// clipped to `[start, end]`.
pub fn self_time(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    let mut iv: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.clamp(start, end), e.clamp(start, end)))
        .filter(|(s, e)| e > s)
        .collect();
    iv.sort_unstable();
    let mut covered = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in iv {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                covered += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        covered += ce - cs;
    }
    (end - start) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        assert_eq!(self_time(0, 100, &[]), 100);
        // Disjoint children.
        assert_eq!(self_time(0, 100, &[(10, 20), (30, 50)]), 70);
        // Overlapping children (two client threads) count once.
        assert_eq!(self_time(0, 100, &[(10, 40), (30, 60)]), 50);
        // Nested and touching intervals.
        assert_eq!(self_time(0, 100, &[(10, 60), (20, 30), (60, 70)]), 40);
        // Children are clipped to the parent.
        assert_eq!(self_time(50, 100, &[(0, 60), (90, 200)]), 30);
        // Fully covered.
        assert_eq!(self_time(0, 10, &[(0, 10)]), 0);
    }

    #[test]
    fn tracer_links_children_and_keeps_off_runs_free() {
        let mut t = Tracer::new(true);
        let v = t.call("outer", 7, |t| {
            t.call("inner", 7, |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            3
        });
        assert_eq!(v, 3);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].id, 7);
        assert_eq!(t.self_ns(0), spans[0].dur_ns() - spans[1].dur_ns());
        assert!(t.busy_ms("inner") >= 2.0);

        let mut off = Tracer::new(false);
        assert_eq!(off.call("x", 0, |_| 5), 5);
        assert!(off.spans().is_empty());
    }

    #[test]
    fn counter_deltas_cover_new_and_grown_counters() {
        let before = vec![("a".to_string(), 1), ("b".to_string(), 5)];
        let after = vec![
            ("a".to_string(), 4),
            ("b".to_string(), 5),
            ("c".to_string(), 2),
        ];
        assert_eq!(
            counter_deltas(&before, &after),
            vec![("a".to_string(), 3), ("c".to_string(), 2)]
        );
    }
}
