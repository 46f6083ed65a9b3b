//! Spans recorded by the benchmark around each call into a layer's
//! public function. Spans are kept in memory and written out at the end
//! of a traced run, together with a per-name fold (count, total time,
//! self time).

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

use crate::json::J;

pub type SpanId = usize;

#[derive(Debug, Clone)]
struct Rec {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<SpanId>,
    /// The query or request the span belongs to.
    req: u64,
}

/// Per-name totals of a span fold. Self time is a span's duration minus
/// the time its children cover.
#[derive(Debug, Clone, Copy, Default)]
pub struct Fold {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Rec>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Rec>> {
        self.spans
            .lock()
            .expect("span list poisoned by a panicking thread")
    }

    pub fn begin(&self, name: &'static str, parent: Option<SpanId>, req: u64) -> SpanId {
        let start_ns = self.now_ns();
        let mut spans = self.lock();
        spans.push(Rec {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            req,
        });
        spans.len() - 1
    }

    pub fn end(&self, id: SpanId) -> u64 {
        let end = self.now_ns();
        let mut spans = self.lock();
        spans[id].end_ns = end;
        end - spans[id].start_ns
    }

    /// Runs `f` inside a span.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        req: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(name, parent, req);
        let r = f();
        self.end(id);
        r
    }

    pub fn fold(&self) -> BTreeMap<&'static str, Fold> {
        let spans = self.lock();
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, Fold> = BTreeMap::new();
        for (i, s) in spans.iter().enumerate() {
            let f = out.entry(s.name).or_default();
            let d = s.end_ns - s.start_ns;
            f.count += 1;
            f.total_ns += d;
            f.self_ns += d.saturating_sub(child_ns[i]);
        }
        out
    }

    /// The spans and the fold as one JSON document.
    pub fn to_json(&self, header: Vec<(&str, J)>) -> J {
        let fold = self
            .fold()
            .into_iter()
            .map(|(name, f)| {
                (
                    name.to_string(),
                    J::obj(vec![
                        ("count", J::Int(f.count as i64)),
                        ("total_ms", J::Num(f.total_ns as f64 / 1e6)),
                        ("self_ms", J::Num(f.self_ns as f64 / 1e6)),
                    ]),
                )
            })
            .collect();
        let spans = self
            .lock()
            .iter()
            .enumerate()
            .map(|(i, s)| {
                J::obj(vec![
                    ("id", J::Int(i as i64)),
                    ("name", J::str(s.name)),
                    ("start_us", J::Num(s.start_ns as f64 / 1e3)),
                    ("end_us", J::Num(s.end_ns as f64 / 1e3)),
                    ("parent", s.parent.map_or(J::Int(-1), |p| J::Int(p as i64))),
                    ("req", J::Int(s.req as i64)),
                ])
            })
            .collect();
        let mut fields = header;
        fields.push(("fold", J::Obj(fold)));
        fields.push(("spans", J::Arr(spans)));
        J::obj(fields)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fold_subtracts_children() {
        let t = Tracer::new();
        let root = t.begin("root", None, 1);
        t.span("child", Some(root), 1, || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        t.span("child", Some(root), 1, || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        t.end(root);
        let f = t.fold();
        assert_eq!(f["child"].count, 2);
        assert_eq!(f["root"].count, 1);
        assert!(f["root"].total_ns >= f["child"].total_ns);
        assert_eq!(f["root"].self_ns, f["root"].total_ns - f["child"].total_ns);
    }
}
