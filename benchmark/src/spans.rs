//! Spans recorded by the benchmark's own files around every call into a
//! layer's public function (no span lives inside the engine — that is a
//! later issue). Spans stay in memory until the run ends; self time is a
//! span's duration minus the part of it its children cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::ops::Range;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    /// The span that caused this one.
    pub parent: Option<u32>,
    /// Engine layer (crate/module name), or `bench` for harness work.
    pub layer: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Spans of one operation share this identifier.
    pub op: u32,
    /// Chrome-trace thread lane (0 = the calling thread, 1.. = workers).
    pub lane: u16,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans on one thread; intervals measured elsewhere (worker
/// morsels from the engine's own trace events, client threads of the
/// open-loop run) are added after the fact with [`Recorder::add`].
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the recorder was created.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// `at` on the recorder's clock (instants before the epoch map to 0).
    pub fn ns_at(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Record a closed interval; returns its id.
    pub fn add(
        &mut self,
        parent: Option<u32>,
        layer: &'static str,
        name: &'static str,
        interval_ns: Range<u64>,
        op: u32,
        lane: u16,
    ) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent,
            layer,
            name,
            start_ns: interval_ns.start,
            end_ns: interval_ns.end.max(interval_ns.start),
            op,
            lane,
        });
        id
    }

    /// Time `f` as a span on the calling thread.
    pub fn time<R>(
        &mut self,
        parent: Option<u32>,
        layer: &'static str,
        name: &'static str,
        op: u32,
        f: impl FnOnce() -> R,
    ) -> (u32, R) {
        let start = self.now_ns();
        let r = f();
        let end = self.now_ns();
        (self.add(parent, layer, name, start..end, op, 0), r)
    }

    /// Re-open a span created with a placeholder end (root spans are
    /// added first so children can name them as parent).
    pub fn close(&mut self, id: u32, end_ns: u64) {
        let s = &mut self.spans[id as usize];
        s.end_ns = end_ns.max(s.start_ns);
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Direct children of every span as intervals clipped to the parent.
    fn clipped_children(&self) -> Vec<Vec<(u64, u64, usize)>> {
        let mut children = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                let parent = &self.spans[p as usize];
                let lo = s.start_ns.max(parent.start_ns);
                let hi = s.end_ns.min(parent.end_ns);
                if hi > lo {
                    children[p as usize].push((lo, hi, i));
                }
            }
        }
        for kids in &mut children {
            kids.sort_unstable();
        }
        children
    }

    /// Length of the union of sorted intervals.
    fn cover(kids: &[(u64, u64, usize)]) -> u64 {
        let (mut covered, mut reach) = (0, 0);
        for &(lo, hi, _) in kids {
            let lo = lo.max(reach);
            if hi > lo {
                covered += hi - lo;
                reach = hi;
            }
        }
        covered
    }

    /// Self time per span id: duration minus the union of its direct
    /// children's intervals clipped to the span (overlapping children —
    /// two workers inside one call — are covered once).
    pub fn self_times(&self) -> Vec<u64> {
        self.spans
            .iter()
            .zip(self.clipped_children())
            .map(|(s, kids)| s.duration_ns().saturating_sub(Recorder::cover(&kids)))
            .collect()
    }

    /// Self time per layer **along the blocking path**, largest first:
    /// every nanosecond of a root span is charged to exactly one layer,
    /// so the shares add up to the operations' wall time. Where children
    /// overlap (parallel workers), the interval they cover together is
    /// split between them in proportion to their lengths — two workers
    /// busy for the same 3 ms charge their layer 3 ms, not 6.
    pub fn self_time_by_layer(&self) -> Vec<(&'static str, u64)> {
        let children = self.clipped_children();
        // Wall nanoseconds one nanosecond of the span stands for; parents
        // precede their children, so one forward sweep settles it.
        let mut weight = vec![1.0f64; self.spans.len()];
        let mut by_layer: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let kids = &children[i];
            let covered = Recorder::cover(kids);
            let self_ns = s.duration_ns().saturating_sub(covered);
            *by_layer.entry(s.layer).or_default() += weight[i] * self_ns as f64;
            let total: u64 = kids.iter().map(|(lo, hi, _)| hi - lo).sum();
            for &(lo, hi, k) in kids {
                let share = covered as f64 * (hi - lo) as f64 / total as f64;
                weight[k] = weight[i] * share / self.spans[k].duration_ns() as f64;
            }
        }
        let mut ranked: Vec<_> = by_layer
            .into_iter()
            .map(|(layer, ns)| (layer, ns.round() as u64))
            .collect();
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        ranked
    }

    /// Chrome trace-event JSON (`chrome://tracing`, Perfetto): complete
    /// (`"X"`) events, `tid` = lane, microsecond timestamps; `args` carry
    /// the span id, its parent, the operation id and the self time.
    pub fn chrome_trace(&self) -> String {
        let self_times = self.self_times();
        let mut out = String::with_capacity(64 + self.spans.len() * 200);
        out.push_str("{\"traceEvents\":[");
        for (i, (s, self_ns)) in self.spans.iter().zip(self_times).enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{},\"op\":{},\
                 \"self_us\":{:.3}}}}}",
                s.name,
                s.layer,
                s.lane,
                s.start_ns as f64 / 1e3,
                s.duration_ns() as f64 / 1e3,
                s.id,
                parent,
                s.op,
                self_ns as f64 / 1e3,
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_overlapping_children_once() {
        let mut r = Recorder::new();
        let root = r.add(None, "relational", "call", 0..100, 0, 0);
        // Two workers overlap on [20, 60); a third child sticks out past
        // the parent's end and is clipped.
        r.add(Some(root), "kernels", "morsel", 10..60, 0, 1);
        r.add(Some(root), "kernels", "morsel", 20..70, 0, 2);
        r.add(Some(root), "kernels", "morsel", 90..130, 0, 1);
        let st = r.self_times();
        // Covered: [10, 70) ∪ [90, 100) = 70 → self 30.
        assert_eq!(st[root as usize], 30);
        assert_eq!(st[1], 50);
        assert_eq!(st[3], 40);
    }

    #[test]
    fn grandchildren_do_not_reduce_the_grandparent() {
        let mut r = Recorder::new();
        let root = r.add(None, "bench", "op", 0..100, 0, 0);
        let call = r.add(Some(root), "relational", "call", 10..90, 0, 0);
        r.add(Some(call), "kernels", "morsel", 20..80, 0, 1);
        let st = r.self_times();
        assert_eq!(st[root as usize], 20);
        assert_eq!(st[call as usize], 20);
        assert_eq!(st[2], 60);
        let ranked = r.self_time_by_layer();
        assert_eq!(ranked[0], ("kernels", 60));
        assert_eq!(ranked.iter().map(|(_, ns)| ns).sum::<u64>(), 100);
    }

    #[test]
    fn layer_shares_add_up_to_wall_time_under_parallel_children() {
        let mut r = Recorder::new();
        let root = r.add(None, "bench", "op", 0..100, 0, 0);
        let call = r.add(Some(root), "relational", "call", 0..100, 0, 0);
        // Two workers busy over the same 80 ns, each with a nested span.
        let a = r.add(Some(call), "kernels", "morsel", 10..90, 0, 1);
        r.add(Some(call), "kernels", "morsel", 10..90, 0, 2);
        r.add(Some(a), "storage", "read", 10..50, 0, 1);
        let ranked = r.self_time_by_layer();
        let of = |layer: &str| ranked.iter().find(|(l, _)| *l == layer).map_or(0, |x| x.1);
        assert_eq!(of("bench"), 0);
        assert_eq!(of("relational"), 20);
        // 80 ns of wall split between the workers; half of worker 1's
        // share was spent in its nested storage span.
        assert_eq!(of("storage"), 20);
        assert_eq!(of("kernels"), 60);
        assert_eq!(ranked.iter().map(|(_, ns)| ns).sum::<u64>(), 100);
    }

    #[test]
    fn child_outside_parent_covers_nothing() {
        let mut r = Recorder::new();
        let root = r.add(None, "bench", "op", 50..60, 0, 0);
        r.add(Some(root), "vm", "late", 70..80, 0, 0);
        assert_eq!(r.self_times()[root as usize], 10);
    }

    #[test]
    fn chrome_trace_is_valid_json_with_one_event_per_span() {
        let mut r = Recorder::new();
        let (root, _) = r.time(None, "bench", "op", 7, || ());
        r.add(Some(root), "vm", "run", 0..1, 7, 0);
        let v = crate::json::parse(&r.chrome_trace()).unwrap();
        let events = v.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].get("cat").unwrap().as_str(), Some("vm"));
        assert_eq!(
            events[1].get("args").unwrap().get("op").unwrap().as_f64(),
            Some(7.0)
        );
    }
}
