//! The traced run's span recorder. Spans are opened and closed by the
//! benchmark around its own calls into the library; nothing inside the
//! library is instrumented. Spans stay in memory and are written out once,
//! when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub task: u32,
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Process CPU time spent inside the span, all threads, when asked for.
    pub cpu_ns: Option<u64>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<(u32, u64)>,
    task: u32,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            task: 0,
        }
    }

    /// Spans opened from now on belong to task `id`.
    pub fn set_task(&mut self, id: u32) {
        self.task = id;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span as a child of the innermost open one. With `cpu`, the
    /// process CPU clock is read at both ends as well.
    pub fn open(&mut self, name: &'static str, cpu: bool) {
        let cpu0 = if cpu { crate::sys::process_cpu_ns() } else { 0 };
        let parent = self.open.last().map_or(NO_PARENT, |&(i, _)| i);
        let idx = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            task: self.task,
            parent,
            start_ns,
            end_ns: start_ns,
            cpu_ns: cpu.then_some(0),
        });
        self.open.push((idx, cpu0));
    }

    /// Close the innermost open span.
    pub fn close(&mut self) {
        let end = self.now_ns();
        let (idx, cpu0) = self.open.pop().expect("close without open span");
        let span = &mut self.spans[idx as usize];
        span.end_ns = end;
        if span.cpu_ns.is_some() {
            span.cpu_ns = Some(crate::sys::process_cpu_ns().saturating_sub(cpu0));
        }
    }

    /// Number of open spans.
    pub fn depth(&self) -> usize {
        self.open.len()
    }

    /// Close open spans until `depth` remain.
    pub fn close_to(&mut self, depth: usize) {
        while self.open.len() > depth {
            self.close();
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write every span as one CSV row.
    pub fn write_csv(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id,task,parent,name,start_ns,end_ns,cpu_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                String::new()
            } else {
                s.parent.to_string()
            };
            let cpu = s.cpu_ns.map(|c| c.to_string()).unwrap_or_default();
            writeln!(
                out,
                "{i},{},{parent},{},{},{},{cpu}",
                s.task, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover. Children of one parent may overlap (spans from
/// different threads) or stick out of the parent; only the union of their
/// intervals clipped to the parent counts, so the self times of a tree
/// partition its root's duration exactly.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            children[s.parent as usize].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Per span name: calls, total duration, self time and CPU time.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct NameTotals {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    pub cpu_ns: u64,
}

pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let t = out.entry(s.name).or_default();
        t.calls += 1;
        t.total_ns += s.dur_ns();
        t.self_ns += self_ns;
        t.cpu_ns += s.cpu_ns.unwrap_or(0);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            task: 0,
            parent,
            start_ns,
            end_ns,
            cpu_ns: None,
        }
    }

    #[test]
    fn self_time_partitions_nested_spans() {
        // task [0,100) > a [10,40) > a.x [15,25); task > b [50,90)
        let spans = [
            span("task", NO_PARENT, 0, 100),
            span("a", 0, 10, 40),
            span("a.x", 1, 15, 25),
            span("b", 0, 50, 90),
        ];
        let st = self_times(&spans);
        assert_eq!(st, vec![100 - 30 - 40, 30 - 10, 10, 40]);
        assert_eq!(st.iter().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_and_protruding_children_count_once() {
        // Two children overlapping on [30,40), one sticking out past the
        // parent's end: covered = union of [20,40) ∪ [30,60) clipped to
        // [0,50) = [20,50) = 30.
        let spans = [
            span("p", NO_PARENT, 0, 50),
            span("c1", 0, 20, 40),
            span("c2", 0, 30, 60),
        ];
        assert_eq!(self_times(&spans)[0], 20);
    }

    #[test]
    fn recorder_nests_and_totals() {
        let mut r = Recorder::new();
        for task in 0..3 {
            r.set_task(task);
            r.open("task", false);
            r.open("blas.soa.dot", false);
            r.close();
            r.open("blas.parallel.dot", true);
            r.close();
            r.close();
        }
        let spans = r.spans();
        assert_eq!(spans.len(), 9);
        assert_eq!(spans[1].parent, 0);
        assert_eq!(spans[5].parent, 3);
        assert_eq!(spans[8].task, 2);
        let t = totals_by_name(spans);
        assert_eq!(t["task"].calls, 3);
        assert_eq!(t["blas.parallel.dot"].calls, 3);
        let child = t["blas.soa.dot"].total_ns + t["blas.parallel.dot"].total_ns;
        assert_eq!(t["task"].self_ns + child, t["task"].total_ns);
    }
}
