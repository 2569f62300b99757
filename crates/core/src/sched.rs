//! DAG-aware stage scheduler: one dispatch loop over two kinds of edge.
//!
//! A plan's stages form a dependency DAG. A *hard* edge is a barrier:
//! the consumer starts after the producer completes. A *soft* edge is a
//! pipeline: the consumer starts once the producer has merely launched
//! and streams its output partitions as they commit (a
//! `StreamedIntermediate` hand-off, DESIGN.md §15). Barrier scheduling
//! is the same loop with no soft edges.
//!
//! Shape: a ready-queue + completion-channel scheduler. The calling
//! thread is the dispatcher; it pushes ready stage ids (lowest id first)
//! into a FIFO work channel, `threads` scoped workers pull, execute, and
//! send `(id, Result)` back on a completion channel, and the dispatcher
//! retires completions, unlocking children whose last edge was just
//! satisfied. A soft edge is satisfied when its producer is enqueued, so
//! a soft chain enqueues in one pass, producer before consumer.
//!
//! Inline launch: with `threads <= 1` (or a single stage) the same loop
//! spawns no workers — the dispatcher runs each stage itself, one at a
//! time, retiring it before it pops the next. One worker cannot run a
//! producer and the consumer of its bounded stream at once, so soft
//! edges count as hard ones in that case.
//!
//! Determinism: results are keyed by stage id (not completion order),
//! every stage's execution is itself deterministic given its inputs, and
//! a stage only starts after its dependencies allow — so the returned
//! `Vec<T>` is identical whatever the interleaving. The ready queue pops
//! the lowest stage id first, which makes the inline order exactly the
//! plan order for the linear chains the SQL planner emits today.
//!
//! Failure: when a stage errors the dispatcher stops launching new
//! stages but keeps draining completions until every in-flight stage
//! has finished. The caller (driver engine-fallback) can therefore
//! delete partial outputs without racing still-running sibling stages.
//!
//! Observability: each stage gets a `sched.wait` span (ready → start)
//! and a `sched.run` span on its own `stage{id}` track, and the
//! `sched.max.concurrent` gauge records the peak number of stages
//! executing at once (never above the thread cap).

use hdm_common::error::{HdmError, Result};
use hdm_common::CancelToken;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicI64, Ordering};
use std::time::Instant;

/// Dependency edges: `deps[i]` lists the stages stage `i` waits on
/// (what [`QueryPlan::dag`] returns).
///
/// [`QueryPlan::dag`]: crate::physical::QueryPlan::dag
type Deps = [Vec<usize>];

/// [`run_dag_pipelined`] over barrier edges only.
///
/// # Errors
/// As [`run_dag_pipelined`].
pub fn run_dag<T, F>(
    deps: &Deps,
    threads: usize,
    obs: &hdm_obs::ObsHandle,
    cancel: &CancelToken,
    run: F,
) -> Result<Vec<T>>
where
    T: Send,
    F: Fn(usize) -> Result<T> + Sync,
{
    run_dag_pipelined(
        deps,
        &vec![Vec::new(); deps.len()],
        threads,
        obs,
        cancel,
        run,
    )
}

/// Run every node of a dependency DAG through `run`, at most `threads`
/// at a time, and return the per-stage results indexed by stage id.
///
/// `hard[i]` stages must *complete* before stage `i` starts, `soft[i]`
/// stages only need to have *launched*. The work queue is FIFO and a
/// soft edge is satisfied at enqueue time, so a producer is always
/// dequeued no later than its consumer. With `threads <= 1` or a single
/// stage the dispatcher runs the stages inline and soft edges count as
/// hard ones. Duplicate edges collapse; a soft edge that repeats a hard
/// one is dropped (the hard edge is stricter).
///
/// `run` must be safe to call from worker threads (`Sync`); it receives
/// the stage id.
///
/// # Errors
/// - [`HdmError::Plan`] if `hard` and `soft` disagree on the stage
///   count, reference an out-of-range stage, or together contain a
///   cycle (nothing is executed in that case).
/// - The error of a failed stage, after all in-flight stages have
///   drained. When several stages fail, the lowest-id failure wins.
/// - [`HdmError::Cancelled`] if `cancel` fired: the dispatcher stops
///   launching ready stages, drains everything in flight, and the
///   cancellation shadows any stage error (a torn-down query must not
///   look like a fault to the retry/fallback machinery).
pub fn run_dag_pipelined<T, F>(
    hard: &Deps,
    soft: &Deps,
    threads: usize,
    obs: &hdm_obs::ObsHandle,
    cancel: &CancelToken,
    run: F,
) -> Result<Vec<T>>
where
    T: Send,
    F: Fn(usize) -> Result<T> + Sync,
{
    let n = hard.len();
    let inline = threads <= 1 || n == 1;
    let mut edges = Edges::of(hard, soft, inline)?;
    if n == 0 {
        return Ok(Vec::new());
    }
    let mut ready = edges.roots();
    let inst = Instruments::new(obs);
    let (inst, run) = (&inst, &run);
    let mut results: Vec<Option<T>> = (0..n).map(|_| None).collect();
    let mut failure: Option<(usize, HdmError)> = None;

    let (work_tx, work_rx) = crossbeam::channel::unbounded::<(usize, Instant)>();
    let (done_tx, done_rx) = crossbeam::channel::unbounded::<(usize, Result<T>)>();

    let workers = if inline { 0 } else { threads.min(n) };
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let work_rx = work_rx.clone();
            let done_tx = done_tx.clone();
            scope.spawn(move || {
                // hdm-allow(unbounded-blocking): in-process work queue; the dispatcher below provably closes it on exit
                while let Ok((stage, ready_at)) = work_rx.recv() {
                    // The dispatcher queues every ready stage eagerly, so
                    // "stop launching on cancel" is enforced here: a
                    // queued-but-unstarted stage is retired untouched.
                    let out = if cancel.is_cancelled() {
                        Err(cancel.as_error())
                    } else {
                        inst.run_stage(stage, ready_at, run)
                    };
                    if done_tx.send((stage, out)).is_err() {
                        return;
                    }
                }
            });
        }
        // The dispatcher's own clones must go, so that `work_tx.send` and
        // `done_rx.recv` see disconnect (not a hang) if every worker is
        // gone — except inline, where the dispatcher is the one reporting
        // completions through `done_tx`.
        drop(work_rx);
        let inline_done = inline.then_some(done_tx);
        // Inline, a stage is retired before the next one is popped.
        let launch_cap = if inline { 1 } else { usize::MAX };

        let mut outstanding = 0usize;
        loop {
            if failure.is_none() && cancel.is_cancelled() {
                // Cancellation = drain mode: launch nothing further,
                // keep retiring whatever is in flight below.
                failure = Some((usize::MAX, cancel.as_error()));
            }
            // Launch what is ready, unless a failure put the scheduler
            // into drain mode.
            while failure.is_none() && outstanding < launch_cap {
                let Some(Reverse(stage)) = ready.pop() else {
                    break;
                };
                let now = Instant::now();
                let launched = match &inline_done {
                    Some(done) => done.send((stage, inst.run_stage(stage, now, run))).is_ok(),
                    None => work_tx.send((stage, now)).is_ok(),
                };
                if !launched {
                    break;
                }
                outstanding += 1;
                // Launching satisfies this stage's soft out-edges, so the
                // pop loop cascades down a soft chain in one pass.
                edges.satisfy(stage, Edge::Soft, &mut ready);
            }
            if outstanding == 0 {
                break;
            }
            // hdm-allow(unbounded-blocking): completion channel; every counted in-flight stage is owned by a live scoped worker (or was just sent inline)
            let Ok((stage, out)) = done_rx.recv() else {
                break;
            };
            outstanding -= 1;
            match out {
                Ok(value) => {
                    if let Some(slot) = results.get_mut(stage) {
                        *slot = Some(value);
                    }
                    edges.satisfy(stage, Edge::Hard, &mut ready);
                }
                Err(err) => match &failure {
                    // Keep the lowest-id failure so the surfaced error
                    // does not depend on completion interleaving.
                    Some((first, _)) if *first <= stage => {}
                    _ => failure = Some((stage, err)),
                },
            }
        }
        drop(work_tx); // close the queue: idle workers exit their loop
    });

    if cancel.is_cancelled() {
        // Cancellation shadows whatever the stages returned: the caller
        // must see a terminal Cancelled, never a retryable fault.
        return Err(cancel.as_error());
    }
    match failure {
        Some((_, err)) => Err(err),
        None => collect(results),
    }
}

/// When an edge is satisfied.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Edge {
    /// The producer completed.
    Hard,
    /// The producer launched.
    Soft,
}

/// The validated edge table: how many in-edges each stage still waits
/// on, and every stage's out-edges by kind.
struct Edges {
    pending: Vec<usize>,
    children: Vec<Vec<(usize, Edge)>>,
}

impl Edges {
    /// Build and validate: rejects mismatched tables, out-of-range edges
    /// and cycles (through any mix of edge kinds) before any stage runs.
    /// `fold_soft` records soft edges as hard ones.
    fn of(hard: &Deps, soft: &Deps, fold_soft: bool) -> Result<Edges> {
        let n = hard.len();
        if soft.len() != n {
            return Err(HdmError::Plan(format!(
                "pipelined scheduler: hard/soft dependency tables disagree ({n} vs {} stages)",
                soft.len()
            )));
        }
        let soft_kind = if fold_soft { Edge::Hard } else { Edge::Soft };
        let mut edges = Edges {
            pending: vec![0; n],
            children: vec![Vec::new(); n],
        };
        for (stage, (hard_deps, soft_deps)) in hard.iter().zip(soft).enumerate() {
            // Hard edges first: a soft repeat of one is the duplicate.
            let kinded = hard_deps
                .iter()
                .map(|&dep| (dep, Edge::Hard))
                .chain(soft_deps.iter().map(|&dep| (dep, soft_kind)));
            let mut seen: Vec<usize> = Vec::with_capacity(hard_deps.len() + soft_deps.len());
            for (dep, kind) in kinded {
                if seen.contains(&dep) {
                    continue; // collapse duplicate edges
                }
                seen.push(dep);
                let Some(out) = edges.children.get_mut(dep) else {
                    return Err(HdmError::Plan(format!(
                        "stage {stage} depends on unknown stage {dep} (plan has {n} stages)"
                    )));
                };
                out.push((stage, kind));
                if let Some(p) = edges.pending.get_mut(stage) {
                    *p += 1;
                }
            }
        }
        // Kahn pass over a scratch copy: every stage must be reachable
        // through zero-indegree frontiers, or the "DAG" has a cycle.
        let mut scratch = edges.pending.clone();
        let mut frontier: Vec<usize> = edges.roots().into_iter().map(|Reverse(i)| i).collect();
        let mut visited = 0usize;
        while let Some(node) = frontier.pop() {
            visited += 1;
            for &(child, _) in edges
                .children
                .get(node)
                .map(Vec::as_slice)
                .unwrap_or_default()
            {
                if let Some(d) = scratch.get_mut(child) {
                    *d -= 1;
                    if *d == 0 {
                        frontier.push(child);
                    }
                }
            }
        }
        if visited != n {
            return Err(HdmError::Plan(format!(
                "stage dependency cycle: only {visited} of {n} stages are schedulable"
            )));
        }
        Ok(edges)
    }

    /// Initial ready set: stages waiting on nothing, lowest id first.
    fn roots(&self) -> BinaryHeap<Reverse<usize>> {
        self.pending
            .iter()
            .enumerate()
            .filter(|&(_, &d)| d == 0)
            .map(|(i, _)| Reverse(i))
            .collect()
    }

    /// Satisfy `stage`'s out-edges of `kind`; children left waiting on
    /// nothing become ready.
    fn satisfy(&mut self, stage: usize, kind: Edge, ready: &mut BinaryHeap<Reverse<usize>>) {
        let out = self
            .children
            .get(stage)
            .map(Vec::as_slice)
            .unwrap_or_default();
        for &(child, _) in out.iter().filter(|(_, k)| *k == kind) {
            if let Some(d) = self.pending.get_mut(child) {
                *d -= 1;
                if *d == 0 {
                    ready.push(Reverse(child));
                }
            }
        }
    }
}

/// Shared scheduler instrumentation: the running-stage level (for the
/// `sched.max.concurrent` high-water gauge) plus the obs handle the
/// per-stage spans are recorded into. Disabled obs: the gauge is inert
/// and every span call returns at once.
struct Instruments<'a> {
    obs: &'a hdm_obs::ObsHandle,
    running: AtomicI64,
    peak: hdm_obs::Gauge,
}

impl Instruments<'_> {
    fn new(obs: &hdm_obs::ObsHandle) -> Instruments<'_> {
        Instruments {
            obs,
            running: AtomicI64::new(0),
            peak: obs.gauge("sched.max.concurrent", ""),
        }
    }

    /// Execute one stage: record its queue wait, track the concurrency
    /// level, and wrap the execution in a `sched.run` span on the
    /// stage's own track.
    fn run_stage<T>(
        &self,
        stage: usize,
        ready_at: Instant,
        run: &(impl Fn(usize) -> Result<T> + ?Sized),
    ) -> Result<T> {
        let track = format!("stage{stage}");
        if self.obs.is_enabled() {
            let ready_us = self.obs.micros_since_epoch(ready_at);
            let now_us = self.obs.micros_since_epoch(Instant::now());
            self.obs.record_span_at(
                &track,
                "sched",
                "sched.wait",
                ready_us,
                now_us.saturating_sub(ready_us),
            );
        }
        let level = self.running.fetch_add(1, Ordering::Relaxed) + 1;
        self.peak.record_max(level);
        let span = self.obs.span(&track, "sched", "sched.run");
        let out = run(stage);
        drop(span);
        self.running.fetch_sub(1, Ordering::Relaxed);
        out
    }
}
/// Turn the id-indexed option table into the final result vector. A
/// hole is impossible after a clean acyclic run; surface it as a plan
/// error rather than panicking if an invariant ever breaks.
fn collect<T>(results: Vec<Option<T>>) -> Result<Vec<T>> {
    results
        .into_iter()
        .enumerate()
        .map(|(stage, slot)| {
            slot.ok_or_else(|| {
                HdmError::Plan(format!(
                    "scheduler finished without executing stage {stage}"
                ))
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;
    use std::sync::atomic::AtomicUsize;
    use std::time::Duration;

    fn obs() -> hdm_obs::ObsHandle {
        hdm_obs::ObsHandle::enabled_with_stride(1)
    }

    /// A token that never fires — the no-cancellation default.
    fn never() -> CancelToken {
        CancelToken::default()
    }

    /// Record execution order; return results = stage id * 10.
    fn traced(deps: &Deps, threads: usize) -> (Vec<usize>, Vec<usize>, hdm_obs::ObsSnapshot) {
        let order = Mutex::new(Vec::new());
        let o = obs();
        let out = run_dag(deps, threads, &o, &never(), |stage| {
            order.lock().push(stage);
            Ok(stage * 10)
        })
        .unwrap();
        (out, order.into_inner(), o.snapshot())
    }

    #[test]
    fn empty_dag_is_empty() {
        let r: Vec<usize> = run_dag(&[], 4, &obs(), &never(), Ok).unwrap();
        assert!(r.is_empty());
    }

    #[test]
    fn linear_chain_runs_in_plan_order() {
        let deps = vec![vec![], vec![0], vec![1], vec![2]];
        for threads in [1, 2, 8] {
            let (out, order, _) = traced(&deps, threads);
            assert_eq!(out, vec![0, 10, 20, 30]);
            assert_eq!(order, vec![0, 1, 2, 3], "threads={threads}");
        }
    }

    #[test]
    fn diamond_respects_dependencies() {
        // 0 → {1, 2} → 3
        let deps = vec![vec![], vec![0], vec![0], vec![1, 2]];
        for threads in [1, 2, 8] {
            let (out, order, _) = traced(&deps, threads);
            assert_eq!(out, vec![0, 10, 20, 30]);
            let pos = |s: usize| order.iter().position(|&x| x == s).unwrap();
            assert!(pos(0) < pos(1) && pos(0) < pos(2));
            assert!(pos(1) < pos(3) && pos(2) < pos(3));
        }
    }

    #[test]
    fn sequential_pops_lowest_ready_id_first() {
        // All independent: sequential order must be 0,1,2,3.
        let deps = vec![vec![], vec![], vec![], vec![]];
        let (_, order, _) = traced(&deps, 1);
        assert_eq!(order, vec![0, 1, 2, 3]);
    }

    #[test]
    fn duplicate_edges_collapse() {
        let deps = vec![vec![], vec![0, 0, 0]];
        let (out, order, _) = traced(&deps, 4);
        assert_eq!(out, vec![0, 10]);
        assert_eq!(order, vec![0, 1]);
    }

    #[test]
    fn cycle_is_a_plan_error_and_runs_nothing() {
        let ran = AtomicUsize::new(0);
        let deps = vec![vec![2], vec![0], vec![1]];
        let err = run_dag(&deps, 4, &obs(), &never(), |s| {
            ran.fetch_add(1, Ordering::Relaxed);
            Ok(s)
        })
        .unwrap_err();
        assert!(err.message().contains("cycle"), "{err}");
        assert_eq!(ran.load(Ordering::Relaxed), 0);

        let self_dep = vec![vec![0]];
        assert!(run_dag(&self_dep, 1, &obs(), &never(), Ok).is_err());
    }

    #[test]
    fn out_of_range_dep_is_a_plan_error() {
        let deps = vec![vec![7]];
        let err = run_dag(&deps, 2, &obs(), &never(), Ok).unwrap_err();
        assert!(err.message().contains("unknown stage 7"), "{err}");
    }

    #[test]
    fn independent_stages_overlap_up_to_the_cap() {
        // 6 independent slow stages, cap 3: peak concurrency must reach
        // above 1 (they genuinely overlap) and never exceed 3.
        let deps: Vec<Vec<usize>> = (0..6).map(|_| Vec::new()).collect();
        let o = obs();
        run_dag(&deps, 3, &o, &never(), |s| {
            std::thread::sleep(Duration::from_millis(30));
            Ok(s)
        })
        .unwrap();
        let peak = o
            .snapshot()
            .gauges
            .iter()
            .find(|(n, _, _)| n == "sched.max.concurrent")
            .map(|(_, _, v)| *v)
            .unwrap();
        assert!((2..=3).contains(&peak), "peak concurrency {peak}");
    }

    #[test]
    fn failure_drains_in_flight_siblings_before_returning() {
        // Stage 0 fails fast; stages 1 and 2 are slow siblings. The
        // error must not surface until the siblings finished, and no
        // dependent of the failed stage may start.
        let deps = vec![vec![], vec![], vec![], vec![0]];
        let finished = AtomicUsize::new(0);
        let started_child = AtomicUsize::new(0);
        let err = run_dag(&deps, 4, &obs(), &never(), |s| match s {
            0 => Err(HdmError::Plan("boom".into())),
            3 => {
                started_child.fetch_add(1, Ordering::Relaxed);
                Ok(s)
            }
            _ => {
                std::thread::sleep(Duration::from_millis(40));
                finished.fetch_add(1, Ordering::Relaxed);
                Ok(s)
            }
        })
        .unwrap_err();
        assert!(err.message().contains("boom"));
        assert_eq!(
            finished.load(Ordering::Relaxed),
            2,
            "in-flight siblings must drain before the error surfaces"
        );
        assert_eq!(
            started_child.load(Ordering::Relaxed),
            0,
            "dependents of a failed stage must never start"
        );
    }

    #[test]
    fn lowest_stage_id_failure_wins() {
        let deps = vec![vec![], vec![]];
        for threads in [1, 4] {
            let err = run_dag(
                &deps,
                threads,
                &obs(),
                &never(),
                |s: usize| -> Result<usize> { Err(HdmError::Plan(format!("fail{s}"))) },
            )
            .unwrap_err();
            assert!(err.message().contains("fail0"), "threads={threads}: {err}");
        }
    }

    #[test]
    fn cancel_stops_launching_and_drains_in_flight() {
        // Two slow independent roots hold both workers; two more stages
        // wait in the ready heap. Firing the token mid-run must (a)
        // surface Cancelled, (b) let the in-flight pair finish, and (c)
        // never launch the still-queued pair.
        let deps: Vec<Vec<usize>> = vec![vec![]; 4];
        let token = CancelToken::new();
        let finished = AtomicUsize::new(0);
        let started_late = AtomicUsize::new(0);
        let both_running = std::sync::Barrier::new(2);
        let t = token.clone();
        let err = run_dag(&deps, 2, &obs(), &token, |s| {
            if s < 2 {
                // Both workers are provably mid-stage before the token
                // fires, so neither can be retired from the queue.
                both_running.wait();
                t.cancel("test kill");
                std::thread::sleep(Duration::from_millis(30));
                finished.fetch_add(1, Ordering::Relaxed);
            } else {
                started_late.fetch_add(1, Ordering::Relaxed);
            }
            Ok(s)
        })
        .unwrap_err();
        assert!(err.is_cancelled(), "{err}");
        assert!(err.message().contains("test kill"), "{err}");
        assert_eq!(
            finished.load(Ordering::Relaxed),
            2,
            "in-flight stages must drain, not be abandoned"
        );
        assert_eq!(
            started_late.load(Ordering::Relaxed),
            0,
            "ready-but-unlaunched stages must not start after cancel"
        );
    }

    #[test]
    fn cancel_shadows_stage_errors() {
        // A stage failing *because* the query is being torn down must
        // not leak its fault-shaped error past the scheduler.
        let deps = vec![vec![], vec![]];
        let token = CancelToken::new();
        token.cancel("shutdown");
        for threads in [1, 4] {
            let err = run_dag(
                &deps,
                threads,
                &obs(),
                &token,
                |s: usize| -> Result<usize> { Err(HdmError::Mpi(format!("rank {s} torn down"))) },
            )
            .unwrap_err();
            assert!(err.is_cancelled(), "threads={threads}: {err}");
        }
    }

    #[test]
    fn pre_fired_token_runs_nothing_sequentially() {
        let deps = vec![vec![], vec![0]];
        let token = CancelToken::new();
        token.cancel("dead on arrival");
        let ran = AtomicUsize::new(0);
        let err = run_dag(&deps, 1, &obs(), &token, |s| {
            ran.fetch_add(1, Ordering::Relaxed);
            Ok(s)
        })
        .unwrap_err();
        assert!(err.is_cancelled(), "{err}");
        assert_eq!(ran.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn pipelined_cancel_unwinds_without_hanging() {
        // Soft producer/consumer pair: the consumer parks on a channel
        // the producer only feeds after firing the token. Both drain;
        // the scheduler reports Cancelled.
        let (tx, rx) = crossbeam::channel::bounded::<()>(1);
        let hard = vec![vec![], vec![]];
        let soft = vec![vec![], vec![0]];
        let token = CancelToken::new();
        let t = token.clone();
        let err = run_dag_pipelined(&hard, &soft, 2, &obs(), &token, |stage| {
            match stage {
                0 => {
                    t.cancel("pipelined kill");
                    tx.send(()).map_err(|e| HdmError::Plan(e.to_string()))?;
                }
                _ => {
                    rx.recv_timeout(Duration::from_secs(5))
                        .map_err(|e| HdmError::Plan(format!("producer never ran: {e:?}")))?;
                }
            }
            Ok(stage)
        })
        .unwrap_err();
        assert!(err.is_cancelled(), "{err}");
    }

    #[test]
    fn spans_land_on_per_stage_tracks() {
        let deps = vec![vec![], vec![0]];
        let (_, _, snap) = traced(&deps, 2);
        for stage in 0..2 {
            let track = format!("stage{stage}");
            let names: Vec<&str> = snap
                .spans
                .iter()
                .filter(|s| s.track == track)
                .map(|s| s.name.as_str())
                .collect();
            assert!(names.contains(&"sched.wait"), "{track}: {names:?}");
            assert!(names.contains(&"sched.run"), "{track}: {names:?}");
        }
    }

    #[test]
    fn soft_edge_consumer_overlaps_its_producer() {
        // 0 ──soft──▶ 1. The producer blocks until the consumer answers
        // a handshake mid-run, which is only possible if the consumer
        // launched while the producer was still executing.
        let (token_tx, token_rx) = crossbeam::channel::bounded::<()>(1);
        let (ack_tx, ack_rx) = crossbeam::channel::bounded::<()>(1);
        let hard = vec![vec![], vec![]];
        let soft = vec![vec![], vec![0]];
        let out = run_dag_pipelined(&hard, &soft, 2, &obs(), &never(), |stage| {
            match stage {
                0 => {
                    token_tx
                        .send(())
                        .map_err(|e| HdmError::Plan(e.to_string()))?;
                    ack_rx
                        .recv_timeout(Duration::from_secs(5))
                        .map_err(|e| HdmError::Plan(format!("consumer never ran: {e:?}")))?;
                }
                _ => {
                    token_rx
                        .recv_timeout(Duration::from_secs(5))
                        .map_err(|e| HdmError::Plan(format!("producer never ran: {e:?}")))?;
                    ack_tx.send(()).map_err(|e| HdmError::Plan(e.to_string()))?;
                }
            }
            Ok(stage * 10)
        })
        .unwrap();
        assert_eq!(out, vec![0, 10]);
    }

    #[test]
    fn sequential_pipelined_degrades_soft_edges_to_barriers() {
        // threads=1: soft edges schedule exactly like hard edges — the
        // consumer runs strictly after the producer, in plan order.
        let order = Mutex::new(Vec::new());
        let hard = vec![vec![], vec![], vec![0]];
        let soft = vec![vec![], vec![0], vec![1]];
        let out = run_dag_pipelined(&hard, &soft, 1, &obs(), &never(), |stage| {
            order.lock().push(stage);
            Ok(stage)
        })
        .unwrap();
        assert_eq!(out, vec![0, 1, 2]);
        assert_eq!(order.into_inner(), vec![0, 1, 2]);
    }

    #[test]
    fn soft_chain_cascades_in_one_launch_pass() {
        // 0 ─soft▶ 1 ─soft▶ 2 ─soft▶ 3: all four stages are enqueued
        // together (producer before consumer on the FIFO queue) and the
        // run completes with results in id order.
        let hard: Vec<Vec<usize>> = vec![vec![]; 4];
        let soft = vec![vec![], vec![0], vec![1], vec![2]];
        let o = obs();
        let out = run_dag_pipelined(&hard, &soft, 4, &o, &never(), |stage| {
            std::thread::sleep(Duration::from_millis(15));
            Ok(stage * 10)
        })
        .unwrap();
        assert_eq!(out, vec![0, 10, 20, 30]);
        let peak = o
            .snapshot()
            .gauges
            .iter()
            .find(|(n, _, _)| n == "sched.max.concurrent")
            .map(|(_, _, v)| *v)
            .unwrap();
        assert!(peak >= 2, "soft chain should overlap, peak {peak}");
    }

    #[test]
    fn pipelined_failure_keeps_lowest_id_and_skips_hard_children() {
        // 0 fails; 1 is a soft consumer (already launched — it drains);
        // 2 is a hard child of 0 and must never start.
        let hard = vec![vec![], vec![], vec![0]];
        let soft = vec![vec![], vec![0], vec![]];
        let started_hard_child = AtomicUsize::new(0);
        let err = run_dag_pipelined(&hard, &soft, 2, &obs(), &never(), |stage| match stage {
            0 => Err(HdmError::Plan("producer boom".into())),
            2 => {
                started_hard_child.fetch_add(1, Ordering::Relaxed);
                Ok(stage)
            }
            _ => Ok(stage),
        })
        .unwrap_err();
        assert!(err.message().contains("producer boom"), "{err}");
        assert_eq!(started_hard_child.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn pipelined_rejects_mixed_cycles_and_mismatched_tables() {
        // A cycle woven through one hard and one soft edge is detected.
        let ran = AtomicUsize::new(0);
        let hard = vec![vec![1], vec![]];
        let soft = vec![vec![], vec![0]];
        let err = run_dag_pipelined(&hard, &soft, 4, &obs(), &never(), |s| {
            ran.fetch_add(1, Ordering::Relaxed);
            Ok(s)
        })
        .unwrap_err();
        assert!(err.message().contains("cycle"), "{err}");
        assert_eq!(ran.load(Ordering::Relaxed), 0);

        let err =
            run_dag_pipelined(&[vec![]], &[], 4, &obs(), &never(), Ok::<usize, _>).unwrap_err();
        assert!(err.message().contains("disagree"), "{err}");
    }

    #[test]
    fn pipelined_with_no_soft_edges_matches_run_dag() {
        let deps = vec![vec![], vec![0], vec![0], vec![1, 2]];
        let empty: Vec<Vec<usize>> = vec![vec![]; 4];
        for threads in [1, 2, 8] {
            let plain: Vec<usize> =
                run_dag(&deps, threads, &obs(), &never(), |s| Ok(s * 7)).unwrap();
            let piped: Vec<usize> =
                run_dag_pipelined(&deps, &empty, threads, &obs(), &never(), |s| Ok(s * 7)).unwrap();
            assert_eq!(plain, piped, "threads={threads}");
        }
    }

    #[test]
    fn disabled_obs_registers_no_gauge() {
        let o = hdm_obs::ObsHandle::disabled();
        let deps = vec![vec![], vec![0]];
        let out: Vec<usize> = run_dag(&deps, 2, &o, &never(), Ok).unwrap();
        assert_eq!(out, vec![0, 1]);
        assert!(o.snapshot().gauges.is_empty());
        assert!(o.snapshot().spans.is_empty());
    }
}
