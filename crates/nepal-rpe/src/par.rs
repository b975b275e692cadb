//! Persistent, caller-participating worker pool.
//!
//! The evaluator's unit of work is independent and read-only against the
//! graph, so the pool stays simple. A run deals its jobs into one
//! contiguous block per *seat* (preserving locality of neighbouring
//! seeds); whoever holds a seat pops from the front of its own block and
//! steals from the back of a sibling's when it runs dry. Results land in
//! per-job slots, so callers observe a deterministic result order
//! regardless of which participant ran which job.
//!
//! **The calling thread is always seat 0.** It publishes the run to a
//! process-wide set of parked helper threads (started lazily, named
//! `nepal-rpe-<i>`, never more than the largest `threads - 1` any run has
//! asked for) and starts on its own block at once. A helper that wakes in
//! time takes the next free seat; one that does not finds the blocks
//! already drained by the caller's steals. No thread is created on the
//! query path after warm-up.
//!
//! Waking a helper is not free, and the pool measures what it costs: a
//! run that wakes a parked helper stamps the clock, and the first helper
//! to wake folds the delay into a running estimate ([`handoff_ns`]). The
//! evaluator keeps a search on the calling thread until it has run for
//! twice that long, so a search that would end before a helper arrives
//! never publishes a run.
//!
//! A run returns only when every job someone claimed has finished, and a
//! waiter only ever waits for jobs a participant is *executing*: unclaimed
//! jobs are taken by the caller itself. So any number of concurrent callers
//! (server connections, each evaluating its own query) and a job that
//! starts a nested run make progress even when every helper is busy.

use std::any::Any;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::Instant;

use crate::cancel::CancelToken;

/// Per-seat accounting returned by [`run_jobs`], including the seat's
/// final state (e.g. its private memo, for cache-size reporting). One per
/// dealt seat, `min(threads, n_jobs)` in all; a seat no helper reached in
/// time reports zero jobs and an untouched state.
pub struct WorkerReport<W> {
    pub state: W,
    /// Wall time spent inside job bodies (0 unless `timed`).
    pub busy_ns: u64,
    /// Thread CPU time spent inside job bodies (0 unless `timed`; 0 on
    /// platforms without a per-thread CPU clock). Sampled at job
    /// boundaries on the participant's own thread, so it sums cleanly into
    /// a query's resource meter no matter who ran which job.
    pub cpu_ns: u64,
    /// Jobs this seat executed.
    pub jobs: u64,
    /// Jobs this seat stole from a sibling's block.
    pub steals: u64,
}

/// Pool-level accounting returned by [`run_jobs`].
pub struct PoolStats {
    /// Total jobs executed (= chunks of parallel work).
    pub jobs: u64,
    /// Total cross-seat steals.
    pub steals: u64,
}

/// The pool's running estimate of its hand-off latency, in ns: the time
/// from publishing a run that wakes a parked helper to that helper taking
/// the pool lock again, averaged with weight 1/8 per sample. 0 until the
/// first sample.
static HANDOFF_NS: AtomicU64 = AtomicU64::new(0);

/// How long, in ns, a run published now can expect to wait for its first
/// helper ([`HANDOFF_NS`]); 0 before any run has woken a helper.
pub fn handoff_ns() -> u64 {
    HANDOFF_NS.load(Ordering::Relaxed)
}

/// Fold one sample into [`HANDOFF_NS`]; called under the pool lock, so the
/// load and store do not race.
fn record_handoff(sample_ns: u64) {
    let old = HANDOFF_NS.load(Ordering::Relaxed);
    let new = if old == 0 { sample_ns } else { old - old / 8 + sample_ns / 8 };
    HANDOFF_NS.store(new, Ordering::Relaxed);
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Split `0..n` into at most `4 * threads` contiguous, near-equal ranges:
/// the unit in which callers deal items (search roots, union pairs, seed
/// nodes) to the pool. A few chunks per participant leave
/// room to steal; one job per item would pay a claim and a slot per item.
pub fn chunks(n: usize, threads: usize) -> Vec<Range<usize>> {
    let k = threads.max(1).saturating_mul(4).min(n);
    (0..k).map(|c| c * n / k..(c + 1) * n / k).collect()
}

/// A seat's half-open job range `[lo, hi)` packed into one word, so the
/// owner (front) and thieves (back) claim with a single compare-exchange.
/// `Relaxed` suffices: a claim publishes no data — everything a job reads
/// was written before the run was published, and its result travels
/// through the slot mutex.
struct Block(AtomicU64);

impl Block {
    fn new(r: Range<usize>) -> Block {
        Block(AtomicU64::new((r.start as u64) << 32 | r.end as u64))
    }

    fn claim(&self, front: bool) -> Option<usize> {
        self.0
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |w| {
                let (lo, hi) = (w >> 32, w & 0xFFFF_FFFF);
                (lo < hi).then(|| if front { (lo + 1) << 32 | hi } else { lo << 32 | (hi - 1) })
            })
            .ok()
            .map(|w| if front { (w >> 32) as usize } else { (w & 0xFFFF_FFFF) as usize - 1 })
    }
}

/// Stops the other participants from claiming further jobs when one job
/// body panics, so the panic reaches the caller without running the rest.
struct StopOnUnwind<'a>(&'a AtomicBool);

impl Drop for StopOnUnwind<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.store(true, Ordering::Relaxed);
        }
    }
}

/// Run `n_jobs` jobs on up to `threads` participants — the caller plus
/// pool helpers — and return the results indexed by job id, plus per-seat
/// and pool totals.
///
/// `make_worker` builds one private state per seat (its memo) — called on
/// the calling thread, in seat order, before any job runs; `run` executes a
/// single job against that state. A panicking job body stops
/// the run and is re-raised on the calling thread once every participant
/// has left. With `timed == false` no job is timed; the only clock reads
/// are the hand-off samples of a run that wakes a parked helper.
///
/// With a `cancel` token, a participant polls it before claiming its next
/// job (own block or a steal) and stops claiming once it trips, abandoning
/// the remaining dealt blocks cleanly — the job currently running finishes
/// (its body carries its own checkpoints). Unrun jobs come back as `None`
/// slots; `PoolStats::jobs` counts jobs actually executed. Without a token
/// every slot is `Some`.
pub fn run_jobs<T, W, FW, F>(
    n_jobs: usize,
    threads: usize,
    timed: bool,
    cancel: Option<&CancelToken>,
    mut make_worker: FW,
    run: F,
) -> (Vec<Option<T>>, Vec<WorkerReport<W>>, PoolStats)
where
    T: Send,
    W: Send,
    FW: FnMut(usize) -> W,
    F: Fn(&mut W, usize) -> T + Sync,
{
    if n_jobs == 0 {
        return (Vec::new(), Vec::new(), PoolStats { jobs: 0, steals: 0 });
    }
    assert!(n_jobs <= u32::MAX as usize, "a run's job indices must fit a packed block");
    let n_seats = threads.min(n_jobs).max(1);
    // Deal jobs as contiguous blocks: seat i owns [i*n/s, (i+1)*n/s).
    let blocks: Vec<Block> =
        (0..n_seats).map(|i| Block::new(i * n_jobs / n_seats..(i + 1) * n_jobs / n_seats)).collect();
    let slots: Vec<Mutex<Option<T>>> = (0..n_jobs).map(|_| Mutex::new(None)).collect();
    let seats: Vec<Mutex<WorkerReport<W>>> = (0..n_seats)
        .map(|i| Mutex::new(WorkerReport { state: make_worker(i), busy_ns: 0, cpu_ns: 0, jobs: 0, steals: 0 }))
        .collect();
    let stop = AtomicBool::new(false);
    let sit = |si: usize| {
        let _stop = StopOnUnwind(&stop);
        // Exactly one participant per seat, so this lock is never
        // contended; it is held for the whole sitting.
        let mut seat = lock(&seats[si]);
        let r = &mut *seat;
        loop {
            // Cancellation boundary: stop claiming work (own block or
            // steals) once the token trips or a sibling's job panicked.
            if stop.load(Ordering::Relaxed) || cancel.is_some_and(|t| t.is_cancelled()) {
                break;
            }
            let job = match blocks[si].claim(true) {
                Some(j) => j,
                // Own block dry: steal from the back of the next sibling
                // that still has work.
                None => match (1..n_seats).find_map(|off| blocks[(si + off) % n_seats].claim(false)) {
                    Some(j) => {
                        r.steals += 1;
                        j
                    }
                    None => break,
                },
            };
            let t0 = timed.then(Instant::now);
            let c0 = timed.then(nepal_obs::thread_cpu_ns);
            let out = run(&mut r.state, job);
            if let Some(t) = t0 {
                r.busy_ns += t.elapsed().as_nanos() as u64;
            }
            if let Some(c) = c0 {
                r.cpu_ns += nepal_obs::thread_cpu_ns().saturating_sub(c);
            }
            r.jobs += 1;
            *lock(&slots[job]) = Some(out);
        }
    };
    if n_seats == 1 {
        sit(0);
    } else {
        POOL.run(n_seats, &sit);
    }
    let slots: Vec<Option<T>> = slots.into_iter().map(|m| m.into_inner().unwrap_or_else(|e| e.into_inner())).collect();
    let reports: Vec<WorkerReport<W>> =
        seats.into_iter().map(|m| m.into_inner().unwrap_or_else(|e| e.into_inner())).collect();
    // Flight-recorder pool activity: one park event per participant that
    // ran a job, emitted from the caller's thread so it sits in the ring
    // of the request that ran the pool. Helpers are long-lived named
    // threads and get rings of their own only for what they emit
    // themselves (a cancel trip observed inside a job).
    if nepal_obs::flight::recorder().is_enabled() {
        for r in reports.iter().filter(|r| r.jobs > 0) {
            nepal_obs::flight::emit(nepal_obs::FlightKind::PoolPark, r.jobs, r.steals, r.busy_ns / 1_000, "rpe-pool");
        }
    }
    let stats =
        PoolStats { jobs: reports.iter().map(|r| r.jobs).sum(), steals: reports.iter().map(|r| r.steals).sum() };
    (slots, reports, stats)
}

/// What a participant does once seated: `sit(seat_index)`.
type Sit<'a> = &'a (dyn Fn(usize) + Sync);
type Panic = Box<dyn Any + Send>;

/// A published run, as the helpers see it.
struct Run {
    id: u64,
    sit: Sit<'static>,
    /// Next free seat; seat 0 is the caller's.
    next_seat: usize,
    /// Seats dealt; lowered to `next_seat` when the caller closes the run.
    n_seats: usize,
    /// Helpers currently inside `sit`.
    active: usize,
    /// First panic a helper caught in this run's job bodies.
    panic: Option<Panic>,
}

struct PoolState {
    /// Open runs, oldest first. Helpers seat themselves in the oldest run
    /// with a free seat: an outer run's jobs are the coarser ones.
    runs: Vec<Run>,
    next_id: u64,
    /// Helper threads started so far (they never exit).
    helpers: usize,
    /// Helpers parked on `work`.
    idle: usize,
    /// When a run last woke a parked helper that has not yet come back:
    /// the first to wake takes it as a hand-off sample.
    woken_at: Option<Instant>,
}

struct Pool {
    state: Mutex<PoolState>,
    /// Helpers park here until a run is published.
    work: Condvar,
    /// Callers wait here for the helpers inside their run to leave.
    done: Condvar,
}

static POOL: Pool = Pool {
    state: Mutex::new(PoolState { runs: Vec::new(), next_id: 0, helpers: 0, idle: 0, woken_at: None }),
    work: Condvar::new(),
    done: Condvar::new(),
};

/// How often a closing caller yields its time slice to a helper still
/// inside the run before it parks. The last job of a short run ends within
/// microseconds; sleeping and being woken costs tens.
const CLOSE_YIELDS: u32 = 200;

/// Closes a run and waits for the helpers inside it, on return and on
/// unwind alike — the guarantee the lifetime erasure in [`Pool::run`]
/// rests on.
struct Latch {
    pool: &'static Pool,
    id: u64,
    open: bool,
}

impl Latch {
    /// Close the run (no further helper may sit), wait until the helpers
    /// inside have left, unregister it, and hand back a helper's panic.
    fn close(&mut self) -> Option<Panic> {
        if !std::mem::take(&mut self.open) {
            return None;
        }
        let mut st = lock(&self.pool.state);
        let mut yields = 0;
        loop {
            let at =
                st.runs.iter().position(|r| r.id == self.id).expect("a run stays registered until its latch closes");
            let run = &mut st.runs[at];
            run.n_seats = run.next_seat;
            if run.active == 0 {
                return st.runs.remove(at).panic;
            }
            if yields < CLOSE_YIELDS {
                yields += 1;
                drop(st);
                std::thread::yield_now();
                st = lock(&self.pool.state);
            } else {
                st = self.pool.done.wait(st).unwrap_or_else(|e| e.into_inner());
            }
        }
    }
}

impl Drop for Latch {
    fn drop(&mut self) {
        // Unwinding out of the caller's own sitting: its panic is the one
        // to propagate, a helper's is dropped.
        drop(self.close());
    }
}

impl Pool {
    /// Publish `sit` with seats `1..n_seats` open to helpers, sit in seat
    /// 0 on the calling thread, then wait for the helpers that joined.
    fn run(&'static self, n_seats: usize, sit: Sit<'_>) {
        // SAFETY: this extends `sit`'s lifetime — and with it every borrow
        // its closure holds (views, plans, job lists, result slots) — to
        // `'static` so that it can be stored in `PoolState`. The erased
        // reference is reachable only through the `Run` registered below.
        // A helper copies it out and bumps `run.active` in one critical
        // section of `self.state`, and lowers `active` in another after
        // its last use of the reference (`helper_loop`). `Latch::close`
        // runs before this function returns — normally or, through
        // `Drop`, while unwinding out of `sit(0)` — and, under the same
        // mutex, closes the run to new helpers, waits for `active == 0`
        // and removes the `Run`. Every use of the erased reference thus
        // happens-before this function's return, i.e. while the real
        // borrow is still live. `Latch` is a local of this function, so
        // callers cannot leak it.
        let erased: Sit<'static> = unsafe { std::mem::transmute::<Sit<'_>, Sit<'static>>(sit) };
        let mut st = lock(&self.state);
        while st.helpers < n_seats - 1 {
            let name = format!("nepal-rpe-{}", st.helpers);
            // A host that refuses another thread just leaves the run with
            // fewer participants; the caller drains what nobody takes.
            if std::thread::Builder::new().name(name).spawn(move || helper_loop(self)).is_err() {
                break;
            }
            st.helpers += 1;
        }
        let id = st.next_id;
        st.next_id += 1;
        st.runs.push(Run { id, sit: erased, next_seat: 1, n_seats, active: 0, panic: None });
        let wake = st.idle.min(n_seats - 1);
        if wake > 0 && st.woken_at.is_none() {
            st.woken_at = Some(Instant::now());
        }
        drop(st);
        for _ in 0..wake {
            self.work.notify_one();
        }
        let mut latch = Latch { pool: self, id, open: true };
        sit(0);
        if let Some(p) = latch.close() {
            resume_unwind(p);
        }
    }
}

/// A helper's whole life: take a seat in the oldest run that has one,
/// sit, report back, park when there is nothing to join. Job panics are
/// caught and handed to the run's caller; the helper itself lives on.
fn helper_loop(pool: &'static Pool) {
    let mut st = lock(&pool.state);
    loop {
        let Some(run) = st.runs.iter_mut().find(|r| r.next_seat < r.n_seats) else {
            st.idle += 1;
            st = pool.work.wait(st).unwrap_or_else(|e| e.into_inner());
            st.idle -= 1;
            if let Some(t) = st.woken_at.take() {
                record_handoff(t.elapsed().as_nanos() as u64);
            }
            continue;
        };
        let (id, sit, seat) = (run.id, run.sit, run.next_seat);
        run.next_seat += 1;
        run.active += 1;
        drop(st);
        let outcome = catch_unwind(AssertUnwindSafe(|| sit(seat)));
        st = lock(&pool.state);
        let run = st.runs.iter_mut().find(|r| r.id == id).expect("a run stays registered while a helper is inside it");
        if let Err(p) = outcome {
            run.panic.get_or_insert(p);
        }
        run.active -= 1;
        // Only a caller that has already closed the run can be waiting.
        if run.active == 0 && run.n_seats == run.next_seat {
            pool.done.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The results of a run without a token: every slot is filled.
    fn filled<T>(slots: Vec<Option<T>>) -> Vec<T> {
        slots.into_iter().map(|o| o.expect("every job ran exactly once")).collect()
    }

    #[test]
    fn results_are_ordered_by_job_index() {
        let (results, reports, stats) = run_jobs(100, 4, false, None, |_| (), |_, j| j * 2);
        assert_eq!(filled(results), (0..100).map(|j| j * 2).collect::<Vec<_>>());
        assert_eq!(stats.jobs, 100);
        assert_eq!(reports.iter().map(|r| r.jobs).sum::<u64>(), 100);
        assert_eq!(reports.iter().map(|r| r.steals).sum::<u64>(), stats.steals);
    }

    #[test]
    fn worker_state_accumulates_across_jobs() {
        let (results, reports, _) = run_jobs(
            10,
            3,
            true,
            None,
            |_| 0u64,
            |seen, j| {
                *seen += 1;
                j
            },
        );
        assert_eq!(filled(results), (0..10).collect::<Vec<_>>());
        assert_eq!(reports.iter().map(|r| r.state).sum::<u64>(), 10);
        assert_eq!(reports.iter().map(|r| r.jobs).sum::<u64>(), 10);
    }

    #[test]
    fn more_threads_than_jobs_and_zero_jobs() {
        let (results, reports, _) = run_jobs(2, 8, false, None, |_| (), |_, j| j);
        assert_eq!(filled(results), vec![0, 1]);
        assert_eq!(reports.len(), 2);
        let (results, reports, stats) = run_jobs(0, 4, false, None, |_| (), |_, j| j);
        assert!(results.is_empty() && reports.is_empty());
        assert_eq!(stats.jobs, 0);
    }

    #[test]
    fn pre_cancelled_pool_runs_nothing() {
        let tok = CancelToken::new();
        tok.cancel();
        let (slots, reports, stats) = run_jobs(64, 4, false, Some(&tok), |_| (), |_, j| j);
        assert_eq!(slots.len(), 64);
        assert!(slots.iter().all(|s| s.is_none()));
        assert_eq!(stats.jobs, 0);
        assert!(reports.iter().all(|r| r.jobs == 0));
    }

    #[test]
    fn mid_run_cancel_abandons_remaining_jobs() {
        // Single worker: the first job trips the token, so exactly one job
        // runs and the rest of the dealt block is abandoned.
        let tok = CancelToken::new();
        let (slots, _, stats) = run_jobs(
            16,
            1,
            false,
            Some(&tok),
            |_| (),
            |_, j| {
                tok.cancel();
                j
            },
        );
        assert_eq!(stats.jobs, 1);
        assert_eq!(slots.iter().flatten().count(), 1);
    }

    #[test]
    fn uncancelled_cancel_variant_matches_run_jobs() {
        // An untripped token fills every slot, exactly as no token does.
        let tok = CancelToken::new();
        let (slots, _, stats) = run_jobs(20, 3, false, Some(&tok), |_| (), |_, j| j * 3);
        assert_eq!(stats.jobs, 20);
        assert_eq!(slots, run_jobs(20, 3, false, None, |_| (), |_, j| j * 3).0);
        assert_eq!(filled(slots), (0..20).map(|j| j * 3).collect::<Vec<_>>());
    }

    #[test]
    fn cpu_time_is_sampled_only_when_timed() {
        let (_, reports, _) = run_jobs(32, 2, false, None, |_| (), |_, j| j);
        assert!(reports.iter().all(|r| r.cpu_ns == 0 && r.busy_ns == 0));
        let (_, reports, _) = run_jobs(
            32,
            2,
            true,
            None,
            |_| (),
            |_, j: usize| {
                // Burn a little CPU so the per-thread clock visibly advances.
                let mut acc = j as u64;
                for i in 0..20_000u64 {
                    acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
                }
                acc
            },
        );
        // The clock exists on linux; elsewhere the sample is a harmless 0.
        if nepal_obs::thread_cpu_ns() > 0 {
            assert!(reports.iter().any(|r| r.cpu_ns > 0), "expected some worker CPU time");
        }
    }

    #[test]
    fn idle_workers_steal_queued_work() {
        // Worker 0 owns a slow job first; its remaining jobs should be
        // stolen by the other workers, and all results still land in order.
        let (results, _, _) = run_jobs(
            16,
            4,
            false,
            None,
            |_| (),
            |_, j| {
                if j == 0 {
                    std::thread::sleep(std::time::Duration::from_millis(20));
                }
                j
            },
        );
        assert_eq!(filled(results), (0..16).collect::<Vec<_>>());
    }

    // --- the persistent pool ---

    use std::collections::HashSet;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Barrier;

    #[test]
    fn chunks_partition_the_range_in_order() {
        for (n, threads) in [(0, 4), (1, 4), (7, 2), (16, 2), (1000, 3)] {
            let cs = chunks(n, threads);
            assert!(cs.len() <= 4 * threads);
            assert_eq!(cs.iter().flat_map(|r| r.clone()).collect::<Vec<_>>(), (0..n).collect::<Vec<_>>());
            assert!(cs.iter().all(|r| !r.is_empty()));
        }
        // Chunks dealt as jobs concatenate back into index order.
        let bounds = chunks(100, 3);
        let (parts, _, _) =
            run_jobs(bounds.len(), 3, false, None, |_| (), |_, c| bounds[c].clone().map(|i| i * i).collect::<Vec<_>>());
        assert_eq!(filled(parts).concat(), (0..100).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn nested_runs_complete_with_every_helper_busy() {
        // More outer jobs than participants, each starting a run of its
        // own: inner callers must finish on their own when no helper is
        // free.
        let (results, _, _) = run_jobs(
            12,
            4,
            false,
            None,
            |_| (),
            |_, j| {
                let (inner, _, _) = run_jobs(50, 4, false, None, |_| (), |_, k| j * 100 + k);
                filled(inner).into_iter().sum::<usize>()
            },
        );
        let want: Vec<usize> = (0..12).map(|j| (0..50).map(|k| j * 100 + k).sum()).collect();
        assert_eq!(filled(results), want);
    }

    #[test]
    fn concurrent_callers_all_get_ordered_complete_results() {
        let barrier = std::sync::Arc::new(Barrier::new(8));
        let callers: Vec<_> = (0..8usize)
            .map(|t| {
                let barrier = barrier.clone();
                let caller = move || {
                    barrier.wait();
                    for round in 0..20 {
                        let (results, _, stats) = run_jobs(200, 4, false, None, |_| (), |_, j| (t, round, j));
                        assert_eq!(filled(results), (0..200).map(|j| (t, round, j)).collect::<Vec<_>>());
                        assert_eq!(stats.jobs, 200);
                    }
                };
                std::thread::Builder::new().spawn(caller).expect("test thread")
            })
            .collect();
        for c in callers {
            c.join().expect("a concurrent caller failed");
        }
    }

    /// Counts live instances, so a test can show nothing a run created
    /// survives it.
    struct Counted<'a>(&'a AtomicUsize);

    impl<'a> Counted<'a> {
        fn new(live: &'a AtomicUsize) -> Self {
            live.fetch_add(1, Ordering::SeqCst);
            Counted(live)
        }
    }

    impl Drop for Counted<'_> {
        fn drop(&mut self) {
            self.0.fetch_sub(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn job_panic_reaches_its_caller_and_the_pool_survives() {
        // `helper = true` forces the panicking job onto a helper: seat 1's
        // block starts at job 32, None, and job 0 (the caller's first) does not
        // return before job 32 has started.
        for helper in [false, true] {
            let live = AtomicUsize::new(0);
            let started = AtomicBool::new(false);
            let borrowed: Vec<usize> = (0..64).collect();
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                run_jobs(
                    64,
                    2,
                    false,
                    None,
                    |_| Counted::new(&live),
                    |_, j| {
                        if helper && j == 0 {
                            while !started.load(Ordering::SeqCst) {
                                std::thread::yield_now();
                            }
                        }
                        if j == if helper { 32 } else { 3 } {
                            started.store(true, Ordering::SeqCst);
                            panic!("job {j} failed");
                        }
                        (borrowed[j], Counted::new(&live))
                    },
                )
            }));
            let payload = outcome.err().expect("the job's panic must reach the caller");
            assert_eq!(
                payload.downcast_ref::<String>().map(String::as_str),
                Some(&*format!("job {} failed", if helper { 32 } else { 3 }))
            );
            // Every state and result the run created is gone: nothing
            // still borrows `live` or `borrowed`.
            assert_eq!(live.load(Ordering::SeqCst), 0);
            drop(borrowed);
            let (results, _, _) = run_jobs(64, 2, false, None, |_| (), |_, j| j + 1);
            assert_eq!(filled(results), (1..=64).collect::<Vec<_>>());
        }
    }

    #[test]
    fn threads_caps_participants_on_a_larger_pool() {
        // Grow the pool to at least four helpers, then run with two seats.
        let _ = run_jobs(64, 5, false, None, |_| (), |_, j| j);
        let who = Mutex::new(HashSet::new());
        let (results, reports, _) = run_jobs(
            64,
            2,
            false,
            None,
            |_| (),
            |_, j| {
                lock(&who).insert(std::thread::current().id());
                std::thread::sleep(std::time::Duration::from_micros(200));
                j
            },
        );
        assert_eq!(filled(results), (0..64).collect::<Vec<_>>());
        assert_eq!(reports.len(), 2);
        assert!(lock(&who).len() <= 2, "threads = 2 admitted {} participants", lock(&who).len());
    }

    /// Helper threads of this process, by their `nepal-rpe-<i>` name (the
    /// process-wide `Threads:` count would also see the test harness
    /// starting and finishing its own threads). A thread names itself as it
    /// starts, so right after warm-up the count may still be climbing.
    #[cfg(target_os = "linux")]
    fn helper_threads() -> usize {
        std::fs::read_dir("/proc/self/task")
            .expect("procfs")
            .filter_map(|e| std::fs::read_to_string(e.ok()?.path().join("comm")).ok())
            .filter(|comm| comm.starts_with("nepal-rpe-"))
            .count()
    }

    #[test]
    fn no_thread_is_created_after_warm_up() {
        // Eight is the widest run any test of this binary asks for, so no
        // concurrent test can grow the pool past this warm-up.
        let _ = run_jobs(64, 8, false, None, |_| (), |_, j| j);
        #[cfg(target_os = "linux")]
        {
            let t0 = Instant::now();
            while helper_threads() < 7 && t0.elapsed().as_secs() < 10 {
                std::thread::yield_now();
            }
            assert_eq!(helper_threads(), 7);
        }
        let ran_jobs = Mutex::new(HashSet::new());
        for _ in 0..1000 {
            let (results, _, _) = run_jobs(
                16,
                8,
                false,
                None,
                |_| (),
                |_, j| {
                    lock(&ran_jobs).insert(std::thread::current().id());
                    j
                },
            );
            assert_eq!(results.len(), 16);
        }
        // Thread ids are never reused, so a thread started per call would
        // add a new one each time; and none was started that ran no job.
        assert!(lock(&ran_jobs).len() <= 8, "{} distinct threads ran jobs", lock(&ran_jobs).len());
        #[cfg(target_os = "linux")]
        assert_eq!(helper_threads(), 7);
    }
}
