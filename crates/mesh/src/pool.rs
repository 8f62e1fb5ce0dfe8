//! Persistent worker pool for deterministic in-process parallelism.
//!
//! Every parallel phase in the workspace (CSR builds, macrosim rank loops,
//! hierarchical stage-2 placement) dispatches through [`WorkerPool`]. The
//! pool keeps `threads - 1` parked OS threads alive for its whole lifetime
//! so steady-state dispatch allocates nothing and pays no thread-spawn cost;
//! the calling thread always participates as worker 0.
//!
//! Determinism contract: the pool intentionally exposes *only* fork-join
//! task-index parallelism. Tasks are pulled from an atomic counter, so the
//! assignment of task -> OS thread is racy, but callers are required to make
//! each task's *output* a pure function of its task index (slot ownership:
//! a task owns a contiguous index range and is the only writer of it). Under
//! that rule the merged result is bitwise identical to a serial loop over
//! task indices regardless of thread count or scheduling.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// An erased fork-join job. `data` points at a stack-allocated context in
/// `dispatch`; workers only dereference it between the generation bump and
/// the matching `active == 0` hand-back, which the caller blocks on, so the
/// borrow is always live while a worker can observe the pointer.
#[derive(Clone, Copy)]
struct Job {
    data: *const (),
    call: unsafe fn(*const (), usize),
}

// SAFETY: `data` is only dereferenced by the monomorphized `call` trampoline,
// which requires the referenced context to be `Sync`; `dispatch` enforces
// that via its `F: Sync` / `S: Send` bounds.
unsafe impl Send for Job {}

struct PoolState {
    generation: u64,
    job: Option<Job>,
    /// Workers that have not yet finished the current generation's job.
    active: usize,
    shutdown: bool,
}

struct Shared {
    /// Held by a caller for the whole of its dispatch: the pool runs one job
    /// at a time, so a second thread dispatching on the same pool (two
    /// builds on [`WorkerPool::global`]) waits its turn instead of
    /// overwriting the job the workers are still running.
    turn: Mutex<()>,
    state: Mutex<PoolState>,
    work_cv: Condvar,
    done_cv: Condvar,
}

/// Most threads a [`WorkerPool`] will run a job on. Every phase that uses a
/// pool splits its work by slot ownership, so a thread past the slot count
/// only idles; configuration boundaries (e.g. `SimConfig::validate`) reject
/// larger requests instead of letting thread spawning fail mid-construction.
pub const MAX_POOL_THREADS: usize = 256;

/// A persistent fork-join pool; see the module docs for the determinism
/// contract callers must follow.
pub struct WorkerPool {
    /// Dispatch state shared with the workers; `None` for a single-thread
    /// pool, which has nobody to share with and so allocates nothing.
    shared: Option<Arc<Shared>>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("threads", &self.threads())
            .finish()
    }
}

/// Tasks run under `catch_unwind` outside the lock, so only a bug in the pool
/// itself can poison its mutex.
const POISONED: &str = "pool state mutex poisoned";

/// Context shared between the caller and the workers for one dispatch.
struct Ctx<'a, S, F> {
    next: AtomicUsize,
    tasks: usize,
    states: *mut S,
    f: &'a F,
    panicked: &'a AtomicBool,
}

// SAFETY: workers only access disjoint `states` elements (guarded by the
// atomic task counter: each index is claimed exactly once) and the shared
// `f`/`panicked` references, which the bounds below require to be Sync.
unsafe impl<S: Send, F: Sync> Sync for Ctx<'_, S, F> {}

fn pull_tasks<S: Send, F: Fn(usize, &mut S) + Sync>(ctx: &Ctx<'_, S, F>) {
    loop {
        if ctx.panicked.load(Ordering::Relaxed) {
            break;
        }
        let i = ctx.next.fetch_add(1, Ordering::Relaxed);
        if i >= ctx.tasks {
            break;
        }
        // SAFETY: `i < tasks == states.len()` and the atomic counter hands
        // each index to exactly one worker, so this &mut is unaliased.
        let state = unsafe { &mut *ctx.states.add(i) };
        if catch_unwind(AssertUnwindSafe(|| (ctx.f)(i, state))).is_err() {
            ctx.panicked.store(true, Ordering::SeqCst);
        }
    }
}

unsafe fn trampoline<S: Send, F: Fn(usize, &mut S) + Sync>(data: *const (), worker: usize) {
    // SAFETY: `data` was erased from a `&Ctx<S, F>` with these exact type
    // parameters in `dispatch`, and the caller keeps the context alive until
    // every worker has checked back in.
    let ctx = unsafe { &*(data as *const Ctx<'_, S, F>) };
    let _ = worker;
    pull_tasks(ctx);
}

impl WorkerPool {
    /// Create a pool that runs jobs on `threads` OS threads total
    /// (`threads - 1` spawned workers plus the calling thread).
    /// `threads == 1` spawns nothing, allocates nothing, and every job runs
    /// inline: the single-task schedule of whatever kernel is dispatched.
    ///
    /// # Panics
    /// If `threads` exceeds [`MAX_POOL_THREADS`].
    pub fn new(threads: usize) -> WorkerPool {
        assert!(
            threads <= MAX_POOL_THREADS,
            "a worker pool runs at most {MAX_POOL_THREADS} threads (asked for {threads})"
        );
        let workers = threads.saturating_sub(1);
        if workers == 0 {
            return WorkerPool {
                shared: None,
                handles: Vec::new(),
            };
        }
        let shared = Arc::new(Shared {
            turn: Mutex::new(()),
            state: Mutex::new(PoolState {
                generation: 0,
                job: None,
                active: 0,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
        });
        let handles = (1..=workers)
            .map(|index| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("amr-pool-{index}"))
                    .spawn(move || worker_loop(&shared, index))
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool {
            shared: Some(shared),
            handles,
        }
    }

    /// Total threads that can work on a job, including the caller.
    pub fn threads(&self) -> usize {
        self.handles.len() + 1
    }

    /// Tasks a slot-ownership kernel should split `n` slots into on this
    /// pool: one per thread, never more than there are slots, at least one.
    pub fn tasks_for(&self, n: usize) -> usize {
        self.threads().min(n).max(1)
    }

    /// Process-wide pool sized to the host's available parallelism (capped
    /// at 8, matching the historical CSR-build thread cap). Lives for the
    /// whole process so repeated builds never pay thread-spawn overhead.
    pub fn global() -> &'static WorkerPool {
        static POOL: OnceLock<WorkerPool> = OnceLock::new();
        POOL.get_or_init(|| {
            let threads = std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1)
                .min(8);
            WorkerPool::new(threads)
        })
    }

    /// Run `f(i, &mut states[i])` for every `i`, distributing tasks across
    /// the pool. Blocks until all tasks finish. Panics in tasks are caught,
    /// remaining tasks are abandoned, and the panic is re-raised here.
    ///
    /// Must not be called from inside a task running on the same pool (the
    /// pool runs one job at a time and the nested dispatch would deadlock);
    /// dispatches from different threads queue.
    pub fn run_with<S: Send, F: Fn(usize, &mut S) + Sync>(&self, states: &mut [S], f: F) {
        let tasks = states.len();
        if tasks <= 1 || self.handles.is_empty() {
            for (i, state) in states.iter_mut().enumerate() {
                f(i, state);
            }
            return;
        }
        let panicked = AtomicBool::new(false);
        let ctx = Ctx {
            next: AtomicUsize::new(0),
            tasks,
            states: states.as_mut_ptr(),
            f: &f,
            panicked: &panicked,
        };
        self.dispatch(Job {
            data: (&ctx as *const Ctx<'_, S, F>).cast(),
            call: trampoline::<S, F>,
        });
        if panicked.load(Ordering::SeqCst) {
            panic!("worker pool task panicked");
        }
    }

    /// Multi-tenant dispatch: run `f(slot, &mut states[slot])` for every
    /// slot named in `order`, distributing the tasks across the pool.
    /// Unlike [`run_with`](Self::run_with), only the named slots are
    /// touched, and *priority* is the caller's: the pool's shared task
    /// counter hands out `order` front to back, so listing heavy tenants
    /// first lets light ones backfill idle workers — cross-tenant work
    /// stealing without a scheduler.
    ///
    /// `order` entries must be distinct, in-bounds indices into `states`
    /// (distinctness is enforced whenever the call actually dispatches in
    /// parallel — a duplicate would alias one state across workers; the
    /// serial fallback processes entries in order, where a duplicate cannot
    /// alias). Single-thread pools and `order.len() <= 1` run inline with
    /// zero allocation, preserving the warm dispatch path.
    pub fn run_order<S: Send, F: Fn(usize, &mut S) + Sync>(
        &self,
        order: &[usize],
        states: &mut [S],
        f: F,
    ) {
        let n = states.len();
        for &slot in order {
            assert!(
                slot < n,
                "run_order: slot {slot} out of bounds ({n} states)"
            );
        }
        if order.len() <= 1 || self.handles.is_empty() {
            for &slot in order {
                f(slot, &mut states[slot]);
            }
            return;
        }
        let mut seen = vec![false; n];
        for &slot in order {
            assert!(!seen[slot], "run_order: duplicate slot {slot}");
            seen[slot] = true;
        }
        let out = Disjoint::new(states);
        self.run(order.len(), |i| {
            let slot = order[i];
            // SAFETY: `order` entries are distinct and in-bounds (asserted
            // above) and the task counter hands each `i` to exactly one
            // worker, so each named state is mutated by exactly one task.
            let state = unsafe { &mut out.slice(slot, slot + 1)[0] };
            f(slot, state);
        });
    }

    /// Run `f(i)` for every `i in 0..tasks` with no per-task state.
    pub fn run<F: Fn(usize) + Sync>(&self, tasks: usize, f: F) {
        // Zero-sized states: `states.add(i)` never materializes storage.
        let mut states = [(); 0];
        let tasks_arr: &mut [()] = if tasks == 0 {
            &mut states
        } else {
            // SAFETY: `()` is zero-sized, the one requirement of
            // `make_unit_slice`.
            unsafe { make_unit_slice(tasks) }
        };
        self.run_with(tasks_arr, |i, _unit| f(i));
    }

    /// Post `job`, help run it, and wait for all workers to check back in.
    fn dispatch(&self, job: Job) {
        let shared = self
            .shared
            .as_ref()
            .expect("only pools with workers dispatch");
        let _turn = shared.turn.lock().expect(POISONED);
        {
            let mut st = shared.state.lock().expect(POISONED);
            debug_assert!(st.active == 0, "nested dispatch on the same pool");
            st.generation = st.generation.wrapping_add(1);
            st.job = Some(job);
            st.active = self.handles.len();
            shared.work_cv.notify_all();
        }
        // The caller is worker 0 and always participates.
        // SAFETY: `job.data` points at the `Ctx` on `run_with`'s
        // stack, whose type `job.call` was monomorphized for; that frame is
        // blocked in this function until the job is over.
        unsafe { (job.call)(job.data, 0) };
        let mut st = shared.state.lock().expect(POISONED);
        while st.active > 0 {
            st = shared.done_cv.wait(st).expect(POISONED);
        }
        st.job = None;
    }
}

/// Build a `&mut [()]` of arbitrary length without backing storage.
///
/// # Safety
/// None beyond the element type being the zero-sized `()` it is declared
/// with; `unsafe` only because it conjures a reference from a raw pointer.
unsafe fn make_unit_slice<'a>(len: usize) -> &'a mut [()] {
    // SAFETY: `()` is a ZST, so a well-aligned dangling pointer is valid for
    // any number of elements (`len * 0` bytes never exceeds `isize::MAX`);
    // no read or write ever touches memory, so aliasing cannot arise.
    unsafe { std::slice::from_raw_parts_mut(std::ptr::NonNull::<()>::dangling().as_ptr(), len) }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        if let Some(shared) = &self.shared {
            // Never panic in drop: the flag is valid whatever a poisoning
            // thread was doing, so take the guard either way.
            let mut st = shared
                .state
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            st.shutdown = true;
            shared.work_cv.notify_all();
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: &Shared, index: usize) {
    let mut seen_generation = 0u64;
    loop {
        let job = {
            let mut st = shared.state.lock().unwrap();
            loop {
                if st.shutdown {
                    return;
                }
                if st.generation != seen_generation {
                    seen_generation = st.generation;
                    break st.job.expect("generation bumped without a job");
                }
                st = shared.work_cv.wait(st).unwrap();
            }
        };
        // SAFETY: the dispatching caller keeps the job context alive until
        // `active` drains back to zero below.
        unsafe { (job.call)(job.data, index) };
        let mut st = shared.state.lock().unwrap();
        st.active -= 1;
        if st.active == 0 {
            shared.done_cv.notify_all();
        }
    }
}

/// The contiguous range of `0..n` that task `t` of `tasks` owns: the one
/// split every slot-ownership kernel uses. Ranges of consecutive tasks share
/// their boundary (`(t + 1) * n / tasks` is both task `t`'s end and task
/// `t + 1`'s start), so together they tile `0..n` exactly once — the
/// precondition of every [`Disjoint::slice`] call made with them. Checked
/// here, in debug builds, rather than re-derived at each call site.
#[inline]
pub fn task_range(t: usize, tasks: usize, n: usize) -> std::ops::Range<usize> {
    debug_assert!(t < tasks, "task {t} of {tasks}");
    let (lo, hi) = (t * n / tasks, (t + 1) * n / tasks);
    debug_assert!(lo <= hi && hi <= n, "range {lo}..{hi} escapes 0..{n}");
    debug_assert!(t > 0 || lo == 0, "first range must start the tiling");
    debug_assert!(t + 1 < tasks || hi == n, "last range must end the tiling");
    lo..hi
}

/// Caller-guaranteed disjoint mutable access to one slice from many tasks.
///
/// The pool's slot-ownership pattern hands each task a contiguous range of a
/// shared output buffer. Rust cannot express "these `&mut` subslices are
/// disjoint" across a `Fn` closure captured by many threads, so `Disjoint`
/// erases the borrow to a raw pointer and re-materializes bounds-checked
/// subslices on the worker side.
///
/// Safety contract (asserted where checkable, otherwise on the caller):
/// ranges taken via [`slice`](Disjoint::slice) and indices written via
/// [`write`](Disjoint::write) must not overlap between concurrent tasks.
pub struct Disjoint<'a, T> {
    ptr: *mut T,
    len: usize,
    _marker: std::marker::PhantomData<&'a mut [T]>,
}

// SAFETY: Disjoint is a borrow of `&mut [T]` split across tasks; sending it
// moves that borrow to another thread, which `T: Send` permits (`ptr` is the
// slice's, `len` and the marker are plain data).
unsafe impl<T: Send> Send for Disjoint<'_, T> {}
// SAFETY: sharing it hands out `&mut T`s only through the `unsafe` methods
// below, whose contract gives every element exactly one writer and no
// concurrent reader — each `T` is used from one thread at a time, which
// `T: Send` permits; no `&T` is ever shared, so `T: Sync` is not needed.
unsafe impl<T: Send> Sync for Disjoint<'_, T> {}

impl<'a, T> Disjoint<'a, T> {
    pub fn new(slice: &'a mut [T]) -> Disjoint<'a, T> {
        Disjoint {
            ptr: slice.as_mut_ptr(),
            len: slice.len(),
            _marker: std::marker::PhantomData,
        }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reborrow `lo..hi` as a mutable slice.
    ///
    /// # Safety
    /// No other live reborrow (from any task) may overlap `lo..hi`.
    pub unsafe fn slice(&self, lo: usize, hi: usize) -> &'a mut [T] {
        assert!(lo <= hi && hi <= self.len, "disjoint range out of bounds");
        // SAFETY: `ptr..ptr + len` is the live `&'a mut [T]` this was built
        // from and `lo..hi` lies inside it (asserted above); the caller
        // guarantees no other live reborrow overlaps the range.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.add(lo), hi - lo) }
    }

    /// Write a single element.
    ///
    /// # Safety
    /// No other task may concurrently read or write index `i`.
    pub unsafe fn write(&self, i: usize, value: T) {
        assert!(i < self.len, "disjoint write out of bounds");
        // SAFETY: `i` is inside the borrowed slice (asserted above) and the
        // caller guarantees no other task touches index `i` meanwhile. The
        // old value is overwritten without a drop, like any `ptr::write`.
        unsafe { self.ptr.add(i).write(value) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_with_matches_serial_loop() {
        for threads in [1, 2, 4, 7] {
            let pool = WorkerPool::new(threads);
            let mut states: Vec<u64> = vec![0; 33];
            pool.run_with(&mut states, |i, s| *s = (i as u64) * 3 + 1);
            let expect: Vec<u64> = (0..33).map(|i| i * 3 + 1).collect();
            assert_eq!(states, expect, "threads={threads}");
        }
    }

    #[test]
    fn run_order_touches_named_slots_only_at_any_thread_count() {
        for threads in [1, 2, 4, 7] {
            let pool = WorkerPool::new(threads);
            let mut states: Vec<u64> = vec![0; 16];
            // Priority order: heavy tenants first, several slots skipped.
            let order = [9, 3, 14, 0, 7, 11, 2];
            pool.run_order(&order, &mut states, |slot, s| *s = slot as u64 + 100);
            for (i, &v) in states.iter().enumerate() {
                let expect = if order.contains(&i) {
                    i as u64 + 100
                } else {
                    0
                };
                assert_eq!(v, expect, "threads={threads} slot={i}");
            }
        }
    }

    #[test]
    fn run_order_empty_and_single_are_inline() {
        let pool = WorkerPool::new(4);
        let mut states: Vec<u64> = vec![0; 4];
        pool.run_order(&[], &mut states, |_, s| *s = 1);
        assert_eq!(states, vec![0; 4]);
        pool.run_order(&[2], &mut states, |slot, s| *s = slot as u64 + 1);
        assert_eq!(states, vec![0, 0, 3, 0]);
    }

    #[test]
    #[should_panic(expected = "duplicate slot")]
    fn run_order_rejects_duplicates_when_parallel() {
        let pool = WorkerPool::new(4);
        let mut states: Vec<u64> = vec![0; 4];
        pool.run_order(&[1, 2, 1], &mut states, |_, s| *s += 1);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn run_order_rejects_out_of_bounds_slots() {
        let pool = WorkerPool::new(2);
        let mut states: Vec<u64> = vec![0; 4];
        pool.run_order(&[0, 4], &mut states, |_, s| *s += 1);
    }

    #[test]
    fn run_covers_every_task_exactly_once() {
        use std::sync::atomic::AtomicU32;
        let pool = WorkerPool::new(4);
        let hits: Vec<AtomicU32> = (0..100).map(|_| AtomicU32::new(0)).collect();
        pool.run(hits.len(), |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn pool_is_reusable_across_many_jobs() {
        let pool = WorkerPool::new(3);
        let mut total = 0u64;
        for round in 0..50u64 {
            let mut states: Vec<u64> = vec![0; 8];
            pool.run_with(&mut states, |i, s| *s = round + i as u64);
            total += states.iter().sum::<u64>();
        }
        let expect: u64 = (0..50u64).map(|r| (0..8).map(|i| r + i).sum::<u64>()).sum();
        assert_eq!(total, expect);
    }

    /// Two threads dispatching on one pool at the same moment (a barrier
    /// lines them up, round after round) each get all of their tasks run:
    /// the second waits for the first's job instead of replacing it.
    #[test]
    fn concurrent_callers_take_turns() {
        let pool = WorkerPool::new(3);
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            for caller in 0..2usize {
                let (pool, start) = (&pool, &start);
                scope.spawn(move || {
                    for round in 0..200usize {
                        let mut out = vec![0usize; 16];
                        start.wait();
                        pool.run_with(&mut out, |i, slot| *slot = caller + round + i);
                        assert!(out
                            .iter()
                            .enumerate()
                            .all(|(i, &v)| v == caller + round + i));
                    }
                });
            }
        });
    }

    #[test]
    fn panicking_task_propagates_to_caller() {
        let pool = WorkerPool::new(4);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(16, |i| {
                if i == 5 {
                    panic!("boom");
                }
            });
        }));
        assert!(result.is_err());
        // Pool must stay usable after a panicked job.
        let mut states = vec![0u32; 4];
        pool.run_with(&mut states, |i, s| *s = i as u32);
        assert_eq!(states, [0, 1, 2, 3]);
    }

    #[test]
    fn disjoint_ranges_partition_one_buffer() {
        let pool = WorkerPool::new(4);
        let mut buf = vec![0u32; 100];
        let bounds = [0usize, 13, 50, 77, 100];
        {
            let out = Disjoint::new(&mut buf);
            pool.run(bounds.len() - 1, |t| {
                // SAFETY: `bounds` ascends, so the tasks' ranges are disjoint.
                let chunk = unsafe { out.slice(bounds[t], bounds[t + 1]) };
                for (k, v) in chunk.iter_mut().enumerate() {
                    *v = (bounds[t] + k) as u32;
                }
            });
        }
        let expect: Vec<u32> = (0..100).collect();
        assert_eq!(buf, expect);
    }

    #[test]
    fn task_ranges_tile_the_index_space() {
        for n in [0usize, 1, 7, 16, 257] {
            for tasks in 1..=9 {
                let mut next = 0;
                for t in 0..tasks {
                    let r = task_range(t, tasks, n);
                    assert_eq!(r.start, next, "gap or overlap at task {t} of {tasks}");
                    next = r.end;
                }
                assert_eq!(next, n);
            }
        }
    }

    #[test]
    #[should_panic(expected = "at most")]
    fn oversized_pool_is_rejected_before_spawning() {
        let _ = WorkerPool::new(MAX_POOL_THREADS + 1);
    }

    #[test]
    fn zero_tasks_and_single_thread_paths_are_inline() {
        let pool = WorkerPool::new(1);
        assert_eq!(pool.threads(), 1);
        assert!(pool.shared.is_none(), "a lone caller shares nothing");
        pool.run(0, |_| panic!("must not run"));
        let mut states: Vec<u8> = vec![];
        pool.run_with(&mut states, |_, _| panic!("must not run"));
        let mut one = [7u8];
        pool.run_with(&mut one, |i, s| *s = i as u8);
        assert_eq!(one, [0]);
    }
}
