//! Round executors: where one scheduling round's shard work runs.
//!
//! The host's scheduling spine is serial (calendar pops, tenant PRNGs,
//! slot-grid serves, the leakage ledger) and posts each served slot's
//! [`LaneRequest`] to a round-local [`Executor`] in serve order. Under
//! `ParallelKind::Serial` the executor runs every request inline on the
//! spine thread; under `ParallelKind::Threads` it deals the lanes to a
//! persistent [`WorkerPool`] and each worker drains its
//! [`WorkerChannel`] strictly FIFO.
//!
//! Because every lane is assigned to exactly one worker, FIFO per
//! channel implies FIFO per lane — each shard sees its requests in the
//! exact order the inline executor would run them, so the per-lane
//! arithmetic (busy clocks, stage pipelines, stash contents, RNG-free
//! histograms) is bit-identical at any thread count. The i-th request
//! posted to a channel produces the i-th completion on that channel,
//! which is how the spine correlates completions back to slots without
//! any timestamps or thread identity leaking into results.

use std::collections::VecDeque;
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use otc_dram::Cycle;

use crate::shard::{Lane, LaneOp, ShardService, ShardedOram};

/// One unit of shard work: which lane, at what slot time, doing what.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LaneRequest {
    /// Global lane (shard) index.
    pub(crate) lane: usize,
    /// Slot time the access is charged at.
    pub(crate) at: Cycle,
    /// The routed operation.
    pub(crate) op: LaneOp,
}

struct ChannelState {
    queue: VecDeque<LaneRequest>,
    completions: Vec<ShardService>,
    posted: usize,
    closed: bool,
}

/// A single-producer single-consumer work queue between the spine and
/// one worker thread, with completion indexing: the i-th posted request
/// yields `completions[i]`.
struct WorkerChannel {
    state: Mutex<ChannelState>,
    work: Condvar,
    done: Condvar,
}

impl WorkerChannel {
    /// An empty open channel.
    fn new() -> Self {
        Self {
            state: Mutex::new(ChannelState {
                queue: VecDeque::new(),
                completions: Vec::new(),
                posted: 0,
                closed: false,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
        }
    }

    /// Posts one request; returns its completion index on this channel.
    fn post(&self, req: LaneRequest) -> usize {
        let mut s = self.state.lock().expect("channel poisoned");
        let index = s.posted;
        s.posted += 1;
        s.queue.push_back(req);
        drop(s);
        self.work.notify_one();
        index
    }

    /// Marks the channel closed: workers drain the remaining queue and
    /// exit.
    fn close(&self) {
        self.state.lock().expect("channel poisoned").closed = true;
        self.work.notify_all();
    }

    /// Worker side: blocks for the next request; `None` once the
    /// channel is closed and drained.
    fn next_request(&self) -> Option<LaneRequest> {
        let mut s = self.state.lock().expect("channel poisoned");
        loop {
            if let Some(req) = s.queue.pop_front() {
                return Some(req);
            }
            if s.closed {
                return None;
            }
            s = self.work.wait(s).expect("channel poisoned");
        }
    }

    /// Worker side: records one completion (strictly in request order).
    fn complete(&self, svc: ShardService) {
        self.state
            .lock()
            .expect("channel poisoned")
            .completions
            .push(svc);
        self.done.notify_all();
    }

    /// Spine side: blocks until completion `index` exists and returns it.
    fn wait_completion(&self, index: usize) -> ShardService {
        let mut s = self.state.lock().expect("channel poisoned");
        while s.completions.len() <= index {
            s = self.done.wait(s).expect("channel poisoned");
        }
        s.completions[index]
    }

    /// Spine side, after the worker exited: copies every completion (in
    /// request order) into `out` and clears the channel's own buffer in
    /// place — both allocations survive for the next round.
    fn take_completions_into(&self, out: &mut Vec<ShardService>) {
        out.clear();
        let mut s = self.state.lock().expect("channel poisoned");
        out.extend_from_slice(&s.completions);
        s.completions.clear();
    }

    /// Reopens a drained channel for the next round. The queue must be
    /// empty (the worker drained it before returning its lanes) and the
    /// completions taken; only the `posted` counter and the closed flag
    /// need rewinding.
    fn reset(&self) {
        let mut s = self.state.lock().expect("channel poisoned");
        debug_assert!(s.queue.is_empty(), "reset with queued work");
        debug_assert!(s.completions.is_empty(), "reset with untaken completions");
        s.posted = 0;
        s.closed = false;
    }
}

/// One round's worth of work handed to a pool worker: the lanes it owns
/// for the round (each lane carries its own timing parameters) and the
/// channel the spine posts requests on. `stride` is the active worker
/// count — lane `i` lives at position `i / stride` in `lanes` (the
/// spine deals lane `i` to worker `i % stride`).
struct RoundWork {
    /// This worker's lanes for the round (returned when it ends).
    lanes: Vec<Lane>,
    /// The spine→worker request channel for the round.
    channel: Arc<WorkerChannel>,
    /// Active worker count (lane-index stride).
    stride: usize,
}

/// A persistent pool of worker threads, spawned once per host and
/// reused every threaded round — per-round `thread::spawn` overhead
/// would otherwise dwarf the shard work it parallelizes. Each round the
/// spine *moves* lane ownership to the workers ([`RoundWork`]), the
/// workers drain their channels FIFO, and the lanes come back when the
/// channel closes. Between rounds workers block on an empty mpsc
/// receiver; dropping the pool disconnects it and joins every thread.
pub(crate) struct WorkerPool {
    workers: Vec<PoolWorker>,
    /// Per-worker request channels of the active workers, reopened
    /// every round (their queue/completion allocations persist).
    channels: Vec<Arc<WorkerChannel>>,
    /// Per-worker lane deal-out buffers; the allocations round-trip
    /// through the workers and come back for the next round.
    groups: Vec<Vec<Lane>>,
}

struct PoolWorker {
    /// `Some` until drop: dropping the sender is the shutdown signal.
    work: Option<mpsc::Sender<RoundWork>>,
    lanes_back: mpsc::Receiver<Vec<Lane>>,
    handle: Option<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns `threads` workers, each parked until its first round.
    pub(crate) fn new(threads: usize) -> Self {
        let workers = (0..threads)
            .map(|_| {
                let (work_tx, work_rx) = mpsc::channel::<RoundWork>();
                let (lanes_tx, lanes_rx) = mpsc::channel::<Vec<Lane>>();
                let handle = std::thread::spawn(move || {
                    while let Ok(mut round) = work_rx.recv() {
                        while let Some(req) = round.channel.next_request() {
                            let svc = round.lanes[req.lane / round.stride].execute(req.op, req.at);
                            round.channel.complete(svc);
                        }
                        if lanes_tx.send(round.lanes).is_err() {
                            break;
                        }
                    }
                });
                PoolWorker {
                    work: Some(work_tx),
                    lanes_back: lanes_rx,
                    handle: Some(handle),
                }
            })
            .collect();
        Self {
            workers,
            channels: Vec::new(),
            groups: Vec::new(),
        }
    }

    /// Starts a round: deals lane `i` of `lanes` (drained) to worker
    /// `i % active`, where `active` is the pool size clamped to the lane
    /// count, so worker `w` holds lanes `w, w + active, …` in order.
    fn deal(&mut self, lanes: &mut Vec<Lane>) {
        let active = self.workers.len().min(lanes.len()).max(1);
        if self.channels.len() != active {
            self.channels.clear();
            self.channels
                .extend((0..active).map(|_| Arc::new(WorkerChannel::new())));
            self.groups.resize_with(active, Vec::new);
        } else {
            for channel in &self.channels {
                channel.reset();
            }
        }
        for (i, lane) in lanes.drain(..).enumerate() {
            self.groups[i % active].push(lane);
        }
        for (w, group) in self.groups.iter_mut().enumerate() {
            let work = RoundWork {
                lanes: std::mem::take(group),
                channel: self.channels[w].clone(),
                stride: active,
            };
            let sender = self.workers[w].work.as_ref().expect("pool not shut down");
            sender.send(work).expect("worker thread alive");
        }
    }

    /// Ends a round: closes the channels, blocks until every worker has
    /// drained its own and refills `lanes` in index order, then copies
    /// each worker's completions into `completions[w]`.
    fn collect(&mut self, lanes: &mut Vec<Lane>, completions: &mut Vec<Vec<ShardService>>) {
        let active = self.channels.len();
        for channel in &self.channels {
            channel.close();
        }
        // Each returned group is reversed so `pop()` yields its lanes
        // front-first.
        for (w, group) in self.groups.iter_mut().enumerate() {
            *group = self.workers[w]
                .lanes_back
                .recv()
                .expect("worker thread alive");
            group.reverse();
        }
        let n_lanes = self.groups.iter().map(Vec::len).sum::<usize>();
        for i in 0..n_lanes {
            lanes.push(self.groups[i % active].pop().expect("lane count conserved"));
        }
        completions.resize_with(active, Vec::new);
        for (channel, out) in self.channels.iter().zip(completions.iter_mut()) {
            channel.take_completions_into(out);
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        for worker in &mut self.workers {
            worker.work = None; // disconnects the receiver; worker exits
            if let Some(handle) = worker.handle.take() {
                let _ = handle.join();
            }
        }
    }
}

/// Where one round's shard work runs. The spine posts every served
/// slot's [`LaneRequest`] in serve order and gets back a `(worker,
/// index)` ticket; after [`Executor::finish`], ticket `(w, i)` names
/// `completions[w][i]` of the buffer the executor was built over.
pub(crate) enum Executor<'a> {
    /// Every request executes on the spine thread the moment it is
    /// posted; completions land in worker slot 0.
    Inline {
        sharded: &'a mut ShardedOram,
        done: &'a mut Vec<ShardService>,
    },
    /// The lanes are out on the pool for the round.
    Pool {
        sharded: &'a mut ShardedOram,
        pool: &'a mut WorkerPool,
        completions: &'a mut Vec<Vec<ShardService>>,
        /// The pool's emptied lane vector, refilled by `finish`.
        lanes: Vec<Lane>,
    },
}

impl<'a> Executor<'a> {
    /// An executor that runs each request inline on the caller's thread.
    pub(crate) fn inline(
        sharded: &'a mut ShardedOram,
        completions: &'a mut Vec<Vec<ShardService>>,
    ) -> Self {
        completions.resize_with(1, Vec::new);
        let done = &mut completions[0];
        done.clear();
        Executor::Inline { sharded, done }
    }

    /// An executor that deals `sharded`'s lanes to `pool` for one round.
    pub(crate) fn pool(
        sharded: &'a mut ShardedOram,
        pool: &'a mut WorkerPool,
        completions: &'a mut Vec<Vec<ShardService>>,
    ) -> Self {
        let mut lanes = sharded.take_lanes();
        pool.deal(&mut lanes);
        Executor::Pool {
            sharded,
            pool,
            completions,
            lanes,
        }
    }

    /// Posts one request; returns its `(worker, index)` ticket.
    pub(crate) fn post(&mut self, req: LaneRequest) -> (usize, usize) {
        match self {
            Executor::Inline { sharded, done } => {
                done.push(sharded.execute(req.lane, req.op, req.at));
                (0, done.len() - 1)
            }
            Executor::Pool { pool, .. } => {
                let w = req.lane % pool.channels.len();
                (w, pool.channels[w].post(req))
            }
        }
    }

    /// The completion behind `ticket`, mid-round. Under the pool this
    /// blocks until the owning worker reaches that (already posted)
    /// request — never circularly.
    pub(crate) fn completion(&self, (w, i): (usize, usize)) -> ShardService {
        match self {
            Executor::Inline { done, .. } => done[i],
            Executor::Pool { pool, .. } => pool.channels[w].wait_completion(i),
        }
    }

    /// Ends the round. Under the pool the lanes return to `sharded` and
    /// every worker's completions are copied out; either way every
    /// ticket is readable afterwards.
    pub(crate) fn finish(self) {
        if let Executor::Pool {
            sharded,
            pool,
            completions,
            mut lanes,
        } = self
        {
            pool.collect(&mut lanes, completions);
            sharded.put_lanes(lanes);
        }
    }
}
