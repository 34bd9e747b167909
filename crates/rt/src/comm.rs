//! Ranks, communicators, point-to-point messaging and collectives.
//!
//! A [`World`] spawns `n` threads, one per rank, each receiving a [`Comm`]
//! that spans all ranks. Sub-communicators are built with [`Comm::group`]
//! (explicit rank lists, used for the rendering group and the 2DIP input
//! groups of the pipeline); a group's identity is a function of its members.
//!
//! Matching: a receive matches on `(communicator, source rank, tag)`.
//! Messages that arrive before they are asked for are parked in a per-thread
//! pending queue, so arbitrary interleavings are safe. A blocking receive
//! that stays unmatched for [`RECV_TIMEOUT`] panics with a diagnostic
//! instead of deadlocking the test suite.
//!
//! Plain sends are buffered and never block. [`Comm::isend_lossy_with_size`]
//! additionally returns a [`SendHandle`] that completes when the *receiver
//! matches* the message (rendezvous semantics) — the backpressure primitive
//! behind the pipeline's bounded prefetch send queue.

use crate::fault::{FaultPlan, SendFault};
use crate::fnv::Fnv1a;
use crate::obs;
use crate::stats::TrafficStats;
use std::any::Any;
use std::cell::{Cell, RefCell};
use std::ops::RangeInclusive;
use std::rc::Rc;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// How long a blocking receive waits before declaring a deadlock.
pub const RECV_TIMEOUT: Duration = Duration::from_secs(60);

/// Tag bit reserved for internal collective traffic; user tags must not
/// set it.
const COLL_BIT: u64 = 1 << 63;

/// Completion flag of a non-blocking send, signalled when the receiver
/// *matches* the message (not when the transport buffers it — the channel
/// always buffers, so buffering completion would make every wait a no-op
/// and the handle useless as a backpressure primitive).
#[derive(Default)]
struct AckState {
    done: Mutex<bool>,
    cv: Condvar,
}

impl AckState {
    fn signal(&self) {
        *self.done.lock().unwrap() = true;
        self.cv.notify_all();
    }
}

struct Envelope {
    comm: u64,
    src_world: usize,
    tag: u64,
    payload: Box<dyn Any + Send>,
    /// Present on non-blocking sends; signalled on match.
    ack: Option<Arc<AckState>>,
}

impl Envelope {
    /// Consume the envelope and hand the payload over; dropping the husk
    /// signals the sender. Every match point must route through this.
    fn open(mut self) -> (usize, Box<dyn Any + Send>) {
        (self.src_world, std::mem::replace(&mut self.payload, Box::new(())))
    }
}

impl Drop for Envelope {
    /// The one place a send completes: the envelope was opened, or it dies
    /// unopened with its receiver's mailbox — the rank exited with the
    /// message still queued — and completes locally, like an MPI eager
    /// send to a failed process. Either way nobody is left who could match
    /// it, so a waiting sender must not wait on.
    fn drop(&mut self) {
        if let Some(ack) = &self.ack {
            ack.signal();
        }
    }
}

/// Handle to an in-flight [`Comm::isend_lossy_with_size`]. The send
/// *completes* when the receiver matches the message (or exits with it
/// unmatched) — rendezvous semantics, so waiting on a handle throttles the
/// sender to the receiver's consumption rate.
///
/// Dropping a handle without waiting is allowed (fire-and-forget, the
/// same as [`Comm::send`]).
pub struct SendHandle {
    ack: Arc<AckState>,
    dst_world: usize,
    tag: u64,
}

impl SendHandle {
    /// Whether the receiver has matched the message yet.
    pub fn is_complete(&self) -> bool {
        *self.ack.done.lock().unwrap()
    }

    /// Block until the receiver matches the message. Panics after
    /// [`RECV_TIMEOUT`] without completion (deadlock guard, mirroring
    /// blocking receives).
    pub fn wait(self) {
        let deadline = std::time::Instant::now() + RECV_TIMEOUT;
        let mut done = self.ack.done.lock().unwrap();
        while !*done {
            let remaining = deadline.saturating_duration_since(std::time::Instant::now());
            let (d, timeout) = self.ack.cv.wait_timeout(done, remaining).unwrap();
            done = d;
            if timeout.timed_out() && !*done {
                panic!(
                    "isend(dst={}, tag={}) unmatched after {:?} — deadlock?",
                    self.dst_world, self.tag, RECV_TIMEOUT
                );
            }
        }
    }
}

/// Wait for every handle to complete, in any completion order.
pub fn wait_all<I: IntoIterator<Item = SendHandle>>(handles: I) {
    for h in handles {
        h.wait();
    }
}

struct Shared {
    senders: Vec<Sender<Envelope>>,
    stats: Arc<TrafficStats>,
    /// Fault schedule consulted by lossy sends; `None`, or a plan that
    /// cannot inject anything, = reliable world.
    faults: Option<Arc<FaultPlan>>,
}

struct Mailbox {
    rx: Receiver<Envelope>,
    pending: Vec<Envelope>,
}

/// Spawner for a world of thread-ranks.
pub struct World;

impl World {
    /// Spawn `n` ranks, run `f` on each with its world communicator, and
    /// return the per-rank results in rank order.
    pub fn run<R, F>(n: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(Comm) -> R + Send + Sync,
    {
        Self::run_traced(n, TrafficStats::new(), f)
    }

    /// Like [`World::run`] but records message/byte traffic into `stats`.
    pub fn run_traced<R, F>(n: usize, stats: Arc<TrafficStats>, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(Comm) -> R + Send + Sync,
    {
        Self::run_faulted(n, stats, None, f)
    }

    /// Like [`World::run_traced`] but with an optional fault plan: lossy
    /// sends consult it, and — when it can inject anything
    /// ([`crate::FaultSpec::can_inject`]) — sends to a rank that has
    /// already exited (a scripted failure) are swallowed instead of
    /// panicking.
    pub fn run_faulted<R, F>(
        n: usize,
        stats: Arc<TrafficStats>,
        faults: Option<Arc<FaultPlan>>,
        f: F,
    ) -> Vec<R>
    where
        R: Send,
        F: Fn(Comm) -> R + Send + Sync,
    {
        assert!(n > 0, "world needs at least one rank");
        let mut senders = Vec::with_capacity(n);
        let mut receivers = Vec::with_capacity(n);
        for _ in 0..n {
            let (tx, rx) = channel();
            senders.push(tx);
            receivers.push(rx);
        }
        let shared = Arc::new(Shared { senders, stats, faults });
        let f = &f;
        let mut results: Vec<Option<R>> = (0..n).map(|_| None).collect();
        std::thread::scope(|scope| {
            let handles: Vec<_> = receivers
                .into_iter()
                .enumerate()
                .map(|(rank, rx)| {
                    let shared = Arc::clone(&shared);
                    scope.spawn(move || {
                        let comm = Comm {
                            shared,
                            mailbox: Rc::new(RefCell::new(Mailbox { rx, pending: Vec::new() })),
                            id: 0,
                            ranks: Arc::new((0..n).collect()),
                            my_rank: rank,
                            coll_seq: Cell::new(0),
                        };
                        f(comm)
                    })
                })
                .collect();
            for (rank, h) in handles.into_iter().enumerate() {
                results[rank] = Some(h.join().expect("rank thread panicked"));
            }
        });
        results.into_iter().map(|r| r.unwrap()).collect()
    }
}

/// A communicator: a set of ranks that can exchange messages and run
/// collectives. Cheap to clone within its owning thread; not `Send`.
pub struct Comm {
    shared: Arc<Shared>,
    mailbox: Rc<RefCell<Mailbox>>,
    /// Globally unique communicator id, identical on every member.
    id: u64,
    /// Communicator rank -> world rank.
    ranks: Arc<Vec<usize>>,
    /// This rank's position within `ranks`.
    my_rank: usize,
    /// Collective sequence number (kept in lock-step by matched calls).
    coll_seq: Cell<u64>,
}

impl Comm {
    /// This rank's id within the communicator.
    #[inline]
    pub fn rank(&self) -> usize {
        self.my_rank
    }

    /// Number of ranks in the communicator.
    #[inline]
    pub fn size(&self) -> usize {
        self.ranks.len()
    }

    // ------------------------------------------------------------------
    // point-to-point
    // ------------------------------------------------------------------

    /// Buffered (non-blocking) send of any `Send + 'static` value.
    ///
    /// Traffic accounting charges `size_of::<T>()`; use
    /// [`Comm::send_with_size`] when the payload owns heap data whose size
    /// matters to the experiment.
    pub fn send<T: Send + 'static>(&self, dst: usize, tag: u64, value: T) {
        self.send_with_size(dst, tag, value, std::mem::size_of::<T>() as u64)
    }

    /// Buffered send with an explicit payload byte count for accounting.
    pub fn send_with_size<T: Send + 'static>(&self, dst: usize, tag: u64, value: T, bytes: u64) {
        assert!(tag & COLL_BIT == 0, "user tags must not set the top bit");
        self.send_raw(dst, tag, Box::new(value), bytes);
    }

    /// Non-blocking send returning a completion handle; completion means
    /// the destination has *matched* (consumed) the message. The send is
    /// subject to the world's fault plan: when the plan fires the message
    /// is dropped on the wire or delayed by the plan's `delay_ms` (the
    /// sender blocks, modelling a congested link). A dropped send is still
    /// charged to the traffic counters — the sender did transmit it — and
    /// returns an already-completed handle (the loss happens after the
    /// local buffer was handed off), so [`SendHandle::wait`] never hangs on
    /// it. Without a plan, or under one that never fires, the send is
    /// reliable.
    pub fn isend_lossy_with_size<T: Send + 'static>(
        &self,
        dst: usize,
        tag: u64,
        value: T,
        bytes: u64,
    ) -> SendHandle {
        assert!(tag & COLL_BIT == 0, "user tags must not set the top bit");
        let (src_world, dst_world) = (self.ranks[self.my_rank], self.ranks[dst]);
        let fault =
            self.shared.faults.as_ref().and_then(|p| p.send_fault(src_world, dst_world, tag));
        let ack = Arc::new(AckState::default());
        match fault {
            Some(SendFault::Drop) => {
                self.shared.stats.record_edge(src_world, dst_world, tag, bytes);
                ack.signal();
            }
            delayed => {
                if let Some(SendFault::Delay(d)) = delayed {
                    std::thread::sleep(d);
                }
                self.send_raw_acked(dst, tag, Box::new(value), bytes, Some(Arc::clone(&ack)));
            }
        }
        SendHandle { ack, dst_world, tag }
    }

    fn send_raw(&self, dst: usize, tag: u64, payload: Box<dyn Any + Send>, bytes: u64) {
        self.send_raw_acked(dst, tag, payload, bytes, None);
    }

    fn send_raw_acked(
        &self,
        dst: usize,
        tag: u64,
        payload: Box<dyn Any + Send>,
        bytes: u64,
        ack: Option<Arc<AckState>>,
    ) {
        let dst_world = self.ranks[dst];
        self.shared.stats.record_edge(self.ranks[self.my_rank], dst_world, tag, bytes);
        let result = self.shared.senders[dst_world].send(Envelope {
            comm: self.id,
            src_world: self.ranks[self.my_rank],
            tag,
            payload,
            ack,
        });
        // A dropped receiver means the destination thread returned. Under
        // a plan that can inject faults that is a scripted rank death — the
        // send completes locally (the returned envelope drops here) so
        // survivors keep running; otherwise it is a real bug.
        let scripted = || self.shared.faults.as_ref().is_some_and(|p| p.spec().can_inject());
        if result.is_err() && !scripted() {
            panic!("receiving rank has exited");
        }
    }

    /// Blocking receive of a `T` from communicator rank `src` with `tag`.
    ///
    /// Panics if the matched payload is not a `T`, or after
    /// [`RECV_TIMEOUT`] without a match (deadlock guard).
    pub fn recv<T: Send + 'static>(&self, src: usize, tag: u64) -> T {
        assert!(tag & COLL_BIT == 0, "user tags must not set the top bit");
        self.recv_matched(Some(self.ranks[src]), tag..=tag).2
    }

    /// Blocking receive from *any* source; returns `(source rank, value)`.
    pub fn recv_any<T: Send + 'static>(&self, tag: u64) -> (usize, T) {
        assert!(tag & COLL_BIT == 0, "user tags must not set the top bit");
        let (src_world, _, v) = self.recv_matched(None, tag..=tag);
        (self.rank_of(src_world), v)
    }

    /// The communicator rank of world rank `src_world`, a message's sender.
    fn rank_of(&self, src_world: usize) -> usize {
        self.ranks
            .iter()
            .position(|&w| w == src_world)
            .expect("message from a rank outside this communicator")
    }

    /// Deadline-aware receive: block for at most `timeout` waiting for a
    /// match from communicator rank `src`, then give up with `None` — a
    /// normal, recoverable outcome, unlike the [`RECV_TIMEOUT`] deadlock
    /// guard. A zero `timeout` polls: it still sees everything that has
    /// already arrived. The message can still be claimed by a later
    /// receive if it arrives afterwards (it parks in pending as usual).
    pub fn try_recv_for<T: Send + 'static>(
        &self,
        src: usize,
        tag: u64,
        timeout: Duration,
    ) -> Option<T> {
        assert!(tag & COLL_BIT == 0, "user tags must not set the top bit");
        Some(self.recv_matched_deadline(Some(self.ranks[src]), tag..=tag, timeout)?.2)
    }

    /// Receive from *any* source of any tag in `tags`: `Some((source rank,
    /// tag, value))`, or `None` once `timeout` expires unmatched. Without a
    /// timeout it blocks like [`Comm::recv_any`], under the same
    /// [`RECV_TIMEOUT`] deadlock guard. A range lets a receiver that gave
    /// an earlier tag up at its deadline still match — and so complete —
    /// what arrives late.
    pub fn recv_any_for<T: Send + 'static>(
        &self,
        tags: RangeInclusive<u64>,
        timeout: Option<Duration>,
    ) -> Option<(usize, u64, T)> {
        assert!(tags.end() & COLL_BIT == 0, "user tags must not set the top bit");
        let (src_world, tag, v) = match timeout {
            Some(timeout) => self.recv_matched_deadline(None, tags, timeout)?,
            None => self.recv_matched(None, tags),
        };
        Some((self.rank_of(src_world), tag, v))
    }

    fn recv_matched_deadline<T: Send + 'static>(
        &self,
        src_world: Option<usize>,
        tags: RangeInclusive<u64>,
        timeout: Duration,
    ) -> Option<(usize, u64, T)> {
        let mut mb = self.mailbox.borrow_mut();
        let matches = |e: &Envelope| {
            e.comm == self.id && tags.contains(&e.tag) && src_world.is_none_or(|s| e.src_world == s)
        };
        if let Some(pos) = mb.pending.iter().position(matches) {
            let env = mb.pending.swap_remove(pos);
            let tag = env.tag;
            let (src, payload) = env.open();
            return Some((src, tag, Self::downcast(payload, tag)));
        }
        let _sp = obs::auto_span(obs::Phase::CommRecv, obs::NO_STEP);
        let deadline = std::time::Instant::now() + timeout;
        loop {
            let remaining = deadline.saturating_duration_since(std::time::Instant::now());
            match mb.rx.recv_timeout(remaining) {
                Ok(env) => {
                    if matches(&env) {
                        let tag = env.tag;
                        let (src, payload) = env.open();
                        return Some((src, tag, Self::downcast(payload, tag)));
                    }
                    mb.pending.push(env);
                }
                Err(_) => return None,
            }
        }
    }

    /// The blocking receive: a deadline receive under the deadlock guard.
    fn recv_matched<T: Send + 'static>(
        &self,
        src_world: Option<usize>,
        tags: RangeInclusive<u64>,
    ) -> (usize, u64, T) {
        self.recv_matched_deadline(src_world, tags.clone(), RECV_TIMEOUT).unwrap_or_else(|| {
            panic!(
                "rank {} (comm {}): recv(src={:?}, tags={:?}) unmatched after {:?} — deadlock?",
                self.my_rank, self.id, src_world, tags, RECV_TIMEOUT
            )
        })
    }

    fn downcast<T: 'static>(payload: Box<dyn Any + Send>, tag: u64) -> T {
        *payload.downcast::<T>().unwrap_or_else(|_| {
            panic!("type mismatch on tag {tag}: expected {}", std::any::type_name::<T>())
        })
    }

    // ------------------------------------------------------------------
    // collectives (must be called by all ranks of the communicator, in
    // the same order)
    // ------------------------------------------------------------------

    fn next_coll_tag(&self) -> u64 {
        let seq = self.coll_seq.get();
        self.coll_seq.set(seq + 1);
        COLL_BIT | seq
    }

    fn coll_send<T: Send + 'static>(&self, dst: usize, tag: u64, value: T) {
        self.send_raw(dst, tag, Box::new(value), std::mem::size_of::<T>() as u64);
    }

    fn coll_recv<T: Send + 'static>(&self, src: usize, tag: u64) -> T {
        self.recv_matched(Some(self.ranks[src]), tag..=tag).2
    }

    /// Block until every rank of the communicator has entered the barrier.
    pub fn barrier(&self) {
        let _sp = obs::auto_span(obs::Phase::Barrier, obs::NO_STEP);
        let tag = self.next_coll_tag();
        // gather to 0, then broadcast
        if self.my_rank == 0 {
            for src in 1..self.size() {
                let () = self.coll_recv(src, tag);
            }
            for dst in 1..self.size() {
                self.coll_send(dst, tag, ());
            }
        } else {
            self.coll_send(0, tag, ());
            let () = self.coll_recv(0, tag);
        }
    }

    /// Broadcast `value` from `root` to every rank; each rank passes its
    /// own `value` (ignored off-root) and receives the root's. Charged at
    /// `size_of::<T>()` per message.
    pub fn bcast<T: Clone + Send + 'static>(&self, root: usize, value: T) -> T {
        self.bcast_with_size(root, value, std::mem::size_of::<T>() as u64)
    }

    /// Gather one value from every rank to `root`; returns `Some(values)`
    /// in rank order at the root, `None` elsewhere. Charged at
    /// `size_of::<T>()` per contribution.
    pub fn gather<T: Send + 'static>(&self, root: usize, value: T) -> Option<Vec<T>> {
        self.gather_with_size(root, value, std::mem::size_of::<T>() as u64)
    }

    /// [`Comm::bcast`] with an explicit per-message byte count for exact
    /// traffic accounting of heap payloads.
    fn bcast_with_size<T: Clone + Send + 'static>(&self, root: usize, value: T, bytes: u64) -> T {
        let tag = self.next_coll_tag();
        if self.my_rank == root {
            for dst in 0..self.size() {
                if dst != root {
                    self.send_raw(dst, tag, Box::new(value.clone()), bytes);
                }
            }
            value
        } else {
            self.coll_recv(root, tag)
        }
    }

    /// [`Comm::gather`] with an explicit byte count for this rank's
    /// contribution.
    fn gather_with_size<T: Send + 'static>(
        &self,
        root: usize,
        value: T,
        bytes: u64,
    ) -> Option<Vec<T>> {
        let tag = self.next_coll_tag();
        if self.my_rank == root {
            let mut slots: Vec<Option<T>> = (0..self.size()).map(|_| None).collect();
            slots[root] = Some(value);
            for src in 0..self.size() {
                if src != root {
                    slots[src] = Some(self.coll_recv(src, tag));
                }
            }
            Some(slots.into_iter().map(|s| s.unwrap()).collect())
        } else {
            self.send_raw(root, tag, Box::new(value), bytes);
            None
        }
    }

    /// Gather one value from every rank to every rank (rank order), with
    /// an explicit byte count for this rank's contribution.
    /// Contributions travel to rank 0 charged at their own
    /// size; the re-broadcast of the combined vector is charged at the sum
    /// of all contributions — so the matrix sees the true wire volume.
    pub fn allgather_with_size<T: Clone + Send + 'static>(&self, value: T, bytes: u64) -> Vec<T> {
        let gathered = self.gather_with_size(0, (value, bytes), bytes);
        let (values, total) = match gathered {
            Some(pairs) => {
                let total: u64 = pairs.iter().map(|&(_, b)| b).sum();
                (pairs.into_iter().map(|(v, _)| v).collect(), total)
            }
            None => (Vec::new(), 0),
        };
        self.bcast_with_size(0, values, total)
    }

    /// Reduce with a binary operator (rank order fold at rank 0) to every
    /// rank.
    pub fn allreduce<T, F>(&self, value: T, op: F) -> T
    where
        T: Clone + Send + 'static,
        F: Fn(T, T) -> T,
    {
        let reduced = self.gather(0, value).and_then(|all| all.into_iter().reduce(op));
        // off-root the `None` is ignored; everyone leaves with rank 0's fold
        self.bcast_with_size(0, reduced, std::mem::size_of::<T>() as u64)
            .expect("rank 0 folds at least its own value")
    }

    // ------------------------------------------------------------------
    // sub-communicators
    // ------------------------------------------------------------------

    /// Build a sub-communicator from an explicit list of parent ranks.
    ///
    /// No message traffic: the id is a pure function of the parent's id
    /// and the member list, so every member that builds the same list —
    /// whenever, and however many other groups it built before — holds the
    /// same communicator. Collective sequence numbers start at 0, so the
    /// members must start using a group at the same point of the protocol.
    /// Members get `Some(comm)`, non-members `None`.
    pub fn group(&self, members: &[usize]) -> Option<Comm> {
        let my_rank = members.iter().position(|&r| r == self.my_rank)?;
        let words = [self.id].into_iter().chain(members.iter().map(|&r| r as u64));
        Some(Comm {
            shared: Arc::clone(&self.shared),
            mailbox: Rc::clone(&self.mailbox),
            id: Fnv1a::standard().words(words).finish() | 1, // never the world id 0
            ranks: Arc::new(members.iter().map(|&r| self.ranks[r]).collect()),
            my_rank,
            coll_seq: Cell::new(0),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::TagClass;

    #[test]
    fn single_rank_world() {
        let out = World::run(1, |comm| {
            assert_eq!(comm.rank(), 0);
            assert_eq!(comm.size(), 1);
            comm.barrier();
            comm.allgather_with_size(42usize, 8)
        });
        assert_eq!(out, vec![vec![42]]);
    }

    #[test]
    fn ring_send_recv() {
        let n = 6;
        let out = World::run(n, |comm| {
            let right = (comm.rank() + 1) % comm.size();
            let left = (comm.rank() + comm.size() - 1) % comm.size();
            comm.send(right, 1, comm.rank());
            let got: usize = comm.recv(left, 1);
            got
        });
        for (rank, got) in out.iter().enumerate() {
            assert_eq!(*got, (rank + n - 1) % n);
        }
    }

    #[test]
    fn tag_matching_out_of_order() {
        let out = World::run(2, |comm| {
            if comm.rank() == 0 {
                // send tag 2 first, then tag 1
                comm.send(1, 2, "second".to_string());
                comm.send(1, 1, "first".to_string());
                (String::new(), String::new())
            } else {
                // receive tag 1 first even though tag 2 arrived first
                let a: String = comm.recv(0, 1);
                let b: String = comm.recv(0, 2);
                (a, b)
            }
        });
        assert_eq!(out[1], ("first".to_string(), "second".to_string()));
    }

    #[test]
    fn recv_any_collects_all_sources() {
        let out = World::run(5, |comm| {
            if comm.rank() == 0 {
                let mut seen = vec![false; comm.size()];
                for _ in 1..comm.size() {
                    let (src, v): (usize, usize) = comm.recv_any(9);
                    assert_eq!(v, src * 10);
                    seen[src] = true;
                }
                seen.iter().skip(1).all(|&s| s)
            } else {
                comm.send(0, 9, comm.rank() * 10);
                true
            }
        });
        assert!(out.iter().all(|&b| b));
    }

    #[test]
    fn try_recv_nonblocking() {
        let out = World::run(2, |comm| {
            if comm.rank() == 0 {
                comm.barrier();
                comm.send(1, 5, 123u32);
                comm.barrier();
                true
            } else {
                // nothing sent yet
                assert!(comm.try_recv_for::<u32>(0, 5, Duration::ZERO).is_none());
                comm.barrier();
                comm.barrier();
                // now it must be there
                comm.try_recv_for::<u32>(0, 5, Duration::ZERO) == Some(123)
            }
        });
        assert!(out.iter().all(|&b| b));
    }

    #[test]
    fn bcast_from_nonzero_root() {
        let out = World::run(4, |comm| comm.bcast(2, if comm.rank() == 2 { 77 } else { 0 }));
        assert_eq!(out, vec![77; 4]);
    }

    #[test]
    fn gather_in_rank_order() {
        let out = World::run(4, |comm| comm.gather(1, comm.rank() * comm.rank()));
        assert_eq!(out[1], Some(vec![0, 1, 4, 9]));
        assert_eq!(out[0], None);
    }

    #[test]
    fn allreduce_folds_to_every_rank() {
        let out = World::run(5, |comm| {
            let sum = comm.allreduce(comm.rank() as u64, |a, b| a + b);
            let max = comm.allreduce(comm.rank() as u64, u64::max);
            (sum, max)
        });
        assert!(out.iter().all(|&(s, m)| s == 10 && m == 4));
    }

    #[test]
    fn group_members_and_nonmembers() {
        let out = World::run(5, |comm| {
            let g = comm.group(&[1, 3, 4]);
            match g {
                Some(sub) => {
                    let members = sub.allgather_with_size(comm.rank(), 8);
                    Some((sub.rank(), members))
                }
                None => None,
            }
        });
        assert!(out[0].is_none() && out[2].is_none());
        assert_eq!(out[1], Some((0, vec![1, 3, 4])));
        assert_eq!(out[3], Some((1, vec![1, 3, 4])));
        assert_eq!(out[4], Some((2, vec![1, 3, 4])));
    }

    /// A communicator's identity is its member list: rank 2 builds two
    /// other groups first — as a pipeline rank that slept through its
    /// peers' regroups would — and still lands in the communicator rank 0
    /// built straight away.
    #[test]
    fn group_identity_ignores_earlier_group_calls() {
        let out = World::run(3, |comm| {
            if comm.rank() == 1 {
                return None;
            }
            if comm.rank() == 2 {
                let _ = (comm.group(&[1, 2]), comm.group(&[2]));
            }
            let pair = comm.group(&[0, 2]).expect("a member");
            Some(pair.allgather_with_size(comm.rank(), 8))
        });
        assert_eq!(out, vec![Some(vec![0, 2]), None, Some(vec![0, 2])]);
    }

    #[test]
    fn nested_groups_do_not_cross_talk() {
        let out = World::run(4, |comm| {
            let front = comm.group(&[0, 1]);
            let back = comm.group(&[2, 3]);
            // identical tags on both subcomms must not collide
            if let Some(sub) = front {
                if sub.rank() == 0 {
                    sub.send(1, 7, 111u32);
                    0
                } else {
                    sub.recv::<u32>(0, 7)
                }
            } else if let Some(sub) = back {
                if sub.rank() == 0 {
                    sub.send(1, 7, 222u32);
                    0
                } else {
                    sub.recv::<u32>(0, 7)
                }
            } else {
                unreachable!()
            }
        });
        assert_eq!(out, vec![0, 111, 0, 222]);
    }

    #[test]
    fn traffic_stats_counted() {
        let stats = TrafficStats::new();
        World::run_traced(2, Arc::clone(&stats), |comm| {
            if comm.rank() == 0 {
                comm.send_with_size(1, 3, vec![0u8; 1000], 1000);
            } else {
                let _: Vec<u8> = comm.recv(0, 3);
            }
        });
        assert_eq!(stats.bytes(), 1000);
        assert_eq!(stats.messages(), 1);
    }

    #[test]
    fn sized_collectives_charge_wire_bytes() {
        let stats = TrafficStats::with_matrix_default(3);
        World::run_traced(3, Arc::clone(&stats), |comm| {
            // each rank contributes 100*(rank+1) bytes
            let mine = vec![0u8; 100 * (comm.rank() + 1)];
            let bytes = mine.len() as u64;
            let all = comm.allgather_with_size(mine, bytes);
            assert_eq!(all.iter().map(|v| v.len()).sum::<usize>(), 600);
        });
        // ranks 1,2 ship 200+300 to rank 0; rank 0 rebroadcasts 600 twice
        assert_eq!(stats.bytes(), 200 + 300 + 600 * 2);
        let (_, coll_bytes) = stats.edge(0, 1, TagClass::Collective);
        assert_eq!(coll_bytes, 600);
        let totals = stats.class_totals();
        let coll = totals.iter().find(|(c, _, _)| *c == TagClass::Collective).unwrap();
        assert_eq!(coll.2, stats.bytes());
    }

    #[test]
    #[should_panic(expected = "rank thread panicked")]
    fn type_mismatch_panics() {
        World::run(2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 1, 1.5f64);
            } else {
                let _: u32 = comm.recv(0, 1);
            }
        });
    }

    #[test]
    fn message_storm_all_to_all() {
        // stress: every rank sends many tagged messages to every rank in
        // scrambled order; matching must sort it out
        let n = 5;
        let out = World::run(n, |comm| {
            for round in 0..20u64 {
                for dst in 0..comm.size() {
                    comm.send(dst, 100 + round, (comm.rank(), round));
                }
            }
            // receive in reverse round order from each source
            let mut sum = 0u64;
            for src in (0..comm.size()).rev() {
                for round in (0..20u64).rev() {
                    let (s, r): (usize, u64) = comm.recv(src, 100 + round);
                    assert_eq!((s, r), (src, round));
                    sum += r;
                }
            }
            sum
        });
        assert!(out.iter().all(|&s| s == 5 * 190));
    }

    #[test]
    fn isend_completes_only_on_match() {
        let out = World::run(2, |comm| {
            if comm.rank() == 0 {
                let h = comm.isend_lossy_with_size(1, 11, 42u32, 4);
                // rank 1 cannot have matched tag 11 yet: it only calls
                // recv(0, 11) after the barrier below, and the barrier
                // cannot complete before we enter it.
                let premature = h.is_complete();
                comm.barrier();
                h.wait();
                !premature
            } else {
                comm.barrier();
                let v: u32 = comm.recv(0, 11);
                v == 42
            }
        });
        assert!(out.iter().all(|&b| b));
    }

    #[test]
    fn isend_acked_when_parked_message_is_matched() {
        // the message arrives during rank 1's barrier (parked unmatched in
        // pending); the ack must fire when the later recv matches it from
        // the pending queue, not when it was parked
        let out = World::run(2, |comm| {
            if comm.rank() == 0 {
                let h = comm.isend_lossy_with_size(1, 21, vec![1u8, 2, 3], 3);
                comm.barrier();
                h.wait();
                true
            } else {
                comm.barrier();
                let v: Vec<u8> = comm.recv(0, 21);
                v == vec![1, 2, 3]
            }
        });
        assert!(out.iter().all(|&b| b));
    }

    #[test]
    fn try_recv_completes_isend() {
        let out = World::run(2, |comm| {
            if comm.rank() == 0 {
                let h = comm.isend_lossy_with_size(1, 31, 7u64, 8);
                comm.barrier();
                comm.barrier();
                h.is_complete()
            } else {
                comm.barrier();
                // spin until the nonblocking receive sees it
                let mut got = None;
                while got.is_none() {
                    got = comm.try_recv_for::<u64>(0, 31, Duration::ZERO);
                }
                comm.barrier();
                got == Some(7)
            }
        });
        assert!(out.iter().all(|&b| b));
    }

    #[test]
    fn wait_all_drains_out_of_order_receives() {
        let out = World::run(3, |comm| {
            if comm.rank() == 0 {
                let handles: Vec<SendHandle> = (0..8u64)
                    .flat_map(|i| {
                        [
                            comm.isend_lossy_with_size(1, 100 + i, i, 8),
                            comm.isend_lossy_with_size(2, 100 + i, i * 10, 8),
                        ]
                    })
                    .collect();
                wait_all(handles);
                true
            } else {
                let scale = if comm.rank() == 1 { 1 } else { 10 };
                // receive in reverse order; every handle must still ack
                (0..8u64).rev().all(|i| comm.recv::<u64>(0, 100 + i) == i * scale)
            }
        });
        assert!(out.iter().all(|&b| b));
    }

    #[test]
    fn dropped_handle_is_fire_and_forget() {
        let out = World::run(2, |comm| {
            if comm.rank() == 0 {
                drop(comm.isend_lossy_with_size(1, 41, 9u8, 1));
                true
            } else {
                comm.recv::<u8>(0, 41) == 9
            }
        });
        assert!(out.iter().all(|&b| b));
    }

    #[test]
    fn isend_completes_when_the_receiver_exits_unmatched() {
        // rank 1 leaves with the message still queued: nobody can match it
        // any more, so the wait must return instead of running into the
        // deadlock guard
        World::run(2, |comm| {
            if comm.rank() == 0 {
                let h = comm.isend_lossy_with_size(1, 51, 9u8, 1);
                comm.barrier();
                h.wait();
            } else {
                comm.barrier();
            }
        });
    }

    #[test]
    fn isend_traffic_counted_like_send() {
        let stats = TrafficStats::new();
        World::run_traced(2, Arc::clone(&stats), |comm| {
            if comm.rank() == 0 {
                comm.isend_lossy_with_size(1, 3, vec![0u8; 500], 500).wait();
            } else {
                let _: Vec<u8> = comm.recv(0, 3);
            }
        });
        assert_eq!(stats.bytes(), 500);
        assert_eq!(stats.messages(), 1);
    }

    #[test]
    fn try_recv_for_expires_then_matches() {
        let out = World::run(2, |comm| {
            if comm.rank() == 0 {
                comm.barrier();
                comm.send(1, 8, 5u32);
                true
            } else {
                // nothing sent yet: the deadline must expire
                assert!(comm.try_recv_for::<u32>(0, 8, Duration::from_millis(10)).is_none());
                comm.barrier();
                comm.try_recv_for::<u32>(0, 8, Duration::from_secs(10)) == Some(5)
            }
        });
        assert!(out.iter().all(|&b| b));
    }

    #[test]
    fn try_recv_for_waits_for_late_arrival() {
        let out = World::run(2, |comm| {
            if comm.rank() == 0 {
                std::thread::sleep(Duration::from_millis(20));
                comm.send(1, 8, 7u32);
                true
            } else {
                comm.try_recv_for::<u32>(0, 8, Duration::from_secs(10)) == Some(7)
            }
        });
        assert!(out.iter().all(|&b| b));
    }

    #[test]
    fn timed_out_message_is_claimed_by_later_receive() {
        let out = World::run(2, |comm| {
            if comm.rank() == 0 {
                comm.barrier();
                comm.send(1, 8, 9u32);
                true
            } else {
                assert!(comm.try_recv_for::<u32>(0, 8, Duration::from_millis(5)).is_none());
                comm.barrier();
                // the message sent after our timeout must still match a
                // plain blocking receive
                comm.recv::<u32>(0, 8) == 9
            }
        });
        assert!(out.iter().all(|&b| b));
    }

    #[test]
    fn recv_any_for_takes_parked_and_fresh() {
        let out = World::run(3, |comm| {
            if comm.rank() == 0 {
                let mut got = Vec::new();
                for _ in 1..comm.size() {
                    // no timeout: blocks under the deadlock guard
                    let (src, tag, v) = comm.recv_any_for::<usize>(3..=4, None).unwrap();
                    assert_eq!(tag, 4);
                    assert_eq!(v, src * 3);
                    got.push(src);
                }
                got.sort();
                assert!(comm
                    .recv_any_for::<usize>(4..=4, Some(Duration::from_millis(5)))
                    .is_none());
                got == vec![1, 2]
            } else {
                comm.send(0, 4, comm.rank() * 3);
                true
            }
        });
        assert!(out.iter().all(|&b| b));
    }

    #[test]
    fn lossy_send_without_plan_is_reliable() {
        let out = World::run(2, |comm| {
            if comm.rank() == 0 {
                drop(comm.isend_lossy_with_size(1, 5, 3u32, 4));
                comm.isend_lossy_with_size(1, 6, 4u32, 4).wait();
                true
            } else {
                comm.recv::<u32>(0, 5) == 3 && comm.recv::<u32>(0, 6) == 4
            }
        });
        assert!(out.iter().all(|&b| b));
    }

    #[test]
    fn lossy_send_drops_deterministically_and_ack_completes() {
        use crate::fault::{FaultKind, FaultSpec};
        let plan = FaultPlan::new(FaultSpec::parse("seed=1,send_drop=1").unwrap());
        let out = World::run_faulted(2, TrafficStats::new(), Some(Arc::clone(&plan)), |comm| {
            if comm.rank() == 0 {
                let h = comm.isend_lossy_with_size(1, 5, 1u32, 4);
                assert!(h.is_complete(), "dropped isend must complete immediately");
                h.wait(); // must not hang
                drop(comm.isend_lossy_with_size(1, 5, 2u32, 4)); // also dropped
                comm.send(1, 6, 2u32); // reliable path unaffected
                true
            } else {
                assert!(comm.try_recv_for::<u32>(0, 5, Duration::from_millis(50)).is_none());
                comm.recv::<u32>(0, 6) == 2
            }
        });
        assert!(out.iter().all(|&b| b));
        let events = plan.events();
        assert!(events.iter().all(|e| e.kind == FaultKind::SendDrop));
        assert_eq!(events.len(), 2);
    }

    #[test]
    fn lossy_send_delay_still_delivers() {
        use crate::fault::FaultSpec;
        let plan = FaultPlan::new(FaultSpec::parse("seed=1,send_delay=1,delay_ms=5").unwrap());
        let out = World::run_faulted(2, TrafficStats::new(), Some(plan), |comm| {
            if comm.rank() == 0 {
                comm.isend_lossy_with_size(1, 5, 9u32, 4).wait();
                true
            } else {
                comm.recv::<u32>(0, 5) == 9
            }
        });
        assert!(out.iter().all(|&b| b));
    }

    /// Rank 1 exits immediately; rank 0 sends to it afterwards.
    fn send_to_exited_rank(spec: crate::fault::FaultSpec) {
        let plan = FaultPlan::new(spec);
        let out = World::run_faulted(2, TrafficStats::new(), Some(plan), |comm| {
            if comm.rank() == 0 {
                std::thread::sleep(Duration::from_millis(50));
                comm.send(1, 9, 1u32);
                drop(comm.isend_lossy_with_size(1, 9, 2u32, 4)); // fire-and-forget: no panic either way
            }
            true // rank 1 exits at once, dropping the mailbox
        });
        assert!(out.iter().all(|&b| b));
    }

    #[test]
    fn send_to_exited_rank_swallowed_under_fault_plan() {
        // a scripted death: rank 0's later sends must not panic the world
        send_to_exited_rank(crate::fault::FaultSpec::parse("seed=1,fail_rank=1@0").unwrap());
    }

    /// Every pipeline run carries a plan; one that cannot inject anything
    /// scripts no death, so a send to an exited rank is still a bug.
    #[test]
    #[should_panic(expected = "rank thread panicked")]
    fn send_to_exited_rank_panics_under_a_plan_that_cannot_inject() {
        send_to_exited_rank(Default::default());
    }

    #[test]
    fn overlapping_collectives_and_p2p() {
        // p2p messages sent before a barrier must still match after it
        let out = World::run(3, |comm| {
            comm.send((comm.rank() + 1) % 3, 42, comm.rank());
            comm.barrier();
            let from = (comm.rank() + 2) % 3;
            let v: usize = comm.recv(from, 42);
            v
        });
        assert_eq!(out, vec![2, 0, 1]);
    }
}
