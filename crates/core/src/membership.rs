//! Membership: which render ranks own which blocks at a step, and the
//! heartbeat round that detects a rank going silent.
//!
//! The paper routes node data to renderers through one octree-block map.
//! So does this pipeline: [`owners`] is the only place block ownership is
//! decided, and every role — the input step loop's packer, render
//! ranks, the checkpoint committer, the frame assembler — asks it with
//! the same two inputs, the committed [`EpochState`] and the rank the
//! fault plan scripts dead at that step. Frames are partition-invariant
//! (a block renders to the same fragment on any rank, SLIC order is fixed
//! by visibility), so *which* survivor inherits a dead rank's blocks is a
//! free choice; making it once, here, is what keeps senders and receivers
//! in agreement with zero traffic.

use crate::control::{overlay_assignment, EpochState};
use crate::proto::HB;
use quakeviz_rt::Comm;
use std::time::Duration;

/// Block ownership at one step: `(render-group index, block ids)` for
/// every live rank of the active prefix, ascending. The committed
/// assignment stands unless a rank is scripted `dead` this step; then its
/// blocks are overlaid onto the live active ranks, who keep their own.
/// The overlay never commits — it ends the step the rank rejoins, or
/// never, for a kill with no recovery.
pub fn owners(state: &EpochState, dead: Option<usize>, weights: &[u64]) -> Vec<(usize, Vec<u32>)> {
    let assignment = match dead {
        Some(d) => overlay_assignment(&state.assignment, state.active, d, weights),
        None => state.assignment.clone(),
    };
    assignment
        .into_iter()
        .enumerate()
        .take(state.active)
        .filter(|&(r, _)| Some(r) != dead)
        .collect()
}

/// One heartbeat round before step `t`: beacon every rank in `to`, wait
/// for the beacon of every rank in `from`, and return the ones that stayed
/// silent past their `wait`. A peer whose wait is `None` is blocked on
/// instead of voted on — how a scripted rejoin is folded in, from both
/// sides: the joiner fast-forwarded past peers who may still be burning
/// detection timeouts, so it waits for all of them; and every peer reads
/// the rejoin step from the shared plan and waits for the joiner, who is
/// first asking the output rank what it missed.
pub fn heartbeat(
    comm: &Comm,
    t: usize,
    to: &[usize],
    from: &[usize],
    wait: impl Fn(usize) -> Option<Duration>,
) -> Vec<usize> {
    for &r in to {
        HB.send(comm, r, t, ());
    }
    from.iter()
        .copied()
        .filter(|&r| match wait(r) {
            Some(d) => HB.try_recv_for(comm, r, t, d).is_none(),
            None => {
                HB.recv(comm, r, t);
                false
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use quakeviz_rt::World;

    /// The same late beacon a timed round gives up on — rank 1 only
    /// beacons once rank 0's timed round has returned — is simply waited
    /// out by a blocking round, which reports nobody silent.
    #[test]
    fn blocking_round_never_reports_a_peer_silent() {
        let out = World::run(2, |comm| {
            let peer = [1 - comm.rank()];
            let mut timed = Vec::new();
            if comm.rank() == 0 {
                timed = heartbeat(&comm, 8, &[], &peer, |_| Some(Duration::ZERO));
                comm.send(1, 9, ());
            } else {
                let () = comm.recv(0, 9);
            }
            (heartbeat(&comm, 8, &peer, &peer, |_| None), timed)
        });
        assert!(out.iter().all(|(blocking, _)| blocking.is_empty()), "{out:?}");
        assert_eq!(out[0].1, vec![1], "the timed round must report the late peer");
    }
}
