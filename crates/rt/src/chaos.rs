//! Chaos-soak schedule generation and shrinking.
//!
//! The robustness layer is proven one fault *kind* at a time by the
//! focused tests; what those cannot show is that the recovery mechanisms
//! compose — that a dropped send during a rank's death window, or wire
//! corruption racing a rejoin, still terminates with a frame for every
//! step. The chaos harness closes that gap: [`chaos_clauses`] composes a
//! randomized-but-valid multi-fault schedule (kill + recover + slow +
//! drop + corrupt interleavings) from a seed, and a soak runs N pinned
//! seeds asserting every run completes. When a schedule *does* break the
//! pipeline, [`shrink`] reduces it to a 1-minimal reproducer: the
//! smallest clause subset that still fails, which is what goes into the
//! bug report instead of a 9-knob haystack.
//!
//! Everything here is pure and seeded ([`SplitMix64`]), so a failing
//! seed replays exactly — same schedule, same faults, same frames.

use crate::fault::FaultSpec;
use crate::rng::SplitMix64;

/// World shape and run length a generated schedule must respect: scripted
/// membership faults are only valid on survivable topologies, and every
/// step index must fall inside the run.
#[derive(Debug, Clone, Copy)]
pub struct ChaosTopology {
    /// Input ranks in the world `[inputs | renderers | output]`.
    pub n_inputs: usize,
    /// Rendering ranks.
    pub renderers: usize,
    /// Steps the run executes.
    pub steps: usize,
    /// Whether input-rank kills are survivable here (2DIP groups of ≥ 2).
    pub input_kills: bool,
}

/// One `key=value` clause per injected fault dimension, composed from
/// `seed`. The same seed always yields the same schedule; the clause list
/// always parses into a valid [`FaultSpec`] for the given topology (see
/// the generator tests). Join with [`compose`] to feed
/// `PipelineBuilder::faults` or `pipeline-report --faults`.
pub fn chaos_clauses(seed: u64, topo: &ChaosTopology) -> Vec<String> {
    let mut rng = SplitMix64::new(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0xc4a0_55ed);
    let mut clauses = vec![format!("seed={seed}")];
    // low-rate probabilistic faults: each dimension joins the schedule
    // independently, so seeds cover the single-fault corners as well as
    // the full interleaving
    if rng.next_f64() < 0.6 {
        clauses.push(format!("read_transient={:.3}", 0.005 + rng.next_f64() * 0.035));
    }
    if rng.next_f64() < 0.4 {
        clauses.push(format!("read_corrupt={:.3}", 0.005 + rng.next_f64() * 0.02));
    }
    if rng.next_f64() < 0.4 {
        clauses.push(format!("read_slow={:.3}", 0.01 + rng.next_f64() * 0.04));
        clauses.push(format!("slow_factor={}", 2 + rng.next_below(3)));
    }
    if rng.next_f64() < 0.5 {
        clauses.push(format!("send_drop={:.3}", 0.005 + rng.next_f64() * 0.03));
    }
    if rng.next_f64() < 0.3 {
        clauses.push(format!("send_delay={:.3}", 0.01 + rng.next_f64() * 0.04));
        clauses.push(format!("delay_ms={}", 1 + rng.next_below(4)));
    }
    if rng.next_f64() < 0.4 {
        clauses.push(format!("wire_corrupt={:.3}", 0.005 + rng.next_f64() * 0.015));
    }
    if topo.renderers >= 2 && rng.next_f64() < 0.4 {
        let rank = topo.n_inputs + rng.next_below(topo.renderers as u64) as usize;
        clauses.push(format!("slow_rank={rank}@{:.1}", 1.5 + rng.next_f64() * 1.5));
    }
    // membership schedule: a render-rank death window (kill + recover,
    // sometimes kill again), a permanent kill, or an input-group window
    // when the topology survives one. Steps are chosen so every event
    // fires inside the run with at least one step on each side.
    if topo.steps >= 4 {
        let roll = rng.next_f64();
        let max_evt = topo.steps - 1; // last step an event may land on
        if roll < 0.35 && topo.renderers >= 2 {
            let rank = topo.n_inputs + rng.next_below(topo.renderers as u64) as usize;
            let fail = 1 + rng.next_below((max_evt - 2) as u64) as usize;
            let recover = fail + 1 + rng.next_below((max_evt - fail) as u64) as usize;
            clauses.push(format!("fail_rank={rank}@{fail}"));
            clauses.push(format!("recover_rank={rank}@{recover}"));
            if recover + 1 < max_evt && rng.next_f64() < 0.3 {
                let again = recover + 1 + rng.next_below((max_evt - recover - 1) as u64) as usize;
                clauses.push(format!("fail_rank={rank}@{again}"));
            }
        } else if roll < 0.45 && topo.renderers >= 2 {
            let rank = topo.n_inputs + rng.next_below(topo.renderers as u64) as usize;
            let fail = 1 + rng.next_below((max_evt - 1) as u64) as usize;
            clauses.push(format!("fail_rank={rank}@{fail}"));
        } else if roll < 0.60 && topo.input_kills && topo.n_inputs >= 2 {
            let rank = rng.next_below(topo.n_inputs as u64) as usize;
            let fail = 1 + rng.next_below((max_evt - 2) as u64) as usize;
            let recover = fail + 1 + rng.next_below((max_evt - fail) as u64) as usize;
            clauses.push(format!("fail_rank={rank}@{fail}"));
            clauses.push(format!("recover_rank={rank}@{recover}"));
        }
    }
    clauses
}

/// Join clauses into the `key=value,key=value` spec-string form.
pub fn compose(clauses: &[String]) -> String {
    clauses.join(",")
}

/// Generate and parse a schedule in one step.
pub fn chaos_spec(seed: u64, topo: &ChaosTopology) -> FaultSpec {
    FaultSpec::parse(&compose(&chaos_clauses(seed, topo)))
        .expect("generated chaos schedule must parse")
}

/// Shrink a failing clause list to a 1-minimal reproducer: greedy delta
/// debugging at clause granularity. `fails` must return `true` when the
/// given subset still reproduces the failure — return `false` for
/// subsets that no longer fail *or* no longer form a valid spec (an
/// unparseable subset cannot reproduce anything). The input must itself
/// fail; the result is a subset from which no single clause can be
/// removed without losing the failure.
pub fn shrink<F: Fn(&[String]) -> bool>(clauses: &[String], fails: F) -> Vec<String> {
    let mut cur: Vec<String> = clauses.to_vec();
    loop {
        let mut removed_any = false;
        let mut i = 0;
        while i < cur.len() {
            let mut cand = cur.clone();
            cand.remove(i);
            if fails(&cand) {
                cur = cand;
                removed_any = true;
                // retry the same index: it now holds the next clause
            } else {
                i += 1;
            }
        }
        if !removed_any {
            return cur;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::MembershipEvent;

    fn topo() -> ChaosTopology {
        ChaosTopology { n_inputs: 2, renderers: 3, steps: 8, input_kills: true }
    }

    #[test]
    fn generator_is_deterministic_and_seed_sensitive() {
        let a = chaos_clauses(11, &topo());
        let b = chaos_clauses(11, &topo());
        assert_eq!(a, b);
        let differs = (0..20u64).any(|s| chaos_clauses(s, &topo()) != a);
        assert!(differs, "every seed produced the same schedule");
    }

    #[test]
    fn every_generated_schedule_is_valid() {
        for seed in 0..200u64 {
            let t = topo();
            let clauses = chaos_clauses(seed, &t);
            let spec =
                FaultSpec::parse(&compose(&clauses)).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            let world = t.n_inputs + t.renderers + 1;
            for ev in spec.rank_timeline {
                assert!(ev.rank() < world - 1, "seed {seed}: event on output rank");
                assert!(ev.step() >= 1 && ev.step() < t.steps, "seed {seed}: step outside run");
                if ev.rank() < t.n_inputs {
                    assert!(t.input_kills, "seed {seed}: input kill on 1DIP topology");
                }
            }
        }
    }

    #[test]
    fn no_input_kills_when_topology_cannot_survive_them() {
        let t = ChaosTopology { n_inputs: 1, renderers: 2, steps: 8, input_kills: false };
        for seed in 0..200u64 {
            for ev in chaos_spec(seed, &t).rank_timeline {
                assert!(ev.rank() >= t.n_inputs, "seed {seed}: scripted input kill");
                if let MembershipEvent::Fail { rank, .. } = ev {
                    assert!(rank < t.n_inputs + t.renderers, "seed {seed}: output kill");
                }
            }
        }
    }

    #[test]
    fn shrink_finds_the_minimal_failing_pair() {
        // synthetic failure: the pipeline "breaks" iff the schedule has
        // both wire corruption and send drops — everything else is noise
        let clauses: Vec<String> = [
            "seed=7",
            "read_transient=0.02",
            "wire_corrupt=0.01",
            "read_slow=0.03",
            "slow_factor=2",
            "send_drop=0.02",
            "send_delay=0.01",
            "delay_ms=2",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let fails = |subset: &[String]| {
            subset.iter().any(|c| c.starts_with("wire_corrupt"))
                && subset.iter().any(|c| c.starts_with("send_drop"))
        };
        assert!(fails(&clauses));
        let minimal = shrink(&clauses, fails);
        assert_eq!(minimal.len(), 2, "minimal reproducer is the pair: {minimal:?}");
        assert!(minimal[0].starts_with("wire_corrupt"));
        assert!(minimal[1].starts_with("send_drop"));
    }

    #[test]
    fn shrink_respects_spec_validity_through_the_predicate() {
        // failure needs the *recovery* event; removing fail_rank alone
        // would leave an invalid spec, which the predicate reports as
        // not-failing, so the shrinker keeps the consistent pair
        let clauses: Vec<String> =
            ["seed=1", "fail_rank=2@3", "recover_rank=2@5", "send_delay=0.2", "delay_ms=1"]
                .iter()
                .map(|s| s.to_string())
                .collect();
        let fails = |subset: &[String]| {
            let Ok(spec) = FaultSpec::parse(&compose(subset)) else {
                return false;
            };
            // "bug" reproduces whenever a rejoin is scripted
            spec.rank_timeline.iter().any(|e| matches!(e, MembershipEvent::Recover { .. }))
        };
        assert!(fails(&clauses));
        let minimal = shrink(&clauses, fails);
        assert_eq!(minimal, vec!["recover_rank=2@5".to_string()], "{minimal:?}");
    }
}
