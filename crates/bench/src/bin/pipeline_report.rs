//! `pipeline-report` — run the real threaded pipeline under injected
//! I/O delay and print the observability report:
//!
//! 1. per-rank utilization (busy/wall per stage phase),
//! 2. an ASCII Gantt chart of all rank tracks,
//! 3. the I/O-hiding summary (how much input-group work overlapped
//!    rendering — the paper's Figures 8–9 effect, measured live),
//! 4. the measured-vs-predicted model validation table (§5.1/§5.2),
//! 5. the traffic totals, the run's metrics table (one row per counter —
//!    traffic per class, faults, recovery, cache, OSTs — built after the
//!    run) and its exact interframe distribution.
//!
//! Usage:
//!   pipeline-report [--renderers N] [--input-procs M] [--twodip NxM]
//!                   [--steps K] [--io-delay S] [--size WxH] [--lic]
//!                   [--quantize] [--prefetch] [--trace] [--faults SPEC]
//!                   [--deadline-ms MS] [--checkpoint-every K]
//!                   [--codec SPEC] [--elastic K] [--elastic-resize]
//!                   [--elastic-reshape] [--cache SPEC] [--warm]
//!                   [--osts N]
//!   pipeline-report --chaos SEED [topology flags as above]
//!
//! `--chaos SEED` generates a randomized-but-valid multi-fault schedule
//! for the configured topology from the chaos harness
//! (`quakeviz_rt::chaos`, the same generator `tests/chaos_soak.rs`
//! pins), arms it as the run's fault plan, and appends a chaos-soak
//! summary: the composed schedule, the injected-vs-recovered balance,
//! and the delivered/degraded frame verdict. Mutually exclusive with
//! `--faults`.
//!
//! `--faults SPEC` arms a deterministic fault plan (same `key=value,...`
//! syntax as `QUAKEVIZ_FAULTS`, e.g.
//! `seed=11,read_transient=0.1,send_drop=0.05`, or `fail_rank=R@S` to
//! script a rank death — input, render and output ranks all fail over);
//! its injected faults and recovery actions are the `fault.*` and
//! `recovery.*` rows of the metrics table, and the report adds a recovery
//! section with the per-frame degradation flags.
//!
//! `--checkpoint-every K` commits a checkpoint every K steps through the
//! parallel file system (`checkpoint.commits`) and adds the
//! checkpoint/restart section's resume line (resume
//! itself is exercised by `tests/checkpoint_restart.rs`: the simulated
//! disk lives in memory, so a checkpoint cannot outlive the process).
//!
//! `--codec SPEC` selects the wire codec (same grammar as
//! `QUAKEVIZ_CODEC`, e.g. `rle`, `shuffle,delta,keyframe=4`, or
//! `block_data=shuffle,lic_image=rle`); the report then adds a wire
//! compression section — per-class raw vs wire bytes, the compression
//! ratio, codec CPU cost, and the keyframe/delta piece mix — and the
//! model table annotates `Ts` with the measured block-data ratio.
//!
//! `--elastic K` arms the closed-loop control plane (DESIGN.md "Control
//! plane"): the output rank measures phase spans over each K-step window
//! and commits rebalance plans at epoch boundaries;
//! `--elastic-resize` / `--elastic-reshape` additionally let it
//! grow/shrink the active render group and switch the 2DIP group width.
//! The report then adds a control-plane section listing every committed
//! plan (epoch, apply step, active ranks, input width, per-rank block
//! counts). Combine with `--faults seed=1,slow_rank=R@F` to watch the
//! controller shed load off a scripted straggler.
//!
//! `--cache SPEC` arms the block/frame cache tier (same grammar as
//! `QUAKEVIZ_CACHE`, e.g. `1` or `blocks_mb=32,frames=16`) and
//! `--osts N` shards the dataset disk across N simulated object storage
//! targets; their counters are the `cache.*` and `parfs.ost*` rows of
//! the metrics table. `--warm` first primes the tier with an unreported
//! identical run, so the reported run shows the warm-replay path (frame
//! hits, collapsed interframe delay).
//!
//! `--prefetch` adds the read-ahead stage to the input ranks
//! (read+preprocess on a worker thread up to two steps ahead, at most
//! two steps' non-blocking sends in flight); the report then adds a
//! prefetch-overlap section measuring how much of the read+preprocess
//! time actually hid behind rendering, and the model table predicts with
//! the `max(Ts', Tr)`-floor overlap forms.
//!
//! `--trace` (or any `QUAKEVIZ_TRACE` value) records runtime auto spans
//! too; `QUAKEVIZ_TRACE=out/trace.json` additionally writes the
//! Perfetto-loadable Chrome trace plus span/traffic CSVs.

use quakeviz_bench::standard_dataset;
use quakeviz_core::{CacheConfig, CacheTier, IoStrategy, ModelValidation, PipelineBuilder};
use quakeviz_rt::obs::{prof, Phase};
use quakeviz_rt::{chaos as rt_chaos, FaultSpec, WireSpec};

/// A usage error: name what was wrong and exit 2, like an unknown flag.
fn fail(msg: &str) -> ! {
    eprintln!("pipeline-report: {msg} (see the doc comment for usage)");
    std::process::exit(2)
}

fn num<T: std::str::FromStr>(v: &str, what: &str) -> T {
    v.parse().unwrap_or_else(|_| fail(&format!("{what}: bad value {v:?}")))
}

fn parse_pair(v: &str, sep: char, what: &str) -> (usize, usize) {
    let pair = v.split_once(sep).and_then(|(a, b)| Some((a.parse().ok()?, b.parse().ok()?)));
    pair.unwrap_or_else(|| fail(&format!("{what}: expected <a>{sep}<b>, got {v:?}")))
}

/// A `key=value` spec flag's value, or exit 2 naming the flag.
fn spec<T>(parsed: Result<T, String>, what: &str) -> T {
    parsed.unwrap_or_else(|e| fail(&format!("{what}: {e}")))
}

fn main() {
    let mut renderers = 3usize;
    let mut input_procs = 2usize;
    let mut twodip: Option<(usize, usize)> = None;
    let mut steps = 8usize;
    let mut io_delay = 25.0f64;
    let mut size = (128u32, 128u32);
    let mut lic = false;
    let mut quantize = false;
    let mut prefetch = false;
    let mut trace = false;
    let mut faults: Option<FaultSpec> = None;
    let mut chaos: Option<u64> = None;
    let mut codec: Option<WireSpec> = None;
    let mut deadline_ms: Option<u64> = None;
    let mut checkpoint_every: Option<usize> = None;
    let mut elastic: Option<usize> = None;
    let mut elastic_resize = false;
    let mut elastic_reshape = false;
    let mut cache: Option<CacheConfig> = None;
    let mut warm = false;
    let mut osts = 0usize;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut val =
            |what: &str| args.next().unwrap_or_else(|| fail(&format!("{what} needs a value")));
        match a.as_str() {
            "--renderers" => renderers = num(&val("--renderers"), "--renderers N"),
            "--input-procs" => input_procs = num(&val("--input-procs"), "--input-procs M"),
            "--twodip" => twodip = Some(parse_pair(&val("--twodip"), 'x', "--twodip")),
            "--steps" => steps = num(&val("--steps"), "--steps K"),
            "--io-delay" => io_delay = num(&val("--io-delay"), "--io-delay S"),
            "--size" => {
                let (w, h) = parse_pair(&val("--size"), 'x', "--size");
                size = (w as u32, h as u32);
            }
            "--lic" => lic = true,
            "--quantize" => quantize = true,
            "--prefetch" => prefetch = true,
            "--trace" => trace = true,
            "--faults" => faults = Some(spec(FaultSpec::parse(&val("--faults")), "--faults SPEC")),
            "--chaos" => chaos = Some(num(&val("--chaos"), "--chaos SEED")),
            "--codec" => codec = Some(spec(WireSpec::parse(&val("--codec")), "--codec SPEC")),
            "--deadline-ms" => deadline_ms = Some(num(&val("--deadline-ms"), "--deadline-ms MS")),
            "--checkpoint-every" => {
                checkpoint_every = Some(num(&val("--checkpoint-every"), "--checkpoint-every K"))
            }
            "--elastic" => elastic = Some(num(&val("--elastic"), "--elastic K")),
            "--elastic-resize" => elastic_resize = true,
            "--elastic-reshape" => elastic_reshape = true,
            "--cache" => cache = Some(spec(CacheConfig::parse(&val("--cache")), "--cache SPEC")),
            "--warm" => warm = true,
            "--osts" => osts = num(&val("--osts"), "--osts N"),
            other => fail(&format!("unknown flag {other}")),
        }
    }
    if (elastic_resize || elastic_reshape) && elastic.is_none() {
        fail("--elastic-resize and --elastic-reshape need --elastic K");
    }
    let io = twodip.map_or(IoStrategy::OneDip { input_procs }, |(n, m)| IoStrategy::TwoDip {
        groups: n,
        per_group: m,
    });

    // --chaos: compose a seeded multi-fault schedule for this topology
    // and arm it as the fault plan; detection needs a bounded heartbeat
    // wait, so default the deadline down from the builder's generous one
    let chaos_schedule = chaos.map(|seed| {
        if faults.is_some() {
            fail("--chaos generates its own fault plan; drop --faults");
        }
        let (n_inputs, input_kills) = (io.total_input_procs(), io.shape().1 >= 2);
        let topo = rt_chaos::ChaosTopology { n_inputs, renderers, steps, input_kills };
        let schedule = rt_chaos::compose(&rt_chaos::chaos_clauses(seed, &topo));
        faults = Some(FaultSpec::parse(&schedule).expect("generated chaos schedule must parse"));
        deadline_ms.get_or_insert(400);
        schedule
    });

    let ds = standard_dataset();
    if osts > 0 {
        ds.disk().set_shards(osts);
    }
    let tier = cache.filter(CacheConfig::enabled).map(CacheTier::new);
    let build = || {
        let mut builder = PipelineBuilder::new(&ds)
            .renderers(renderers)
            .io_strategy(io)
            .image_size(size.0, size.1)
            .keep_frames(false)
            .io_delay_scale(io_delay)
            .lic(lic)
            .quantize(quantize)
            .prefetch(prefetch)
            .max_steps(steps)
            .trace(trace);
        if let Some(spec) = faults.clone() {
            builder = builder.faults(spec);
        }
        if let Some(spec) = codec.clone() {
            builder = builder.wire_spec(spec);
        }
        if let Some(ms) = deadline_ms {
            builder = builder.delivery_deadline_ms(ms);
        }
        if let Some(k) = checkpoint_every {
            builder = builder.checkpoint_every(k);
        }
        if let Some(every) = elastic {
            builder = builder
                .elastic(every)
                .elastic_resize(elastic_resize)
                .elastic_reshape(elastic_reshape);
        }
        if let Some(t) = &tier {
            builder = builder.cache_tier(std::sync::Arc::clone(t));
        }
        builder
    };
    if warm {
        if tier.is_none() {
            fail("--warm needs an enabled --cache tier to prime");
        }
        // unreported priming run against the same tier: the reported run
        // below is the warm replay
        build().run().unwrap_or_else(|e| fail(&format!("priming run: {e}")));
    }
    let report = build().run().unwrap_or_else(|e| fail(&format!("pipeline: {e}")));
    let tr = &report.trace;

    println!(
        "pipeline: {} input + {} render + 1 output ranks, {} frames at {}x{}, level {}",
        report.input_procs,
        report.renderers,
        report.frame_done.len(),
        size.0,
        size.1,
        report.level
    );

    println!("\nutilization:");
    println!(
        "{:>7} {:<7} {:>8} {:>8} {:>5}  dominant stages",
        "rank", "group", "busy_s", "wall_s", "util"
    );
    for u in tr.utilization() {
        let mut stages: Vec<(usize, f64)> =
            u.stage_seconds.iter().copied().enumerate().filter(|&(_, s)| s > 0.0).collect();
        stages.sort_by(|a, b| b.1.total_cmp(&a.1));
        let tops: Vec<String> = stages
            .iter()
            .take(3)
            .map(|&(i, s)| format!("{} {s:.2}s", Phase::STAGES[i].as_str()))
            .collect();
        println!(
            "{:>7} {:<7} {:>8.3} {:>8.3} {:>4.0}%  {}",
            u.rank,
            u.group,
            u.busy_seconds,
            u.span_seconds,
            u.utilization() * 100.0,
            tops.join(", ")
        );
    }

    println!(
        "\ngantt (F=fetch P=preprocess L=lic S=send W=send-wait w=wait R=render C=composite \
         A=assemble):"
    );
    print!("{}", tr.gantt_ascii(72));

    let input_busy = tr.group_busy_seconds("input");
    let hidden = tr.group_overlap_seconds("input", "render");
    println!(
        "\nI/O hiding: input group busy {:.3}s, {:.3}s of it concurrent with rendering ({:.0}%)",
        input_busy,
        hidden,
        if input_busy > 0.0 { hidden / input_busy * 100.0 } else { 0.0 }
    );

    if prefetch {
        // overlap achieved by the prefetch worker: how much of the
        // read+preprocess time ran concurrently with rendering (hidden)
        // versus sticking out of the frame cadence (exposed)
        let fetch_phases = [Phase::Read, Phase::Preprocess];
        let render_phases = [Phase::Render, Phase::Composite];
        let hidden_fetch =
            tr.phase_overlap_seconds("input", &fetch_phases, "render", &render_phases);
        let fetch_busy: f64 = tr
            .utilization()
            .iter()
            .filter(|u| u.group == "input")
            .map(|u| {
                Phase::STAGES
                    .iter()
                    .zip(&u.stage_seconds)
                    .filter(|(p, _)| fetch_phases.contains(p))
                    .map(|(_, s)| s)
                    .sum::<f64>()
            })
            .sum();
        let exposed = (fetch_busy - hidden_fetch).max(0.0);
        println!(
            "prefetch overlap: read+preprocess busy {:.3}s, hidden behind rendering {:.3}s \
             ({:.0}%), exposed {:.3}s; send backpressure wait {:.3}s/step",
            fetch_busy,
            hidden_fetch,
            if fetch_busy > 0.0 { hidden_fetch / fetch_busy * 100.0 } else { 0.0 },
            exposed,
            report.mean_send_wait_seconds()
        );
    }

    println!();
    print!("{}", ModelValidation::from_report(&report, io));

    println!("\ntraffic ({} messages, {} bytes)", report.messages, report.bytes_sent);

    if !report.wire.is_empty() {
        println!("\nwire compression ({}):", report.wire_spec);
        println!(
            "  {:<14} {:>12} {:>12} {:>7} {:>8} {:>8} {:>9}",
            "class", "raw_bytes", "wire_bytes", "ratio", "enc_ms", "dec_ms", "kf/delta"
        );
        for w in &report.wire {
            println!(
                "  {:<14} {:>12} {:>12} {:>6.2}x {:>8.3} {:>8.3} {:>4}/{}",
                w.class.as_str(),
                w.raw_bytes,
                w.wire_bytes,
                w.ratio(),
                w.encode_ns as f64 / 1e6,
                w.decode_ns as f64 / 1e6,
                w.keyframe_pieces,
                w.delta_pieces
            );
        }
    }

    if report.recovery.is_some() {
        // its counters are the `fault.*` and `recovery.*` metrics rows
        println!("\nrecovery (fault plan armed):");
        if report.degraded_frame_count() > 0 {
            println!("  frame  degradation flags");
            for (t, d) in report.degraded.iter().enumerate() {
                if d.is_empty() {
                    continue;
                }
                let cells: Vec<String> = d.iter().map(|f| f.to_string()).collect();
                println!("  {t:>5}  {}", cells.join(" "));
            }
        }
    }

    // Chaos soak verdict: what the generator threw at the run, and how
    // much of it the recovery machinery absorbed. The run reaching this
    // point at all is the core claim (no stall, no panic); the balance
    // line shows whether faults were recovered in place or degraded.
    if let Some(schedule) = &chaos_schedule {
        let rec = report.recovery.as_ref().expect("chaos runs arm a fault plan");
        println!("\nchaos soak (seed {}):", chaos.unwrap());
        println!("  schedule            {schedule}");
        println!("  injected events     {:>6}", report.fault_events.len());
        println!(
            "  recovery actions    {:>6} (retries {}, failovers {}, rejoins {}, catch-ups {})",
            rec.read_retries
                + rec.failover_events
                + rec.render_failovers
                + rec.output_failovers
                + rec.rejoins
                + rec.catchup_plans
                + rec.catchup_fields,
            rec.read_retries,
            rec.failover_events + rec.render_failovers + rec.output_failovers,
            rec.rejoins,
            rec.catchup_plans + rec.catchup_fields
        );
        let delivered = report.frame_done.len();
        let verdict = if delivered == steps { "COMPLETE" } else { "INCOMPLETE" };
        println!(
            "  verdict             {verdict} ({delivered}/{steps} frames, {} degraded)",
            report.degraded_frame_count()
        );
    }
    if report.checkpoints > 0 || report.resumed_from.is_some() {
        println!("\ncheckpoint/restart:");
        match report.resumed_from {
            Some(step) => println!("  resumed from step   {step:>6}"),
            None => println!("  resumed from        {:>6}", "-"),
        }
    }

    if let Some(every) = elastic {
        println!("\ncontrol plane (tick every {every} steps):");
        if report.control_plans.is_empty() {
            println!("  no plans committed (load already balanced)");
        }
        for p in &report.control_plans {
            let counts: Vec<usize> = p.assignment.iter().map(Vec::len).collect();
            println!(
                "  epoch {:>3} @ step {:>4}: active {}, input width {}, blocks/rank {counts:?}",
                p.epoch, p.apply_at, p.active, p.input_width
            );
        }
    }

    if !tr.metrics.is_empty() {
        println!("\nmetrics:");
        for (name, v) in &tr.metrics {
            println!("  {name:<28} {v}");
        }
        // the delivered frames' own stamps, exact (nearest-rank)
        let mut us: Vec<u64> = report.interframe().iter().map(|d| (d * 1e6) as u64).collect();
        us.sort_unstable();
        if let Some(&max) = us.last() {
            let (n, pct) = (us.len(), |q| prof::pct_sorted(&us, q));
            let mean = us.iter().sum::<u64>() as f64 / n as f64;
            println!(
                "  {:<28} n={n} mean={mean:.0} p50={} p95={} p99={} max={max}",
                "interframe_us",
                pct(0.5),
                pct(0.95),
                pct(0.99)
            );
        }
    }

    let self_times = tr.self_times();
    if !self_times.is_empty() {
        println!("\ntop self-time (exclusive, per phase across ranks):");
        print!("{}", prof::top_table(&self_times, 8));
    }
    let work = prof::snapshot();
    if !work.is_empty() {
        println!("\nkernel work (QUAKEVIZ_PROF=1):");
        for (name, n) in work {
            println!("  {name:<28} {n}");
        }
    }
}
