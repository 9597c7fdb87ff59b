//! `solve-batch`: tall unit instances from the paper's HiLo and FewgManyg
//! generators, each solved under the makespan by `hk-semi` and
//! `cost-scaling` through warm registry solvers on a 2-worker pool — the
//! sizes cross both solvers' parallel thresholds.
//!
//! The untraced pass times every solve. The traced pass reads the pool's
//! steal counter around each solve, a 1-worker pass gives the parallel
//! speedup, and a pass with the collecting recorder installed reads the
//! solvers' own counters. Every solution is validated after its round.

use std::sync::Arc;
use std::time::Instant;

use rayon::{ThreadPool, ThreadPoolBuilder};
use semimatch_core::solver::{KindSolver, Problem, Solution, Solver, SolverKind};
use semimatch_core::{CoreError, Objective};
use semimatch_gen::rng::Xoshiro256;
use semimatch_gen::{fewg_manyg, hilo_permuted};
use semimatch_graph::Bipartite;
use semimatch_obs::Collecting;

use crate::measure::{rounds, setup_seconds, Best, Outcome};

const KINDS: [&str; 2] = ["hk-semi", "cost-scaling"];
/// Tasks, processors, groups and task degree of every instance.
const N: u32 = 16384;
const P: u32 = 32;
const G: u32 = 16;
const D: u32 = 6;
/// Instances per seed, alternately HiLo and FewgManyg.
const INSTANCES: u64 = 4;
const POOL_THREADS: usize = 2;
/// Pool and solver builds timed for `setup_s` per round.
const SETUP_REPS: usize = 5;
/// The solver counters read on the counting pass, by benchmark name.
const COUNTERS: [(&str, &str); 7] = [
    ("matching.hk_semi.phases", "hk_semi.phases"),
    ("matching.hk_semi.paths_extracted", "hk_semi.paths_extracted"),
    ("matching.hk_semi.par.cas_failures", "hk_semi.par.cas_failures"),
    ("core.cost_scaling.probes", "cost_scaling.probes"),
    ("core.cost_scaling.partitions", "cost_scaling.partitions"),
    ("matching.flow.augmentations", "flow.augmentations"),
    ("matching.flow.dinic_phases", "flow.dinic_phases"),
];

fn instances(seed: u64) -> Vec<Bipartite> {
    let root = Xoshiro256::seed_from_u64(seed);
    (0..INSTANCES)
        .map(|i| {
            let rng = &mut root.stream(i);
            if i % 2 == 0 {
                hilo_permuted(N, P, G, D, rng)
            } else {
                fewg_manyg(N, P, G, D, rng)
            }
        })
        .collect()
}

/// The system under test: a pool and one warm solver per kind.
fn setup(threads: usize, graphs: &[Bipartite]) -> (ThreadPool, Vec<KindSolver>) {
    let pool = ThreadPoolBuilder::new().num_threads(threads).build().expect("local pool");
    let mut solvers: Vec<KindSolver> =
        KINDS.iter().map(|k| k.parse::<SolverKind>().expect("CLI kind name").solver()).collect();
    for s in &mut solvers {
        for g in graphs {
            s.warm_start(&Problem::SingleProc(g));
        }
    }
    (pool, solvers)
}

/// One solve: which kind, how long, what it returned, steals it caused.
struct Solved {
    kind: usize,
    seconds: f64,
    solution: Result<Solution, CoreError>,
    steals: u64,
}

/// Every instance by every kind (instance-major, kinds in `KINDS` order);
/// returns the batch wall time and the solves. With `traced`, reads the
/// pool's steal counter around each solve.
fn batch(
    pool: &ThreadPool,
    solvers: &mut [KindSolver],
    graphs: &[Bipartite],
    traced: bool,
) -> (f64, Vec<Solved>) {
    pool.install(|| {
        let start = Instant::now();
        let mut solved = Vec::with_capacity(graphs.len() * solvers.len());
        for g in graphs {
            for (kind, s) in solvers.iter_mut().enumerate() {
                let before = if traced { pool.stats().steals() } else { 0 };
                let t = Instant::now();
                let solution = s.solve(Problem::SingleProc(g));
                let seconds = t.elapsed().as_secs_f64();
                let steals = if traced { pool.stats().steals() - before } else { 0 };
                solved.push(Solved { kind, seconds, solution, steals });
            }
        }
        (start.elapsed().as_secs_f64(), solved)
    })
}

/// Validates every solution and checks that both kinds reach the same
/// makespan on each instance; returns the makespans in solve order.
fn verify(out: &mut Outcome, graphs: &[Bipartite], solved: &[Solved]) -> Vec<u64> {
    let makespans: Vec<u64> = solved
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let problem = Problem::SingleProc(&graphs[i / KINDS.len()]);
            out.attempted += 1;
            let checked = s.solution.as_ref().map_err(|e| e.to_string()).and_then(|sol| {
                sol.validate(&problem).map_err(|e| e.to_string())?;
                sol.makespan(&problem).map_err(|e| e.to_string())
            });
            out.check(checked.is_ok(), || format!("{}: {checked:?}", KINDS[s.kind]));
            checked.unwrap_or(0)
        })
        .collect();
    for (i, ms) in makespans.chunks(KINDS.len()).enumerate() {
        out.check(ms.iter().all(|m| *m == ms[0]), || format!("instance {i}: makespans {ms:?}"));
    }
    makespans
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let graphs = instances(seed);
    let mut out =
        Outcome { pool_threads: POOL_THREADS, kinds: KINDS.to_vec(), ..Outcome::default() };
    if traced {
        layers(&mut out, &graphs, seconds);
        return out;
    }
    let (pool, mut solvers) = setup(POOL_THREADS, &graphs);
    let mut setup_s = f64::INFINITY;
    let mut solve = Best::default();
    let mut reference = None;
    rounds(seconds, || {
        setup_s = setup_s.min(setup_seconds(SETUP_REPS, || setup(POOL_THREADS, &graphs)));
        let (_, solved) = batch(&pool, &mut solvers, &graphs, false);
        for (i, s) in solved.iter().enumerate() {
            solve.record(i, s.seconds);
        }
        same_makespans(&mut out, &graphs, &solved, &mut reference, "untraced");
    });
    let makespans = reference.expect("at least one round");
    let lower_bound: u128 = graphs
        .iter()
        .map(|g| Problem::SingleProc(g).lower_bound(Objective::Makespan).map_or(0, |s| s.0))
        .sum();
    let optimum: u128 = makespans.iter().step_by(KINDS.len()).map(|&m| u128::from(m)).sum();
    let events_per_s = f64::from(N) * solve.times().len() as f64 / solve.total();
    let latency_ms: Vec<f64> = solve.times().iter().map(|t| t * 1e3).collect();
    out.end_to_end(events_per_s, &latency_ms, optimum as f64 / lower_bound.max(1) as f64, setup_s);
    out
}

/// Verifies one round and checks its makespans equal the first round's.
fn same_makespans(
    out: &mut Outcome,
    graphs: &[Bipartite],
    solved: &[Solved],
    reference: &mut Option<Vec<u64>>,
    pass: &str,
) {
    let makespans = verify(out, graphs, solved);
    let first = reference.get_or_insert_with(|| makespans.clone());
    out.check(*first == makespans, || format!("{pass} makespans differ"));
}

fn layers(out: &mut Outcome, graphs: &[Bipartite], seconds: f64) {
    let (pool, mut solvers) = setup(POOL_THREADS, graphs);
    let (pool_1t, mut solvers_1t) = setup(1, graphs);
    let mut reference = None;
    let [mut plain, mut traced, mut single] = std::array::from_fn(|_| Best::default());
    let (mut wall, mut busy, mut steals, mut solves) = (0.0, 0.0, 0, 0);
    rounds(seconds / 5.0, || {
        let (_, solved) = batch(&pool, &mut solvers, graphs, false);
        for (i, s) in solved.iter().enumerate() {
            plain.record(i, s.seconds);
        }
        same_makespans(out, graphs, &solved, &mut reference, "untraced");
    });
    rounds(seconds / 5.0, || {
        let (batch_wall, solved) = batch(&pool, &mut solvers, graphs, true);
        for (i, s) in solved.iter().enumerate() {
            traced.record(i, s.seconds);
            busy += s.seconds;
            steals += s.steals;
        }
        wall += batch_wall;
        solves += solved.len();
        same_makespans(out, graphs, &solved, &mut reference, "traced");
    });
    rounds(seconds / 5.0, || {
        let (_, solved) = batch(&pool_1t, &mut solvers_1t, graphs, false);
        for (i, s) in solved.iter().enumerate() {
            single.record(i, s.seconds);
        }
        same_makespans(out, graphs, &solved, &mut reference, "1-worker");
    });
    let collecting = Arc::new(Collecting::new());
    semimatch_obs::install(collecting.clone());
    let (_, solved) = batch(&pool, &mut solvers, graphs, false);
    semimatch_obs::uninstall();
    same_makespans(out, graphs, &solved, &mut reference, "counting");

    let mean_ms = |best: &Best, kind: usize| {
        let times: Vec<f64> =
            best.times().iter().skip(kind).step_by(KINDS.len()).copied().collect();
        times.iter().sum::<f64>() * 1e3 / times.len() as f64
    };
    let (hk, cs) = (mean_ms(&traced, 0), mean_ms(&traced, 1));
    let (hk_1t, cs_1t) = (mean_ms(&single, 0), mean_ms(&single, 1));
    let registry = collecting.registry();
    let mut values = vec![
        ("core.solve.hk-semi.ms", hk),
        ("core.solve.cost-scaling.ms", cs),
        ("core.solve.hk-semi.ms_1t", hk_1t),
        ("core.solve.cost-scaling.ms_1t", cs_1t),
        ("core.par_speedup.hk-semi", hk_1t / hk),
        ("core.par_speedup.cost-scaling", cs_1t / cs),
        ("rayon.steals_per_solve", steals as f64 / solves as f64),
        ("bench.trace_overhead_pct", (traced.total() / plain.total() - 1.0) * 100.0),
        ("bench.layer_coverage", busy / wall),
    ];
    values.extend(COUNTERS.iter().map(|(name, key)| (*name, registry.counter(key).get() as f64)));
    out.per_layer(&values);
}
