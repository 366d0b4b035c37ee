//! `engine-fptras`: a closed loop with one in-process caller, each op one
//! `PreparedQuery::count` on a seeded draw of enumerated DCQs and ECQs.
//!
//! This is the FPTRAS data-side hot path: `cqc-dlm` edge counting over the
//! colour-coding `EdgeFree` oracle of `cqc-core`, whose rounds are `Hom`
//! decisions in `cqc-hom`. The tuple budget (36–48) bounds the per-op cost
//! tail; no query is ever filtered out of the draw.

use crate::spans::{totals, write_out, Recorder, TimedDecider, TimedOracle};
use crate::stats::{ratio, within, Fingerprint};
use crate::{Args, Report, Setup};
use cqc_core::{
    exact_count_answers, plan_fptras, AnswerOracle, ApproxConfig, Engine, FptrasPlan, PreparedQuery,
};
use cqc_data::Structure;
use cqc_dlm::{approx_edge_count, DlmConfig};
use cqc_query::build_b_structure;
use cqc_runtime::split_seed;
use cqc_workloads::{suite, suite_database, QueryClass, SuiteQuery};
use rand::rngs::StdRng;
use rand::SeedableRng;

const MIN_TUPLES: u64 = 36;
const MAX_TUPLES: u64 = 48;
/// The engine's default ε, with a failure probability far below its
/// default δ = 0.05. At δ = 0.05 about one op in 15 000 landed outside
/// `(1 ± ε)·exact` (seed 5, `dcq-015`: estimate 2 against exact 3). That
/// is within the estimator's guarantee, but the output check counts it as
/// a failed op. δ = 10⁻⁴ costs under a tenth of the op rate.
const EPSILON: f64 = 0.25;
const DELTA: f64 = 1e-4;
/// Ops of the traced run's three passes: a fixed count, so that the
/// width-1 `Hom` call count and the DLM oracle-call count repeat exactly
/// for a seed.
const TRACED_OPS: usize = 96;

struct Op {
    query: usize,
    db: Structure,
    exact: f64,
}

pub struct Inputs {
    queries: Vec<SuiteQuery>,
    plans: Vec<PreparedQuery>,
    ops: Vec<Op>,
    engine: Engine,
}

fn engine(seed: u64, threads: usize) -> Engine {
    Engine::builder()
        .seed(split_seed(seed, 0xF7))
        .threads(threads)
        .accuracy(EPSILON, DELTA)
        .build()
        .expect("default accuracy is valid")
}

/// Input generation, plan preparation and exact answers: every
/// enumerated DCQ (347) in a seeded order, with a seeded draw of half as
/// many of the 1554 enumerated ECQs between them, one op each.
pub fn setup(seed: u64) -> Setup<Inputs> {
    let dcq = suite(QueryClass::DCQ, seed, usize::MAX).queries;
    let mut ecq = suite(QueryClass::ECQ, seed, dcq.len().div_ceil(2))
        .queries
        .into_iter();
    // an ECQ after every second DCQ, so the classes mix evenly
    let mut queries = Vec::new();
    for (i, d) in dcq.into_iter().enumerate() {
        queries.push(d);
        if i % 2 == 1 {
            queries.extend(ecq.next());
        }
    }
    queries.extend(ecq);
    let engine = engine(seed, 0);
    let plans: Vec<PreparedQuery> = queries
        .iter()
        .map(|q| {
            engine
                .prepare(&q.query)
                .expect("enumerated queries are preparable")
        })
        .collect();
    let ops: Vec<Op> = queries
        .iter()
        .enumerate()
        .map(|(i, q)| {
            // budgets cycle through 36..=48, so every seed has the same mix
            let tuples = MIN_TUPLES + i as u64 % (MAX_TUPLES - MIN_TUPLES + 1);
            let db = suite_database(split_seed(seed, 1000 + i as u64), tuples as usize);
            let exact = exact_count_answers(&q.query, &db) as f64;
            Op {
                query: i,
                db,
                exact,
            }
        })
        .collect();
    let mut fingerprint = Fingerprint::default();
    for op in &ops {
        fingerprint.add(queries[op.query].text.as_bytes());
        fingerprint.add(cqc_data::write_facts(&op.db).as_bytes());
    }
    let nonzero = ops.iter().filter(|op| op.exact > 0.0).count();
    let universes: Vec<usize> = ops.iter().map(|op| op.db.universe_size()).collect();
    let notes = vec![
        format!(
            "traffic distinct_queries={} ops={} nonzero_share={:.3} tuples={}-{} universe={}-{}",
            queries.len(),
            ops.len(),
            nonzero as f64 / ops.len() as f64,
            MIN_TUPLES,
            MAX_TUPLES,
            universes.iter().min().unwrap_or(&0),
            universes.iter().max().unwrap_or(&0),
        ),
        format!("fingerprint {}", fingerprint.hex()),
    ];
    Setup {
        inputs: Inputs {
            queries,
            plans,
            ops,
            engine,
        },
        notes,
    }
}

/// The untraced closed loop over the op list.
pub fn run(args: &Args, inputs: &Inputs, report: &mut Report) {
    let epsilon = inputs.engine.config().epsilon;
    crate::closed_loop(args, report, inputs.ops.len(), |i| {
        let op = &inputs.ops[i];
        let result = inputs.plans[op.query].count(&op.db);
        let ok = result
            .as_ref()
            .is_ok_and(|r| within(r.estimate, op.exact, epsilon));
        if !ok {
            let estimate = result.map(|r| r.estimate);
            let name = &inputs.queries[op.query].name;
            eprintln!("failed op {i} ({name}): {estimate:?}, exact {}", op.exact);
        }
        ok
    });
}

/// An untraced count: the estimate and the engine's own `Hom` call count.
fn untraced_count(plan: &PreparedQuery, db: &Structure) -> (f64, u64) {
    plan.count(db)
        .map(|r| (r.estimate, r.telemetry.hom_calls))
        .unwrap_or((f64::NAN, 0))
}

/// The traced replica of `PreparedQuery::count` for one op: `B(ϕ, D)`, the
/// colour-coding oracle over a timing `Hom` decider, and the DLM counter
/// over a timing `EdgeFree` wrapper — the same public calls in the same
/// order, so the estimate must be bit-identical.
fn traced_count(
    rec: &Recorder,
    config: &ApproxConfig,
    query: &SuiteQuery,
    plan: &FptrasPlan,
    db: &Structure,
) -> f64 {
    rec.time("op", 0, |op| {
        let (b, _) = rec.time("build_b", op, |_| {
            build_b_structure(&query.query, db).expect("suite databases fit the grammar")
        });
        let decider = TimedDecider::new(rec);
        let oracle = AnswerOracle::with_a_hat(
            &query.query,
            b,
            &plan.a_hat,
            db.universe_size(),
            &decider,
            plan.repetitions,
            config.seed,
        )
        .with_runtime(config.runtime());
        rec.time("dlm", op, |dlm| {
            let mut timed = TimedOracle {
                inner: oracle,
                decider: &decider,
                parent: dlm,
            };
            let mut rng = StdRng::seed_from_u64(config.seed.wrapping_add(0x9E37));
            approx_edge_count(
                &mut timed,
                &DlmConfig::new(config.epsilon, config.delta),
                &mut rng,
            )
            .estimate
        })
        .0
    })
    .0
}

/// The traced run: the first [`TRACED_OPS`] ops untraced at the default
/// width, untraced at width 1 (whose engine telemetry gives the width-1
/// `Hom` call count), and through the traced replica, interleaved op by
/// op.
pub fn run_traced(args: &Args, inputs: &Inputs, report: &mut Report) {
    let ops = &inputs.ops[..TRACED_OPS.min(inputs.ops.len())];
    let n = ops.len() as f64;
    let width = inputs.engine.config().runtime().threads();
    let engine1 = engine(args.seed, 1);
    let plans1: Vec<PreparedQuery> = inputs
        .queries
        .iter()
        .map(|q| engine1.prepare(&q.query).expect("preparable"))
        .collect();

    // the oracle skeleton does not depend on the width
    let fplans: Vec<FptrasPlan> = inputs
        .queries
        .iter()
        .map(|q| plan_fptras(&q.query, inputs.engine.config()))
        .collect();
    let rec = Recorder::new();
    let mut hom_w1 = 0;
    let (walls, estimates) = crate::interleaved::<3>(ops.len(), |k, variant| {
        let op = &ops[k];
        match variant {
            0 => untraced_count(&inputs.plans[op.query], &op.db).0,
            1 => {
                let (estimate, hom_calls) = untraced_count(&plans1[op.query], &op.db);
                hom_w1 += hom_calls;
                estimate
            }
            _ => traced_count(
                &rec,
                inputs.engine.config(),
                &inputs.queries[op.query],
                &fplans[op.query],
                &op.db,
            ),
        }
    });
    let [wall_default, wall_w1, wall_traced] = walls;
    let spans = rec.take();

    let epsilon = inputs.engine.config().epsilon;
    for (k, op) in ops.iter().enumerate() {
        report.attempted += 1;
        let bits = estimates[k][0].to_bits();
        let identical = estimates[k].iter().all(|e| e.to_bits() == bits);
        if !identical || !within(estimates[k][0], op.exact, epsilon) {
            report.failed += 1;
        }
    }
    report.note(format!(
        "replica bit-identical to PreparedQuery::count on {} of {} ops",
        ops.len() - report.failed as usize,
        ops.len()
    ));
    if let Err(e) = write_out(&format!("spans-engine-fptras-{}.ndjson", args.seed), &spans) {
        report.note(format!("span file not written: {e}"));
    }

    let t = totals(&spans);
    let get = |name| t.get(name).copied().unwrap_or_default();
    let (hom, edge_free, dlm, build_b) = (get("hom"), get("edge_free"), get("dlm"), get("build_b"));
    let per_op_ms = |ns: u64| ns as f64 / 1e6 / n;
    report.layer("hom.calls", hom.count as f64);
    report.layer("hom.calls_w1", hom_w1 as f64);
    report.layer("hom.ns_per_call", ratio(hom.ns as f64, hom.count as f64));
    report.layer(
        "hom.positive_frac",
        ratio(hom.flagged as f64, hom.count as f64),
    );
    report.layer("core.oracle_self_ms", per_op_ms(edge_free.self_ns));
    report.layer(
        "core.colour_useful_frac",
        ratio(hom_w1 as f64, hom.count as f64),
    );
    report.layer("dlm.oracle_calls", edge_free.count as f64);
    report.layer("dlm.self_ms", per_op_ms(dlm.self_ns));
    report.layer("query.build_b_ms", per_op_ms(build_b.ns));
    report.layer("runtime.width", width as f64);
    report.layer("runtime.width_gain", wall_w1 / wall_default);
    report.layer("obs.trace_overhead_frac", 1.0 - wall_default / wall_traced);
}
