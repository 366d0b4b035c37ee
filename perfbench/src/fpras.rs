//! `engine-fpras`: a closed loop with one in-process caller, each op a cold
//! `Engine::prepare` followed by `count` on a conjunctive query.
//!
//! The op stream is every enumerated CQ in a seeded order, each on its own
//! small database, with one of a fixed handful of family CQs (paths,
//! hyperchains, cliques) on a 60-tuple database spread evenly between
//! them, every family op once per pass. It runs the decomposition search
//! (`cqc-hypergraph`), the automaton build (`cqc-hom` bag solutions) and
//! the #TA count (`cqc-automata`), and writes a new plan for every op.
//! The whole enumeration is used because its cost is heavy-tailed (the
//! costliest 1% of queries take over a quarter of the time), so any
//! smaller draw makes the cost mix swing from seed to seed.

use crate::spans::{totals, write_out, Recorder};
use crate::stats::{ms, ratio, within, Fingerprint};
use crate::{Args, Report, Setup};
use cqc_automata::{approx_count_fixed_shape_seeded, count_labelings_fixed_shape, TaApproxConfig};
use cqc_core::fpras::build_lemma52_automaton_with;
use cqc_core::{exact_count_answers, plan_fpras_with, ApproxConfig, Engine};
use cqc_data::Structure;
use cqc_query::Query;
use cqc_runtime::split_seed;
use cqc_workloads::{
    clique_query, hyperchain_query, path_query, suite, suite_database, QueryClass,
};
use std::time::Instant;

/// Tuple budget of the enumerated queries' databases.
const ENUM_TUPLES: usize = 24;
/// Tuple budget of the family queries' databases.
const FAMILY_TUPLES: usize = 60;
/// Databases per family query.
const FAMILY_DBS: usize = 1;
/// Ops of the traced run's passes (a fixed count, so counts repeat).
const TRACED_OPS: usize = 600;

#[derive(Clone)]
struct Op {
    name: String,
    query: Query,
    db: Structure,
    exact: f64,
}

pub struct Inputs {
    ops: Vec<Op>,
    engine: Engine,
}

fn engine(seed: u64, threads: usize) -> Engine {
    Engine::builder()
        .seed(split_seed(seed, 0xF5))
        .threads(threads)
        .build()
        .expect("default accuracy is valid")
}

fn family() -> Vec<(String, Query)> {
    let specs = (3..=7)
        .map(|k| path_query(k, false, false))
        .chain((3..=5).map(|k| hyperchain_query(k, false)))
        .chain((3..=6).map(|k| clique_query(k, false)));
    specs.map(|s| (s.name, s.query)).collect()
}

fn op(name: String, query: Query, db: Structure) -> Op {
    let exact = exact_count_answers(&query, &db) as f64;
    Op {
        name,
        query,
        db,
        exact,
    }
}

/// Input generation and exact answers (plans are part of every op).
pub fn setup(seed: u64) -> Setup<Inputs> {
    let enumerated: Vec<Op> = suite(QueryClass::CQ, seed, usize::MAX)
        .queries
        .into_iter()
        .enumerate()
        .map(|(i, q)| {
            let db = suite_database(split_seed(seed, 2000 + i as u64), ENUM_TUPLES);
            op(q.name, q.query, db)
        })
        .collect();
    let family: Vec<Op> = (0..FAMILY_DBS)
        .flat_map(|round| family().into_iter().map(move |f| (round, f)))
        .enumerate()
        .map(|(j, (_, (name, query)))| {
            let db = suite_database(split_seed(seed, 5000 + j as u64), FAMILY_TUPLES);
            op(name, query, db)
        })
        .collect();
    let n_enumerated = enumerated.len();
    // one family op after every `every` enumerated ops, each exactly once
    let every = n_enumerated / family.len();
    let mut ops = Vec::new();
    for (i, o) in enumerated.into_iter().enumerate() {
        ops.push(o);
        if (i + 1) % every == 0 && (i + 1) / every <= family.len() {
            ops.push(family[(i + 1) / every - 1].clone());
        }
    }
    let mut fingerprint = Fingerprint::default();
    for o in &ops {
        fingerprint.add(o.query.to_string().as_bytes());
        fingerprint.add(cqc_data::write_facts(&o.db).as_bytes());
    }
    let nonzero = ops.iter().filter(|o| o.exact > 0.0).count();
    let notes = vec![
        format!(
            "traffic distinct_queries={} ops={} family_ops={} nonzero_share={:.3} tuples={}/{} universe={}/{}",
            n_enumerated + family.len() / FAMILY_DBS,
            ops.len(),
            ops.len() - n_enumerated,
            nonzero as f64 / ops.len() as f64,
            ENUM_TUPLES,
            FAMILY_TUPLES,
            suite_database(0, ENUM_TUPLES).universe_size(),
            suite_database(0, FAMILY_TUPLES).universe_size(),
        ),
        format!("fingerprint {}", fingerprint.hex()),
    ];
    Setup {
        inputs: Inputs {
            ops,
            engine: engine(seed, 0),
        },
        notes,
    }
}

fn cold_count(engine: &Engine, op: &Op) -> Option<f64> {
    let prepared = engine.prepare(&op.query).ok()?;
    prepared.count(&op.db).ok().map(|r| r.estimate)
}

/// The untraced closed loop over the op stream.
pub fn run(args: &Args, inputs: &Inputs, report: &mut Report) {
    let epsilon = inputs.engine.config().epsilon;
    crate::closed_loop(args, report, inputs.ops.len(), |i| {
        let op = &inputs.ops[i];
        let estimate = cold_count(&inputs.engine, op);
        let ok = estimate.is_some_and(|e| within(e, op.exact, epsilon));
        if !ok {
            eprintln!(
                "failed op {i} ({}): {estimate:?}, exact {}",
                op.name, op.exact
            );
        }
        ok
    });
}

/// The traced replica of `Engine::prepare` + `PreparedQuery::count` for a
/// CQ: decomposition search, the Lemma 52 automaton, and the #TA count,
/// as public calls. Returns the estimate and the automaton's state count
/// and whether it was counted exactly.
fn traced_count(rec: &Recorder, config: &ApproxConfig, op: &Op) -> (f64, usize, bool) {
    let runtime = config.runtime();
    rec.time("op", 0, |id| {
        let (plan, _) = rec.time("prepare", id, |_| {
            plan_fpras_with(&op.query, &runtime).expect("CQs have FPRAS plans")
        });
        let (lemma52, _) = rec.time("build_automaton", id, |_| {
            build_lemma52_automaton_with(&op.query, &plan.a_structure, &op.db, &plan.nice)
                .expect("compatible database")
        });
        let exact = lemma52.states <= config.fpras_exact_state_budget;
        let (estimate, _) = rec.time("count", id, |_| {
            if exact {
                count_labelings_fixed_shape(&lemma52.automaton, &plan.shape) as f64
            } else {
                approx_count_fixed_shape_seeded(
                    &lemma52.automaton,
                    &plan.shape,
                    &TaApproxConfig::new(config.epsilon, config.delta),
                    split_seed(config.seed, 0x51CE),
                    &runtime,
                )
            }
        });
        (estimate, lemma52.states, exact)
    })
    .0
}

/// The traced run: the first [`TRACED_OPS`] ops untraced at the default
/// width (timing `Engine::prepare` on its own), untraced at width 1, and
/// through the traced replica, interleaved op by op.
pub fn run_traced(args: &Args, inputs: &Inputs, report: &mut Report) {
    let ops = &inputs.ops[..TRACED_OPS.min(inputs.ops.len())];
    let n = ops.len() as f64;
    let engine1 = engine(args.seed, 1);

    let rec = Recorder::new();
    let mut prepare_ms = 0.0;
    let mut states = Vec::new();
    let (walls, estimates) = crate::interleaved::<3>(ops.len(), |k, variant| {
        let op = &ops[k];
        match variant {
            0 => {
                let t = Instant::now();
                let prepared = inputs.engine.prepare(&op.query).expect("CQs prepare");
                prepare_ms += ms(t.elapsed());
                prepared
                    .count(&op.db)
                    .map(|r| r.estimate)
                    .unwrap_or(f64::NAN)
            }
            1 => cold_count(&engine1, op).unwrap_or(f64::NAN),
            _ => {
                let (estimate, s, exact) = traced_count(&rec, inputs.engine.config(), op);
                states.push((s, exact));
                estimate
            }
        }
    });
    let [wall_default, wall_w1, wall_traced] = walls;
    let spans = rec.take();

    let epsilon = inputs.engine.config().epsilon;
    let mut mismatched = Vec::new();
    for (k, op) in ops.iter().enumerate() {
        report.attempted += 1;
        let bits = estimates[k][0].to_bits();
        let identical = estimates[k].iter().all(|e| e.to_bits() == bits);
        if !identical || !within(estimates[k][0], op.exact, epsilon) {
            report.failed += 1;
            mismatched.push(op.name.clone());
        }
    }
    report.note(format!(
        "replica bit-identical to Engine::prepare + count on {} of {} ops {mismatched:?}",
        ops.len() - mismatched.len(),
        ops.len()
    ));
    if let Err(e) = write_out(&format!("spans-engine-fpras-{}.ndjson", args.seed), &spans) {
        report.note(format!("span file not written: {e}"));
    }

    let t = totals(&spans);
    let get = |name| t.get(name).copied().unwrap_or_default();
    let per_op_ms = |ns: u64| ns as f64 / 1e6 / n;
    let exact = states.iter().filter(|s| s.1).count();
    let states: usize = states.iter().map(|s| s.0).sum();
    report.layer("hom.bag_ms", per_op_ms(get("build_automaton").ns));
    report.layer("core.prepare_ms", prepare_ms / n);
    report.layer("automata.count_ms", per_op_ms(get("count").ns));
    report.layer("automata.states", states as f64 / n);
    report.layer("automata.exact_frac", ratio(exact as f64, n));
    report.layer(
        "runtime.width",
        inputs.engine.config().runtime().threads() as f64,
    );
    report.layer("runtime.width_gain", wall_w1 / wall_default);
    report.layer("obs.trace_overhead_frac", 1.0 - wall_default / wall_traced);
}
