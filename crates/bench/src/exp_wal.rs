//! E17 — WAL durability: the price of the durable-ack contract and the
//! cost of recovery as the log grows.
//!
//! The first half measures what `foc serve --wal-dir` adds to an
//! acknowledged update under each fsync policy: the same seeded toggle
//! stream is committed through a [`DeltaStructure`] with no WAL at all
//! (`off`, the pre-durability baseline), then with a real on-disk WAL
//! under `never`, `interval:100`, and `always`. The per-update cost is
//! apply + append (+ fsync per policy) — exactly the ack path of the
//! server's writer lock. `always` buys ack-implies-durable at the price
//! of one fsync per update; `never` shows the framing/copy cost alone.
//!
//! The second half measures recovery time as a function of log length:
//! a directory is populated with a checkpoint plus R committed records,
//! then [`Wal::recover`] is timed cold — checkpoint parse, full log
//! scan with CRC verification, and per-record replay with fingerprint
//! verification. The cost must scale linearly in R (each record is
//! verified), so the JSON reports micros-per-record alongside the
//! totals.
//!
//! Besides the markdown tables, writes `BENCH_wal.json` to the current
//! directory; CI checks its schema and sanity bounds.

use std::time::{Duration, Instant};

use foc_obs::json::Value;
use foc_structures::gen::path;
use foc_structures::{DeltaStructure, Structure, TupleOp};
use foc_wal::{DirStore, FsyncPolicy, Wal};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::table::Table;

/// Draws a seeded stream of single-tuple toggles over `E`: each op
/// inserts an absent edge or deletes a present one, so every commit is
/// effective.
fn toggle_stream(base: &Structure, count: usize, rng: &mut StdRng) -> Vec<TupleOp> {
    let order = base.order();
    let e = foc_logic::Symbol::new("E");
    let mut flipped: Vec<(u32, u32)> = Vec::new();
    let mut ops = Vec::with_capacity(count);
    while ops.len() < count {
        let u = rng.gen_range(0..order);
        let w = rng.gen_range(0..order);
        if u == w {
            continue;
        }
        let (a, b) = if u < w { (u, w) } else { (w, u) };
        let toggled = flipped.iter().filter(|&&p| p == (a, b)).count() % 2 == 1;
        let present = base.holds(e, &[a, b]) ^ toggled;
        flipped.push((a, b));
        ops.push(if present {
            TupleOp::delete("E", &[a, b])
        } else {
            TupleOp::insert("E", &[a, b])
        });
    }
    ops
}

fn median(mut vals: Vec<u64>) -> u64 {
    vals.sort_unstable();
    if vals.is_empty() {
        0
    } else {
        vals[vals.len() / 2]
    }
}

struct AckCell {
    policy: String,
    median_micros: u64,
    total_micros: u64,
    syncs: u64,
}

struct RecoveryCell {
    records: u64,
    log_bytes: u64,
    recover_micros: u64,
}

fn bench_dir(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("foc-bench-wal-{tag}-{}", std::process::id()))
}

/// Runs the toggle stream through one policy cell; `policy = None` is
/// the WAL-off baseline.
fn run_ack_cell(base: &Structure, ops: &[TupleOp], policy: Option<FsyncPolicy>) -> AckCell {
    let label = match policy {
        None => "off".to_string(),
        Some(p) => p.to_string(),
    };
    let dir = bench_dir(&label.replace(':', "-"));
    let _ = std::fs::remove_dir_all(&dir);
    let (mut delta, mut wal) = match policy {
        None => (DeltaStructure::new(base.clone()), None),
        Some(p) => {
            let store = DirStore::open(&dir).expect("open bench wal dir");
            let (mut wal, rec) = Wal::recover(store, p, Some(base.clone())).expect("fresh recover");
            wal.checkpoint(rec.delta.current()).expect("checkpoint");
            (rec.delta, Some(wal))
        }
    };
    let mut micros = Vec::with_capacity(ops.len());
    let t_total = Instant::now();
    for op in ops {
        let batch = std::slice::from_ref(op);
        let t0 = Instant::now();
        let info = delta.apply(batch).expect("toggle commits are in-range");
        assert!(info.changed > 0, "toggle stream must stay effective");
        if let Some(wal) = wal.as_mut() {
            wal.append_commit(info.epoch, delta.snapshot().fingerprint(), batch)
                .expect("append");
        }
        micros.push(t0.elapsed().as_micros() as u64);
    }
    let total_micros = t_total.elapsed().as_micros() as u64;
    let syncs = wal.as_ref().map(Wal::syncs).unwrap_or(0);
    let _ = std::fs::remove_dir_all(&dir);
    AckCell {
        policy: label,
        median_micros: median(micros),
        total_micros,
        syncs,
    }
}

/// Populates a directory with a checkpoint + `records` commits, then
/// times a cold recovery of it.
fn run_recovery_cell(base: &Structure, records: usize, rng: &mut StdRng) -> RecoveryCell {
    let dir = bench_dir(&format!("recovery-{records}"));
    let _ = std::fs::remove_dir_all(&dir);
    let store = DirStore::open(&dir).expect("open bench wal dir");
    let (mut wal, rec) =
        Wal::recover(store, FsyncPolicy::Never, Some(base.clone())).expect("fresh recover");
    let mut delta = rec.delta;
    wal.checkpoint(delta.current()).expect("checkpoint");
    let ops = toggle_stream(base, records, rng);
    for op in &ops {
        let batch = std::slice::from_ref(op);
        let info = delta.apply(batch).expect("toggle commits are in-range");
        wal.append_commit(info.epoch, delta.snapshot().fingerprint(), batch)
            .expect("append");
    }
    wal.sync().expect("final sync");
    let live_fp = delta.snapshot().fingerprint();
    drop(wal);
    drop(delta);

    let t0 = Instant::now();
    let (wal, rec) = Wal::recover(
        DirStore::open(&dir).expect("reopen"),
        FsyncPolicy::Always,
        None,
    )
    .expect("cold recovery");
    let recover_micros = t0.elapsed().as_micros() as u64;
    assert_eq!(rec.replayed, records as u64, "every record must replay");
    assert_eq!(
        rec.fingerprint, live_fp,
        "recovery must land on the live state"
    );
    let log_bytes = wal.log_bytes();
    let _ = std::fs::remove_dir_all(&dir);
    RecoveryCell {
        records: records as u64,
        log_bytes,
        recover_micros,
    }
}

fn emit_json(
    acks: &[AckCell],
    recoveries: &[RecoveryCell],
    order: u32,
    updates: usize,
    quick: bool,
) -> String {
    let off = acks
        .iter()
        .find(|c| c.policy == "off")
        .map(|c| c.median_micros)
        .unwrap_or(0);
    let always = acks
        .iter()
        .find(|c| c.policy == "always")
        .map(|c| c.median_micros)
        .unwrap_or(0);
    let per_record = |c: &RecoveryCell| c.recover_micros as f64 / (c.records as f64).max(1.0);
    let ack = |c: &AckCell| {
        Value::object()
            .with("policy", c.policy.as_str())
            .with("median_update_micros", c.median_micros)
            .with("total_micros", c.total_micros)
            .with("syncs", c.syncs)
            .with(
                "overhead_vs_off_micros",
                c.median_micros.saturating_sub(off),
            )
    };
    let recovery = |c: &RecoveryCell| {
        Value::object()
            .with("records", c.records)
            .with("log_bytes", c.log_bytes)
            .with("recover_micros", c.recover_micros)
            .with("micros_per_record", Value::fixed(per_record(c), 3))
    };
    Value::object()
        .with("experiment", "E17 WAL durability: durable-ack overhead and recovery time")
        .with("quick", quick)
        .with("order", order)
        .with("updates_per_policy", updates)
        .with(
            "note",
            "durable_ack times apply+append per policy against the off baseline; recovery times a cold Wal::recover of checkpoint + R records",
        )
        .with("durable_ack", acks.iter().map(ack).collect::<Value>())
        .with("recovery", recoveries.iter().map(recovery).collect::<Value>())
        .with(
            "summary",
            Value::object()
                .with("off_median_micros", off)
                .with("always_median_micros", always)
                .with("always_overhead_micros", always.saturating_sub(off))
                .with(
                    "largest_recovery_micros_per_record",
                    Value::fixed(recoveries.last().map_or(0.0, per_record), 3),
                ),
        )
        .pretty()
}

/// E17: durable-ack overhead per fsync policy plus recovery time vs log
/// length. Returns the markdown tables and writes `BENCH_wal.json` to
/// the working directory.
pub fn e17(quick: bool) -> Vec<Table> {
    let order: u32 = if quick { 512 } else { 4096 };
    let updates: usize = if quick { 48 } else { 256 };
    let record_counts: &[usize] = if quick {
        &[16, 64, 256]
    } else {
        &[64, 256, 1024]
    };
    let base = path(order);

    let mut rng = StdRng::seed_from_u64(17);
    let ops = toggle_stream(&base, updates, &mut rng);

    let policies = [
        None,
        Some(FsyncPolicy::Never),
        Some(FsyncPolicy::Interval(Duration::from_millis(100))),
        Some(FsyncPolicy::Always),
    ];
    let mut ack_table = Table::new(
        format!("E17a: durable-ack overhead on path({order}), {updates} updates"),
        &["policy", "median µs/update", "total µs", "fsyncs"],
    );
    let mut acks = Vec::new();
    for p in policies {
        let cell = run_ack_cell(&base, &ops, p);
        ack_table.row(vec![
            cell.policy.clone(),
            cell.median_micros.to_string(),
            cell.total_micros.to_string(),
            cell.syncs.to_string(),
        ]);
        acks.push(cell);
    }

    let mut rec_table = Table::new(
        format!("E17b: cold recovery time vs log length on path({order})"),
        &["records", "log bytes", "recover µs", "µs/record"],
    );
    let mut recoveries = Vec::new();
    for &r in record_counts {
        let cell = run_recovery_cell(&base, r, &mut rng);
        rec_table.row(vec![
            cell.records.to_string(),
            cell.log_bytes.to_string(),
            cell.recover_micros.to_string(),
            format!("{:.1}", cell.recover_micros as f64 / cell.records as f64),
        ]);
        recoveries.push(cell);
    }

    let json = emit_json(&acks, &recoveries, order, updates, quick);
    match std::fs::write("BENCH_wal.json", &json) {
        Ok(()) => eprintln!("wrote BENCH_wal.json"),
        Err(e) => eprintln!("could not write BENCH_wal.json: {e}"),
    }
    vec![ack_table, rec_table]
}
