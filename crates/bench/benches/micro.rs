//! Criterion microbenchmarks of the hot data-path primitives: the row
//! codec, the SPL buffer manager, the map-side sort buffer, ORC column
//! encodings, the hash partitioner, and a small end-to-end shuffle on
//! each engine.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use hdm_common::kv::{BytesComparator, KvPair};
use hdm_common::partition::{HashPartitioner, Partitioner};
use hdm_common::row::Row;
use hdm_common::value::{DataType, Value};
use std::sync::Arc;

fn sample_row(i: i64) -> Row {
    Row::from(vec![
        Value::Long(i),
        Value::Str(format!("customer-{i}")),
        Value::Double(i as f64 * 1.5),
        Value::date_from_ymd(1995, 1 + (i % 12) as u32, 1 + (i % 28) as u32),
    ])
}

fn bench_row_codec(c: &mut Criterion) {
    let rows: Vec<Row> = (0..1000).map(sample_row).collect();
    let mut g = c.benchmark_group("row_codec");
    g.throughput(Throughput::Elements(rows.len() as u64));
    g.bench_function("encode_1k_rows", |b| {
        b.iter(|| {
            let mut buf = Vec::with_capacity(64 * 1024);
            for r in &rows {
                r.encode(&mut buf);
            }
            buf
        })
    });
    let mut encoded = Vec::new();
    for r in &rows {
        r.encode(&mut encoded);
    }
    g.bench_function("decode_1k_rows", |b| {
        b.iter(|| {
            let mut cursor = &encoded[..];
            let mut out = Vec::with_capacity(1000);
            while !cursor.is_empty() {
                out.push(Row::decode(&mut cursor).expect("decode"));
            }
            out
        })
    });
    g.finish();
}

fn bench_partitioner(c: &mut Criterion) {
    let keys: Vec<Vec<u8>> = (0..1000u32).map(|i| i.to_be_bytes().to_vec()).collect();
    c.bench_function("hash_partition_1k_keys", |b| {
        let p = HashPartitioner;
        b.iter(|| keys.iter().map(|k| p.partition(k, 28)).sum::<usize>())
    });
}

fn bench_spl(c: &mut Criterion) {
    use hdm_datampi::buffer::SendPartitionList;
    let pairs: Vec<(usize, KvPair)> = (0..1000)
        .map(|i| {
            (
                i % 14,
                KvPair::new(vec![(i % 251) as u8], vec![(i % 256) as u8; 24]),
            )
        })
        .collect();
    c.bench_function("spl_push_1k_pairs", |b| {
        b.iter_batched(
            || SendPartitionList::new(14, 16 << 10),
            |mut spl| {
                let mut flushed = 0;
                for (dst, kv) in &pairs {
                    if spl.push(*dst, kv).expect("in-range dst").is_some() {
                        flushed += 1;
                    }
                }
                flushed + spl.flush().len()
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_sort_buffer(c: &mut Criterion) {
    use hdm_mapred::sort::SortBuffer;
    let pairs: Vec<(usize, KvPair)> = (0..1000u32)
        .map(|i| {
            (
                (i % 14) as usize,
                KvPair::new(((i * 37) % 997).to_be_bytes().to_vec(), vec![0u8; 16]),
            )
        })
        .collect();
    c.bench_function("sort_buffer_1k_collect_finish", |b| {
        b.iter_batched(
            || SortBuffer::new(8 << 10, Arc::new(BytesComparator), None),
            |mut buf| {
                for (p, kv) in &pairs {
                    buf.collect(*p, kv.clone());
                }
                buf.finish(14)
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_orc(c: &mut Criterion) {
    use hdm_core::Driver;
    let mut g = c.benchmark_group("storage");
    // Full table write+scan comparison through the public API.
    for fmt in ["TEXTFILE", "ORC"] {
        g.bench_function(format!("write_scan_2k_rows_{fmt}"), |b| {
            b.iter_batched(
                || {
                    let d = Driver::in_memory();
                    d.execute(&format!(
                        "CREATE TABLE t (a BIGINT, b STRING, c DOUBLE, d DATE) STORED AS {fmt}"
                    ))
                    .expect("ddl");
                    let rows: Vec<Row> = (0..2000).map(sample_row).collect();
                    d.load_rows("t", &rows).expect("load");
                    d
                },
                |d| {
                    d.execute("SELECT a FROM t WHERE a < 100")
                        .expect("scan")
                        .rows
                        .len()
                },
                BatchSize::SmallInput,
            )
        });
    }
    g.finish();
}

fn bench_engines_shuffle(c: &mut Criterion) {
    use hdm_common::partition::HashPartitioner;
    let mut g = c.benchmark_group("engine_shuffle_8x4_2k_pairs");
    g.sample_size(20);
    g.bench_function("hadoop", |b| {
        b.iter(|| {
            let config = hdm_mapred::MapRedConfig {
                map_tasks: 8,
                reduce_tasks: 4,
                sort_buffer_bytes: 64 << 10,
                concurrency: 8,
                ..Default::default()
            };
            hdm_mapred::run_mapreduce(
                &config,
                Arc::new(BytesComparator),
                Arc::new(HashPartitioner),
                Arc::new(|_r, ctx: &mut hdm_mapred::MapContext| {
                    for i in 0..250u32 {
                        ctx.collect(KvPair::new(i.to_be_bytes().to_vec(), vec![1u8; 16]))?;
                    }
                    Ok(())
                }),
                Arc::new(|_r, ctx: &mut hdm_mapred::ReduceContext| {
                    let mut n = 0u64;
                    while let Some((_k, vs)) = ctx.next_group() {
                        n += vs.len() as u64;
                    }
                    Ok(n)
                }),
            )
            .expect("mr")
            .reduce_results
            .iter()
            .sum::<u64>()
        })
    });
    g.bench_function("datampi", |b| {
        b.iter(|| {
            let config = hdm_datampi::DataMpiConfig {
                o_tasks: 8,
                a_tasks: 4,
                send_partition_bytes: 4 << 10,
                ..Default::default()
            };
            hdm_datampi::run_bipartite(
                &config,
                Arc::new(BytesComparator),
                Arc::new(HashPartitioner),
                Arc::new(|_r, ctx: &mut hdm_datampi::OContext| {
                    for i in 0..250u32 {
                        ctx.send(KvPair::new(i.to_be_bytes().to_vec(), vec![1u8; 16]))?;
                    }
                    Ok(())
                }),
                Arc::new(|_r, ctx: &mut hdm_datampi::AContext| {
                    let mut n = 0u64;
                    while let Some((_k, vs)) = ctx.next_group() {
                        n += vs.len() as u64;
                    }
                    Ok(n)
                }),
            )
            .expect("dm")
            .a_results
            .iter()
            .sum::<u64>()
        })
    });
    g.finish();
}

/// Sorting shuffled keys: decoding rows on every comparison
/// (`RowKeyComparator` over row-codec bytes) vs raw memcmp over
/// normalized sortkey bytes — the tentpole's before/after pair.
fn bench_sort_keys(c: &mut Criterion) {
    use hdm_common::kv::{Comparator, RowKeyComparator};
    use hdm_common::sortkey;
    let rows: Vec<Row> = (0..1000).map(|i| sample_row((i * 7919) % 1000)).collect();
    let row_keys: Vec<Vec<u8>> = rows
        .iter()
        .map(|r| {
            let mut b = Vec::new();
            r.encode(&mut b);
            b
        })
        .collect();
    let norm_keys: Vec<Vec<u8>> = rows.iter().map(sortkey::encode_row).collect();
    let mut g = c.benchmark_group("sort_keys_1k");
    g.throughput(Throughput::Elements(rows.len() as u64));
    g.bench_function("decode_per_compare", |b| {
        let cmp = RowKeyComparator;
        b.iter_batched(
            || row_keys.clone(),
            |mut keys| {
                keys.sort_by(|a, b| cmp.compare(a, b));
                keys
            },
            BatchSize::SmallInput,
        )
    });
    g.bench_function("memcmp_normalized", |b| {
        let cmp = BytesComparator;
        b.iter_batched(
            || norm_keys.clone(),
            |mut keys| {
                keys.sort_by(|a, b| cmp.compare(a, b));
                keys
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

/// Decoding a received shuffle payload: refcounted `Bytes::slice` views
/// vs the former per-pair `Vec` copies (reconstructed here as the
/// baseline arm).
fn bench_payload_decode(c: &mut Criterion) {
    use hdm_datampi::buffer::SendPartition;
    let mut p = SendPartition::with_capacity(64 << 10);
    for i in 0..1000u32 {
        p.push(&KvPair::new(i.to_be_bytes().to_vec(), vec![0u8; 24]));
    }
    let payload = p.take_payload();
    let mut g = c.benchmark_group("payload_decode_1k_pairs");
    g.throughput(Throughput::Bytes(payload.len() as u64));
    g.bench_function("copy_per_pair", |b| {
        b.iter(|| {
            // The pre-zero-copy shape: each key/value chunk copied into
            // its own fresh allocation.
            let mut cursor: &[u8] = payload.as_ref();
            let mut out = Vec::with_capacity(1000);
            while !cursor.is_empty() {
                let k = hdm_common::codec::read_bytes(&mut cursor).expect("key");
                let v = hdm_common::codec::read_bytes(&mut cursor).expect("value");
                out.push(KvPair::new(k, v));
            }
            out
        })
    });
    g.bench_function("zero_copy_slices", |b| {
        b.iter(|| SendPartition::decode_payload(&payload).expect("decode"))
    });
    g.finish();
}

/// SPL fill/flush cycles with and without returning flushed payloads to
/// the recycling pool (Section IV-C's reusable send blocks).
fn bench_spl_cycle(c: &mut Criterion) {
    use hdm_datampi::buffer::SendPartitionList;
    let pairs: Vec<(usize, KvPair)> = (0..1000)
        .map(|i| {
            (
                i % 4,
                KvPair::new(vec![(i % 251) as u8], vec![(i % 256) as u8; 24]),
            )
        })
        .collect();
    let mut g = c.benchmark_group("spl_cycle_1k_pairs");
    g.throughput(Throughput::Elements(pairs.len() as u64));
    g.bench_function("drop_payloads", |b| {
        b.iter_batched(
            || SendPartitionList::new(4, 2 << 10),
            |mut spl| {
                let mut flushed = 0usize;
                for (dst, kv) in &pairs {
                    if spl.push(*dst, kv).expect("in-range dst").is_some() {
                        flushed += 1;
                    }
                }
                flushed
            },
            BatchSize::SmallInput,
        )
    });
    g.bench_function("recycle_payloads", |b| {
        b.iter_batched(
            || SendPartitionList::new(4, 2 << 10),
            |mut spl| {
                let mut flushed = 0usize;
                for (dst, kv) in &pairs {
                    if let Some(payload) = spl.push(*dst, kv).expect("in-range dst") {
                        flushed += 1;
                        spl.recycle(payload);
                    }
                }
                flushed
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

/// Cost of the observability layer on the hottest instrumented loop:
/// an SPL-shaped run of `CollectProfile::record_kv` plus counter/timer
/// updates, called unguarded as production code calls them, with obs
/// disabled (inert handles, the production default) and enabled (full
/// recording).
fn bench_obs_overhead(c: &mut Criterion) {
    use hdm_obs::ObsHandle;
    use std::time::Instant;
    let mut g = c.benchmark_group("obs_overhead");
    g.throughput(Throughput::Elements(1000));
    for (arm, obs) in [
        ("disabled", ObsHandle::disabled()),
        ("enabled", ObsHandle::enabled_with_stride(64)),
    ] {
        let counter = obs.counter("bench.flushes", "rank=0");
        let timer = obs.timer("bench.wait.us", "rank=0", hdm_obs::TIMER_US_BUCKET);
        g.bench_function(format!("collect_1k_kv_{arm}"), |b| {
            b.iter(|| {
                let mut profile = hdm_obs::CollectProfile::new();
                let start = Instant::now();
                for i in 0..1000u64 {
                    profile.record_kv(29, start);
                    if i % 64 == 0 {
                        counter.add(1);
                        timer.observe(i);
                    }
                }
                profile.records
            })
        });
    }
    g.finish();
}

/// Cost of the fault-injection layer on the send hot path: the per-send
/// drop/delay decisions with the plan disabled (one relaxed atomic load
/// per decision site, the production default) and enabled (seeded
/// permille draws).
fn bench_ft_overhead(c: &mut Criterion) {
    use hdm_faults::{FaultPlan, Site};
    let mut g = c.benchmark_group("ft_overhead");
    g.throughput(Throughput::Elements(1000));
    for (arm, plan) in [
        ("disabled", FaultPlan::disabled()),
        ("enabled", FaultPlan::with_seed(7)),
    ] {
        g.bench_function(format!("send_path_1k_decisions_{arm}"), |b| {
            b.iter(|| {
                let mut hits = 0u32;
                for seq in 0..1000u64 {
                    if plan.should_drop(Site::MpiSend, 3, seq) {
                        hits += 1;
                    }
                    if plan.send_delay(Site::MpiSend, 3, seq).is_some() {
                        hits += 1;
                    }
                }
                hits
            })
        });
    }
    g.finish();
}

/// Cost of the cancellation token on the hot path: the same SPL-shaped
/// fill loop as `spl_cycle`, bare vs polling a never-fired token once
/// per pair (the production default — `hive.query.timeout.ms` off and
/// no caller token still pays exactly this one relaxed load per poll
/// site). The two arms must stay within noise of each other.
fn bench_cancel_overhead(c: &mut Criterion) {
    use hdm_common::CancelToken;
    use hdm_datampi::buffer::SendPartitionList;
    let pairs: Vec<(usize, KvPair)> = (0..1000)
        .map(|i| {
            (
                i % 4,
                KvPair::new(vec![(i % 251) as u8], vec![(i % 256) as u8; 24]),
            )
        })
        .collect();
    let mut g = c.benchmark_group("cancel_overhead_1k_pairs");
    g.throughput(Throughput::Elements(pairs.len() as u64));
    g.bench_function("no_token", |b| {
        b.iter_batched(
            || SendPartitionList::new(4, 2 << 10),
            |mut spl| {
                let mut flushed = 0usize;
                for (dst, kv) in &pairs {
                    if spl.push(*dst, kv).expect("in-range dst").is_some() {
                        flushed += 1;
                    }
                }
                flushed
            },
            BatchSize::SmallInput,
        )
    });
    g.bench_function("unfired_token_polled", |b| {
        let token = CancelToken::default();
        b.iter_batched(
            || SendPartitionList::new(4, 2 << 10),
            |mut spl| {
                let mut flushed = 0usize;
                for (dst, kv) in &pairs {
                    if token.is_cancelled() {
                        break;
                    }
                    if spl.push(*dst, kv).expect("in-range dst").is_some() {
                        flushed += 1;
                    }
                }
                flushed
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn bench_expr_eval(c: &mut Criterion) {
    use hdm_core::parser::parse_statement;
    let stmt = parse_statement("SELECT a FROM t WHERE a * 2 + 1 > 10 AND b LIKE 'customer%'")
        .expect("sql");
    let q = match stmt {
        hdm_core::ast::Statement::Select(q) => q,
        _ => unreachable!(),
    };
    let predicate = q.where_clause.expect("where");
    let cols = ["a".to_string(), "b".to_string()];
    let compiled = hdm_core::expr::compile_expr(&predicate, &move |_q: Option<&str>, n: &str| {
        cols.iter().position(|c| c == n)
    })
    .expect("compile");
    let rows: Vec<Row> = (0..1000)
        .map(|i| Row::from(vec![Value::Long(i), Value::Str(format!("customer-{i}"))]))
        .collect();
    c.bench_function("predicate_eval_1k_rows", |b| {
        b.iter(|| {
            rows.iter()
                .filter(|r| compiled.eval_predicate(r).expect("eval"))
                .count()
        })
    });
    let _ = DataType::Long;
}

fn bench_sched_overlap(c: &mut Criterion) {
    use hdm_core::{sched, Driver, EngineKind};
    use hdm_workloads::branch;

    // The two-branch diamond: both filter-scan roots are independent, so
    // a two-worker schedule overlaps them while the selective filter
    // keeps the downstream join cheap. A production driver submits each
    // stage and *waits* on the cluster, so stage latency is wait time,
    // not driver CPU — modeled here by profiling one real run of every
    // stage (obs `sched.run` spans) and replaying those measured
    // latencies as waits under the scheduler. This keeps the overlap
    // win visible on a single-core CI runner, where local CPU-bound
    // stage bodies cannot physically run faster in parallel.
    let mut d = Driver::in_memory();
    branch::load(&mut d, 20_000).expect("load branch tables");
    d.conf_mut().set(hdm_common::conf::KEY_OBS_ENABLED, true);
    let plan = branch::diamond_plan();
    d.execute_raw_plan(&plan, EngineKind::DataMpi)
        .expect("profiling run");
    let snap = d.last_obs_snapshot().expect("profiled spans");
    let stage_wait: Vec<std::time::Duration> = (0..plan.stages.len())
        .map(|i| {
            let track = format!("stage{i}");
            let us = snap
                .spans
                .iter()
                .find(|s| s.track == track && s.name == "sched.run")
                .map(|s| s.dur_us)
                .expect("profiled stage span");
            std::time::Duration::from_micros(us)
        })
        .collect();
    let deps = plan.dag();
    let obs = hdm_obs::ObsHandle::disabled();
    let mut g = c.benchmark_group("sched_overlap");
    g.sample_size(10);
    for (label, threads) in [("sequential", 1usize), ("two_workers", 2)] {
        g.bench_function(format!("diamond_{label}"), |b| {
            b.iter(|| {
                sched::run_dag(
                    &deps,
                    threads,
                    &obs,
                    &hdm_common::CancelToken::default(),
                    |stage| {
                        std::thread::sleep(stage_wait[stage]);
                        Ok(stage)
                    },
                )
                .expect("dag run")
            })
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_row_codec,
    bench_partitioner,
    bench_spl,
    bench_sort_buffer,
    bench_orc,
    bench_engines_shuffle,
    bench_sort_keys,
    bench_payload_decode,
    bench_spl_cycle,
    bench_obs_overhead,
    bench_ft_overhead,
    bench_cancel_overhead,
    bench_expr_eval,
    bench_sched_overlap
);
criterion_main!(benches);
