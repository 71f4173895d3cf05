//! The router side of the stream engine, on the caller's thread: the
//! [`RunState`] a run accumulates, and the [`Router`] that owns it —
//! [`Router::route`] (extract, shard, send), [`Router::barrier`] (cut,
//! merge, checkpoint) and [`Router::finalize`] (merge, publish, report).

use super::checkpoint::{config_hash, manifest_to_json, write_checkpoint};
use super::worker::{worker_loop, Quarantine, ToWorker, UserState, Worker, WorkerAck, WorkerFinal};
use super::{ck_err, Fold, StreamError, StreamOptions, StreamReport};
use crate::classify::PassiveClassifier;
use crate::extract::{Extractor, UserId, WebObject};
use crate::normalize::UrlNormalizer;
use crate::planes::{PlaneTotals, Planes};
use crate::population::PopulationReport;
use crate::shard::shard_of;
use crate::users::{UserTable, UserTally};
use netsim::codec::{record_to_json, CodecStats};
use netsim::record::{RecordView, TraceMeta, TraceRecord};
use netsim::stream::{ChunkSource, MAX_CHUNK_RESERVE};
use obs::window::WindowReport;
use std::path::Path;
use std::sync::{mpsc, Arc};
use std::time::Duration;

/// Everything a run has accumulated so far, cumulative across resumes:
/// where the router stands in the trace and the plane totals. It is what a
/// checkpoint manifest persists, what `load_checkpoint` hands back, what the
/// router mutates chunk by chunk, and what the final report is read out of.
pub(super) struct RunState {
    pub(super) meta: TraceMeta,
    /// Byte offset this run resumed from, if it did (run-local, not
    /// persisted).
    pub(super) resumed_from: Option<u64>,
    pub(super) offset: u64,
    pub(super) chunks: u64,
    pub(super) next_pos: u64,
    pub(super) next_http_idx: u64,
    pub(super) prev_ts: f64,
    pub(super) codec: CodecStats,
    pub(super) quarantine_bytes: u64,
    /// Every cut merged so far. `broken_redirect_chains` is derived from
    /// per-user state at end of stream and stays 0 until then.
    pub(super) totals: PlaneTotals,
    /// The per-user state a checkpoint restored, in the order its users come
    /// off the log, until the workers that own it start (run-local; each
    /// barrier persists the live state).
    pub(super) restored: Vec<UserState>,
}

impl RunState {
    /// The state of a run that has not read a record yet.
    pub(super) fn new(meta: TraceMeta, opts: &StreamOptions) -> RunState {
        RunState {
            meta,
            resumed_from: None,
            offset: 0,
            chunks: 0,
            next_pos: 0,
            next_http_idx: 0,
            prev_ts: f64::NEG_INFINITY,
            codec: CodecStats::default(),
            quarantine_bytes: 0,
            totals: PlaneTotals::new(opts.pipeline.population),
            restored: Vec::new(),
        }
    }
}

/// The router: the run state plus what it takes to advance it.
struct Router<'a> {
    opts: &'a StreamOptions,
    registry: &'a obs::Registry,
    state: RunState,
    senders: Vec<parallel::Sender<ToWorker>>,
    ack_rx: mpsc::Receiver<(usize, WorkerAck)>,
    quarantine: Option<Arc<Quarantine>>,
    /// The router's own planes, for what only it sees: every record's view
    /// (the HTTPS flows among them), the unparseable records that never reach
    /// a worker and extraction's degradation counters. Its cuts merge exactly
    /// like a worker's.
    planes: Planes,
    /// Extraction's state, and the table that numbers the run's users.
    extractor: Extractor,
    /// Every user's counters as its worker last reported them.
    users: UserTable,
    worker_labels: Vec<String>,
    last_stalls: Vec<u64>,
    run_chunks: u64,
    /// The checkpoint the last barrier cut, until [`Router::write_parked`]
    /// puts it on disk. At a barrier the workers have just drained, so
    /// writing there would spend the sync with nothing else runnable; one
    /// chunk later they have a batch to classify meanwhile. At most one is
    /// parked at a time.
    parked: Option<Parked<'a>>,
    /// The length of the checkpoint log once this run has written it: a
    /// run's first checkpoint rewrites the log, later ones append to it.
    log_bytes: Option<u64>,
    /// Present when [`StreamOptions::alerts`] names rules: the rule pack and
    /// its last evaluation. Every merge re-evaluates the merged windows from
    /// scratch, so where the barriers fall cannot change the timeline and
    /// there is nothing here for a checkpoint to carry.
    alerts: Option<obs::AlertEngine>,
    checkpoints_written: u64,
    stopped_early: bool,
}

/// A checkpoint cut and not yet written: its directory, its manifest line,
/// and the user lines the workers rendered at the barrier and kept from
/// earlier ones (shared with the workers' caches, not copied).
struct Parked<'a> {
    dir: &'a Path,
    manifest: String,
    rendered: Vec<Arc<str>>,
    kept: Vec<Arc<str>>,
}

/// Bounded channel capacity, in batches, per worker. A full queue blocks
/// the router — this is the backpressure point.
const CHANNEL_CAPACITY: usize = 4;

pub(super) fn run_stream<S: ChunkSource, F: Fold>(
    mut chunks: S,
    mut state: RunState,
    classifier: &PassiveClassifier,
    opts: &StreamOptions,
    registry: &obs::Registry,
    total_bytes: u64,
    fold: F,
) -> Result<(StreamReport, F), StreamError> {
    let nworkers = if opts.threads == 0 {
        parallel::available_parallelism()
    } else {
        opts.threads
    }
    .max(1);
    let normalizer = UrlNormalizer::from_engine(classifier.engine());
    let popts = opts.pipeline;

    let quarantine = match &opts.quarantine_path {
        Some(p) => Some(Arc::new(Quarantine::open(p, state.quarantine_bytes)?)),
        None => None,
    };
    let (extractor, per_worker_restores) =
        number_restored(std::mem::take(&mut state.restored), nworkers);

    // The live health plane: the router advances the progress ledger
    // per chunk, each worker beats its slot per batch, and /statusz on
    // the serve listener renders the picture while the run is going.
    let health = registry.health();
    let run_label = match state.resumed_from {
        Some(off) => format!("{} (resumed @ {off})", state.meta.name),
        None => state.meta.name.clone(),
    };
    health.begin_run(&run_label, total_bytes, registry.elapsed_ns());
    if state.offset > 0 {
        // A resumed run starts its ledger at the checkpointed offset.
        health.advance(registry.elapsed_ns(), state.offset, 0, 0);
    }

    std::thread::scope(|scope| -> Result<(StreamReport, F), StreamError> {
        let (ack_tx, ack_rx) = mpsc::channel::<(usize, WorkerAck)>();
        let mut senders: Vec<parallel::Sender<ToWorker>> = Vec::with_capacity(nworkers);
        let mut handles = Vec::with_capacity(nworkers);
        let normalizer = &normalizer;
        for (id, init) in per_worker_restores.into_iter().enumerate() {
            let (tx, rx) = parallel::bounded::<ToWorker>(CHANNEL_CAPACITY);
            let ack_tx = ack_tx.clone();
            let q = quarantine.clone();
            let poison = opts.poison_host.as_deref();
            let part = fold.clone();
            let slot = health.worker(id as u64);
            handles.push(scope.spawn(move || {
                let w = Worker::new(classifier, normalizer, popts, part, q, poison, init);
                worker_loop(w, rx, ack_tx, id, slot, registry)
            }));
            senders.push(tx);
        }
        drop(ack_tx);

        let mut router = Router {
            opts,
            registry,
            state,
            senders,
            ack_rx,
            quarantine,
            planes: Planes::new(popts, &opts.abp_ips),
            extractor,
            users: UserTable::default(),
            worker_labels: (0..nworkers).map(|i| i.to_string()).collect(),
            last_stalls: vec![0u64; nworkers],
            run_chunks: 0,
            parked: None,
            log_bytes: None,
            alerts: (!opts.alerts.is_empty()).then(|| obs::AlertEngine::new(opts.alerts.clone())),
            checkpoints_written: 0,
            stopped_early: false,
        };

        // Errors return through `loop_result` so the senders are always
        // dropped (and the workers joined) before this scope exits — an
        // early `?` here would deadlock the scope on workers still
        // blocked in `recv`. A checkpoint still parked when the loop ends (it
        // ended on a barrier: end of trace or `stop_after_chunks`) goes to
        // disk before anything is reported.
        let loop_result = router
            .route(&mut chunks)
            .and_then(|()| router.write_parked());
        router.senders.clear();
        let mut finals = Vec::with_capacity(nworkers);
        for h in handles {
            match h.join() {
                Ok(f) => finals.push(f),
                Err(p) => std::panic::resume_unwind(p),
            }
        }
        health.finish_run(registry.elapsed_ns());
        loop_result?;
        Ok(router.finalize(finals))
    })
}

/// Number the users a checkpoint restored before the first record is read,
/// in the order they come off the log (so `0..`), and hand each to the worker
/// of `nworkers` its new id routes it to.
fn number_restored(
    restored: Vec<UserState>,
    nworkers: usize,
) -> (Extractor, Vec<Vec<(UserId, UserState)>>) {
    let mut extractor = Extractor::default();
    let mut per_worker: Vec<Vec<(UserId, UserState)>> = (0..nworkers).map(|_| Vec::new()).collect();
    for mut user in restored {
        let id = extractor.restore_user(user.client_ip, user.user_agent.clone());
        for h in user.held.values_mut() {
            h.obj.user = id;
        }
        per_worker[shard_of(id, nworkers)].push((id, user));
    }
    (extractor, per_worker)
}

impl<'a> Router<'a> {
    /// The routing loop: per chunk, route every record the source lends
    /// ([`Router::route_record`]), hand each worker its batch, write the
    /// checkpoint the previous chunk's barrier parked, and every
    /// `every_chunks` chunks run a checkpoint barrier.
    fn route(&mut self, chunks: &mut impl ChunkSource) -> Result<(), StreamError> {
        let opts = self.opts;
        let nworkers = self.senders.len();
        // A batch is reserved for its worker's even share of a chunk — all of
        // it at one worker — of no more records than a chunk can plausibly
        // hold, and grows from there.
        let even_share = opts.chunk_records.min(MAX_CHUNK_RESERVE).div_ceil(nworkers);
        loop {
            let mut batches: Vec<Vec<(u64, WebObject)>> = (0..nworkers)
                .map(|_| Vec::with_capacity(even_share))
                .collect();
            let mut n_records = 0u64;
            let Some((stats, end_offset)) = chunks.next_chunk_with(|rec| {
                n_records += 1;
                self.route_record(rec, &mut batches);
            }) else {
                break;
            };
            self.state.codec.merge(&stats);
            if !self.send(batches) {
                // A dead receiver means the worker panicked outside the
                // guard; drop the senders and let the join in
                // `run_stream` propagate the panic.
                break;
            }
            self.state.chunks += 1;
            self.state.offset = end_offset;
            self.run_chunks += 1;
            let registry = self.registry;
            registry.counter("adscope_stream_chunks_total").add(1);
            registry
                .counter("adscope_stream_records_total")
                .add(n_records);
            let now = registry.elapsed_ns();
            registry.health().advance(now, end_offset, n_records, 1);

            // The workers are busy with this chunk: now is when the last
            // barrier's checkpoint is written. A write error surfaces
            // here, one chunk after the barrier that cut it.
            self.write_parked()?;
            if let Some(ck) = &opts.checkpoint {
                if self.state.chunks.is_multiple_of(ck.every_chunks.max(1)) {
                    self.barrier(&ck.dir)?;
                }
            }
            if opts.stop_after_chunks.is_some_and(|n| self.run_chunks >= n) {
                self.stopped_early = true;
                break;
            }
            if opts.throttle_ms > 0 {
                std::thread::sleep(Duration::from_millis(opts.throttle_ms));
            }
        }
        Ok(())
    }

    /// One record on the router: fold its view, and extract, order-check
    /// and shard an HTTP transaction straight from it — nothing of the
    /// record is owned before its [`WebObject`] is.
    fn route_record(&mut self, rec: RecordView<'_>, batches: &mut [Vec<(u64, WebObject)>]) {
        let st = &mut self.state;
        self.planes.observe_record(&rec);
        let RecordView::Http(tx) = rec else {
            return;
        };
        let idx = st.next_http_idx as usize;
        st.next_http_idx += 1;
        let degradation = self.planes.degradation();
        match self.extractor.extract_one(idx, &tx, degradation) {
            Some(obj) => {
                if obj.ts < st.prev_ts {
                    degradation.out_of_order_records += 1;
                }
                st.prev_ts = obj.ts;
                let pos = st.next_pos;
                st.next_pos += 1;
                let s = shard_of(obj.user, batches.len());
                batches[s].push((pos, obj));
            }
            None => {
                degradation.unparseable_urls += 1;
                self.planes.observe_quarantined(tx.ts);
                if let Some(q) = &self.quarantine {
                    let rec = TraceRecord::Http(tx.to_transaction());
                    q.write_line(&record_to_json(&rec));
                }
            }
        }
    }

    /// Hand each worker its batch. A blocking send against a full queue
    /// is the backpressure point; stalls and depth surface as metrics.
    /// `false` when a worker's receiver is gone.
    fn send(&mut self, batches: Vec<Vec<(u64, WebObject)>>) -> bool {
        for (widx, batch) in batches.into_iter().enumerate() {
            if batch.is_empty() {
                continue;
            }
            if self.senders[widx].send(ToWorker::Batch(batch)).is_err() {
                return false;
            }
            let stats = self.senders[widx].stats();
            let label = [("worker", self.worker_labels[widx].as_str())];
            self.registry
                .gauge_with("adscope_stream_queue_depth", &label)
                .set(stats.depth() as f64);
            let stalls = stats.send_stalls();
            if stalls > self.last_stalls[widx] {
                self.registry
                    .counter_with("adscope_stream_send_stalls_total", &label)
                    .add(stalls - self.last_stalls[widx]);
                self.last_stalls[widx] = stalls;
            }
        }
        true
    }

    /// A checkpoint barrier: every worker cuts its delta and serializes
    /// the users a record touched since the last one, the router merges
    /// the deltas, encodes the manifest and parks the checkpoint for
    /// [`Router::write_parked`].
    fn barrier(&mut self, dir: &'a Path) -> Result<(), StreamError> {
        let acks = collect_acks(&self.senders, &self.ack_rx)?;
        self.absorb(acks.iter().map(|a| (&a.delta, &a.counters[..])));
        // Flushed before the manifest is encoded, so the sidecar length
        // the manifest records is durable by the time it is.
        self.state.quarantine_bytes = match &self.quarantine {
            Some(q) => q.flush_bytes()?,
            None => 0,
        };
        let manifest = manifest_to_json(config_hash(self.opts), &self.state);
        let mut parked = Parked {
            dir,
            manifest,
            rendered: Vec::new(),
            kept: Vec::new(),
        };
        for ack in acks {
            parked.rendered.extend(ack.rendered);
            parked.kept.extend(ack.kept);
        }
        debug_assert!(self.parked.is_none(), "the previous checkpoint is on disk");
        self.parked = Some(parked);
        Ok(())
    }

    /// Put the parked checkpoint, if there is one, into the log: one
    /// segment appended and `sync_data`'d, or the log rewritten whole
    /// (`checkpoint::write_checkpoint` decides). Until this returns a kill
    /// resumes from the checkpoint before it, exactly as a kill between two
    /// barriers does: the sidecar may by then be longer than that
    /// checkpoint's `quarantine_bytes`, never shorter, and resume truncates
    /// it back; a torn segment is not read.
    fn write_parked(&mut self) -> Result<(), StreamError> {
        if let Some(p) = self.parked.take() {
            let log = write_checkpoint(p.dir, self.log_bytes, &p.manifest, &p.rendered, &p.kept)?;
            self.log_bytes = Some(log);
            self.checkpoints_written += 1;
            self.registry
                .counter("adscope_stream_checkpoints_total")
                .add(1);
        }
        Ok(())
    }

    /// The one merge, run at every barrier and at end of stream: add the
    /// workers' deltas (in worker-index order), then the router's own cut,
    /// into the run's totals, take the users' counters the workers reported,
    /// and re-evaluate and republish the planes that read them. Every delta
    /// is additive and every user's counters cumulative, so where the cuts
    /// fall is moot.
    fn absorb<'d>(
        &mut self,
        parts: impl Iterator<Item = (&'d PlaneTotals, &'d [(UserId, UserTally)])>,
    ) -> Option<PopulationReport> {
        let totals = &mut self.state.totals;
        for (delta, users) in parts {
            totals.merge(delta);
            for &(user, counters) in users {
                self.users.set(user, counters);
            }
        }
        totals.merge(&self.planes.cut());
        if let Some(engine) = &mut self.alerts {
            engine.eval_report(&totals.windows);
            engine.publish(self.registry);
        }
        // The live annoyance plane: every merge republishes the
        // population-so-far, so /population and the class gauges move
        // while the run is going.
        let sketches = totals.population.as_ref()?;
        let users = self.users.rows(&self.extractor);
        let report = sketches.finish(self.opts.pipeline.population, &totals.households, users);
        report.publish(self.registry);
        Some(report)
    }

    /// End of stream: merge the workers' residual deltas, publish the
    /// cumulative totals, read the report out of the run state and merge the
    /// fold's parts in the deltas' order.
    fn finalize<F: Fold>(mut self, finals: Vec<WorkerFinal<F>>) -> (StreamReport, F) {
        // The population report comes from the builder the materialized
        // path's `finish_trace` calls, over the merged plane and user table.
        let population = self.absorb(finals.iter().map(|f| (&f.delta, &f.counters[..])));
        if let Some(q) = &self.quarantine {
            let _ = q.flush_bytes();
        }
        let (st, registry) = (self.state, self.registry);
        let t = st.totals;

        // The one metric bridge (the oracle records nothing), over the
        // cumulative totals (a resumed run republishes the whole
        // logical stream's counts, so /metrics describes the trace, not
        // the fraction this process happened to run).
        registry
            .counter("adscope_requests_classified_total")
            .add(t.requests);
        registry.counter("adscope_ad_requests_total").add(t.ads);
        for (reason, count) in t.degradation.counts() {
            registry
                .counter_with("adscope_degradation_total", &[("reason", reason)])
                .add(count as u64);
        }
        crate::window::publish(&t.windows, registry);
        publish_decode_windows(&t.decode_windows, registry);

        let users = finals.iter().map(|f| f.counters.len() as u64).sum();
        let report = StreamReport {
            meta: st.meta,
            codec: st.codec,
            degradation: t.degradation,
            windows: t.windows,
            decode_windows: t.decode_windows,
            requests: t.requests,
            ad_requests: t.ads,
            https_flows: t.https_flows,
            users,
            user_table: self.users.finish(&self.extractor),
            households: t.households,
            chunks: st.chunks,
            checkpoints_written: self.checkpoints_written,
            resumed_from: st.resumed_from,
            stopped_early: self.stopped_early,
            population,
            alerts: self.alerts,
        };
        let mut parts = finals.into_iter().map(|f| f.fold);
        let mut fold = parts.next().expect("one worker at least");
        parts.for_each(|part| fold.merge(part));
        (report, fold)
    }
}

/// Inject a barrier and collect one ack per worker, in worker order.
fn collect_acks(
    senders: &[parallel::Sender<ToWorker>],
    ack_rx: &mpsc::Receiver<(usize, WorkerAck)>,
) -> Result<Vec<WorkerAck>, StreamError> {
    for s in senders {
        if s.send(ToWorker::Barrier).is_err() {
            return Err(ck_err("a worker exited before the barrier"));
        }
    }
    // A worker acks a barrier exactly once, so one receive per worker
    // fills every slot.
    let mut acks: Vec<Option<WorkerAck>> = senders.iter().map(|_| None).collect();
    for _ in senders {
        let (w, ack) = ack_rx
            .recv()
            .map_err(|_| ck_err("workers hung up during the barrier"))?;
        acks[w] = Some(ack);
    }
    Ok(acks
        .into_iter()
        .map(|a| a.expect("one ack per worker"))
        .collect())
}

/// Publish the decode-side window series: the rendered lines into the
/// registry's window log under the `decode` scope, plus the closed and
/// late counters.
fn publish_decode_windows(report: &WindowReport, registry: &obs::Registry) {
    if report.late > 0 {
        registry.counter("obs_window_late_total").add(report.late);
    }
    if report.windows.is_empty() {
        return;
    }
    for line in report.render_ndjson("decode").lines() {
        registry.windows().push(line.to_string());
    }
    registry
        .counter("netsim_decode_windows_closed_total")
        .add(report.windows.len() as u64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::ClassifiedRequest;
    use crate::stream::checkpoint::{last_manifest, LOCK_FILE};
    use crate::stream::testutil::*;
    use crate::stream::{classify_stream_file, stream_file, CheckpointOptions, CHECKPOINT_FILE};
    use netsim::stream::{OwnedChunks, StreamChunk};
    use std::collections::HashMap;
    use std::fs;

    /// The `"chunks"` count of the manifest of the last valid segment of
    /// `dir`'s checkpoint log, if there is one.
    fn chunks_on_disk(dir: &Path) -> Option<u64> {
        let log = fs::read(dir.join(CHECKPOINT_FILE)).ok()?;
        let manifest = last_manifest(&log)?;
        let from = manifest.find("\"chunks\":")? + "\"chunks\":".len();
        let len = manifest[from..].find(',')?;
        manifest[from..from + len].parse().ok()
    }

    /// A barrier parks its checkpoint and the next chunk's send writes it;
    /// whichever way the loop ends, the last one is on disk by the time
    /// the call returns.
    #[test]
    fn the_last_checkpoint_is_on_disk_when_the_run_returns() {
        let trace = messy_trace(160);
        let path = write_trace_file(&trace, "parked");
        let dir = temp_path("parked-ck");
        let total = 10; // 160 records in chunks of 16
        for k in [1, 2, 5, total] {
            let _ = fs::remove_dir_all(&dir);
            let mut o = stream_opts(2, 16);
            o.checkpoint = Some(CheckpointOptions {
                dir: dir.clone(),
                every_chunks: 1,
                resume: false,
            });
            o.stop_after_chunks = (k < total).then_some(k);
            let rep =
                classify_stream_file(&path, &classifier(), &o, &obs::Registry::new()).unwrap();
            assert_eq!(rep.stopped_early, k < total);
            assert_eq!(rep.chunks, k);
            assert_eq!(rep.checkpoints_written, k);
            assert_eq!(chunks_on_disk(&dir), Some(k), "k={k}");
        }
        let _ = fs::remove_dir_all(&dir);
        let _ = fs::remove_file(&path);
    }

    /// The checkpoint cut after chunk k is on disk before chunk k + 2 is
    /// read: at most one is ever waiting.
    #[test]
    fn a_parked_checkpoint_is_written_before_the_chunk_after_next_is_read() {
        let trace = messy_trace(96);
        let dir = temp_path("parked-order-ck");
        let _ = fs::remove_dir_all(&dir);
        let mut o = stream_opts(2, 16);
        o.checkpoint = Some(CheckpointOptions {
            dir: dir.clone(),
            every_chunks: 1,
            resume: false,
        });
        // What the file on disk says when the router asks for each chunk.
        let mut on_disk_at_read = Vec::new();
        let chunks = trace.records.chunks(16).enumerate().map(|(i, batch)| {
            on_disk_at_read.push(chunks_on_disk(&dir));
            StreamChunk {
                seq: i as u64,
                records: batch.to_vec(),
                stats: CodecStats::default(),
                end_offset: (i as u64 + 1) * 1000,
            }
        });
        let state = RunState::new(trace.meta.clone(), &o);
        let chunks = OwnedChunks(chunks);
        let (rep, ()) = run_stream(
            chunks,
            state,
            &classifier(),
            &o,
            &obs::Registry::new(),
            0,
            (),
        )
        .unwrap();
        assert_eq!(rep.checkpoints_written, 6);
        // Chunks 1 and 2 are read with nothing on disk yet; chunk k + 2
        // finds the checkpoint cut after chunk k.
        assert_eq!(
            on_disk_at_read,
            [None, None, Some(1), Some(2), Some(3), Some(4)]
        );
        let _ = fs::remove_dir_all(&dir);
    }

    /// A checkpoint that cannot be written fails the run — at the next
    /// chunk or at the end of the loop, never not at all.
    #[test]
    fn a_checkpoint_write_error_is_never_lost() {
        let trace = messy_trace(64);
        let path = write_trace_file(&trace, "ck-error");
        let file = temp_path("ck-error-file");
        fs::write(&file, b"a regular file").unwrap();
        let dir = temp_path("ck-error-dir");
        let _ = fs::remove_dir_all(&dir);
        // The checkpoint's own name taken by a directory: the temp file is
        // written and synced, the rename over it fails.
        fs::create_dir_all(dir.join(CHECKPOINT_FILE)).unwrap();
        for (what, ck_dir) in [
            ("parent is a file", file.join("ck")),
            ("rename fails", dir.clone()),
        ] {
            // Stopped on the first barrier (the only write is the one after
            // the loop); stopped one chunk later; run to the end of the four
            // chunks; and with the only barrier after chunk 3, so the only
            // write is the one after chunk 4's send.
            for (every_chunks, stop) in [(1, Some(1)), (1, Some(2)), (1, None), (3, None)] {
                let mut o = stream_opts(2, 16);
                o.checkpoint = Some(CheckpointOptions {
                    dir: ck_dir.clone(),
                    every_chunks,
                    resume: false,
                });
                o.stop_after_chunks = stop;
                let got = classify_stream_file(&path, &classifier(), &o, &obs::Registry::new());
                assert!(
                    matches!(got, Err(StreamError::Io(_))),
                    "{what}, every {every_chunks}, stop {stop:?}: {:?}",
                    got.map(|r| r.checkpoints_written)
                );
            }
        }
        let left: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .filter(|name| name != LOCK_FILE)
            .collect();
        assert_eq!(left, [CHECKPOINT_FILE], "failed writes leave no temp file");
        let _ = fs::remove_dir_all(&dir);
        let _ = fs::remove_file(&file);
        let _ = fs::remove_file(&path);
    }

    /// A SIGKILL mid-write leaves `checkpoint.ndjson.<pid>.<seq>.tmp`; the
    /// next run on the directory, resuming or fresh, removes it.
    #[test]
    fn a_run_sweeps_the_temp_files_a_killed_one_left() {
        let trace = messy_trace(96);
        let path = write_trace_file(&trace, "sweep");
        let dir = temp_path("sweep-ck");
        let _ = fs::remove_dir_all(&dir);
        let mut o = stream_opts(2, 16);
        o.checkpoint = Some(CheckpointOptions {
            dir: dir.clone(),
            every_chunks: 1,
            resume: false,
        });
        o.stop_after_chunks = Some(3);
        classify_stream_file(&path, &classifier(), &o, &obs::Registry::new()).unwrap();
        let checkpoint = fs::read(dir.join(CHECKPOINT_FILE)).unwrap();

        let orphan = dir.join(format!("{CHECKPOINT_FILE}.4242.7.tmp"));
        let decoy = dir.join("notes.tmp");
        for resume in [true, false] {
            fs::write(&orphan, &checkpoint[..checkpoint.len() / 2]).unwrap();
            fs::write(&decoy, b"not ours").unwrap();
            o.checkpoint.as_mut().unwrap().resume = resume;
            // Stopped before its first barrier: the sweep is the only thing
            // this run does to the directory.
            o.checkpoint.as_mut().unwrap().every_chunks = 64;
            o.stop_after_chunks = Some(1);
            classify_stream_file(&path, &classifier(), &o, &obs::Registry::new()).unwrap();
            assert!(!orphan.exists(), "resume={resume}: orphan survived");
            assert_eq!(fs::read(&decoy).unwrap(), b"not ours");
            assert_eq!(fs::read(dir.join(CHECKPOINT_FILE)).unwrap(), checkpoint);
        }
        let _ = fs::remove_dir_all(&dir);
        let _ = fs::remove_file(&path);
    }

    /// The router extracts from a borrowed view and owns nothing of a
    /// record it quarantines; what it writes to the sidecar is still the
    /// codec's line for the decoded record — scanner-path and generic-path
    /// (escaped) lines alike, at any chunk size the command line can name.
    #[test]
    fn unparseable_url_records_are_quarantined_as_their_codec_lines() {
        let mut trace = messy_trace(96);
        let escaped = "/x?q=\"quoted\"\\";
        trace
            .records
            .push(tx(99.0, 1, Some("UA-A"), "", escaped, None, None, None));
        let want: String = trace
            .records
            .iter()
            .filter(|r| matches!(r, TraceRecord::Http(t) if t.request.host.is_empty()))
            .map(|r| record_to_json(r) + "\n")
            .collect();
        assert_eq!(want.lines().count(), 13);
        let path = write_trace_file(&trace, "sidecar");
        let sidecar = temp_path("sidecar-q");
        for (threads, chunk) in [(1, 16), (2, 16), (1, 100_000_000_000)] {
            let _ = fs::remove_file(&sidecar);
            let mut o = stream_opts(threads, chunk);
            o.quarantine_path = Some(sidecar.clone());
            let rep =
                classify_stream_file(&path, &classifier(), &o, &obs::Registry::new()).unwrap();
            assert_eq!(rep.degradation.unparseable_urls, 13);
            let got = fs::read_to_string(&sidecar).unwrap();
            assert_eq!(got, want, "threads={threads} chunk={chunk}");
        }
        let _ = fs::remove_file(&sidecar);
        let _ = fs::remove_file(&path);
    }

    /// A resumed run numbers the users it restores `0..`, in the order they
    /// come off the log, before it reads a record: at another thread count,
    /// each goes to the worker its new id routes it to, its held records
    /// carry the id, a record of it is given that id, and a user met after
    /// the resume the next one.
    #[test]
    fn restored_users_get_ids_before_the_first_record() {
        let trace = messy_trace(160);
        let path = write_trace_file(&trace, "renumber");
        let dir = temp_path("renumber-ck");
        let _ = fs::remove_dir_all(&dir);
        let mut o = stream_opts(2, 16);
        o.checkpoint = Some(CheckpointOptions {
            dir: dir.clone(),
            every_chunks: 1,
            resume: false,
        });
        o.stop_after_chunks = Some(4);
        classify_stream_file(&path, &classifier(), &o, &obs::Registry::new()).unwrap();

        let state = super::super::checkpoint::load_checkpoint(&dir, &o).unwrap();
        let keys: Vec<(u32, Option<Arc<str>>)> = state
            .restored
            .iter()
            .map(|u| (u.client_ip, u.user_agent.clone()))
            .collect();
        assert!(keys.len() > 3, "{} users", keys.len());
        assert!(state.restored.iter().any(|u| !u.held.is_empty()));
        let (mut extractor, per_worker) = number_restored(state.restored, 3);
        assert_eq!(extractor.users(), keys.len());
        for (id, (ip, ua)) in keys.iter().enumerate() {
            assert_eq!(extractor.user(id as UserId), (*ip, ua.as_deref()));
        }
        for (w, users) in per_worker.iter().enumerate() {
            for (id, user) in users {
                assert_eq!(shard_of(*id, 3), w);
                assert_eq!(
                    keys[*id as usize],
                    (user.client_ip, user.user_agent.clone())
                );
                assert!(user.held.values().all(|h| h.obj.user == *id));
            }
        }
        let mut http = |client: u32, ua: Option<&str>| {
            let TraceRecord::Http(h) = tx(1.0, client, ua, "a.example", "/", None, None, None)
            else {
                unreachable!()
            };
            let mut report = crate::degrade::DegradationReport::default();
            let view = netsim::record::HttpView::of(&h);
            extractor.extract_one(0, &view, &mut report).unwrap().user
        };
        let last = keys.len() - 1;
        assert_eq!(http(keys[last].0, keys[last].1.as_deref()), last as UserId);
        assert_eq!(http(77, Some("UA-new")), keys.len() as UserId);

        // And the resume at 3 threads reads as the uninterrupted run.
        let want = classify_stream_file(
            &path,
            &classifier(),
            &stream_opts(2, 16),
            &obs::Registry::new(),
        )
        .unwrap()
        .render();
        o.threads = 3;
        o.stop_after_chunks = None;
        o.checkpoint.as_mut().unwrap().resume = true;
        let got = classify_stream_file(&path, &classifier(), &o, &obs::Registry::new()).unwrap();
        assert_eq!(got.render(), want);
        let _ = fs::remove_dir_all(&dir);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn checkpoint_resume_is_byte_identical() {
        let (trace, c) = (messy_trace(300), classifier());
        let path = write_trace_file(&trace, "resume");
        let dir = temp_path("resume-ck");
        let _ = fs::remove_dir_all(&dir);

        // Uninterrupted run.
        let mut full = stream_opts(3, 16);
        full.checkpoint = Some(CheckpointOptions {
            dir: dir.clone(),
            every_chunks: 4,
            resume: false,
        });
        let (want, want_all) =
            stream_file(&path, &c, &full, &obs::Registry::new(), Collect::default()).unwrap();
        let _ = fs::remove_dir_all(&dir);

        // Killed run: checkpoints every 2 chunks, stops after 7.
        let mut killed = stream_opts(3, 16);
        killed.checkpoint = Some(CheckpointOptions {
            dir: dir.clone(),
            every_chunks: 2,
            resume: false,
        });
        killed.stop_after_chunks = Some(7);
        let partial =
            classify_stream_file(&path, &classifier(), &killed, &obs::Registry::new()).unwrap();
        assert!(partial.stopped_early);
        assert!(partial.checkpoints_written >= 3);

        // Resume at a *different* thread count.
        let mut resumed = stream_opts(2, 16);
        resumed.checkpoint = Some(CheckpointOptions {
            dir: dir.clone(),
            every_chunks: 2,
            resume: true,
        });
        let (got, got_part) = stream_file(
            &path,
            &c,
            &resumed,
            &obs::Registry::new(),
            Collect::default(),
        )
        .unwrap();
        assert!(got.resumed_from.unwrap() > 0);
        assert_eq!(got.render(), want.render(), "resumed render differs");
        // A fold is not checkpointed (which is why the public entry point
        // refuses this pairing): the resumed run's collector saw only the
        // requests finalized after the checkpoint. Each one must match the
        // uninterrupted run's request at the same global position — user
        // state restored wrongly shows here and in no aggregate — and
        // together with the manifest base they account for every request.
        let by_pos: HashMap<u64, &ClassifiedRequest> =
            want_all.0.iter().map(|(pos, req)| (*pos, req)).collect();
        assert!(!got_part.0.is_empty() && got_part.0.len() < want_all.0.len());
        for (pos, req) in &got_part.0 {
            assert_eq!(by_pos[pos], req, "request at pos {pos} differs");
        }
        assert_eq!(
            got.requests as usize,
            want_all.0.len(),
            "cumulative totals must cover the whole trace"
        );
        assert_eq!(got.degradation, want.degradation);
        assert_eq!(got.codec, want.codec);
        assert_eq!(got.chunks, want.chunks);

        let _ = fs::remove_dir_all(&dir);
        let _ = fs::remove_file(&path);
    }
}
