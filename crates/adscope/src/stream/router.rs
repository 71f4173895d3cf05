//! The router side of the stream engine, on the caller's thread: the
//! [`RunState`] a run accumulates, and the [`Router`] that owns it —
//! [`Router::route`] (extract, shard, send), [`Router::barrier`] (cut,
//! merge, checkpoint) and [`Router::finalize`] (merge, publish, report).

use super::checkpoint::{config_hash, manifest_to_json, CheckpointLog};
use super::worker::{
    worker_loop, Quarantine, ToWorker, UserState, Worker, WorkerAck, WorkerFinal, WorkerLines,
};
use super::{ck_err, Fold, StreamError, StreamOptions, StreamReport};
use crate::classify::PassiveClassifier;
use crate::extract::{Extractor, UserId, WebObject};
use crate::planes::Planes;
use crate::population::PopulationReport;
use crate::shard::shard_of;
use crate::users::{UserTable, UserTally};
use netsim::codec::{record_to_json, CodecStats};
use netsim::record::{RecordView, TraceMeta, TraceRecord};
use netsim::stream::ChunkSource;
use std::collections::HashSet;
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
    /// The extractor's trace-order clock ([`WebObject::clock`]) at the last
    /// barrier: what a checkpoint persists and a resumed run's extractor
    /// starts from.
    pub(super) clock: f64,
    pub(super) codec: CodecStats,
    pub(super) quarantine_bytes: u64,
    /// Every cut merged so far. `broken_redirect_chains` is derived from
    /// per-user state at end of stream and stays 0 until then.
    pub(super) totals: Planes,
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
            clock: 0.0,
            codec: CodecStats::default(),
            quarantine_bytes: 0,
            totals: Planes::new(opts.pipeline),
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
    /// Each worker's own channels for what it hands back at a barrier: its
    /// ack, then the lines it renders once it has acked. A worker that died
    /// is a closed channel, not a hang.
    ack_rx: Vec<mpsc::Receiver<WorkerAck>>,
    lines_rx: Vec<mpsc::Receiver<WorkerLines>>,
    quarantine: Option<Arc<Quarantine>>,
    /// The router's own planes, for what only it sees: every record's view
    /// (the HTTPS flows among them), the unparseable records that never reach
    /// a worker and extraction's degradation counters. Its cuts merge exactly
    /// like a worker's.
    planes: Planes,
    /// The filter-list servers a download flow goes to
    /// ([`StreamOptions::abp_ips`]).
    abp_ips: HashSet<u32>,
    /// Extraction's state, and the table that numbers the run's users.
    extractor: Extractor,
    /// Every user's counters as its worker last reported them.
    users: UserTable,
    /// Each worker's batch being filled, sent at [`BATCH_RECORDS`] records
    /// or at the end of the chunk, whichever comes first.
    batches: Vec<Vec<(u64, WebObject)>>,
    /// What a batch reserves on its first record: [`BATCH_RECORDS`], or the
    /// worker's even share of a chunk if that is smaller.
    batch_reserve: usize,
    /// Set once a send finds a worker's receiver gone; nothing is sent after.
    worker_gone: bool,
    /// Each worker's `adscope_stream_queue_depth` gauge, set after every send.
    queue_depth: Vec<obs::Gauge>,
    /// Each worker's `adscope_stream_send_stalls_total` counter, registered
    /// beside its gauge, so a run with no stall exports zero.
    send_stalls: Vec<obs::Counter>,
    /// Each worker channel's stall count as of the last add to its counter.
    last_stalls: Vec<u64>,
    run_chunks: u64,
    /// The checkpoint the last barrier cut, until [`Router::write_parked`]
    /// puts it on disk. At a barrier the workers have just drained, so
    /// writing there would spend the sync with nothing else runnable; one
    /// chunk later they have a batch to classify meanwhile. At most one is
    /// parked at a time.
    parked: Option<Parked<'a>>,
    /// The checkpoint log as far as this run has written it.
    log: CheckpointLog,
    /// Present when [`StreamOptions::alerts`] names rules: the rule pack and
    /// its last evaluation. Every merge re-evaluates the merged windows from
    /// scratch, so where the barriers fall cannot change the timeline and
    /// there is nothing here for a checkpoint to carry.
    alerts: Option<obs::AlertEngine>,
    checkpoints_written: u64,
    stopped_early: bool,
}

/// A checkpoint cut and not yet written: its directory, its manifest line,
/// whether it rewrites the log, and the live `page_of` entries. Its user
/// lines are the workers' to render and send meanwhile.
struct Parked<'a> {
    dir: &'a Path,
    manifest: String,
    rewrite: bool,
    entries: u64,
}

/// Bounded channel capacity, in batches, per worker. A full queue blocks
/// the router — this is the backpressure point.
const CHANNEL_CAPACITY: usize = 4;

/// The most records a batch holds: the router hands a worker its batch once
/// it is this full, mid-chunk if need be. With a full queue, the batch being
/// filled and the one being classified, a worker has at most
/// `(CHANNEL_CAPACITY + 2) * BATCH_RECORDS` records in flight, whatever
/// `chunk_records` is.
const BATCH_RECORDS: usize = 256;

pub(super) fn run_stream<S: ChunkSource, F: Fold>(
    mut chunks: S,
    mut state: RunState,
    classifier: &PassiveClassifier,
    opts: &StreamOptions,
    registry: &obs::Registry,
    total_bytes: u64,
    fold: F,
) -> Result<(StreamReport, F), StreamError> {
    let nworkers = opts.workers();
    let popts = opts.pipeline;

    let quarantine = match &opts.quarantine_path {
        Some(p) => Some(Arc::new(Quarantine::open(p, state.quarantine_bytes)?)),
        None => None,
    };
    let extractor = Extractor::for_trace(&state.meta);
    let (mut extractor, per_worker_restores) =
        number_restored(extractor, std::mem::take(&mut state.restored), nworkers);
    extractor.restore_clock(state.clock);

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
        let mut senders: Vec<parallel::Sender<ToWorker>> = Vec::with_capacity(nworkers);
        let (mut ack_rx, mut lines_rx) = (Vec::new(), Vec::new());
        let mut handles = Vec::with_capacity(nworkers);
        for (id, init) in per_worker_restores.into_iter().enumerate() {
            let (tx, rx) = parallel::bounded::<ToWorker>(CHANNEL_CAPACITY);
            let (ack_tx, rx_ack) = mpsc::channel();
            let (lines_tx, rx_lines) = mpsc::channel();
            ack_rx.push(rx_ack);
            lines_rx.push(rx_lines);
            let q = quarantine.clone();
            let poison = opts.poison_host.as_deref();
            let part = fold.clone();
            let slot = health.worker(id as u64);
            handles.push(scope.spawn(move || {
                let w = Worker::new(classifier, popts, part, q, poison, init);
                worker_loop(w, rx, ack_tx, lines_tx, slot, registry)
            }));
            senders.push(tx);
        }

        let (queue_depth, send_stalls) = (0..nworkers)
            .map(|i| {
                let label = [("worker", &*i.to_string())];
                (
                    registry.gauge_with("adscope_stream_queue_depth", &label),
                    registry.counter_with("adscope_stream_send_stalls_total", &label),
                )
            })
            .unzip();
        let mut router = Router {
            opts,
            registry,
            state,
            senders,
            ack_rx,
            lines_rx,
            quarantine,
            planes: Planes::new(popts),
            abp_ips: opts.abp_ips.iter().copied().collect(),
            extractor,
            users: UserTable::default(),
            batches: (0..nworkers).map(|_| Vec::new()).collect(),
            batch_reserve: opts.chunk_records.div_ceil(nworkers).min(BATCH_RECORDS),
            worker_gone: false,
            queue_depth,
            send_stalls,
            last_stalls: vec![0u64; nworkers],
            run_chunks: 0,
            parked: None,
            log: CheckpointLog::default(),
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

/// Number the users a checkpoint restored in a fresh `extractor` before the
/// first record is read, in the order they come off the log (so `0..`), and
/// hand each to the worker of `nworkers` its new id routes it to.
fn number_restored(
    mut extractor: Extractor,
    restored: Vec<UserState>,
    nworkers: usize,
) -> (Extractor, Vec<Vec<(UserId, UserState)>>) {
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
    /// ([`Router::route_record`], which sends each full batch), hand each
    /// worker the rest of its batch, write the checkpoint the previous
    /// chunk's barrier parked, and every `every_chunks` chunks run a
    /// checkpoint barrier.
    fn route(&mut self, chunks: &mut impl ChunkSource) -> Result<(), StreamError> {
        let opts = self.opts;
        loop {
            let mut n_records = 0u64;
            let Some((stats, end_offset)) = chunks.next_chunk_with(|rec| {
                n_records += 1;
                self.route_record(rec);
            }) else {
                break;
            };
            self.state.codec.merge(&stats);
            for widx in 0..self.batches.len() {
                self.send(widx);
            }
            if self.worker_gone {
                // A dead receiver means the worker panicked outside the
                // guard; drop the senders and let the join in
                // `run_stream` propagate the panic.
                break;
            }
            self.state.chunks += 1;
            self.state.offset = end_offset;
            self.run_chunks += 1;
            let registry = self.registry;
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
    /// record is owned before its [`WebObject`] is — sending its worker's
    /// batch once it holds [`BATCH_RECORDS`].
    fn route_record(&mut self, rec: RecordView<'_>) {
        let st = &mut self.state;
        self.planes.observe_record(&rec, &self.abp_ips);
        let RecordView::Http(tx) = rec else {
            return;
        };
        let idx = st.next_http_idx as usize;
        st.next_http_idx += 1;
        let degradation = &mut self.planes.degradation;
        match self.extractor.extract_one(idx, &tx, degradation) {
            Some(obj) => {
                if obj.ts < st.prev_ts {
                    degradation.out_of_order_records += 1;
                }
                st.prev_ts = obj.ts;
                let pos = st.next_pos;
                st.next_pos += 1;
                let s = shard_of(obj.user, self.batches.len());
                let batch = &mut self.batches[s];
                if batch.capacity() == 0 {
                    batch.reserve_exact(self.batch_reserve);
                }
                batch.push((pos, obj));
                if batch.len() == BATCH_RECORDS {
                    self.send(s);
                }
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

    /// Hand worker `widx` its batch, if it holds a record. A blocking send
    /// against a full queue is the backpressure point; stalls and depth
    /// surface as metrics. A receiver that is gone sets `worker_gone`.
    fn send(&mut self, widx: usize) {
        if self.worker_gone || self.batches[widx].is_empty() {
            return;
        }
        let batch = std::mem::take(&mut self.batches[widx]);
        if self.senders[widx].send(ToWorker::Batch(batch)).is_err() {
            self.worker_gone = true;
            return;
        }
        let stats = self.senders[widx].stats();
        self.queue_depth[widx].set(stats.depth() as f64);
        let stalls = stats.send_stalls();
        if stalls > self.last_stalls[widx] {
            self.send_stalls[widx].add(stalls - self.last_stalls[widx]);
            self.last_stalls[widx] = stalls;
        }
    }

    /// A checkpoint barrier: announce whether it rewrites the log
    /// ([`CheckpointLog::rewrites`]), collect each worker's cut (it renders
    /// its user lines after acking), merge the cuts, encode the manifest and
    /// park the checkpoint for [`Router::write_parked`].
    fn barrier(&mut self, dir: &'a Path) -> Result<(), StreamError> {
        let rewrite = self.log.rewrites();
        let acks = collect_acks(&self.senders, &self.ack_rx, rewrite)?;
        self.absorb(acks.iter().map(|a| (&a.delta, &a.counters[..])));
        // Flushed before the manifest is encoded, so the sidecar length
        // the manifest records is durable by the time it is.
        self.state.quarantine_bytes = match &self.quarantine {
            Some(q) => q.flush_bytes()?,
            None => 0,
        };
        self.state.clock = self.extractor.clock();
        debug_assert!(self.parked.is_none(), "the previous checkpoint is on disk");
        self.parked = Some(Parked {
            dir,
            manifest: manifest_to_json(config_hash(self.opts), &self.state),
            rewrite,
            entries: acks.iter().map(|a| a.entries).sum(),
        });
        Ok(())
    }

    /// Put the parked checkpoint, if there is one, into the log: one
    /// segment appended and `sync_data`'d, or the log rewritten whole, as
    /// the barrier decided. Until this returns a kill
    /// resumes from the checkpoint before it, exactly as a kill between two
    /// barriers does: the sidecar may by then be longer than that
    /// checkpoint's `quarantine_bytes`, never shorter, and resume truncates
    /// it back; a torn segment is not read.
    fn write_parked(&mut self) -> Result<(), StreamError> {
        if let Some(p) = self.parked.take() {
            let (mut users, mut lines) = (Vec::with_capacity(self.lines_rx.len()), 0);
            for rx in &self.lines_rx {
                let (block, n) = rx
                    .recv()
                    .map_err(|_| ck_err("a worker exited before rendering its lines"))?;
                users.push(block);
                lines += n;
            }
            let counts = (lines, p.entries);
            self.log
                .write(p.dir, p.rewrite, &p.manifest, &users, counts)?;
            self.checkpoints_written += 1;
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
        parts: impl Iterator<Item = (&'d Planes, &'d [(UserId, UserTally)])>,
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
            engine.eval_report(&totals.windows.report());
            engine.publish(self.registry);
        }
        // The live annoyance plane: every merge republishes the
        // population-so-far, so /population and the class gauges move
        // while the run is going.
        let sketches = totals.population.as_ref()?;
        let users = self.users.rows(&self.extractor);
        let popts = self.opts.pipeline.population;
        let report = sketches.finish(popts, &totals.households, users);
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
        // The workers are joined: no batch waits in any queue.
        for depth in &self.queue_depth {
            depth.set(0.0);
        }
        let (st, registry) = (self.state, self.registry);
        let t = st.totals;
        let (windows, decode_windows) = (t.windows.report(), t.decode_windows.report());

        // The one metric bridge (the oracle records nothing), over the
        // cumulative totals (a resumed run republishes the whole
        // logical stream's counts, so /metrics describes the trace, not
        // the fraction this process happened to run).
        registry
            .counter("adscope_requests_classified_total")
            .add(t.requests);
        for (reason, count) in t.degradation.counts() {
            registry
                .counter_with("adscope_degradation_total", &[("reason", reason)])
                .add(count as u64);
        }
        let scopes = [(&windows, "adscope"), (&decode_windows, "decode")];
        crate::window::publish_scopes(&scopes, registry);

        let users = finals.iter().map(|f| f.counters.len() as u64).sum();
        let report = StreamReport {
            meta: st.meta,
            codec: st.codec,
            degradation: t.degradation,
            windows,
            decode_windows,
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

/// Inject a barrier, announcing whether it is a `rewrite`, and collect one
/// ack per worker, in worker order, each from the worker's own channel.
fn collect_acks(
    senders: &[parallel::Sender<ToWorker>],
    ack_rx: &[mpsc::Receiver<WorkerAck>],
    rewrite: bool,
) -> Result<Vec<WorkerAck>, StreamError> {
    for s in senders {
        if s.send(ToWorker::Barrier(rewrite)).is_err() {
            return Err(ck_err("a worker exited before the barrier"));
        }
    }
    ack_rx
        .iter()
        .map(|rx| {
            rx.recv()
                .map_err(|_| ck_err("a worker exited during the barrier"))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::ClassifiedRequest;
    use crate::stream::checkpoint::{last_manifest, LOCK_FILE};
    use crate::stream::testutil::*;
    use crate::stream::{classify_stream_file, stream_file, CheckpointOptions, CHECKPOINT_FILE};
    use netsim::stream::SliceChunks;
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
        let chunks = trace.records.chunks(16).inspect(|_| {
            on_disk_at_read.push(chunks_on_disk(&dir));
        });
        let state = RunState::new(trace.meta.clone(), &o);
        let chunks = SliceChunks(chunks);
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
        let (mut extractor, per_worker) = number_restored(Extractor::default(), state.restored, 3);
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

    /// A fold that dies on client 2's first `ads.example` request, 100 ms
    /// late, so that the barrier after its chunk is queued by then.
    #[derive(Clone)]
    struct DiesAtTheBarrier;

    impl Fold for DiesAtTheBarrier {
        fn observe(&mut self, _pos: u64, req: &ClassifiedRequest) {
            if req.client_ip == 2 && req.url.host() == "ads.example" {
                std::thread::sleep(Duration::from_millis(100));
                panic!("the fold dies");
            }
        }
        fn merge(&mut self, _part: DiesAtTheBarrier) {}
    }

    /// A worker that panics outside the quarantine guard while a barrier is
    /// queued for it ends the run with its own panic. With one ack channel
    /// shared by every worker, the live worker kept it open and the router
    /// waited for the dead one's ack forever.
    #[test]
    fn a_worker_that_dies_at_a_barrier_ends_the_run() {
        let path = write_trace_file(&messy_trace(160), "dies");
        let dir = temp_path("dies-ck");
        let _ = fs::remove_dir_all(&dir);
        let mut o = stream_opts(2, 16);
        o.checkpoint = Some(CheckpointOptions {
            dir: dir.clone(),
            every_chunks: 1,
            resume: false,
        });
        let (done, ended) = mpsc::channel();
        let trace = path.clone();
        std::thread::spawn(move || {
            let run = std::panic::catch_unwind(|| {
                let registry = obs::Registry::new();
                stream_file(&trace, &classifier(), &o, &registry, DiesAtTheBarrier)
            });
            let panic = run.err().and_then(|p| p.downcast_ref::<&str>().copied());
            let _ = done.send(panic);
        });
        let panic = ended.recv_timeout(Duration::from_secs(30));
        assert_eq!(panic, Ok(Some("the fold dies")));
        let _ = fs::remove_dir_all(&dir);
        let _ = fs::remove_file(&path);
    }

    /// A fold that takes 2 ms a request, so the router outruns the workers.
    #[derive(Clone)]
    struct Slow;

    impl Fold for Slow {
        fn observe(&mut self, _pos: u64, _req: &ClassifiedRequest) {
            std::thread::sleep(Duration::from_millis(2));
        }
        fn merge(&mut self, _part: Slow) {}
    }

    /// Once a run returns no batch waits in any queue, and each worker's
    /// queue-depth gauge says so. It used to hold the depth its last send
    /// left, which `/statusz` showed for a finished run.
    #[test]
    fn the_queue_gauge_reads_zero_after_a_run() {
        let path = write_trace_file(&messy_trace(160), "queue-gauge");
        let registry = obs::Registry::new();
        let o = stream_opts(2, 16);
        stream_file(&path, &classifier(), &o, &registry, Slow).unwrap();
        let mut stalls = 0;
        for worker in ["0", "1"] {
            let label = [("worker", worker)];
            stalls += registry
                .counter_with("adscope_stream_send_stalls_total", &label)
                .get();
            let depth = registry.gauge_with("adscope_stream_queue_depth", &label);
            assert_eq!(depth.get(), 0.0, "worker {worker}");
        }
        assert!(stalls > 0, "no send found a full queue");
        let _ = fs::remove_file(&path);
    }

    /// A chunk larger than a batch reaches its worker in batches of at most
    /// [`BATCH_RECORDS`], each sent as it fills: one worker and one chunk of
    /// the whole trace take `records.div_ceil(BATCH_RECORDS)` batches, not
    /// one.
    #[test]
    fn a_chunk_reaches_its_worker_in_batches_of_at_most_batch_records() {
        let path = write_trace_file(&messy_trace(2400), "batches");
        let registry = obs::Registry::new();
        let o = stream_opts(1, 100_000);
        let rep = classify_stream_file(&path, &classifier(), &o, &registry).unwrap();
        assert_eq!(rep.chunks, 1);
        let worker = &registry.health().snapshot().workers[0];
        assert!(worker.records > 4 * BATCH_RECORDS as u64, "{worker:?}");
        let batch = BATCH_RECORDS as u64;
        assert_eq!(worker.batches, worker.records.div_ceil(batch));
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
        // A fold is not checkpointed (which is why no public entry point
        // takes this pairing): the resumed run's collector saw only the
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
