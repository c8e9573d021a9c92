package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dpcpp/internal/analysis"
	"dpcpp/internal/experiments"
	"dpcpp/internal/obs"
	"dpcpp/internal/store"
	"dpcpp/internal/taskgen"
)

// Sweep jobs turn the one-connection-per-curve grid endpoint into a
// durable workload: POST /v1/sweeps accepts a whole campaign — any subset
// of the Fig. 2 subplots and the g0..g215 grid, n samples per point, a
// method subset — and returns immediately with a job ID. A single runner
// goroutine drains submitted jobs FIFO; within a job, the incomplete
// points of every scenario go through one experiments.Sweep on the shared
// pool, bounded by the same engine worker slots interactive requests use
// (so a sweep saturates idle cores but cannot run more analyses
// concurrently than -workers allows).
//
// Sweeps deliberately bypass the admission queue: admission protects
// interactive latency traffic from unbounded queueing, while a sweep is an
// explicitly asynchronous batch whose backpressure is the bounded job
// queue itself (429 when maxSweepJobs are pending) plus the per-job draw
// bound (maxSweepSamplesPerJob). Jobs — including finished ones — are
// retained in memory and on disk until a client removes them with
// DELETE /v1/sweeps/{id}, which also cancels a running or queued job at
// its next sample boundary.
//
// # Durability
//
// With a store configured, every job checkpoints to
// <store-dir>/jobs/<id>.json — the normalized spec plus each completed
// point's GridPoint — via atomic temp-file + rename. Point-completion
// checkpoints are throttled (at most one write per sweepCheckpointEvery)
// with forced writes when a scenario's last point lands, at every state
// change and on cancellation, so checkpoint I/O stays bounded on
// store-warmed re-runs where thousands of points complete in milliseconds;
// a crash forfeits at most the last interval's points, which the resume
// re-runs deterministically. A restarted daemon reloads the directory,
// lists finished jobs, and re-queues unfinished ones, whose runner then
// re-runs only the incomplete points. Because every sample seed is
// experiments.SampleSeed(seed, scenario, point, sample) — independent of
// which points run in which process lifetime — a resumed sweep's curves
// are byte-identical to an uninterrupted run's, and the persistent result
// store makes the re-run of any point that had finished analyses before
// the crash mostly cache hits.
const (
	// maxSweepJobs bounds queued-but-unstarted sweep jobs; submissions
	// past it get 429.
	maxSweepJobs = 64
	// maxSweepScenarios bounds the scenario list of one sweep (the full
	// 216-scenario grid plus the four Fig. 2 subplots fits comfortably).
	maxSweepScenarios = 256
	// sweepCheckpointEvery throttles per-point checkpoint writes; scenario
	// boundaries, state changes and cancellation always write.
	sweepCheckpointEvery = time.Second
	// maxSweepSamplesPerJob bounds one job's total (point, sample) draws —
	// the full 216-scenario grid at n in the thousands still fits, but a
	// mistaken submission cannot park the FIFO runner for weeks (a job at
	// this bound is days of work; cancel it with DELETE /v1/sweeps/{id}).
	maxSweepSamplesPerJob = 10_000_000
)

// Sweep-job lifecycle states.
const (
	sweepQueued   = "queued"   // submitted or reloaded, waiting for the runner
	sweepRunning  = "running"  // the runner is draining its points
	sweepPaused   = "paused"   // reloaded with resume disabled; a future resume-enabled daemon will pick it up
	sweepDone     = "done"     // every point of every scenario completed
	sweepFailed   = "failed"   // checkpoint could not be resolved against this binary
	sweepCanceled = "canceled" // deleted by the client; in memory only, never checkpointed
)

// sweepSpec is the normalized, serialized definition of one sweep job.
type sweepSpec struct {
	Scenarios []string `json:"scenarios"`
	N         int      `json:"n"`
	Seed      int64    `json:"seed"`
	Methods   []string `json:"methods"`
	PathCap   int      `json:"path_cap"`
	Placement string   `json:"placement"`
}

// sweepCheckpoint is the on-disk (and in-memory) job state: the spec plus
// one GridPoint per completed utilization point, nil while incomplete.
type sweepCheckpoint struct {
	ID      string         `json:"id"`
	Created int64          `json:"created_unix_nano"`
	State   string         `json:"state"`
	Error   string         `json:"error,omitempty"`
	Spec    sweepSpec      `json:"spec"`
	Points  [][]*GridPoint `json:"points"`
}

// sweepJob is one submitted sweep: the checkpoint guarded by a mutex
// (runner writes, handlers read) plus the spec resolved against this
// binary (scenarios, methods, options).
type sweepJob struct {
	mu sync.Mutex
	cp sweepCheckpoint
	// ckmu serializes checkpoint marshal+write pairs: per-point
	// checkpoints fire from worker goroutines, and without the ordering a
	// stale snapshot could overwrite a newer one on disk. lastCk (guarded
	// by ckmu) is when the job last hit the disk, for throttling.
	ckmu   sync.Mutex
	lastCk time.Time

	// cancel (guarded by mu) interrupts the job's in-flight sweep; set by
	// the runner while the job runs, invoked by DELETE /v1/sweeps/{id}.
	cancel context.CancelFunc

	scens []taskgen.Scenario
	ms    []analysis.Method
	opts  analysis.Options
}

// resolve validates the spec against this binary and fills the derived
// fields, including the per-scenario point slices for any scenario that
// does not have them yet.
func (j *sweepJob) resolve() error {
	spec := &j.cp.Spec
	if len(spec.Scenarios) == 0 {
		return fmt.Errorf("empty scenarios")
	}
	if len(spec.Scenarios) > maxSweepScenarios {
		return fmt.Errorf("%d scenarios, above the per-sweep bound %d", len(spec.Scenarios), maxSweepScenarios)
	}
	if spec.N < 1 || spec.N > maxGridSamples {
		return fmt.Errorf("invalid n %d (1..%d)", spec.N, maxGridSamples)
	}
	if spec.PathCap < 0 {
		return fmt.Errorf("negative path_cap %d", spec.PathCap)
	}
	ms, err := analysis.ParseMethods(spec.Methods)
	if err != nil {
		return err
	}
	// Canonicalize the method names so checkpoints are self-contained and
	// insensitive to client whitespace and repeats.
	spec.Methods = spec.Methods[:0]
	for _, m := range ms {
		spec.Methods = append(spec.Methods, string(m))
	}
	pl, err := parsePlacement(spec.Placement)
	if err != nil {
		return err
	}
	j.ms, j.opts = ms, analysis.Options{PathCap: spec.PathCap, Placement: pl}
	j.scens = make([]taskgen.Scenario, len(spec.Scenarios))
	if j.cp.Points == nil {
		j.cp.Points = make([][]*GridPoint, len(spec.Scenarios))
	}
	if len(j.cp.Points) != len(spec.Scenarios) {
		return fmt.Errorf("checkpoint has %d point lists for %d scenarios", len(j.cp.Points), len(spec.Scenarios))
	}
	totalSamples := 0
	for i, name := range spec.Scenarios {
		scen, err := parseScenario(name)
		if err != nil {
			return err
		}
		j.scens[i] = scen.DefaultStructure()
		npoints := len(taskgen.UtilizationPoints(j.scens[i].M))
		if j.cp.Points[i] == nil {
			j.cp.Points[i] = make([]*GridPoint, npoints)
		}
		if len(j.cp.Points[i]) != npoints {
			return fmt.Errorf("scenario %s: checkpoint has %d points, this binary sweeps %d", name, len(j.cp.Points[i]), npoints)
		}
		totalSamples += npoints * spec.N
	}
	if totalSamples > maxSweepSamplesPerJob {
		return fmt.Errorf("sweep draws %d samples, above the per-job bound %d; lower n or split the campaign",
			totalSamples, maxSweepSamplesPerJob)
	}
	return nil
}

// status snapshots the job's wire status.
func (j *sweepJob) status() SweepStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := SweepStatus{
		ID:        j.cp.ID,
		State:     j.cp.State,
		Error:     j.cp.Error,
		N:         j.cp.Spec.N,
		Seed:      j.cp.Spec.Seed,
		Methods:   j.cp.Spec.Methods,
		Scenarios: make([]SweepScenarioStatus, len(j.cp.Spec.Scenarios)),
	}
	for i, name := range j.cp.Spec.Scenarios {
		ss := SweepScenarioStatus{Scenario: name, Points: len(j.cp.Points[i])}
		for _, gp := range j.cp.Points[i] {
			if gp != nil {
				ss.Done++
			}
		}
		st.Scenarios[i] = ss
	}
	return st
}

// results snapshots the job's completed curves (nil entries mark points
// that have not completed yet; State tells the client whether more are
// coming).
func (j *sweepJob) results() SweepResults {
	j.mu.Lock()
	defer j.mu.Unlock()
	res := SweepResults{
		ID:        j.cp.ID,
		State:     j.cp.State,
		Scenarios: make([]SweepScenarioResult, len(j.cp.Spec.Scenarios)),
	}
	for i, name := range j.cp.Spec.Scenarios {
		pts := make([]*GridPoint, len(j.cp.Points[i]))
		copy(pts, j.cp.Points[i])
		res.Scenarios[i] = SweepScenarioResult{Scenario: name, Points: pts}
	}
	return res
}

// jobRegistry owns every sweep job of one Server: the in-memory index, the
// FIFO runner, and the checkpoint directory.
type jobRegistry struct {
	srv     *Server
	st      *store.Store // nil = in-memory only
	jobsDir string
	// sync selects durable (fsynced) checkpoint writes; on unless the
	// operator opted out (Config.DisableCheckpointSync). Cache entries
	// never sync — only checkpoints hold unrecoverable progress.
	sync bool

	mu    sync.Mutex
	jobs  map[string]*sweepJob
	order []string // submission/creation order, for listing

	queue  chan *sweepJob
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	submitted *obs.Counter
	completed *obs.Counter
	active    atomic.Int64
}

func newJobRegistry(srv *Server, st *store.Store) (*jobRegistry, error) {
	ctx, cancel := context.WithCancel(context.Background())
	r := &jobRegistry{
		srv:  srv,
		st:   st,
		sync: !srv.cfg.DisableCheckpointSync,
		jobs: make(map[string]*sweepJob),
		// A little headroom above the submission bound, so reloading a
		// full queue plus the job that was running at crash time never
		// blocks startup.
		queue:  make(chan *sweepJob, maxSweepJobs+8),
		ctx:    ctx,
		cancel: cancel,
	}
	reg := srv.obs.reg
	r.submitted = reg.Counter("schedd_sweeps_submitted_total", "sweeps_submitted", "Sweep jobs submitted.")
	r.completed = reg.Counter("schedd_sweeps_completed_total", "sweeps_completed", "Sweep jobs run to completion.")
	reg.Gauge("schedd_sweeps_active", "", "sweeps_active", "Sweep jobs running or queued for the runner.",
		func() int64 { return r.active.Load() + int64(len(r.queue)) })
	if st != nil {
		r.jobsDir = filepath.Join(st.Dir(), "jobs")
		if err := os.MkdirAll(r.jobsDir, 0o755); err != nil {
			cancel()
			return nil, err
		}
		if err := r.load(); err != nil {
			cancel()
			return nil, err
		}
	}
	r.wg.Add(1)
	go r.run()
	return r, nil
}

// load reloads checkpointed jobs after a restart. Finished jobs are listed
// as-is; unfinished ones are re-queued (or paused when resume is
// disabled). A checkpoint this binary cannot resolve — or one whose file
// is corrupted or unreadable — is kept as a failed job rather than
// silently dropped, and never poisons the rest of startup: every other
// checkpoint still loads and resumes.
func (r *jobRegistry) load() error {
	ents, err := os.ReadDir(r.jobsDir)
	if err != nil {
		return err
	}
	var loaded []*sweepJob
	for _, ent := range ents {
		if ent.IsDir() || filepath.Ext(ent.Name()) != ".json" {
			continue
		}
		// Reads go through the store so injected faults reach the startup
		// path too.
		data, err := r.st.ReadFile(filepath.Join(r.jobsDir, ent.Name()))
		if err == nil {
			j := &sweepJob{}
			if uerr := json.Unmarshal(data, &j.cp); uerr != nil {
				err = fmt.Errorf("corrupt checkpoint: %v", uerr)
			} else if j.cp.ID == "" {
				err = fmt.Errorf("corrupt checkpoint: missing job id")
			} else {
				loaded = append(loaded, j)
				continue
			}
		}
		// Unreadable or corrupt. If the filename is ID-shaped, the job
		// existed: surface it as failed (in memory only — the file on disk
		// is left alone) instead of making it vanish. Foreign files and
		// orphaned temp files are skipped silently; neither is fatal — the
		// daemon must come up with whatever state is readable.
		if id := strings.TrimSuffix(ent.Name(), ".json"); isSweepID(id) {
			loaded = append(loaded, &sweepJob{cp: sweepCheckpoint{
				ID:    id,
				State: sweepFailed,
				Error: fmt.Sprintf("unreadable checkpoint: %v", err),
			}})
		}
	}
	sort.Slice(loaded, func(a, b int) bool { return loaded[a].cp.Created < loaded[b].cp.Created })
	for _, j := range loaded {
		if err := j.resolve(); err != nil && j.cp.State != sweepFailed {
			j.cp.State = sweepFailed
			j.cp.Error = fmt.Sprintf("unresolvable checkpoint: %v", err)
		}
		// resolve may have bailed before sizing Points; pad it so
		// status()/results() can still render the failed job.
		for len(j.cp.Points) < len(j.cp.Spec.Scenarios) {
			j.cp.Points = append(j.cp.Points, nil)
		}
		switch j.cp.State {
		case sweepDone, sweepFailed:
			// Terminal: list only.
			if j.cp.State == sweepFailed {
				r.log().LogAttrs(context.Background(), slog.LevelWarn, "sweep checkpoint unusable",
					slog.String("sweep_id", j.cp.ID), slog.String("error", j.cp.Error))
			}
		default:
			if r.srv.cfg.DisableResume {
				j.cp.State = sweepPaused
			} else {
				select {
				case r.queue <- j:
					j.cp.State = sweepQueued
				default: // more unfinished checkpoints than the queue holds
					j.cp.State = sweepPaused
				}
			}
			r.log().LogAttrs(context.Background(), slog.LevelInfo, "sweep checkpoint loaded",
				slog.String("sweep_id", j.cp.ID), slog.String("state", j.cp.State),
				slog.Int("scenarios", len(j.cp.Spec.Scenarios)))
		}
		r.jobs[j.cp.ID] = j
		r.order = append(r.order, j.cp.ID)
		// A load-time failure mark stays in memory only: the checkpoint on
		// disk may be perfectly resumable by the binary that wrote it
		// (e.g. after a transient downgrade), so overwriting it with
		// "failed" would destroy recoverable progress. Terminal "done"
		// states are likewise left untouched.
		if j.cp.State == sweepQueued || j.cp.State == sweepPaused {
			r.checkpoint(j)
		}
	}
	return nil
}

// submit registers and enqueues a new sweep job, persisting its initial
// checkpoint. It fails when the job queue is full (the caller turns that
// into 429).
func (r *jobRegistry) submit(spec sweepSpec) (*sweepJob, error) {
	j := &sweepJob{cp: sweepCheckpoint{
		ID:      newSweepID(),
		Created: time.Now().UnixNano(),
		State:   sweepQueued,
		Spec:    spec,
	}}
	if err := j.resolve(); err != nil {
		return nil, err
	}
	r.mu.Lock()
	if len(r.queue) >= maxSweepJobs {
		r.mu.Unlock()
		return nil, errSweepQueueFull
	}
	r.queue <- j
	r.jobs[j.cp.ID] = j
	r.order = append(r.order, j.cp.ID)
	r.mu.Unlock()
	r.submitted.Add(1)
	r.checkpoint(j)
	r.log().LogAttrs(context.Background(), slog.LevelInfo, "sweep submitted",
		slog.String("sweep_id", j.cp.ID), slog.Int("scenarios", len(spec.Scenarios)),
		slog.Int("n", spec.N), slog.Int64("seed", spec.Seed))
	return j, nil
}

// log returns the registry's structured logger (the server's base logger).
func (r *jobRegistry) log() *slog.Logger { return r.srv.obs.log }

var errSweepQueueFull = fmt.Errorf("sweep queue full (%d jobs pending), retry later", maxSweepJobs)

// get returns the job by ID.
func (r *jobRegistry) get(id string) (*sweepJob, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	j, ok := r.jobs[id]
	return j, ok
}

// list snapshots every job's status in creation order.
func (r *jobRegistry) list() []SweepStatus {
	r.mu.Lock()
	ids := append([]string(nil), r.order...)
	r.mu.Unlock()
	out := make([]SweepStatus, 0, len(ids))
	for _, id := range ids {
		if j, ok := r.get(id); ok {
			out = append(out, j.status())
		}
	}
	return out
}

// run is the FIFO job runner; one goroutine per registry.
func (r *jobRegistry) run() {
	defer r.wg.Done()
	for {
		select {
		case <-r.ctx.Done():
			return
		case j := <-r.queue:
			r.active.Add(1)
			r.runSweep(j)
			r.active.Add(-1)
		}
	}
}

// runSweep drains one job: every incomplete point of every scenario,
// checkpointing completed points as they land. On daemon shutdown
// (Server.Close) the job keeps state "running" in its checkpoint and is
// re-queued by the next resume-enabled daemon; on client cancellation
// (DELETE) it stops at the next sample boundary and is never checkpointed
// again.
func (r *jobRegistry) runSweep(j *sweepJob) {
	ctx, cancel := context.WithCancel(r.ctx)
	defer cancel()
	j.mu.Lock()
	if j.cp.State == sweepCanceled { // deleted while still queued
		j.mu.Unlock()
		return
	}
	j.cp.State = sweepRunning
	j.cancel = cancel
	todo := make([][]int, len(j.cp.Points))        // incomplete points per scenario
	left := make([]atomic.Int64, len(j.cp.Points)) // todo points not yet landed
	for si, gps := range j.cp.Points {
		for pi, gp := range gps {
			if gp == nil {
				todo[si] = append(todo[si], pi)
			}
		}
		left[si].Store(int64(len(todo[si])))
	}
	j.mu.Unlock()
	defer func() {
		j.mu.Lock()
		j.cancel = nil
		j.mu.Unlock()
	}()
	r.checkpoint(j)
	start := time.Now()
	r.log().LogAttrs(ctx, slog.LevelInfo, "sweep running",
		slog.String("sweep_id", j.cp.ID), slog.Int("scenarios", len(j.scens)))

	// Run's error needs no handling: generation failures are part of the
	// checkpointed points, and a test error means ctx ended, which the
	// check below handles.
	_ = experiments.Sweep{
		Scenarios: j.scens,
		Methods:   j.ms,
		Seed:      j.cp.Spec.Seed,
		Samples:   j.cp.Spec.N,
		Points:    todo,
		Workers:   r.srv.cfg.Workers,
	}.Run(ctx, r.srv.engine.sweepTest(ctx, j.ms, j.opts),
		func(si, pi int, p experiments.Point, complete bool) {
			last := left[si].Add(-1) == 0
			// An incomplete point (cancellation mid-point) is never
			// checkpointed: the next run re-draws all of its samples,
			// which SampleSeed makes bit-identical.
			if !complete {
				return
			}
			j.mu.Lock()
			j.cp.Points[si][pi] = newGridPoint(pi, p, j.ms)
			j.mu.Unlock()
			// A forced write when a scenario's last point lands, so
			// throttling never leaves a finished scenario only in memory.
			if last {
				r.checkpoint(j)
			} else {
				r.checkpointThrottled(j)
			}
		})
	// A forced write after the sweep — on cancellation too, before the
	// runner exits — so no completed progress stays only in memory.
	r.checkpoint(j)
	if ctx.Err() != nil {
		return
	}

	// The done checkpoint is written before the done state is published,
	// so no status reader sees "done" before the file does. ckmu orders
	// the write after every earlier snapshot and keeps delete() from
	// removing the file mid-write; j.mu is not held across the I/O.
	j.ckmu.Lock()
	j.mu.Lock()
	finished := j.cp.State == sweepRunning
	for si := range j.cp.Points {
		for _, gp := range j.cp.Points[si] {
			if gp == nil {
				finished = false
			}
		}
	}
	var data []byte
	var err error
	if finished && r.st != nil {
		done := j.cp
		done.State = sweepDone
		data, err = json.Marshal(&done)
	}
	id := j.cp.ID
	j.mu.Unlock()
	if finished && r.st != nil {
		r.writeCheckpoint(j, id, data, err)
	}
	j.mu.Lock()
	// A DELETE that lands during the write has marked the job canceled;
	// it removes the file once ckmu is released.
	finished = finished && j.cp.State == sweepRunning
	if finished {
		j.cp.State = sweepDone
		r.completed.Add(1)
	}
	j.mu.Unlock()
	j.ckmu.Unlock()
	if finished {
		r.log().LogAttrs(context.Background(), slog.LevelInfo, "sweep done",
			slog.String("sweep_id", j.cp.ID), slog.Duration("elapsed", time.Since(start)))
	} else {
		r.log().LogAttrs(context.Background(), slog.LevelInfo, "sweep interrupted",
			slog.String("sweep_id", j.cp.ID), slog.Duration("elapsed", time.Since(start)))
	}
}

// checkpoint persists the job's current state (no-op without a store).
// Failures are counted as store errors and otherwise ignored: an
// unwritable disk degrades durability, not service. Forced checkpoints
// write even under an open circuit breaker — scenario/state boundaries are
// exactly where a retry against a recovered disk is worth one syscall —
// and feed the outcome back into the breaker (a success closes it; a
// failure while open changes nothing, so forced flushes never thrash it).
func (r *jobRegistry) checkpoint(j *sweepJob) {
	if r.st == nil {
		return
	}
	// Hold ckmu across marshal AND write: a checkpoint that snapshots
	// later also commits later, so the on-disk file never goes backwards.
	j.ckmu.Lock()
	defer j.ckmu.Unlock()
	r.checkpointLocked(j)
}

// checkpointThrottled is checkpoint rate-limited to one write per
// sweepCheckpointEvery: on a store-warmed re-run thousands of points can
// complete per second, and re-marshaling the whole job for each would make
// checkpoint I/O the bottleneck. Skipped progress is bounded by the
// forced writes at scenario/state boundaries and by resume determinism.
// Under an open circuit breaker, per-point checkpoints degrade to
// in-memory progress (no doomed syscall per point) — except the breaker's
// periodic recovery probe, which one checkpoint carries like any other
// store access.
func (r *jobRegistry) checkpointThrottled(j *sweepJob) {
	if r.st == nil {
		return
	}
	j.ckmu.Lock()
	defer j.ckmu.Unlock()
	if time.Since(j.lastCk) < sweepCheckpointEvery {
		return
	}
	if !r.srv.engine.br.Allow() {
		return
	}
	r.checkpointLocked(j)
}

// checkpointLocked does the marshal+write; callers hold j.ckmu.
func (r *jobRegistry) checkpointLocked(j *sweepJob) {
	j.mu.Lock()
	if j.cp.State == sweepCanceled {
		// delete() removed the file under ckmu; never resurrect it.
		j.mu.Unlock()
		return
	}
	data, err := json.Marshal(&j.cp)
	id := j.cp.ID
	j.mu.Unlock()
	r.writeCheckpoint(j, id, data, err)
}

// writeCheckpoint persists one marshaled snapshot (err is the marshal
// error); callers hold j.ckmu.
func (r *jobRegistry) writeCheckpoint(j *sweepJob, id string, data []byte, err error) {
	if err == nil {
		err = r.st.WriteFile(filepath.Join(r.jobsDir, id+".json"), data, r.sync)
		r.srv.engine.br.Record(err)
	}
	if err != nil {
		r.srv.engine.storeErrors.Add(1)
		r.log().LogAttrs(context.Background(), slog.LevelWarn, "sweep checkpoint write failed",
			slog.String("sweep_id", id), slog.String("error", err.Error()))
		return
	}
	j.lastCk = time.Now()
}

// delete cancels and removes a job: a running job stops at its next
// sample boundary, a queued one is skipped when the runner reaches it,
// and the checkpoint file (if any) is removed so no later daemon resumes
// it. Reports whether the job existed.
func (r *jobRegistry) delete(id string) bool {
	r.mu.Lock()
	j, ok := r.jobs[id]
	if ok {
		delete(r.jobs, id)
		for i, oid := range r.order {
			if oid == id {
				r.order = append(r.order[:i], r.order[i+1:]...)
				break
			}
		}
	}
	r.mu.Unlock()
	if !ok {
		return false
	}
	j.mu.Lock()
	j.cp.State = sweepCanceled
	cancel := j.cancel
	j.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	if r.st != nil {
		// Under ckmu so an in-flight checkpoint commits first and no
		// later one resurrects the file (checkpointLocked re-checks the
		// canceled state).
		j.ckmu.Lock()
		os.Remove(filepath.Join(r.jobsDir, id+".json"))
		j.ckmu.Unlock()
	}
	r.log().LogAttrs(context.Background(), slog.LevelInfo, "sweep canceled",
		slog.String("sweep_id", id))
	return true
}

// close stops the runner (the in-flight sweep stops at its next sample
// boundary and its completed points are already checkpointed) and waits
// for it to exit.
func (r *jobRegistry) close() {
	r.cancel()
	r.wg.Wait()
}

func newSweepID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(err) // crypto/rand never fails on supported platforms
	}
	return hex.EncodeToString(b[:])
}

// isSweepID reports whether s has the shape newSweepID produces (16
// lowercase hex characters) — how load distinguishes a job's damaged
// checkpoint from a foreign file.
func isSweepID(s string) bool {
	if len(s) != 16 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// handleSweepSubmit accepts a sweep campaign and returns its job ID
// immediately; the work happens on the background runner.
func (s *Server) handleSweepSubmit(w http.ResponseWriter, r *http.Request) {
	s.engine.requests.Add(1)
	var req SweepRequest
	if s.decodeBody(w, r, &req) != nil {
		return
	}
	spec := sweepSpec{
		Scenarios: req.Scenarios,
		N:         25,
		Seed:      2020,
		Methods:   req.Methods,
		PathCap:   req.PathCap,
		Placement: req.Placement,
	}
	// Absent fields default; explicit values — including an explicit 0 —
	// are taken literally, exactly like the grid endpoint's parameters
	// (an explicit n of 0 fails the same 1..maxGridSamples validation).
	if req.N != nil {
		spec.N = *req.N
	}
	if req.Seed != nil {
		spec.Seed = *req.Seed
	}
	// resolve (via submit) expands an empty method list to all five and
	// canonicalizes the names into the checkpointed spec.
	j, err := s.jobs.submit(spec)
	if err == errSweepQueueFull {
		w.Header().Set("Retry-After", "10")
		writeError(w, http.StatusTooManyRequests, "%v", err)
		return
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	st := j.status()
	points := 0
	for _, ss := range st.Scenarios {
		points += ss.Points
	}
	writeJSON(w, http.StatusAccepted, SweepAccepted{ID: st.ID, Points: points})
}

func (s *Server) handleSweepList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, SweepList{Sweeps: s.jobs.list()})
}

func (s *Server) sweepByID(w http.ResponseWriter, r *http.Request) (*sweepJob, bool) {
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown sweep %q", r.PathValue("id"))
	}
	return j, ok
}

func (s *Server) handleSweepStatus(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.sweepByID(w, r); ok {
		writeJSON(w, http.StatusOK, j.status())
	}
}

// handleSweepDelete cancels (if running) and forgets a sweep job, removing
// its checkpoint so no future daemon resumes it. Completed analyses stay
// in the result store — they are content-addressed and job-independent.
func (s *Server) handleSweepDelete(w http.ResponseWriter, r *http.Request) {
	if !s.jobs.delete(r.PathValue("id")) {
		writeError(w, http.StatusNotFound, "unknown sweep %q", r.PathValue("id"))
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleSweepResults(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.sweepByID(w, r); ok {
		writeJSON(w, http.StatusOK, j.results())
	}
}
