package service

import (
	"context"
	"strconv"
	"sync"

	"adhocradio/internal/experiment"
	"adhocradio/internal/graph"
)

// Job kinds.
const (
	KindSimulate   = "simulate"
	KindExperiment = "experiment"
)

// Job statuses, in lifecycle order. A job is queued from acceptance until a
// worker picks it up, running while the worker executes it, and ends done
// or failed; there is no dropped state — graceful drain finishes every
// accepted job, and the smoke test asserts exactly that.
const (
	StatusQueued  = "queued"
	StatusRunning = "running"
	StatusDone    = "done"
	StatusFailed  = "failed"
)

// job is one accepted unit of work. Input fields are written once by the
// accepting handler; result fields are written by the worker before done is
// closed and read by anyone after it (or, for the job view, under mu).
type job struct {
	id     string
	kind   string
	ctx    context.Context
	cancel context.CancelFunc

	// Simulate inputs.
	spec            graph.Spec // normalized
	specKey         string     // spec.Canonical()
	protocol        string
	seed            uint64
	maxSteps        int
	includeInformed bool

	// Experiment inputs.
	expID  string
	expCfg experiment.Config

	done chan struct{} // closed by the worker when the job reaches done/failed

	mu       sync.Mutex
	status   string
	resp     *SimulateResponse
	cacheHit bool
	table    string
	errMsg   string
	err      error
}

func (j *job) setStatus(s string) {
	j.mu.Lock()
	j.status = s
	j.mu.Unlock()
}

// finish records the terminal state and releases everyone waiting on done.
// done closes before the context is cancelled: a waiter that sees the
// cancellation then always finds done closed too, and serves the result
// instead of answering 504 for a job that succeeded.
func (j *job) finish(err error) {
	j.mu.Lock()
	if err != nil {
		j.status = StatusFailed
		j.err = err
		j.errMsg = err.Error()
	} else {
		j.status = StatusDone
	}
	j.mu.Unlock()
	close(j.done)
	if j.cancel != nil {
		j.cancel()
	}
}

// JobView is the JSON projection served by GET /v1/jobs/{id}.
type JobView struct {
	ID         string            `json:"id"`
	Kind       string            `json:"kind"`
	Status     string            `json:"status"`
	Experiment string            `json:"experiment,omitempty"`
	Error      string            `json:"error,omitempty"`
	Result     *SimulateResponse `json:"result,omitempty"`
	Table      string            `json:"table,omitempty"`
}

// view snapshots the job for the API.
func (j *job) view() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	return JobView{
		ID:         j.id,
		Kind:       j.kind,
		Status:     j.status,
		Experiment: j.expID,
		Error:      j.errMsg,
		Result:     j.resp,
		Table:      j.table,
	}
}

// jobStore is the in-memory job registry. IDs are sequential ("j1", "j2",
// ...) — deterministic for a fixed request order, unique always.
type jobStore struct {
	mu   sync.Mutex
	seq  int64
	jobs map[string]*job
}

func newJobStore() *jobStore {
	return &jobStore{jobs: make(map[string]*job)}
}

func (s *jobStore) add(j *job) {
	s.mu.Lock()
	s.seq++
	j.id = "j" + strconv.FormatInt(s.seq, 10)
	j.status = StatusQueued
	s.jobs[j.id] = j
	s.mu.Unlock()
}

func (s *jobStore) get(id string) (*job, bool) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	return j, ok
}

// active counts jobs not yet done or failed; it must be zero after a
// graceful drain (nothing accepted was dropped).
func (s *jobStore) active() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, j := range s.jobs {
		j.mu.Lock()
		if j.status != StatusDone && j.status != StatusFailed {
			n++
		}
		j.mu.Unlock()
	}
	return n
}
