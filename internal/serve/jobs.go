package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"graphite/internal/engine"
	"graphite/internal/obs"
)

// Job statuses.
const (
	JobPending  = "pending"  // submitted, waiting for an executor slot
	JobRunning  = "running"  // executing (or waiting on an identical run)
	JobDone     = "done"     // finished with a result
	JobCanceled = "canceled" // aborted: deadline, DELETE, or server shutdown
	JobFailed   = "failed"   // run error
)

// job is one async run. All mutable fields are guarded by the store's mutex;
// done closes when the job reaches a terminal status.
type job struct {
	id          string
	graphName   string
	algo        string
	fingerprint string
	status      string
	res         *RunResult
	errMsg      string
	cancel      context.CancelFunc
	done        chan struct{}
}

// jobStore tracks async jobs. Active jobs are bounded by admission control
// (every leader holds an executor ticket); finished jobs are retained for
// polling and evicted oldest-first past max.
type jobStore struct {
	mu        sync.Mutex
	seq       int64
	max       int
	jobs      map[string]*job
	order     []string // insertion order, for eviction
	active    *obs.Gauge
	submitted *obs.Counter
}

func newJobStore(max int, active *obs.Gauge, submitted *obs.Counter) *jobStore {
	return &jobStore{max: max, jobs: map[string]*job{}, active: active, submitted: submitted}
}

// add registers a new pending job and evicts the oldest finished jobs past
// the retention cap (unfinished jobs are never evicted; admission bounds
// them).
func (st *jobStore) add(p *prepared, cancel context.CancelFunc) *job {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.seq++
	j := &job{
		id:          fmt.Sprintf("j%d", st.seq),
		graphName:   p.graphName,
		algo:        p.algo,
		fingerprint: p.fp,
		status:      JobPending,
		cancel:      cancel,
		done:        make(chan struct{}),
	}
	st.jobs[j.id] = j
	st.order = append(st.order, j.id)
	st.submitted.Inc()
	st.active.Add(1)
	for len(st.jobs) > st.max {
		evicted := false
		for i, id := range st.order {
			if old := st.jobs[id]; old != nil && terminal(old.status) {
				delete(st.jobs, id)
				st.order = append(st.order[:i], st.order[i+1:]...)
				evicted = true
				break
			}
		}
		if !evicted {
			break
		}
	}
	return j
}

func terminal(status string) bool {
	return status == JobDone || status == JobCanceled || status == JobFailed
}

func (st *jobStore) get(id string) (*job, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if j := st.jobs[id]; j != nil {
		return j, nil
	}
	return nil, fmt.Errorf("%w: %q", ErrUnknownJob, id)
}

// setRunning moves a pending job to running.
func (st *jobStore) setRunning(j *job) {
	st.mu.Lock()
	if j.status == JobPending {
		j.status = JobRunning
	}
	st.mu.Unlock()
}

// finishJob records a job's outcome, classifying cancellation-shaped errors
// (engine aborts, context deadline/cancel) apart from genuine failures.
func (st *jobStore) finishJob(j *job, res *RunResult, err error) {
	st.mu.Lock()
	switch {
	case err == nil:
		j.status = JobDone
		j.res = res
	case errors.Is(err, engine.ErrCanceled),
		errors.Is(err, context.Canceled),
		errors.Is(err, context.DeadlineExceeded):
		j.status = JobCanceled
		j.errMsg = err.Error()
	default:
		j.status = JobFailed
		j.errMsg = err.Error()
	}
	st.mu.Unlock()
	st.active.Add(-1)
	close(j.done)
}

// view snapshots a job for the API.
func (st *jobStore) view(j *job) JobView {
	st.mu.Lock()
	defer st.mu.Unlock()
	return JobView{
		ID:          j.id,
		Status:      j.status,
		Graph:       j.graphName,
		Algorithm:   j.algo,
		Fingerprint: j.fingerprint,
		Error:       j.errMsg,
		Result:      j.res,
	}
}

// views snapshots every retained job, newest first.
func (st *jobStore) views() []JobView {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]JobView, 0, len(st.jobs))
	for i := len(st.order) - 1; i >= 0; i-- {
		if j := st.jobs[st.order[i]]; j != nil {
			out = append(out, JobView{
				ID:          j.id,
				Status:      j.status,
				Graph:       j.graphName,
				Algorithm:   j.algo,
				Fingerprint: j.fingerprint,
				Error:       j.errMsg,
			})
		}
	}
	return out
}

// Submit starts an asynchronous run and returns its job immediately.
// Admission control applies at submit time: a full queue rejects the job
// with ErrBusy before a goroutine is spawned. The run executes under the
// server's lifetime context with the request's deadline, not the submitting
// HTTP request's context — disconnecting after submit does not abort the job;
// DELETE /v1/jobs/{id} does.
func (s *Server) Submit(req *RunRequest) (JobView, error) {
	p, err := s.prepare(req)
	if err != nil {
		return JobView{}, err
	}
	adm, err := s.begin(p, req.NoCache)
	if err != nil {
		p.close()
		return JobView{}, err
	}
	timeout := s.cfg.RequestTimeout
	if req.TimeoutMS > 0 {
		timeout = msToDuration(req.TimeoutMS)
	}
	jobCtx, cancel := context.WithTimeout(s.root, timeout)
	j := s.jobs.add(p, cancel)
	switch {
	case adm.cached != nil:
		p.close()
		s.jobs.finishJob(j, resultCopy(adm.cached, true), nil)
		cancel()
	case adm.joined != nil:
		p.close() // joiners wait on the leader's run; ours is not needed
		go func() {
			defer cancel()
			s.jobs.setRunning(j)
			select {
			case <-adm.joined.done:
				if adm.joined.err != nil {
					s.jobs.finishJob(j, nil, adm.joined.err)
					return
				}
				s.jobs.finishJob(j, resultCopy(adm.joined.res, true), nil)
			case <-jobCtx.Done():
				s.jobs.finishJob(j, nil, jobCtx.Err())
			}
		}()
	default:
		go func() {
			defer cancel()
			defer p.close()
			s.jobs.setRunning(j)
			res, err := s.runBSP(jobCtx, p)
			res, err = s.finish(p, adm.lead, res, err)
			s.jobs.finishJob(j, res, err)
		}()
	}
	return s.jobs.view(j), nil
}

// Job returns the current state of an async job.
func (s *Server) Job(id string) (JobView, error) {
	j, err := s.jobs.get(id)
	if err != nil {
		return JobView{}, err
	}
	return s.jobs.view(j), nil
}

// CancelJob requests cancellation of an async job; a running job aborts at
// its next superstep barrier. Canceling a finished job is a no-op.
func (s *Server) CancelJob(id string) (JobView, error) {
	j, err := s.jobs.get(id)
	if err != nil {
		return JobView{}, err
	}
	j.cancel()
	return s.jobs.view(j), nil
}

// Jobs lists every retained job, newest first, without results.
func (s *Server) Jobs() []JobView {
	return s.jobs.views()
}
