package genima

// The experiment runner: every experiment (the paper suite, Table 5,
// the scaling study, the fault, scale and serving sweeps) is a list of
// sequential references plus a list of runs, handed to runAll. Every
// run owns a private sim.Engine, memory.Space, and app.App instance, so
// runs are share-nothing and each one is exactly the simulation a
// serial loop would execute — virtual times, statistics, and rendered
// tables are byte-identical for any Workers value. Only the wall-clock
// order of Progress callbacks changes.

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"genima/internal/app"
)

// parallelFor runs task(0..n-1) on up to workers goroutines pulling from
// a shared index counter. All tasks run even if one fails; the error
// with the lowest index is returned, so the failure surfaced does not
// depend on scheduling.
func parallelFor(workers, n int, task func(i int) error) error {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := task(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				errs[i] = task(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// suiteWorkers resolves a SuiteOptions.Workers value: 0 means one
// worker per OS thread.
func suiteWorkers(workers int) int {
	if workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// job is one simulation. In runAll's refs it is a sequential
// reference; in its runs it is a protocol run (a hardware-DSM run when
// hw is set) validated against refs[ref]. app builds a fresh instance
// per use, since applications cache derived state on the receiver
// during Setup. label names the job in progress and error messages.
type job struct {
	label string
	cfg   Config
	app   func() App
	kind  Protocol
	hw    bool
	ref   int
}

// runAll executes the references, then the runs, on opt.Workers
// goroutines, validating every run against its reference. seq and res
// are indexed like refs and runs.
func runAll(opt SuiteOptions, refs, runs []job) (seq, res []*Result, err error) {
	seq, seqWS, err := runRefs(opt, refs)
	if err != nil {
		return nil, nil, err
	}
	if res, err = runValidated(opt, runs, seqWS); err != nil {
		return nil, nil, err
	}
	return seq, res, nil
}

// runRefs executes sequential references on opt.Workers goroutines and
// returns their results and workspaces, indexed like refs.
func runRefs(opt SuiteOptions, refs []job) ([]*Result, []*Workspace, error) {
	seq, ws := make([]*Result, len(refs)), make([]*Workspace, len(refs))
	err := runEach(opt, refs, func(i int, j job, a App) (err error) {
		seq[i], ws[i], err = app.RunSeq(j.cfg, a)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	return seq, ws, nil
}

// runValidated executes runs on opt.Workers goroutines and validates
// each against the reference workspace seqWS[j.ref]. res is indexed
// like runs.
func runValidated(opt SuiteOptions, runs []job, seqWS []*Workspace) ([]*Result, error) {
	res := make([]*Result, len(runs))
	err := runEach(opt, runs, func(i int, j job, a App) (err error) {
		var ws *Workspace
		if j.hw {
			res[i], ws, err = app.RunHW(j.cfg, a)
		} else {
			res[i], ws, err = app.RunSVM(j.cfg, j.kind, a)
		}
		if err != nil {
			return err
		}
		return app.Validate(a, ws, seqWS[j.ref])
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// runEach calls do with a fresh app instance for every job on
// opt.Workers goroutines, reporting each job's label to opt.Progress
// and naming it in its error.
func runEach(opt SuiteOptions, jobs []job, do func(i int, j job, a App) error) error {
	var mu sync.Mutex
	return parallelFor(suiteWorkers(opt.Workers), len(jobs), func(i int) error {
		j := jobs[i]
		if opt.Progress != nil {
			mu.Lock()
			opt.Progress(j.label)
			mu.Unlock()
		}
		if err := do(i, j, j.app()); err != nil {
			return fmt.Errorf("%s: %w", j.label, err)
		}
		return nil
	})
}
